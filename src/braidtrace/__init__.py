"""braidtrace: trace graphs of closed braids in the solid torus.

Construction of the canonical embedded trace graph, its combinatorial
invariants (trace circles, levels, right attractors, trace codes, cyclic
invariants of 3-braids), and equivalence decisions up to isotopy and
trihedral moves, all cross-checkable against brute-force oracles.
"""

from .words import (
    BraidWord,
    CycleStructure,
    WordSyntaxError,
    concatenate,
    cycle_structure,
    exponent_sum,
    free_reduce,
    garside_delta,
    invert,
    is_pure,
    linking_number,
    linking_numbers,
    parse_word,
    permutation,
    power,
    pure_power_exponent,
    subbraid,
)

__version__ = "0.1.0"
