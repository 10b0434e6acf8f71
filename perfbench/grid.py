"""The (n, l) cells of each workload.

Kept apart from workloads.py, which imports braidtrace, so that a set-up
probe can read the strand counts it must warm without importing more of the
program than the workload calls.
"""

# isotopy stops at B3 l=10 and B4-B6 l=5: pair cost spreads over three
# orders of magnitude within a cell, and larger cells leave so few pairs in a
# run that its percentiles change with the seed
CELLS = {
    "build": [(n, l) for n in (3, 4, 5, 6) for l in range(4, 25)],
    "isotopy": (
        [(3, l) for l in range(6, 11)]
        + [(n, l) for n in (4, 5, 6) for l in range(4, 6)]
    ),
    "conj3": [(3, l) for l in range(4, 25)],
}
WORKLOADS = tuple(CELLS)

# operation time of one round of each workload at the commit that added the
# benchmark (2 vCPUs, Python 3.11.7).  A run of S seconds does
# round(S / ROUND_S) whole rounds: a fixed amount of work, so that the same
# seed always runs the same operations and fails the same ones.
ROUND_S = {"build": 1.9, "isotopy": 0.66, "conj3": 3.4}


def strand_counts(workload: str) -> list[int]:
    return sorted({n for n, _ in CELLS[workload]})
