"""Check `safety.closest_pairs` against per-sample pdist on trajectory traces.

Usage: python scripts/check_closest_pairs.py TRACE [TRACE ...]

Each TRACE is a trajectory trace written by `swarmdeform simulate --out`.
Its desired and actual position stacks are read back exactly, swept with
`closest_pairs`, and compared bit for bit, distance and first pair of every
sample, with pdist and a first argmin of each sample. Prints the CPUs this
process may use, one run of the k-d tree sweep each (pin the process, say
with `taskset -c 0`, to check the one-run sweep), and, per stack, how many
samples the sweep took through per-sample pdist (the rest it took from an
anchored block or the k-d tree). Exits 1 naming the first sample that
differs.
"""

from __future__ import annotations

import sys

import numpy as np
from scipy.spatial.distance import pdist

from swarmdeform import safety
from swarmdeform.io import read_trajectory


def oracle(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pdist and a first argmin per sample; non-finite coordinates read nan."""
    i, j = np.triu_indices(stack.shape[1], 1)
    dist, pairs = np.empty(stack.shape[0]), np.empty((stack.shape[0], 2), dtype=np.intp)
    for s, p in enumerate(stack):
        d = pdist(np.where(np.isfinite(p), p, np.nan))
        k = d.argmin()
        dist[s], pairs[s] = d[k], (i[k], j[k])
    return dist, pairs


def check(stack: np.ndarray) -> tuple[str | None, int]:
    """(None or the first differing sample, samples swept by per-sample pdist)."""
    calls = []

    def counting_pdist(p):
        calls.append(1)
        return pdist(p)

    safety.pdist = counting_pdist
    try:
        dist, pairs = safety.closest_pairs(stack)
    finally:
        safety.pdist = pdist
    ref_dist, ref_pairs = oracle(stack)
    bad = (dist.view(np.uint64) != ref_dist.view(np.uint64)) | (pairs != ref_pairs).any(axis=1)
    if not bad.any():
        return None, len(calls)
    s = int(np.argmax(bad))
    return (f"sample {s}: {dist[s]!r} {pairs[s].tolist()} != "
            f"{ref_dist[s]!r} {ref_pairs[s].tolist()}"), len(calls)


def main(paths: list[str]) -> int:
    failed = False
    print(f"usable CPUs: {safety._usable_cpus()}")
    for path in paths:
        _, _, desired, actual = read_trajectory(path)
        for kind, stack in (("desired", desired), ("actual", actual)):
            reason, calls = check(stack)
            print(f"{path} {kind}: {stack.shape[0]} samples, {calls} through pdist: "
                  f"{'ok' if reason is None else reason}")
            failed |= reason is not None
    return int(failed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
