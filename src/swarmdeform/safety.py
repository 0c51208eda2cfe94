"""Safety window and deformation-based collision certification.

The lower edge of the scale window keeps every within-cell pair at least
2*(delta + epsilon) apart under a pure contraction; the upper edge keeps the
farthest boundary leader inside the motion-space ball of radius a_max. A
configuration at time t is certified by the smallest singular value of each
cell's deformation Jacobian (separation shrinks by at most that factor), a
direct minimum-distance sweep of the commanded positions, and a check that
every boundary scale is in (0, upper edge] and the core scale and shift in range.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import NumericalError, SafetyWindowError
from .qp import Schedule
from .team import SafetyParameters, TeamConfiguration, check_range, in_range

# how far below its bound a deformation margin or a distance may fall and pass
MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class SafetyBounds:
    alpha_min: float
    alpha_max: float


def safety_window(separations: Iterable[float], safety: SafetyParameters) -> SafetyBounds:
    """Scale window from per-cell minimum separations and clearance margins.

    Every input must be positive and finite: `min` and `max` skip a nan that
    is not first, and an infinite a_max would open the window's upper edge.
    """
    seps = [float(s) for s in separations]
    clearance = safety.clearance
    if not seps:
        raise SafetyWindowError("no cell separations")
    check_range("cell separations", seps, 0.0, math.inf, "()", SafetyWindowError)
    check_range("clearance, a_max and a0", [clearance, safety.a_max, safety.a0],
                0.0, math.inf, "()", SafetyWindowError)
    alpha_min = max(clearance / s for s in seps)
    alpha_max = (safety.a_max - clearance) / safety.a0
    if alpha_min > alpha_max:
        raise SafetyWindowError(
            f"safety window empty: alpha_min {alpha_min:.6g} > alpha_max {alpha_max:.6g}")
    return SafetyBounds(alpha_min, alpha_max)


def alpha_bounds(team: TeamConfiguration) -> SafetyBounds:
    return safety_window((cell.p_min for cell in team.cells), team.safety)


def cell_blocks(team: TeamConfiguration) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """In-plane blocks of every cell's deformation Jacobian.

    Returns the 0-based indices (n_cells, 2) of each cell's boundary vertices
    a and b, and the blocks b1, b2 (n_cells, 2, 2). With a1 = v_a - core,
    a2 = v_b - core and the unit normal n, the Jacobian Q maps a1, a2 and n
    to alpha_a * a1, alpha_b * a2 and n; in the orthonormal frame (e1, e2, n),
    e1 = a1 / |a1| and e2 = n x e1, it is the 2x2 block
    B = alpha_a * b1 + alpha_b * b2 plus 1 on n.
    """
    index, b1, b2 = [], [], []
    for cell in team.cells:
        core, va, vb = team.positions[np.array(cell.vertices) - 1]
        a1, a2 = va - core, vb - core
        normal = np.cross(a1, a2)
        norm = np.linalg.norm(normal)
        scale = np.linalg.norm(a1) * np.linalg.norm(a2)
        if norm <= 1e-12 * scale:
            raise NumericalError(f"cell {cell.cell_id} basis is degenerate")
        normal = normal / norm
        m_inv = np.linalg.inv(np.column_stack([a1, a2, normal]))
        e1 = a1 / np.linalg.norm(a1)
        frame = np.column_stack([e1, np.cross(normal, e1)])
        index.append((cell.vertices[1] - 1, cell.vertices[2] - 1))
        b1.append(np.outer(a1 @ frame, m_inv[0] @ frame))
        b2.append(np.outer(a2 @ frame, m_inv[1] @ frame))
    return np.array(index), np.array(b1), np.array(b2)


def _singular(sv: np.ndarray) -> np.ndarray:
    """Where descending singular values `sv` (..., 3) are a singular Jacobian's:
    sigma_1 sigma_2 sigma_3 <= 1e-12 sigma_1**3, tested on the ratios to sigma_1
    so it cannot overflow (sigma_1 = 0, the zero matrix, divides by 1). A nan is not."""
    ratio = sv[..., 1:] / np.where(sv[..., :1] == 0.0, 1.0, sv[..., :1])
    return ratio[..., 0] * ratio[..., 1] <= 1e-12


def pure_deformation_spectrum(q: np.ndarray) -> np.ndarray:
    """Singular values of Jacobian(s), descending; accepts (3,3) or (..,3,3)."""
    q = np.asarray(q, dtype=float)
    # first: LAPACK's answer to a nan or an inf varies by build
    if not np.isfinite(q).all():
        raise NumericalError("deformation Jacobian is not finite")
    sv = np.linalg.svd(q, compute_uv=False)
    if np.any(_singular(sv)):
        raise NumericalError("deformation Jacobian is singular")
    return sv


# unused in the package, kept because the benchmark tracer (perfbench/) wraps
# safety.eigvals_sym3 by name
def eigvals_sym3(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric part of 3x3 matrices, descending, batched."""
    a = np.asarray(mats, dtype=float)
    return np.linalg.eigvalsh(0.5 * (a + np.swapaxes(a, -1, -2)))[..., ::-1]


def _cell_spectra(team: TeamConfiguration, alpha: np.ndarray) -> np.ndarray:
    """Singular values (n, n_cells, 3), descending, of every cell and sample.

    The normal is fixed by Q and by Q^T, so the values are 1 and the two of
    the in-plane block B = [[p, q], [r, s]]: h + g and |h - g| with
    h = hypot(p + s, q - r) / 2 and g = hypot(p - s, q + r) / 2. A scale
    outside `team.in_range`, inf included, reads as nan, so every value of its cell is
    nan; the rest stay finite, as block entries are at most 1 / sin(core angle) < 1e6.
    A singular cell (`_singular`), which `pure_deformation_spectrum` refuses, reads
    nan too, so the margin gate fails and the window gate names a scale outside.
    """
    index, b1, b2 = cell_blocks(team)
    alpha = np.where(in_range(alpha), alpha, np.nan)
    block = alpha[:, index[:, 0], None, None] * b1 + alpha[:, index[:, 1], None, None] * b2
    p, q, r, s = block[..., 0, 0], block[..., 0, 1], block[..., 1, 0], block[..., 1, 1]
    h = 0.5 * np.hypot(p + s, q - r)
    g = 0.5 * np.hypot(p - s, q + r)
    big, small = h + g, np.abs(h - g)
    sv = np.stack([np.maximum(big, 1.0), np.maximum(small, np.minimum(big, 1.0)),
                   np.minimum(small, 1.0)], axis=-1)
    return np.where(_singular(sv)[..., None], np.nan, sv)


# Distance sweep. `closest_pairs` routes each sample once, by its largest
# coordinate magnitude, to one of three paths, and every path gives what pdist
# and a first argmin give, bit for bit: candidate distances are recomputed
# with pdist's arithmetic (`_pair_distances`) and taken in pdist's condensed
# order, and a pair is left out only when its computed distance provably
# exceeds a candidate's, so every pair that reaches the minimum is a
# candidate. A sample with a coordinate beyond _MAX_COORD, nan and inf
# included, takes no path: it reads nan with the pair (0, b) of the first such
# agent b, or (0, 1) when b is 0 (for a non-finite sample, pdist's first nan).
# No stack the program builds gets there: commanded positions stay below 2**401.
#
# 1. Per-sample pdist: teams of fewer than _SHARE pairs, and the anchors and
#    backoff runs of path 2.
# 2. Anchored sweep, teams below KDTREE_MIN_AGENTS. An anchor sample a gets a
#    full pdist. A sample s after it checks only the pairs whose anchor
#    distance D0 is at most U + 2R + slack. U is the distance at s of the
#    anchor's closest pair, so the minimum at s is at most U. R is half the
#    diagonal of the bounding box of the agents' displacements from a, so no
#    displacement is farther than R from the box centre c, a common
#    translation; with u_k = w_k - c, |D_s - D0| <= |u_i - u_j| <= 2R for every
#    pair, and a pair left out is farther apart than U at s. The samples
#    after an anchor go in blocks of _LOOKAHEAD[0], doubling up to
#    _LOOKAHEAD[1], until a block's bound admits more than 1/_SHARE of the
#    pairs; that block's first sample is the next anchor. An anchor whose
#    first block does not fit starts a run of per-sample pdist, 1, 2, 4, ...
#    up to _BACKOFF_MAX samples long, so a deforming mission stays on path 1
#    but for a rare anchor.
#    The slack is absolute in the coordinate magnitude M, not only relative
#    to the distances. A computed distance is within 4 unit roundoffs
#    (u = 2**-53) of the distance between the stored doubles, but the
#    displacements are differences of coordinates, each rounded to within
#    u*|w| <= 2u*M, which is large against R after a large common
#    translation. The bound needs 8u*(U + 2R) + 8u*R + 7u*M; _SLACK times
#    (U + 2R + M), 32u, covers twice that, and _TINY covers squares that
#    underflow (an absolute error below 2**-536 in a distance). Below
#    _MAX_COORD no square overflows.
# 3. k-d tree, teams of KDTREE_MIN_AGENTS and up (`_tree_closest`). Its warm
#    radius, the distance at s of the previous sample's closest pair, is used
#    when that sample took path 3 too and while it is at most _WARM_RATIO
#    times D_min(s - 1) - 2R, a lower bound on the minimum at s (R between
#    samples s - 1 and s); after a jump it could take in up to all N(N-1)/2
#    pairs, and the nearest-neighbour radius is taken instead.
#    The in-range samples split into contiguous runs, each swept on its own
#    thread, as cKDTree's build and queries release the GIL: one run per CPU
#    this process may use, but no more runs than leave each one _MIN_RUN
#    samples, and a single run for teams below _SPLIT_MIN_AGENTS. The warm
#    radius carries within a run; a run's first sample takes the
#    nearest-neighbour radius. Trees are built unbalanced and without
#    compacted nodes, which is cheaper here. Every candidate is re-measured,
#    so neither the split nor the tree's shape can change a bit.
#
# Measured on a 2-core Xeon VM (helix67 at dt 0.4, 2501 samples, N = 67):
# - KDTREE_MIN_AGENTS: per-sample sweep of a slowly moving jittered lattice
#   (best of 7, two runs): pdist 60-64 against 101-116 us at N = 128, 130-137
#   against 141-152 us at N = 224, 121-153 against 98-151 us at N = 256,
#   1.8-1.9 against 0.36-0.51 ms at N = 1024.
# - _SHARE: a rigid helix67 translation ties 24 pairs (1.1 %) at the minimum,
#   which 1/128 (17 pairs) no longer admits; paper-exact bounds admit a median
#   2.5 % of the pairs one sample after an anchor and 8.7 % four samples
#   after, so at 1/32 it keeps 2493 of 2501 samples on pdist. 69 candidates
#   cost about 2 us a sample against 24 us for pdist and its argmin.
# - _LOOKAHEAD: an anchor whose first block fails costs about 94 us, 2.5
#   pdists. With first blocks of 4, paper-exact at dt 0.1 (10001 samples) took
#   5612 samples from short anchored runs and swept up to 27 % slower than
#   per-sample pdist; with 8 it keeps 9873 on pdist. Blocks of 256 spread the
#   per-block calls to under 1 us a sample.
# - _BACKOFF_MAX: at 128 paper-exact spends 7 % of its sweep on 27 failed
#   anchors, at 1024 3 % on 13.
# - _WARM_RATIO: on hex2k (N = 2269, closed loop) the warm radius reaches 8.7
#   times the lower bound; at 16 every sample after the first stays warm.
# Path 3's runs, measured on the same VM as medians of 30 to 80 interleaved
# rounds; a ratio is the time on two runs over the time on one:
# - The hex2k seed-4 commanded stack (N = 2269, 51 samples): 53.0 ms with
#   balanced, compact trees on one run, 40.0 ms with unbalanced, uncompacted
#   trees, 39.3 ms on two runs, 31.3 ms with both.
# - _MIN_RUN: on the first n samples of that stack, 0.81 at 4 samples a run
#   and 0.76 at 8; on a drifting lattice of N = 1024, 1.07 at 4, 0.91 at 8.
# - _SPLIT_MIN_AGENTS: on drifting lattices, 1.16 to 1.23 at N = 256 for 16
#   to 32 samples a run, and 0.90 to 1.06 at N = 384; at N = 512, 0.97 and
#   1.01 at 8 and 12 samples a run, 0.80 from 24. The GIL-held entry and exit
#   of each scipy call outweigh the tree work at small N: two threads building
#   256-point trees take 4.2 ms where one thread takes 2.5 ms.
# Negative results, measured on prototypes:
# - Threads on paths 1 and 2 are slower. On helix67 paper-exact (dt 0.4, the
#   commanded and actual stacks) two threads took 211 ms against 110 ms
#   serial: each pdist call spends about 10 us in scipy's Python dispatch,
#   and the threads fight over the GIL.
# - Path 2's bound does not pay on path 3's teams. On hex2k at dt 0.4, R is
#   about 0.1 a sample against a 0.555 spacing, so one sample after an anchor
#   already admits 6642 pairs; one tree per block of 1, 2, 4 or 8 samples, on
#   the pairs within U + 2R, took 54, 67, 64 and 100 ms against 57 ms for
#   one tree per sample.
KDTREE_MIN_AGENTS = 256
_SHARE = 32
_LOOKAHEAD = (8, 256)
_BACKOFF_MAX = 1024
_SLACK = 2.0 ** -48
_TINY = 2.0 ** -500
_MAX_COORD = 2.0 ** 500
_WARM_RATIO = 16.0
_MIN_RUN = 8
_SPLIT_MIN_AGENTS = 1024


def _pair_distances(p: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances of pairs (i, j) in each sample of p (..., N, 3), summed in
    pdist's order so the bits agree."""
    d = p[..., i, :] - p[..., j, :]
    return np.sqrt(d[..., 0] * d[..., 0] + d[..., 1] * d[..., 1] + d[..., 2] * d[..., 2])


def _reach(w: np.ndarray) -> np.ndarray:
    """Half the diagonal of the bounding box of each sample's displacements w
    (..., N, 3): no agent's displacement is farther than that from the box centre."""
    u = np.moveaxis(w, -1, 0).copy()   # reduce over contiguous agents
    half = 0.5 * (u.max(axis=-1) - u.min(axis=-1))
    return np.sqrt(half[0] * half[0] + half[1] * half[1] + half[2] * half[2])


def _follow(stack: np.ndarray, top: np.ndarray, a: int, end: int, d0: np.ndarray, k0: int,
            i: np.ndarray, j: np.ndarray, limit: int, dist: np.ndarray, pairs: np.ndarray) -> int:
    """Sweep the samples after anchor a, up to `end`, on the pairs its bound admits.

    `top` is each sample's largest coordinate magnitude, `d0` the anchor's
    pdist and `k0` its first argmin. Stops before the first block whose bound
    admits more than `limit` pairs, and returns the number of samples swept.
    """
    closest = (i[k0:k0 + 1], j[k0:k0 + 1])
    s, size = a + 1, _LOOKAHEAD[0]
    while s < end:
        block = stack[s:min(s + size, end)]
        q = block.shape[0]
        bound = _pair_distances(block, *closest)[:, 0] + 2.0 * _reach(block - stack[a])
        bound += _SLACK * (bound + np.maximum(top[s:s + q], top[a])) + _TINY
        pick = np.flatnonzero(d0 <= bound.max())
        if pick.size > limit:
            break
        d = _pair_distances(block, i[pick], j[pick])
        first = d.argmin(axis=1)
        dist[s:s + q] = d[np.arange(q), first]
        k = pick[first]
        pairs[s:s + q] = np.stack([i[k], j[k]], axis=1)
        s += q
        size = min(2 * size, _LOOKAHEAD[1])
    return s - a - 1


def _anchored_closest(stack: np.ndarray, top: np.ndarray, in_range: np.ndarray,
                      dist: np.ndarray, pairs: np.ndarray) -> None:
    """Fill the closest distance and pair of every sample `in_range`: paths 1 and 2."""
    n, m = stack.shape[:2]
    i, j = np.triu_indices(m, 1)
    limit = i.size // _SHARE
    ends = iter(np.append(np.flatnonzero(~in_range), n).tolist())   # the samples ending a run
    end = next(ends)
    s = wait = retry = 0   # samples before `retry` are a backoff run's
    while s < n:
        if s == end:   # routed elsewhere: the caller fills it
            s, wait, end = s + 1, 0, next(ends)
            continue
        d = pdist(stack[s])
        k = d.argmin()
        dist[s], pairs[s, 0], pairs[s, 1] = d[k], i[k], j[k]
        a, s = s, s + 1
        if a < retry:
            continue
        swept = _follow(stack, top, a, end, d, k, i, j, limit, dist,
                        pairs) if limit and end > s else 0
        s += swept
        if swept or end <= s:
            wait = 0
        else:
            wait = min(2 * wait, _BACKOFF_MAX) or 1
            retry = min(s + wait, end)


def _tree_closest(p: np.ndarray, radius: float | None) -> tuple[float, np.ndarray]:
    """Closest distance and first closest pair of a finite sample: path 3.

    Every pair within `radius`, a pair's distance at this sample and so at
    least the minimum, or else the nearest-neighbour distance, is a candidate.
    Between nearby samples the previous pair's distance is close to the
    minimum, so few pairs qualify, and it saves the nearest-neighbour query,
    which costs more than building the tree and collecting the pairs together.
    """
    tree = cKDTree(p, balanced_tree=False, compact_nodes=False)
    if radius is None:
        radius = tree.query(p, k=2)[0][:, 1].min()
    # the slack covers the tree's own rounding of the radius pair
    i, j = tree.query_pairs(radius * (1.0 + 1e-9), output_type="ndarray").T
    d = _pair_distances(p, i, j)
    first = np.lexsort((j, i, d))[0]
    return d[first], np.array([i[first], j[first]])


def _usable_cpus() -> int:
    """The number of CPUs this process may run on; 1 where the platform cannot say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _tree_sweep(stack: np.ndarray, in_range: np.ndarray, run: np.ndarray,
                dist: np.ndarray, pairs: np.ndarray) -> None:
    """Fill the closest distance and pair of every sample of `run`, ascending
    in-range samples, on path 3; the warm radius carries within the run."""
    for s in run:
        p = stack[s]
        radius = None
        if s > run[0] and in_range[s - 1]:   # the previous sample is this run's too
            warm = _pair_distances(p, pairs[s - 1, :1], pairs[s - 1, 1:])[0]
            if warm <= _WARM_RATIO * (dist[s - 1] - 2.0 * _reach(p - stack[s - 1])):
                radius = warm
        dist[s], pairs[s] = _tree_closest(p, radius)


def closest_pairs(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample smallest pairwise distance and the first pair reaching it.

    `stack` is (n, N, 3). Returns the distances (n,) and 0-based pairs (n, 2),
    i < j and lexicographically first on ties: bit for bit what pdist and a
    first argmin give. A sample with a coordinate beyond _MAX_COORD, nan or
    inf included, reads nan, so it fails any threshold, with the pair (0, b)
    of the first agent b that has one, or (0, 1) when b is 0.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[2] != 3 or stack.shape[1] < 2:
        raise ValueError(f"need at least two positions per sample in an (n, N, 3) "
                         f"stack, got shape {stack.shape}")
    n, m = stack.shape[:2]
    top = np.maximum(stack.max(axis=(1, 2)), -stack.min(axis=(1, 2)))   # nan or inf if not finite
    in_range = top <= _MAX_COORD
    dist = np.full(n, np.nan)
    pairs = np.zeros((n, 2), dtype=np.intp)
    out = np.flatnonzero(~in_range)
    pairs[out, 1] = np.maximum((np.abs(stack[out]) <= _MAX_COORD).all(axis=2).argmin(axis=1), 1)
    if m < KDTREE_MIN_AGENTS:
        _anchored_closest(stack, top, in_range, dist, pairs)
        return dist, pairs
    samples = np.flatnonzero(in_range)
    workers = min(_usable_cpus(), samples.size // _MIN_RUN) if m >= _SPLIT_MIN_AGENTS else 1
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(lambda run: _tree_sweep(stack, in_range, run, dist, pairs),
                          np.array_split(samples, workers)))
    else:
        _tree_sweep(stack, in_range, samples, dist, pairs)
    return dist, pairs


def min_pairwise_distance(positions: np.ndarray) -> tuple[float, tuple[int, int]]:
    """Smallest pairwise distance and the first achieving index pair."""
    dist, pairs = closest_pairs(np.asarray(positions, dtype=float)[None])
    return float(dist[0]), (int(pairs[0, 0]), int(pairs[0, 1]))


@dataclass(eq=False)
class CertificationReport:
    t: np.ndarray
    lambdas: np.ndarray            # (n, n_cells, 3) descending per cell
    cell_bounds: np.ndarray        # (n_cells,) required smallest singular value
    margins: np.ndarray            # (n, n_cells) lambda_3 - bound
    margins_ok: bool
    distance_trace: np.ndarray     # (n,) min pairwise distance of the team
    distance_threshold: float
    distance_ok: bool
    positions_kind: str
    margin_tol: float
    worst_margin: float
    worst_margin_cell: int
    worst_margin_index: int
    min_distance: float
    min_distance_pair: tuple[int, int]   # 1-based agent ids
    min_distance_index: int
    alpha_ceiling: float           # upper edge of the safety window (motion-space ball)
    window_index: int              # first sample with a boundary scale outside (0, ceiling],
                                   # or a scale or shift outside team.in_range; -1 if none
    window_alpha: float            # that value; nan if none
    window_entry: str              # "boundary scale", "core scale" or "shift s_x" ...; "" if none

    @property
    def window_ok(self) -> bool:
        return self.window_index < 0

    @property
    def verdict(self) -> bool:
        return self.margins_ok and self.distance_ok and self.window_ok

    def summary(self) -> str:
        state = "SAFE" if self.verdict else "UNSAFE"
        text = (f"{state}: worst margin {self.worst_margin:.3e} "
                f"(cell {self.worst_margin_cell}, sample {self.worst_margin_index}), "
                f"min {self.positions_kind} distance {self.min_distance:.6f} "
                f"(threshold {self.distance_threshold:.6f}, agents "
                f"{self.min_distance_pair[0]}-{self.min_distance_pair[1]})")
        if self.window_entry == "boundary scale":
            text += (f", boundary scale {self.window_alpha:.6g} outside the window "
                     f"(alpha_max {self.alpha_ceiling:.6g}, sample {self.window_index})")
        elif self.window_entry:
            text += (f", {self.window_entry} {self.window_alpha:.6g} out of range "
                     f"(sample {self.window_index})")
        return text


def certify_configuration(team: TeamConfiguration, schedule: Schedule,
                          positions: np.ndarray,
                          positions_kind: str = "desired") -> CertificationReport:
    """Certify a planned schedule against deformation and distance limits.

    `positions` is the (n_samples, n_agents, 3) stack the schedule produces
    (commanded positions) or the simulated actual positions; the distance
    threshold is 2*(delta+eps) for commanded and 2*eps for actual motion.
    """
    if positions_kind not in ("desired", "actual"):
        raise ValueError("positions_kind must be 'desired' or 'actual'")
    positions = np.asarray(positions, dtype=float)
    n = schedule.n_samples
    if positions.shape != (n, team.n_agents, 3):
        raise ValueError(f"positions shape {positions.shape} does not match "
                         f"{(n, team.n_agents, 3)}")

    cells = team.cells
    n_cells = len(cells)
    lambdas = _cell_spectra(team, schedule.alpha)

    clearance = team.safety.clearance
    cell_bounds = np.array([clearance / cell.p_min for cell in cells])
    margins = lambdas[:, :, 2] - cell_bounds[None, :]
    margins_ok = bool(margins.min() >= -MARGIN_TOL)
    flat = int(np.argmin(margins))
    worst_idx, worst_cell = divmod(flat, n_cells)

    distance_trace, pairs = closest_pairs(positions)
    # argmin returns the first nan, so a non-finite sample fails the gate
    min_index = int(np.argmin(distance_trace))
    min_distance, min_pair = distance_trace[min_index], pairs[min_index]
    threshold = clearance if positions_kind == "desired" else 2.0 * team.safety.epsilon
    distance_ok = bool(min_distance >= threshold - MARGIN_TOL)

    # larger scales only raise lambda_3 and the distances, so the upper edge
    # of the window is checked on the schedule itself. A scale must also be
    # positive: scales -a point-reflect a cell, with the same lambda_3 and
    # distances as scales a, but the path there folds it through Q = 0. The
    # core scale and the shift enter no other gate, so they must be in the
    # range trajectory_positions reads.
    ceiling = alpha_bounds(team).alpha_max
    nb = team.n_pl - 1
    values = np.hstack([schedule.alpha, schedule.shift])
    outside = ~in_range(values)
    outside[:, :nb] = ~in_range(values[:, :nb], 0.0, ceiling, "(]")
    window_index, window_alpha, window_entry = -1, math.nan, ""
    if outside.any():
        window_index, col = divmod(int(np.argmax(outside)), values.shape[1])
        window_alpha = float(values[window_index, col])
        window_entry = ("boundary scale" if col < nb else "core scale" if col == nb
                        else f"shift s_{'xyz'[col - nb - 1]}")

    ids = team.partition.all_ids()
    pair_ids = (ids[min_pair[0]], ids[min_pair[1]])
    return CertificationReport(
        schedule.t.copy(), lambdas, cell_bounds, margins, margins_ok,
        distance_trace, threshold, distance_ok, positions_kind, MARGIN_TOL,
        float(margins.min()), cells[worst_cell].cell_id, worst_idx,
        float(min_distance), pair_ids, min_index, ceiling, window_index, window_alpha,
        window_entry)
