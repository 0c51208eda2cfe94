"""Safety window and deformation-based collision certification.

The lower edge of the scale window keeps every within-cell pair at least
2*(delta + epsilon) apart under a pure contraction; the upper edge keeps the
farthest boundary leader inside the motion-space ball of radius a_max. A
configuration at time t is certified by the smallest singular value of each
cell's deformation Jacobian (separation shrinks by at most that factor), a
direct minimum-distance sweep of the commanded positions, and a check that
every boundary scale factor is positive and inside the window's upper edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.spatial import cKDTree
from scipy.spatial.distance import pdist

from .errors import NumericalError, SafetyWindowError
from .qp import Schedule
from .team import SafetyParameters, TeamConfiguration, TriangleCell

# how far below its bound a deformation margin or a distance may fall and pass
MARGIN_TOL = 1e-9


@dataclass(frozen=True)
class SafetyBounds:
    alpha_min: float
    alpha_max: float

    def as_tuple(self) -> tuple[float, float]:
        return (self.alpha_min, self.alpha_max)


def safety_window(separations: Iterable[float], safety: SafetyParameters) -> SafetyBounds:
    """Scale window from per-cell minimum separations and clearance margins.

    Every input must be finite: `min` and `max` skip a nan that is not first,
    and an infinite a_max would open the window's upper edge.
    """
    seps = [float(s) for s in separations]
    clearance = safety.clearance
    if not all(map(math.isfinite, seps + [clearance, safety.a_max, safety.a0])):
        raise SafetyWindowError("cell separations, clearance, a_max and a0 must be finite")
    if not seps or min(seps) <= 0.0:
        raise SafetyWindowError("cell separations must be positive")
    alpha_min = max(clearance / s for s in seps)
    alpha_max = (safety.a_max - clearance) / safety.a0
    if alpha_min > alpha_max:
        raise SafetyWindowError(
            f"safety window empty: alpha_min {alpha_min:.6g} > alpha_max {alpha_max:.6g}")
    return SafetyBounds(alpha_min, alpha_max)


def alpha_bounds(team: TeamConfiguration) -> SafetyBounds:
    return safety_window((cell.p_min for cell in team.cells), team.safety)


@dataclass(frozen=True, eq=False)
class CellBasis:
    """Affine pieces of one cell's deformation Jacobian.

    Q(t) = alpha_a(t) * k1 + alpha_b(t) * k2 + k3 where (alpha_a, alpha_b) are
    the scale factors of the cell's two boundary vertices. Q fixes the unit
    normal n and maps the cell plane to itself, so in the orthonormal frame
    (e1, e2, n), e1 = a1 / |a1| and e2 = n x e1, it is the 2x2 block
    alpha_a * b1 + alpha_b * b2 plus 1 on n.
    """

    k1: np.ndarray
    k2: np.ndarray
    k3: np.ndarray
    alpha_index: tuple[int, int]
    b1: np.ndarray   # (2, 2) k1 in the in-plane frame
    b2: np.ndarray   # (2, 2) k2 in the in-plane frame


def cell_basis(team: TeamConfiguration, cell: TriangleCell) -> CellBasis:
    core, va, vb = team.positions[np.array(cell.vertices) - 1]
    a1 = va - core
    a2 = vb - core
    normal = np.cross(a1, a2)
    norm = np.linalg.norm(normal)
    scale = np.linalg.norm(a1) * np.linalg.norm(a2)
    if norm <= 1e-12 * scale:
        raise NumericalError(f"cell {cell.cell_id} basis is degenerate")
    normal = normal / norm
    m = np.column_stack([a1, a2, normal])
    m_inv = np.linalg.inv(m)
    k1 = np.outer(a1, m_inv[0])
    k2 = np.outer(a2, m_inv[1])
    k3 = np.outer(normal, m_inv[2])
    e1 = a1 / np.linalg.norm(a1)
    frame = np.column_stack([e1, np.cross(normal, e1)])
    b1 = np.outer(a1 @ frame, m_inv[0] @ frame)
    b2 = np.outer(a2 @ frame, m_inv[1] @ frame)
    ia, ib = cell.vertices[1] - 1, cell.vertices[2] - 1
    return CellBasis(k1, k2, k3, (ia, ib), b1, b2)


def triangle_jacobian(team: TeamConfiguration, cell: TriangleCell,
                      alpha: np.ndarray) -> np.ndarray:
    """Deformation Jacobian Q (3, 3) of one cell for a full alpha vector."""
    alpha = np.asarray(alpha, dtype=float)
    basis = cell_basis(team, cell)
    ia, ib = basis.alpha_index
    return alpha[ia] * basis.k1 + alpha[ib] * basis.k2 + basis.k3


def pure_deformation_spectrum(q: np.ndarray) -> np.ndarray:
    """Singular values of Jacobian(s), descending; accepts (3,3) or (..,3,3)."""
    q = np.asarray(q, dtype=float)
    # first: a nan passes the singular test below, an inf can fail it, and
    # LAPACK's answer to either varies by build
    if not np.isfinite(q).all():
        raise NumericalError("deformation Jacobian is not finite")
    scale = np.abs(q).max(axis=(-2, -1))
    if np.any(np.abs(np.linalg.det(q)) <= 1e-12 * np.maximum(scale, 1e-300) ** 3):
        raise NumericalError("deformation Jacobian is singular")
    return np.linalg.svd(q, compute_uv=False)


# unused in the package, kept because the benchmark tracer (perfbench/) wraps
# safety.eigvals_sym3 by name
def eigvals_sym3(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric part of 3x3 matrices, descending, batched."""
    a = np.asarray(mats, dtype=float)
    return np.linalg.eigvalsh(0.5 * (a + np.swapaxes(a, -1, -2)))[..., ::-1]


def _cell_spectra(bases: list[CellBasis], alpha: np.ndarray) -> np.ndarray:
    """Singular values (n, n_cells, 3), descending, of every cell and sample.

    The normal is fixed by Q and by Q^T, so the values are 1 and the two of
    the in-plane block B = [[p, q], [r, s]]: h + g and |h - g| with
    h = hypot(p + s, q - r) / 2 and g = hypot(p - s, q + r) / 2. A non-finite
    scale reads as nan, so every value of its cell is nan.
    """
    ia, ib = np.array([basis.alpha_index for basis in bases]).T
    k1, k2, k3, b1, b2 = (np.stack([getattr(basis, name) for basis in bases])
                          for name in ("k1", "k2", "k3", "b1", "b2"))
    alpha = np.where(np.isfinite(alpha), alpha, np.nan)
    a = alpha[:, ia, None, None]
    b = alpha[:, ib, None, None]
    # the predicate of pure_deformation_spectrum, with det Q = det B
    scale = np.abs(a * k1 + b * k2 + k3).max(axis=(2, 3))
    block = a * b1 + b * b2
    p, q, r, s = block[..., 0, 0], block[..., 0, 1], block[..., 1, 0], block[..., 1, 1]
    if np.any(np.abs(p * s - q * r) <= 1e-12 * scale ** 3):
        raise NumericalError("deformation Jacobian is singular")
    h = 0.5 * np.hypot(p + s, q - r)
    g = 0.5 * np.hypot(p - s, q + r)
    big, small = h + g, np.abs(h - g)
    return np.stack([np.maximum(big, 1.0), np.maximum(small, np.minimum(big, 1.0)),
                     np.minimum(small, 1.0)], axis=-1)


# Teams of at least this many agents sweep each sample through a k-d tree;
# smaller ones through pdist, which is faster there. Per-sample sweep of a
# slowly moving jittered lattice (best of 7, two runs, 2-core Xeon VM): pdist
# 60-64 against 101-116 us at N = 128, 130-137 against 141-152 us at N = 224,
# 121-153 against 98-151 us at N = 256, 1.8-1.9 against 0.36-0.51 ms at N = 1024.
KDTREE_MIN_AGENTS = 256


def _pair_distances(p: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Distances of pairs (i, j), summed in pdist's order so the bits agree."""
    d = p[i] - p[j]
    return np.sqrt(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] + d[:, 2] * d[:, 2])


def _tree_closest(p: np.ndarray, bound: np.ndarray | None) -> tuple[float, np.ndarray]:
    """Closest distance and first closest pair of a finite sample.

    Every pair within a radius is a candidate. The radius is the exact
    distance of `bound`, a pair at least as far apart as the closest one, or
    else the k-d tree's nearest-neighbour distance. Between nearby samples the
    previous pair's distance is close to the minimum, so few pairs qualify,
    and it saves the nearest-neighbour query, which costs more than building
    the tree and collecting the pairs together.
    """
    tree = cKDTree(p)
    if bound is None:
        r = tree.query(p, k=2)[0][:, 1].min()
    else:
        r = _pair_distances(p, bound[:1], bound[1:])[0]
    # the slack covers the tree's own rounding of the radius pair
    i, j = tree.query_pairs(r * (1.0 + 1e-9), output_type="ndarray").T
    d = _pair_distances(p, i, j)
    first = np.lexsort((j, i, d))[0]
    return d[first], np.array([i[first], j[first]])


def closest_pairs(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-sample smallest pairwise distance and the first pair reaching it.

    `stack` is (n, N, 3). Returns the distances (n,) and 0-based pairs (n, 2),
    i < j and lexicographically first on ties: bit for bit what pdist and a
    first argmin give. A sample with a non-finite coordinate reads nan, with
    the first pair that touches such an agent, so it fails any threshold.
    """
    stack = np.asarray(stack, dtype=float)
    if stack.ndim != 3 or stack.shape[2] != 3 or stack.shape[1] < 2:
        raise ValueError(f"need at least two positions per sample in an (n, N, 3) "
                         f"stack, got shape {stack.shape}")
    n, m = stack.shape[:2]
    use_tree = m >= KDTREE_MIN_AGENTS
    finite = np.isfinite(stack).all(axis=(1, 2)).tolist()
    dist = np.empty(n)
    pairs = np.empty((n, 2), dtype=np.intp)
    condensed = np.full(n, -1)   # pdist index of the closest pair, pdist samples
    pair = None   # the previous sample's closest pair, when it bounds this one
    for s, p in enumerate(stack):
        if use_tree and finite[s]:
            dist[s], pair = _tree_closest(p, pair)
            pairs[s] = pair
            continue
        if not finite[s]:
            # as nan, not inf: a lone inf agent would leave the minimum finite
            p = np.where(np.isfinite(p), p, np.nan)
        d = pdist(p)
        k = d.argmin()
        dist[s] = d[k]
        condensed[s] = k
        pair = None
    rows = np.arange(m - 1)
    starts = rows * (2 * m - rows - 1) // 2   # condensed index of pair (i, i + 1)
    by_pdist = condensed >= 0
    k = condensed[by_pdist]
    i = np.searchsorted(starts, k, side="right") - 1
    pairs[by_pdist] = np.stack([i, k - starts[i] + i + 1], axis=1)
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
    window_index: int              # first sample with a boundary scale outside
                                   # (0, ceiling] or non-finite; -1 if none
    window_alpha: float            # that scale; nan if none

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
        if not self.window_ok:
            text += (f", boundary scale {self.window_alpha:.6g} outside the window "
                     f"(alpha_max {self.alpha_ceiling:.6g}, sample {self.window_index})")
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
    lambdas = _cell_spectra([cell_basis(team, cell) for cell in cells], schedule.alpha)

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
    # distances as scales a, but the path there folds it through Q = 0.
    ceiling = alpha_bounds(team).alpha_max
    boundary = schedule.alpha[:, :team.n_pl - 1]
    outside = ~(np.isfinite(boundary) & (boundary > 0) & (boundary <= ceiling))
    window_index, window_alpha = -1, math.nan
    if outside.any():
        window_index, col = divmod(int(np.argmax(outside)), boundary.shape[1])
        window_alpha = float(boundary[window_index, col])

    ids = team.partition.all_ids()
    pair_ids = (ids[min_pair[0]], ids[min_pair[1]])
    return CertificationReport(
        schedule.t.copy(), lambdas, cell_bounds, margins, margins_ok,
        distance_trace, threshold, distance_ok, positions_kind, MARGIN_TOL,
        float(margins.min()), cells[worst_cell].cell_id, worst_idx,
        float(min_distance), pair_ids, min_index, ceiling, window_index, window_alpha)
