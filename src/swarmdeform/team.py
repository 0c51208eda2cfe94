"""Team structure: layered agent partition, material positions, triangular cells.

Material positions are expressed relative to the core agent, which sits at the
origin of the material frame. The first layer holds the boundary leaders plus
the core (core id == n_pl by convention); deeper layers add interior agents.
The region spanned by the boundary leaders is fan-triangulated around the core
into n_pl - 1 cells. One projected containment solve gives every agent the
cells enclosing its material position and one home cell: the one it lies
deepest in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import ScenarioError

# containment slack for the projected barycentric test (dimensionless weights)
CONTAINMENT_TOL = 1e-9
# magnitude bounds that keep the geometry finite: every number the program reads is at most
# MAX_COORDINATE, so the containment solve's fourth powers of material coordinates and a
# commanded position |alpha*a| + |s| < 2**401 stay finite; the boundary leaders' largest
# coordinate is at least MIN_COORDINATE, so those fourth powers stay normal numbers
MAX_COORDINATE = 2.0 ** 200
MIN_COORDINATE = 2.0 ** -200


def in_range(x, lo: float = -MAX_COORDINATE, hi: float = MAX_COORDINATE,
             ends: str = "[]"):
    """Mask of the entries of x inside the interval from lo to hi, each end
    closed ("[", "]") or open ("(", ")"); nan is never inside. A Python
    number is compared as it is, so an int of any size compares exactly."""
    if not isinstance(x, (int, float)):
        x = np.asarray(x, dtype=float)
    return (x > lo if ends[0] == "(" else x >= lo) & (x < hi if ends[1] == ")" else x <= hi)


def check_range(name: str, value, lo: float = -MAX_COORDINATE, hi: float = MAX_COORDINATE,
                ends: str = "[]", error: type = ScenarioError) -> None:
    """Refuse a number or an array unless every entry is `in_range(lo, hi, ends)`,
    with the one message shape of the input range: "<name> must be in [lo, hi],
    got <the first entry outside>"."""
    scalar = isinstance(value, (int, float))
    inside = in_range(value, lo, hi, ends)
    if inside if scalar else inside.all():
        return
    bad = value if scalar else np.asarray(value, dtype=float).flat[inside.argmin()]
    lo, hi = (f"{end:.6g}" if isinstance(end, float) else end for end in (lo, hi))
    raise error(f"{name} must be in {ends[0]}{lo}, {hi}{ends[1]}, got {bad}")


@dataclass(frozen=True)
class SafetyParameters:
    """Margins driving the admissible scale-factor window.

    delta: guaranteed tracking-error bound per agent (m)
    epsilon: agent body radius (m)
    a_max: radius of the ball the deformed team must stay inside (m)
    a0: boundary-leader reference magnitude (max boundary norm, m)
    """

    delta: float
    epsilon: float
    a_max: float
    a0: float

    @property
    def clearance(self) -> float:
        """Required center-to-center separation 2*(delta + epsilon)."""
        return 2.0 * (self.delta + self.epsilon)


@dataclass(frozen=True, eq=False)
class LayerPartition:
    """Disjoint new-agent id sets per layer; layer k exposes the nested union W_k."""

    new_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        """Refuse all but a partition of 1..N whose first layer is 1..n_pl, n_pl >= 4."""
        if not self.new_sets or not all(self.new_sets):
            raise ScenarioError("invalid partition: it needs a layer, and no layer may be empty")
        ids = sorted(agent for layer in self.new_sets for agent in layer)
        repeated = sorted({a for a, b in zip(ids, ids[1:]) if a == b})
        if repeated:
            raise ScenarioError(f"invalid partition: duplicate agent ids {repeated}")
        missing = sorted(set(range(1, len(ids) + 1)).difference(ids))
        if missing:
            raise ScenarioError(f"invalid partition: agent ids must be 1..{len(ids)}, "
                                f"missing {missing}")
        n_pl = len(self.new_sets[0])
        if n_pl < 4:
            raise ScenarioError("invalid partition: the first layer needs at least "
                                "3 boundary leaders plus the core")
        if max(self.new_sets[0]) != n_pl:
            raise ScenarioError(f"invalid partition: the first layer must be ids 1..{n_pl} "
                                "(core id == n_pl)")

    @property
    def depth(self) -> int:
        return len(self.new_sets)

    @property
    def n_pl(self) -> int:
        return len(self.new_sets[0])

    def nested(self, k: int) -> tuple[int, ...]:
        """Sorted agent ids of W_k (union of new-agent sets 1..k), 1-based k."""
        check_range("layer index", k, 1, self.depth)
        ids: set[int] = set()
        for s in self.new_sets[:k]:
            ids.update(s)
        return tuple(sorted(ids))

    def all_ids(self) -> tuple[int, ...]:
        return self.nested(self.depth)


@dataclass(frozen=True, eq=False)
class TriangleCell:
    """One fan-triangulation cell: the core plus two adjacent boundary leaders."""

    cell_id: int
    vertices: tuple[int, int, int]  # (core, boundary_a, boundary_b)
    members: tuple[int, ...]        # agents enclosed by the cell (vertices included)
    p_min: float                    # min pairwise material separation among members
    home: tuple[int, ...]           # members whose home cell this is
    home_weights: np.ndarray        # (len(home), 3): their unclipped barycentric rows


@dataclass(frozen=True, eq=False)
class TeamConfiguration:
    partition: LayerPartition
    positions: np.ndarray  # (N, 3); row i-1 holds agent i
    cells: tuple[TriangleCell, ...]
    safety: SafetyParameters

    @property
    def n_agents(self) -> int:
        return self.positions.shape[0]

    @property
    def n_pl(self) -> int:
        return self.partition.n_pl

    @property
    def leader_positions(self) -> np.ndarray:
        """Material positions of W_1 (boundary leaders then core), shape (n_pl, 3)."""
        return self.positions[: self.n_pl]

    @property
    def cell_vertices(self) -> np.ndarray:
        """Positions of every cell's (core, a, b) vertices, shape (n_cells, 3, 3)."""
        ids = np.array([cell.vertices for cell in self.cells], dtype=int).reshape(-1, 3)
        return self.positions[ids - 1]

    @property
    def homes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every agent with a home cell: ids (M,), that cell's vertex ids (M, 3)
        and the unclipped barycentric rows (M, 3), cell by cell."""
        sizes = [len(cell.home) for cell in self.cells]
        return (np.concatenate([cell.home for cell in self.cells]).astype(int),
                np.repeat(np.array([cell.vertices for cell in self.cells]), sizes, axis=0),
                np.concatenate([cell.home_weights for cell in self.cells]))


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=-1)


def projected_weights(v0: np.ndarray, v1: np.ndarray, v2: np.ndarray,
                      point: np.ndarray) -> np.ndarray:
    """Barycentric weights of `point` projected onto the plane of (v0, v1, v2).

    The weighted vertex combination reproduces the in-plane component of
    `point`; one iterative-refinement pass keeps the reconstruction at
    roundoff level. Weights sum to 1 exactly by construction of w0. All
    arguments broadcast over leading axes; the result has shape (..., 3).
    """
    e1 = v1 - v0
    e2 = v2 - v0
    q = point - v0
    g11 = _dot(e1, e1)
    g22 = _dot(e2, e2)
    g12 = _dot(e1, e2)
    det = g11 * g22 - g12 * g12
    if np.any((det <= 1e-12 * g11 * g22) | (g11 == 0.0) | (g22 == 0.0)):
        raise ScenarioError("degenerate cell: vertices are collinear")
    w1 = (g22 * _dot(e1, q) - g12 * _dot(e2, q)) / det
    w2 = (g11 * _dot(e2, q) - g12 * _dot(e1, q)) / det
    r = q - w1[..., None] * e1 - w2[..., None] * e2
    w1 += (g22 * _dot(e1, r) - g12 * _dot(e2, r)) / det
    w2 += (g11 * _dot(e2, r) - g12 * _dot(e1, r)) / det
    return np.stack([1.0 - w1 - w2, w1, w2], axis=-1)


def cell_coordinates(vertices: np.ndarray, points) -> np.ndarray:
    """Weights (..., n_cells, 3) of points (..., 3) over cells with vertices (n_cells, 3, 3)."""
    points = np.asarray(points, dtype=float)[..., None, :]
    return projected_weights(vertices[:, 0], vertices[:, 1], vertices[:, 2], points)


def _fan_vertices(n_pl: int) -> list[tuple[int, int, int]]:
    n_b = n_pl - 1
    return [(n_pl, j, j % n_b + 1) for j in range(1, n_b + 1)]


def build_cells(partition: LayerPartition, positions: np.ndarray) -> tuple[TriangleCell, ...]:
    """Fan-triangulate the leading polygon and place every agent, in one solve.

    Membership is inclusive: an agent sitting on a shared edge or vertex
    belongs to every cell containing it, so each cell's p_min accounts for
    all agents that can collide inside it. Its home is the one it lies deepest
    in (lowest id on ties): a lower-id cell may hold it only within tolerance,
    and clipping that row would move it. A cell's own vertices get the
    weights e_0, e_1, e_2 exactly, so every cell has at least three members.
    """
    fan = _fan_vertices(partition.n_pl)
    weights = cell_coordinates(positions[np.array(fan) - 1], positions)
    depth = weights.min(axis=-1)
    home = np.where(depth.max(axis=-1) >= -CONTAINMENT_TOL, depth.argmax(axis=-1), -1)
    cells = []
    for c, verts in enumerate(fan):
        members = np.flatnonzero(depth[:, c] >= -CONTAINMENT_TOL)
        homed = np.flatnonzero(home == c)
        cells.append(TriangleCell(c + 1, verts, tuple((members + 1).tolist()),
                                  float(pdist(positions[members]).min()),
                                  tuple((homed + 1).tolist()), weights[homed, c]))
    return tuple(cells)


def boundary_reference_magnitude(positions: np.ndarray, n_pl: int) -> float:
    """Reference magnitude a0: max material norm over the boundary leaders."""
    return float(np.linalg.norm(positions[: n_pl - 1], axis=1).max())


@dataclass
class ValidationReport:
    violations: list[str]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        lines = [f"violation: {v}" for v in self.violations]
        lines += [f"warning: {w}" for w in self.warnings]
        return "\n".join(lines) if lines else "ok"


def validate_team(team: TeamConfiguration) -> ValidationReport:
    """Check structural invariants; violations are fatal, warnings advisory."""
    violations: list[str] = []
    warnings: list[str] = []
    n_pl = team.n_pl

    for cell in team.cells:
        if cell.p_min <= 0.0:
            violations.append(f"coincident agents in cell {cell.cell_id}")
    agents, support, rows = team.homes
    for agent in np.setdiff1d(np.arange(1, team.n_agents + 1), agents).tolist():
        violations.append(f"agent {agent} lies outside the leading polygon")

    mags = np.linalg.norm(team.positions[: n_pl - 1], axis=1)
    if mags.min() > 0 and (mags.max() - mags.min()) / mags.min() > 0.01:
        warnings.append(
            "assumption violated: boundary-leader magnitudes differ by "
            f"{100.0 * (mags.max() - mags.min()) / mags.min():.1f}% "
            "(reference magnitude a0 uses the maximum)")

    # agents off their home cell's plane break the identity deformation (weights
    # only reproduce the projected point)
    recon = np.einsum("ij,ijk->ik", rows, team.positions[support - 1])
    pos = team.positions[agents - 1]
    off = np.linalg.norm(recon - pos, axis=1) > 1e-9 * (1.0 + np.linalg.norm(pos, axis=1))
    off_plane = sorted(agents[off].tolist())
    if off_plane:
        warnings.append(
            f"agents {off_plane} sit off their cell plane; the hierarchy only "
            "tracks their in-plane component")

    s = team.safety
    if s.a_max <= s.clearance:
        warnings.append("a_max does not exceed 2*(delta+epsilon); the safety window is empty")

    return ValidationReport(violations, warnings)
