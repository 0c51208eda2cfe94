"""Team structure: layered agent partition, material positions, triangular cells.

Material positions are expressed relative to the core agent, which sits at the
origin of the material frame. The first layer holds the boundary leaders plus
the core (core id == n_pl by convention); deeper layers add interior agents.
The region spanned by the boundary leaders is fan-triangulated around the core
into n_pl - 1 cells, and every agent is assigned to the cell(s) enclosing its
material position under a projected containment test.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import pdist

from .errors import ScenarioError

# containment slack for the projected barycentric test (dimensionless weights)
CONTAINMENT_TOL = 1e-9


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

    @property
    def depth(self) -> int:
        return len(self.new_sets)

    @property
    def n_pl(self) -> int:
        return len(self.new_sets[0])

    def nested(self, k: int) -> tuple[int, ...]:
        """Sorted agent ids of W_k (union of new-agent sets 1..k), 1-based k."""
        if not 1 <= k <= self.depth:
            raise ScenarioError(f"layer index {k} outside 1..{self.depth}")
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

    def position(self, agent_id: int) -> np.ndarray:
        if not 1 <= agent_id <= self.n_agents:
            raise ScenarioError(f"unknown agent id {agent_id}")
        return self.positions[agent_id - 1]

    @property
    def cell_vertices(self) -> np.ndarray:
        """Positions of every cell's (core, a, b) vertices, shape (n_cells, 3, 3)."""
        ids = np.array([cell.vertices for cell in self.cells], dtype=int).reshape(-1, 3)
        return self.positions[ids - 1]

    def cell(self, cell_id: int) -> TriangleCell:
        if not 1 <= cell_id <= len(self.cells):
            raise ScenarioError(f"unknown cell id {cell_id}")
        return self.cells[cell_id - 1]


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


def enclosing_cells(weights: np.ndarray) -> np.ndarray:
    """Index of the lowest-id cell holding each point of `cell_coordinates`, else -1."""
    inside = np.all(weights >= -CONTAINMENT_TOL, axis=-1)
    return np.where(inside.any(axis=-1), inside.argmax(axis=-1), -1)


def cell_vertex_positions(team: TeamConfiguration, cell: TriangleCell) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    c, a, b = cell.vertices
    return team.positions[c - 1], team.positions[a - 1], team.positions[b - 1]


def _fan_vertices(n_pl: int) -> list[tuple[int, int, int]]:
    n_b = n_pl - 1
    return [(n_pl, j, j % n_b + 1) for j in range(1, n_b + 1)]


def build_cells(partition: LayerPartition, positions: np.ndarray,
                explicit_members: dict[int, list[int]] | None = None) -> tuple[TriangleCell, ...]:
    """Fan-triangulate the leading polygon and assign agents to enclosing cells.

    Membership is inclusive: an agent sitting on a shared edge or vertex
    belongs to every cell containing it, so each cell's p_min accounts for
    all agents that can collide inside it.
    """
    fan = _fan_vertices(partition.n_pl)
    members_of = explicit_members
    if members_of is None:
        inside = np.all(cell_coordinates(positions[np.array(fan) - 1], positions)
                        >= -CONTAINMENT_TOL, axis=-1)
        members_of = {c + 1: (np.flatnonzero(col) + 1).tolist()
                      for c, col in enumerate(inside.T)}
    cells = []
    for cell_id, verts in enumerate(fan, start=1):
        members = tuple(sorted(members_of.get(cell_id, [])))
        if len(members) < 2:
            raise ScenarioError(f"cell {cell_id} has fewer than 2 members")
        p_min = float(pdist(positions[[m - 1 for m in members]]).min())
        cells.append(TriangleCell(cell_id, verts, members, p_min))
    return tuple(cells)


def enclosing_triangle(team: TeamConfiguration, point: np.ndarray) -> TriangleCell:
    """Lowest-id cell whose projected barycentric weights contain `point`."""
    point = np.asarray(point, dtype=float)
    index = int(enclosing_cells(cell_coordinates(team.cell_vertices, point)))
    if index < 0:
        raise ScenarioError(f"point {point.tolist()} is outside the leading polygon")
    return team.cells[index]


def triangle_min_separation(team: TeamConfiguration, cell_id: int) -> float:
    """Minimum pairwise material separation among a cell's members."""
    cell = team.cell(cell_id)
    if len(cell.members) < 2:
        raise ScenarioError(f"cell {cell_id} has fewer than 2 members")
    sep = float(pdist(team.positions[[m - 1 for m in cell.members]]).min())
    if sep <= 0.0:
        raise ScenarioError(f"coincident agents in cell {cell_id}")
    return sep


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
    part = team.partition
    n = team.n_agents

    seen: set[int] = set()
    for k, layer in enumerate(part.new_sets, start=1):
        if not layer:
            violations.append(f"layer {k} is empty")
        overlap = seen.intersection(layer)
        if overlap:
            violations.append(f"layer {k} re-lists agents {sorted(overlap)}")
        seen.update(layer)
    if seen != set(range(1, n + 1)):
        missing = sorted(set(range(1, n + 1)) - seen)
        extra = sorted(seen - set(range(1, n + 1)))
        if missing:
            violations.append(f"agents {missing} missing from the partition")
        if extra:
            violations.append(f"partition lists unknown agents {extra}")

    n_pl = part.n_pl
    if n_pl < 4:
        violations.append("first layer needs at least 3 boundary leaders plus the core")
    if set(part.new_sets[0]) != set(range(1, n_pl + 1)):
        violations.append(f"first layer must be ids 1..{n_pl} (core id == n_pl)")

    if not np.all(np.isfinite(team.positions)):
        violations.append("non-finite material positions")
        return ValidationReport(violations, warnings)

    if n_pl <= n and not np.all(team.positions[n_pl - 1] == 0.0):
        violations.append("core must be at origin")
    for b in range(1, min(n_pl, n + 1)):
        if np.all(team.positions[b - 1] == 0.0):
            violations.append(f"boundary leader {b} has zero material position")

    if violations:
        return ValidationReport(violations, warnings)

    # cell coverage and separations
    covered: set[int] = set()
    for cell in team.cells:
        covered.update(cell.members)
        if cell.p_min <= 0.0:
            violations.append(f"coincident agents in cell {cell.cell_id}")
    outside = sorted(set(range(1, n + 1)) - covered)
    for agent in outside:
        violations.append(f"agent {agent} lies outside the leading polygon")

    mags = np.linalg.norm(team.positions[: n_pl - 1], axis=1)
    if mags.min() > 0 and (mags.max() - mags.min()) / mags.min() > 0.01:
        warnings.append(
            "assumption violated: boundary-leader magnitudes differ by "
            f"{100.0 * (mags.max() - mags.min()) / mags.min():.1f}% "
            "(reference magnitude a0 uses the maximum)")

    # agents off their cell plane break the identity deformation (weights only
    # reproduce the projected point)
    verts = team.cell_vertices
    weights = cell_coordinates(verts, team.positions)
    index = enclosing_cells(weights)
    agents = np.flatnonzero(index >= 0)
    recon = np.einsum("ij,ijk->ik", weights[agents, index[agents]], verts[index[agents]])
    pos = team.positions[agents]
    off = np.linalg.norm(recon - pos, axis=1) > 1e-9 * (1.0 + np.linalg.norm(pos, axis=1))
    off_plane = (agents[off] + 1).tolist()
    if off_plane:
        warnings.append(
            f"agents {off_plane} sit off their cell plane; the hierarchy only "
            "tracks their in-plane component")

    s = team.safety
    if not (s.delta > 0 and s.epsilon > 0 and s.a_max > 0 and s.a0 > 0):
        violations.append("safety parameters must be strictly positive")
    elif s.a_max <= s.clearance:
        warnings.append("a_max does not exceed 2*(delta+epsilon); the safety window is empty")

    return ValidationReport(violations, warnings)


def load_configuration(source) -> TeamConfiguration:
    """Load and validate a team from a scenario document (path or mapping)."""
    from .scenario import load_scenario

    return load_scenario(source).team
