from pathlib import Path

import numpy as np
import pytest
from scipy.spatial.distance import pdist

import swarmdeform as sd

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def square_scenario():
    return sd.load_scenario(SCENARIO_DIR / "square13.yaml")


@pytest.fixture(scope="session")
def helix_scenario():
    return sd.load_scenario(SCENARIO_DIR / "helix67.yaml")


@pytest.fixture(scope="session")
def square_team(square_scenario):
    return square_scenario.team


@pytest.fixture(scope="session")
def helix_team(helix_scenario):
    return helix_scenario.team


@pytest.fixture(scope="session")
def square_weights(square_scenario):
    return sd.build_layer_weights(square_scenario.team, square_scenario.weights)


@pytest.fixture(scope="session")
def helix_weights(helix_scenario):
    return sd.build_layer_weights(helix_scenario.team, helix_scenario.weights)


def leaders_only_team(n_b: int = 4, radius: float = 5.0,
                      safety=None) -> sd.TeamConfiguration:
    """Polygon of n_b boundary leaders plus core; no deeper layers."""
    angles = 2.0 * np.pi * np.arange(n_b) / n_b
    positions = np.zeros((n_b + 1, 3))
    positions[:n_b, 0] = radius * np.cos(angles)
    positions[:n_b, 1] = radius * np.sin(angles)
    partition = sd.LayerPartition((tuple(range(1, n_b + 2)),))
    cells = sd.build_cells(partition, positions)
    if safety is None:
        safety = sd.SafetyParameters(delta=0.05, epsilon=0.15, a_max=radius * 1.5,
                                     a0=radius)
    return sd.TeamConfiguration(partition, positions, cells, safety)


def embed_decision(problem, y_grid: np.ndarray) -> np.ndarray:
    """Lift reduced box candidates (m, n_pl - 1) to full decision vectors."""
    y_grid = np.atleast_2d(y_grid)
    x = np.empty((y_grid.shape[0], problem.dim))
    x[:, : problem.n_pl - 1] = y_grid
    x[:, problem.n_pl - 1:] = problem.b_eq
    return x


def grid_search_solution(problem, m: int | None = None) -> tuple[np.ndarray, float]:
    """Exhaustive box search over the free scale factors; equality block pinned.

    Returns the best full decision vector and its objective. Grid density is
    chosen so the argmin sits within a few grid spacings of the true optimum.
    """
    n_free = problem.n_pl - 1
    if m is None:
        m = {1: 241, 2: 121, 3: 81}[n_free]
    axis = np.linspace(problem.alpha_min, problem.alpha_max, m)
    mesh = np.meshgrid(*([axis] * n_free), indexing="ij")
    pts = np.stack([g.ravel() for g in mesh], axis=1)
    x = embed_decision(problem, pts)
    vals = 0.5 * np.einsum("mi,ij,mj->m", x, problem.h, x) + x @ problem.k
    best = int(np.argmin(vals))
    return x[best], float(vals[best])


def random_planner_instance(rng):
    """Random small planner instance (R, s_desired, bounds) for oracle checks.

    Free-column conditioning is kept mild (singular values in [0.7, 1.4]) and
    the box is placed so the unconstrained optimum lands inside, near an edge,
    or outside depending on the draw.
    """
    n_pl = int(rng.integers(2, 5))
    n_free = n_pl - 1
    q_full, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    cols = q_full * rng.uniform(0.7, 1.4, size=3)
    delta = np.empty((3, n_pl))
    delta[:, :n_free] = cols[:, :n_free]
    delta[:, n_free] = rng.normal(size=3)
    rows = np.hstack([delta, np.eye(3)])

    base = rng.uniform(0.3, 1.0)
    y_target = base + rng.uniform(-0.1, 0.1, size=n_free)
    q_red = 1e-6 * np.eye(n_free) + delta[:, :n_free].T @ delta[:, :n_free]
    s_desired = np.linalg.lstsq(delta[:, :n_free].T, q_red @ y_target, rcond=None)[0]

    half = rng.uniform(0.05, 0.15)
    center = base + rng.uniform(-0.05, 0.05)
    return rows, s_desired, (center - half, center + half)


def cell_jacobian(team, cell, alpha):
    """Deformation Jacobian Q (3, 3) of one cell for a full alpha vector.

    Q is the linear map that takes a1 = v_a - core, a2 = v_b - core and the
    unit normal n to alpha_a * a1, alpha_b * a2 and n.
    """
    core, va, vb = team.positions[np.array(cell.vertices) - 1]
    a1, a2 = va - core, vb - core
    normal = np.cross(a1, a2)
    normal = normal / np.linalg.norm(normal)
    source = np.column_stack([a1, a2, normal])
    image = np.column_stack([alpha[cell.vertices[1] - 1] * a1,
                             alpha[cell.vertices[2] - 1] * a2, normal])
    return np.linalg.solve(source.T, image.T).T


def first_argmin_oracle(stack):
    """pdist and a first argmin per sample; non-finite coordinates read as nan."""
    i, j = np.triu_indices(stack.shape[1], 1)
    dist, pairs = [], []
    for p in stack:
        d = pdist(np.where(np.isfinite(p), p, np.nan))
        k = int(np.argmin(d))
        dist.append(d[k])
        pairs.append((i[k], j[k]))
    return np.array(dist), np.array(pairs)


def drifting_lattice(m, n):
    """n samples of m agents on distinct sites of a unit lattice, jittered by
    up to 0.3 and drifting about 0.01 a sample: the k-d tree's warm radius
    holds from each sample to the next."""
    rng = np.random.default_rng(5)
    side = int(np.ceil(m ** (1.0 / 3.0))) + 1
    sites = np.stack(np.unravel_index(rng.permutation(side ** 3)[:m], (side,) * 3), axis=1)
    start = sites + 0.3 * rng.uniform(-1.0, 1.0, (m, 3))
    return start + np.cumsum(0.01 * rng.normal(size=(n, m, 3)), axis=0)


def sparse_lattice():
    """40 agents on sparse sites of a lattice of spacing 2, few of them 2 apart."""
    sites = np.unravel_index(np.random.default_rng(3).permutation(20 ** 3)[:40], (20,) * 3)
    return 2.0 * np.stack(sites, axis=1)
