"""Property tests on generated fan teams and box QPs.

Each team is a ring of 4-9 boundary leaders around the core (angles jittered
by up to 30 % of their spacing, so the fan stays convex), rotated out of the
xy-plane, plus interior agents drawn as convex combinations of one cell's
vertices and split over up to two deeper layers. The broadcast cell
coordinates are checked against per-point scalar calls, and the composite
map against its defining properties. The stacked box active-set solve is
checked against its one-row calls and a bounded least-squares oracle.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

import swarmdeform as sd
from swarmdeform.hierarchy import ROW_SUM_TOL
from swarmdeform.qp import _box_active_set
from swarmdeform.team import (CONTAINMENT_TOL, cell_coordinates, enclosing_cells,
                              projected_weights)

unit = st.floats(0.0, 1.0)


@st.composite
def fan_teams(draw):
    n_b = draw(st.integers(4, 9))
    radius = draw(st.floats(1.0, 50.0))
    jitter = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=n_b, max_size=n_b)))
    tilt, heading = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    interior = draw(st.lists(st.tuples(st.integers(0, n_b - 1), unit, unit), max_size=24))
    split = draw(st.integers(0, len(interior)))

    angles = 2.0 * np.pi * (np.arange(n_b) + jitter) / n_b
    ring = radius * np.stack([np.cos(angles), np.sin(angles), np.zeros(n_b)], axis=1)
    c, s = np.cos(tilt), np.sin(tilt)
    tilt_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    c, s = np.cos(heading), np.sin(heading)
    turn_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    ring = ring @ (turn_z @ tilt_x).T
    points = []
    for j, u, v in interior:
        if u + v > 1.0:
            u, v = 1.0 - u, 1.0 - v
        points.append(u * ring[j] + v * ring[(j + 1) % n_b])
    positions = np.vstack([ring, np.zeros((1, 3)), np.reshape(points, (-1, 3))])

    n_pl = n_b + 1
    ids = list(range(n_pl + 1, n_pl + len(interior) + 1))
    layers = [tuple(range(1, n_pl + 1)), tuple(ids[:split]), tuple(ids[split:])]
    partition = sd.LayerPartition(tuple(layer for layer in layers if layer))
    cells = sd.build_cells(partition, positions)
    safety = sd.SafetyParameters(delta=0.05, epsilon=0.15, a_max=2.0 * radius, a0=radius)
    return sd.TeamConfiguration(partition, positions, cells, safety), radius


def scalar_weights(team):
    """Per-point, per-cell weights (N, n_cells, 3) from scalar calls."""
    return np.array([[projected_weights(*team.cell_vertices[c], p)
                      for c in range(len(team.cells))] for p in team.positions])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams())
def test_broadcast_weights_match_scalar_calls(case):
    team, _ = case
    batch = cell_coordinates(team.cell_vertices, team.positions)
    reference = scalar_weights(team)
    assert batch.shape == (team.n_agents, len(team.cells), 3)
    assert np.max(np.abs(batch - reference)) <= 1e-15 * max(1.0, np.abs(reference).max())


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams())
def test_memberships_and_enclosing_cells_match_scalar_routine(case):
    team, _ = case
    inside = np.all(scalar_weights(team) >= -CONTAINMENT_TOL, axis=-1)
    for c, cell in enumerate(team.cells):
        assert cell.members == tuple(i + 1 for i in range(team.n_agents) if inside[i, c])
    first = [next((c for c in range(len(team.cells)) if inside[i, c]), -1)
             for i in range(team.n_agents)]
    weights = cell_coordinates(team.cell_vertices, team.positions)
    assert enclosing_cells(weights).tolist() == first


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams())
def test_composite_rows_are_sparse_and_stochastic(case):
    team, _ = case
    c = sd.build_layer_weights(team).composite
    assert c.shape == (team.n_agents, team.n_pl)
    assert np.max(np.abs(c.sum(axis=1) - 1.0)) <= ROW_SUM_TOL
    assert np.all(np.count_nonzero(c, axis=1) <= 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams())
def test_unit_scale_forward_pass_reproduces_positions(case):
    team, radius = case
    desired = sd.forward_pass(team, sd.build_layer_weights(team),
                              np.ones(team.n_pl), np.zeros(3))
    assert np.max(np.abs(desired - team.positions)) <= 1e-13 * radius


@st.composite
def box_qps(draw):
    """SPD Q (m <= 6, condition number below ~70), a stack of c rows and a box.

    About one case in ten has no variables (m = 0) and one in ten a collapsed
    box (lo == hi).
    """
    kind = draw(st.integers(0, 9))
    m = 0 if kind == 3 else draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    a = np.reshape(draw(st.lists(st.floats(-1.0, 1.0), min_size=m * m, max_size=m * m)),
                   (m, m))
    q = a @ a.T + draw(st.floats(0.1, 1.0)) * np.eye(m)
    c = np.reshape(draw(st.lists(st.floats(-5.0, 5.0), min_size=n * m, max_size=n * m)),
                   (n, m))
    lo = draw(st.floats(-2.0, 2.0))
    hi = lo if kind == 7 else lo + draw(st.floats(0.05, 3.0))
    return q, c, lo, hi


@settings(max_examples=150, deadline=None, derandomize=True)
@given(box_qps())
def test_stacked_box_solve_matches_rows_and_bvls(case):
    q, c, lo, hi = case
    y, iterations = _box_active_set(q, c, lo, hi)
    assert y.shape == c.shape and iterations.shape == (c.shape[0],)
    for i, row in enumerate(c):
        y_row, it_row = _box_active_set(q, row, lo, hi)
        assert y_row.tobytes() == y[i].tobytes()
        assert it_row == iterations[i]
    if c.shape[1] == 0 or lo == hi:
        assert np.all(y == lo) and np.all(iterations == 0)
        return
    ell = np.linalg.cholesky(q)
    for i, row in enumerate(c):
        ref = lsq_linear(ell.T, np.linalg.solve(ell, -row), bounds=(lo, hi),
                         method="bvls").x
        assert np.max(np.abs(y[i] - ref)) <= 1e-9
