"""Property tests on generated fan teams and box QPs.

Each team is a ring of 4-9 boundary leaders around the core (angles jittered
by up to 30 % of their spacing, so the fan stays convex), rotated out of the
xy-plane, plus interior agents drawn as convex combinations of one cell's
vertices and split over up to two deeper layers. The broadcast cell
coordinates are checked against per-point scalar calls, and the composite
map against its defining properties. The stacked box active-set solve is
checked against its one-row calls and a bounded least-squares oracle. The
stacked closest-pair sweep is checked against pdist and a first argmin, the
certifier's distance verdict on square13 against injected faults, and its
spectra and verdict on generated missions against SVD, pdist and the window.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear
from scipy.spatial.distance import pdist

import swarmdeform as sd
from swarmdeform.hierarchy import ROW_SUM_TOL
from swarmdeform.qp import _box_active_set
from swarmdeform.safety import KDTREE_MIN_AGENTS, closest_pairs
from swarmdeform.scenario import planning_bounds
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


@st.composite
def position_stacks(draw):
    """(n, N, 3) stacks with N on both sides of the k-d tree crossover.

    Agents sit on distinct sites of an integer lattice (exact ties), jittered
    or not, with a few made coincident and the order shuffled. Samples scale
    the team by integers (the closest pair stays closest), drift it agent by
    agent, or jump to a fresh arrangement (a loose warm-start radius). One
    sample may carry a nan or infinite coordinate.
    """
    m = draw(st.one_of(st.integers(2, 40),
                       st.integers(KDTREE_MIN_AGENTS, KDTREE_MIN_AGENTS + 60)))
    n = draw(st.integers(1, 5))
    jitter = draw(st.sampled_from([0.0, 0.3]))
    coincident = draw(st.integers(0, 3))
    motion = draw(st.sampled_from(["scale", "drift", "jump"]))
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = int(np.ceil(m ** (1.0 / 3.0))) + 1

    def arrangement():
        sites = rng.permutation(side ** 3)[:m]
        p = np.stack(np.unravel_index(sites, (side,) * 3), axis=1).astype(float)
        p += jitter * rng.uniform(-1.0, 1.0, p.shape)
        for _ in range(coincident):
            p[rng.integers(m)] = p[rng.integers(m)]
        return p

    stack = np.empty((n, m, 3))
    stack[0] = arrangement()
    for s in range(1, n):
        if motion == "scale":
            stack[s] = stack[0] * (1 + s) + s
        elif motion == "drift":
            stack[s] = stack[s - 1] + 0.05 * rng.normal(size=(m, 3))
        else:
            stack[s] = arrangement()
    if bad is not None:
        stack[rng.integers(n), rng.integers(m), rng.integers(3)] = bad
    return stack


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


@settings(max_examples=150, deadline=None, derandomize=True)
@given(position_stacks())
def test_closest_pairs_match_first_argmin_oracle(stack):
    dist, pairs = closest_pairs(stack)
    ref_dist, ref_pairs = first_argmin_oracle(stack)
    assert dist.tobytes() == ref_dist.tobytes()
    assert np.array_equal(pairs, ref_pairs)
    assert np.array_equal(np.isnan(dist), ~np.isfinite(stack).all(axis=(1, 2)))


@pytest.fixture(scope="module")
def square_mission(square_scenario, square_weights):
    """A 10 s square13 plan on the scenario's box and its commanded positions."""
    sc = square_scenario
    schedule = sd.alpha_schedule(sc.team, square_weights, sc.trajectory,
                                 np.linspace(0.0, 10.0, 41), planning_bounds(sc))
    desired = sd.trajectory_positions(sc.team, square_weights, schedule.alpha,
                                      schedule.shift)
    for kind in ("desired", "actual"):
        assert sd.certify_configuration(sc.team, schedule, desired, kind).verdict
    return schedule, desired


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sample=st.integers(0, 40), agent=st.integers(0, 12), axis=st.integers(0, 2),
       value=st.sampled_from([np.nan, np.inf, -np.inf]),
       kind=st.sampled_from(["desired", "actual"]))
def test_non_finite_sample_is_never_safe(square_team, square_mission, sample, agent,
                                         axis, value, kind):
    schedule, desired = square_mission
    positions = desired.copy()
    positions[sample, agent, axis] = value
    report = sd.certify_configuration(square_team, schedule, positions, kind)
    assert not report.distance_ok and not report.verdict
    assert report.min_distance_index == sample and np.isnan(report.min_distance)
    assert square_team.partition.all_ids()[agent] in report.min_distance_pair


@settings(max_examples=60, deadline=None, derandomize=True)
@given(sample=st.integers(0, 40), a=st.integers(0, 12), offset=st.integers(0, 11),
       gap=st.floats(0.0, 0.25), direction=st.tuples(*[st.floats(-1.0, 1.0)] * 3),
       kind=st.sampled_from(["desired", "actual"]))
def test_one_close_pair_flips_the_verdict(square_team, square_mission, sample, a, offset,
                                          gap, direction, kind):
    # every commanded pair is at least 0.559 apart, so a pair moved to within
    # 0.25 is the closest one of the whole mission, below either threshold
    schedule, desired = square_mission
    u = np.array(direction)
    if np.linalg.norm(u) < 0.1:
        u = np.array([1.0, 0.0, 0.0])
    b = (a + 1 + offset) % square_team.n_agents
    positions = desired.copy()
    positions[sample, b] = positions[sample, a] + gap * u / np.linalg.norm(u)
    report = sd.certify_configuration(square_team, schedule, positions, kind)
    assert report.margins_ok and report.window_ok
    assert not report.distance_ok and not report.verdict
    ids = square_team.partition.all_ids()
    assert report.min_distance_index == sample
    assert report.min_distance_pair == (ids[min(a, b)], ids[max(a, b)])
    assert report.min_distance == pytest.approx(gap, abs=1e-12)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(span=st.sampled_from([(1.0, 0.25), (2.5, 0.1), (4.0, 0.05)]),
       scaling=st.sampled_from(["consistent", "paper-exact"]),
       mode=st.sampled_from(["closed-loop", "open-loop"]))
def test_simulated_distances_are_the_certified_traces(square_scenario, square_weights,
                                                      span, scaling, mode):
    sc = square_scenario
    duration, dt = span
    log = sd.run_simulation(sc.team, square_weights, sc.trajectory, duration, dt,
                            planning_bounds(sc), sc.qp.zeta, scaling, mode=mode)
    desired = sd.certify_configuration(sc.team, log.schedule, log.desired)
    actual = sd.certify_configuration(sc.team, log.schedule, log.actual, "actual")
    assert log.min_dist_desired.tobytes() == desired.distance_trace.tobytes()
    assert log.min_dist_actual.tobytes() == actual.distance_trace.tobytes()


@st.composite
def scaled_missions(draw):
    """A fan team with unequal leader radii and a few samples of boundary scales.

    The ring of a generated fan team keeps its jittered angles, each leader
    moves radially to 30-100 % of its radius (scalene, skewed cells), and one
    agent sits at each cell's centroid. The clearance is 10-100 % of the
    tightest cell separation and the window's upper edge 1-3; the scales are
    drawn in [0.15, top], top 50-150 % of the upper edge, so they land on both
    sides of both edges. Scales are independent, all equal (a double singular
    value in every cell) or equal up to 1e-9 (a nearly double one).
    """
    team, _ = draw(fan_teams())
    n_b = team.n_pl - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ring = team.positions[:n_b] * rng.uniform(0.3, 1.0, (n_b, 1))
    centroids = (ring + np.roll(ring, -1, axis=0)) / 3.0
    positions = np.vstack([ring, np.zeros((1, 3)), centroids])
    n_pl = n_b + 1
    partition = sd.LayerPartition((tuple(range(1, n_pl + 1)),
                                   tuple(range(n_pl + 1, n_pl + n_b + 1))))
    cells = sd.build_cells(partition, positions)
    clearance = draw(st.floats(0.1, 1.0)) * min(cell.p_min for cell in cells)
    a0 = np.linalg.norm(ring, axis=1).max()
    ceiling = draw(st.floats(1.0, 3.0))
    top = draw(st.floats(0.5, 1.5)) * ceiling
    safety = sd.SafetyParameters(clearance / 4.0, clearance / 4.0,
                                 ceiling * a0 + clearance, a0)
    team = sd.TeamConfiguration(partition, positions, cells, safety)

    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["independent", "equal", "nearly-equal"]))
    if kind == "independent":
        boundary = rng.uniform(0.15, top, (n, n_b))
    else:
        boundary = np.repeat(rng.uniform(0.15, top, (n, 1)), n_b, axis=1)
        if kind == "nearly-equal":
            boundary += 1e-9 * rng.uniform(-1.0, 1.0, (n, n_b))
    alpha = np.column_stack([boundary, np.zeros(n)])
    shift = rng.uniform(-5.0, 5.0, (n, 3))
    schedule = sd.Schedule(np.arange(n, dtype=float), alpha, shift, np.zeros(n), None,
                           0.15, top, 1e-6, "consistent")
    return team, schedule


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scaled_missions())
def test_certificate_matches_svd_pdist_and_window_oracle(mission):
    team, schedule = mission
    weights = sd.build_layer_weights(team)
    desired = sd.trajectory_positions(team, weights, schedule.alpha, schedule.shift)
    report = sd.certify_configuration(team, schedule, desired)

    svd = np.array([[np.linalg.svd(sd.triangle_jacobian(team, cell, row)[0], compute_uv=False)
                     for cell in team.cells] for row in schedule.alpha])
    assert np.all(np.abs(report.lambdas - svd) <= 1e-12 * np.maximum(1.0, svd[..., :1]))

    safety, tol = team.safety, report.margin_tol
    margins = svd[..., 2] - safety.clearance / np.array([cell.p_min for cell in team.cells])
    distance = min(pdist(p).min() for p in desired)
    ceiling = (safety.a_max - safety.clearance) / safety.a0
    gates = (bool(margins.min() >= -tol), bool(distance >= safety.clearance - tol),
             bool(np.all((schedule.alpha[:, :-1] > 0) & (schedule.alpha[:, :-1] <= ceiling))))
    assert (report.margins_ok, report.distance_ok, report.window_ok) == gates
    assert report.verdict == all(gates)
