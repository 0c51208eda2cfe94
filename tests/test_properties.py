"""Property tests on generated fan teams and box QPs.

Each team is a ring of 4-9 boundary leaders around the core (angles jittered
by up to 30 % of their spacing, so the fan stays convex), rotated out of the
xy-plane, plus interior agents drawn as convex combinations of one cell's
vertices and split over up to two deeper layers. The broadcast cell
coordinates are checked against per-point scalar calls, memberships and home
cells against the scalar containment rule, and the composite map against its
defining properties and, bit for bit, a layer-by-layer composition. The
stacked box active-set solve is checked against its one-row calls and a
bounded least-squares oracle. The stacked closest-pair sweep is checked
against pdist and a first argmin, the certifier's distance verdict on
square13 against injected faults, its spectra and verdict on generated
missions against SVD, pdist and the window, and its verdict on those missions
with one nan or inf injected. A generated team with one material coordinate
out of range is refused at load.
"""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear
from scipy.spatial.distance import pdist

import swarmdeform as sd
from conftest import (SCENARIO_DIR, cell_jacobian, drifting_lattice, first_argmin_oracle,
                      sparse_lattice)
from swarmdeform import sim
from swarmdeform import team as team_module
from swarmdeform.hierarchy import ROW_SUM_TOL, _clip_rows
from swarmdeform.qp import _box_active_set
from swarmdeform.safety import KDTREE_MIN_AGENTS, closest_pairs
from swarmdeform.scenario import planning_bounds
from swarmdeform.sim import pd_step
from swarmdeform.team import (CONTAINMENT_TOL, MAX_COORDINATE, cell_coordinates,
                              projected_weights)

unit = st.floats(0.0, 1.0)


def fan_team(n_b, radius, jitter, tilt, heading, interior, split):
    """A ring of n_b leaders (angles jittered by fractions of their spacing),
    tilted and turned, the core, and interior agents u * ring[j] + v * ring[j + 1]
    for each (j, u, v), the first `split` in layer 2 and the rest in layer 3."""
    angles = 2.0 * np.pi * (np.arange(n_b) + np.asarray(jitter)) / n_b
    ring = radius * np.stack([np.cos(angles), np.sin(angles), np.zeros(n_b)], axis=1)
    c, s = np.cos(tilt), np.sin(tilt)
    tilt_x = np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    c, s = np.cos(heading), np.sin(heading)
    turn_z = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    ring = ring @ (turn_z @ tilt_x).T
    points = [u * ring[j] + v * ring[(j + 1) % n_b] for j, u, v in interior]
    positions = np.vstack([ring, np.zeros((1, 3)), np.reshape(points, (-1, 3))])

    n_pl = n_b + 1
    ids = list(range(n_pl + 1, n_pl + len(interior) + 1))
    layers = [tuple(range(1, n_pl + 1)), tuple(ids[:split]), tuple(ids[split:])]
    partition = sd.LayerPartition(tuple(layer for layer in layers if layer))
    cells = sd.build_cells(partition, positions)
    safety = sd.SafetyParameters(delta=0.05, epsilon=0.15, a_max=2.0 * radius, a0=radius)
    return sd.TeamConfiguration(partition, positions, cells, safety), radius


@st.composite
def fan_teams(draw):
    n_b = draw(st.integers(4, 9))
    radius = draw(st.floats(1.0, 50.0))
    jitter = draw(st.lists(st.floats(-0.3, 0.3), min_size=n_b, max_size=n_b))
    tilt, heading = draw(st.floats(0.0, np.pi)), draw(st.floats(0.0, 2.0 * np.pi))
    interior = draw(st.lists(st.tuples(st.integers(0, n_b - 1), unit, unit), max_size=24))
    split = draw(st.integers(0, len(interior)))
    # folded into the cell: u + v <= 1
    interior = [(j, u, v) if u + v <= 1.0 else (j, 1.0 - u, 1.0 - v) for j, u, v in interior]
    return fan_team(n_b, radius, jitter, tilt, heading, interior, split)


# hard cases pinned, since the derandomized draws move when unrelated code does:
# an agent 5e-11 outside the boundary edge of cell 1, within the containment
# tolerance, whose clipped row must be rescaled to sum to 1 (the forward pass
# puts it on the edge); and one 1e-12 from the core on the edge of cells 2 and
# 3, outside cell 1 by as much, where the lowest-id cell would clip it onto
# the core
EDGE_CLIP = fan_team(4, 1.0, [0.0] * 4, 0.0, 0.0, [(0, 0.4, 0.6 + 5e-11)], 1)
NEAR_CORE = fan_team(4, 1.0, [0.0] * 4, 0.0, 0.0, [(2, 1e-12, 0.0)], 1)


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


def layered_composite(team):
    """The composite built the long way, layer by layer: each new agent's clipped
    row over the cell it lies deepest in, composed over the rows of C so far."""
    composite = np.eye(team.n_agents, team.n_pl)
    vertices = np.array([cell.vertices for cell in team.cells])
    for new in team.partition.new_sets[1:]:
        new = np.array(sorted(new))
        weights = cell_coordinates(team.cell_vertices, team.positions[new - 1])
        index = weights.min(axis=-1).argmax(axis=-1)
        rows = _clip_rows(weights[np.arange(new.size), index])
        composite[new - 1] = (rows[:, :, None] * composite[vertices[index] - 1]).sum(axis=1)
    return composite


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams())
@example(EDGE_CLIP)
@example(NEAR_CORE)
def test_memberships_and_home_cells_match_scalar_routine(case):
    team, _ = case
    weights = scalar_weights(team)
    inside = np.all(weights >= -CONTAINMENT_TOL, axis=-1)
    for c, cell in enumerate(team.cells):
        assert cell.members == tuple(i + 1 for i in range(team.n_agents) if inside[i, c])
    # the deepest containing cell: the largest smallest weight, the lowest id on ties
    deepest = [max((c for c in range(len(team.cells)) if inside[i, c]),
                   key=lambda c: (weights[i, c].min(), -c)) + 1 for i in range(team.n_agents)]
    home = {agent: cell.cell_id for cell in team.cells for agent in cell.home}
    assert [home[agent] for agent in range(1, team.n_agents + 1)] == deepest


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams())
@example(EDGE_CLIP)
@example(NEAR_CORE)
def test_composite_equals_layered_composition(case):
    team, _ = case
    composite = sd.build_layer_weights(team).composite
    assert composite.tobytes() == layered_composite(team).tobytes()


@pytest.mark.parametrize("name", ["square13", "helix67"])
def test_one_containment_solve_per_team(monkeypatch, name):
    calls = []
    solve = team_module.projected_weights

    def counted(*args):
        calls.append(args)
        return solve(*args)

    monkeypatch.setattr(team_module, "projected_weights", counted)
    sc = sd.load_scenario(SCENARIO_DIR / f"{name}.yaml")
    sd.build_layer_weights(sc.team, sc.weights)
    assert len(calls) == 1


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams())
@example(EDGE_CLIP)
@example(NEAR_CORE)
def test_composite_rows_are_sparse_and_stochastic(case):
    team, _ = case
    c = sd.build_layer_weights(team).composite
    assert c.shape == (team.n_agents, team.n_pl)
    assert np.max(np.abs(c.sum(axis=1) - 1.0)) <= ROW_SUM_TOL
    assert np.all(np.count_nonzero(c, axis=1) <= 3)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams())
@example(NEAR_CORE)
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


# unconstrained optimum (0.5, 0.75): the first coordinate sits exactly on the lower edge
_ON_EDGE = (np.array([[2.0, 0.5], [0.5, 1.0]]), np.array([[-1.375, -1.0]]), 0.5, 1.0)
# after clipping, two bounds tie for the most negative multiplier (-0.593 on two
# lower bounds; -0.248 on a lower and an upper one): the first index is released,
# lower bounds before upper ones
_TIED_LOWER = (np.array([[1.0, 0.11, -0.38], [0.11, 1.0, -0.38], [-0.38, -0.38, 1.0]]),
               np.array([[-0.52, -0.52, 1.91]]), -0.1, 1.8)
_TIED_LOWER_UPPER = (np.array([[1.0, 0.23, 0.35], [0.23, 1.0, -0.35], [0.35, -0.35, 1.0]]),
                     np.array([[0.13, -0.13, -1.15]]), -0.9, 0.9)
# m = 6 stack whose rows converge after 1, 2, 2, 3 and 1 iterations
_A6 = np.array([[0.9, 0.7, 0.7, -0.2, 0.6, -0.2], [-0.1, -0.8, -0.9, 0.3, -0.6, 0.9],
                [0.1, 0.2, 0.8, -0.4, -1.0, -0.6], [-0.1, -0.7, -0.4, 0.5, -0.2, -0.3],
                [-0.5, 0.1, 1.0, -0.7, 0.7, 0.5], [0.2, 0.1, 0.0, -0.8, 0.1, 1.0]])
_Q6 = _A6 @ _A6.T + 0.5 * np.eye(6)
_MIXED_STACK = (_Q6, np.vstack([-(_Q6 @ np.full(6, 0.5)),
                                [[2.3, -0.3, -0.6, 3.7, -4.9, -3.0],
                                 [4.6, 1.5, 3.3, 0.3, -4.6, 0.4],
                                 [1.3, -4.1, -0.2, 4.4, -4.4, -4.5],
                                 [-4.0, 1.8, 3.9, -3.4, 3.4, -2.8]]]), 0.0, 1.0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(box_qps())
@example(_ON_EDGE)
@example(_TIED_LOWER)
@example(_TIED_LOWER_UPPER)
@example(_MIXED_STACK)
def test_stacked_box_solve_matches_rows_and_bvls(case):
    q, c, lo, hi = case
    y, iterations = _box_active_set(q, c, lo, hi)
    assert y.shape == c.shape and iterations.shape == (c.shape[0],)
    for i, row in enumerate(c):
        y_row, it_row = _box_active_set(q, row[None], lo, hi)
        assert y_row[0].tobytes() == y[i].tobytes()
        assert it_row[0] == iterations[i]
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

    Agents sit on distinct sites of an integer lattice, dense or sparse (exact
    ties, many or few), jittered or not, with a few made coincident and the
    order shuffled. Samples scale the team by integers (the closest pair stays
    closest), drift it agent by agent, jump to a fresh arrangement (a loose
    warm-start radius), translate it rigidly by up to 1e6 (ties that rounding
    may break), wobble it less and less and then jump (anchored blocks, then a
    bound that admits too many pairs), or move two agents straight at each
    other while the rest hold still, all translated by up to 1e6 (a tight
    bound). Stacks of teams below the crossover run up to 40 samples, so the
    anchored sweep covers its anchors, candidate blocks and per-sample
    backoff. One sample, anywhere in the run, may carry a nan or infinite
    coordinate.
    """
    m = draw(st.one_of(st.integers(2, 120),
                       st.integers(KDTREE_MIN_AGENTS, KDTREE_MIN_AGENTS + 60)))
    n = draw(st.integers(1, 5 if m >= KDTREE_MIN_AGENTS else 40))
    jitter = draw(st.sampled_from([0.0, 0.3]))
    sparse = draw(st.sampled_from([1, 8]))
    coincident = draw(st.integers(0, 3))
    motion = draw(st.sampled_from(["scale", "drift", "jump", "translate", "settle", "pinch"]))
    offset = draw(st.sampled_from([1.0, 1e3, 1e6]))
    bad = draw(st.sampled_from([None, np.nan, np.inf, -np.inf]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    side = int(np.ceil((sparse * m) ** (1.0 / 3.0))) + 1

    def arrangement():
        sites = rng.permutation(side ** 3)[:m]
        p = np.stack(np.unravel_index(sites, (side,) * 3), axis=1).astype(float)
        p += jitter * rng.uniform(-1.0, 1.0, p.shape)
        for _ in range(coincident):
            p[rng.integers(m)] = p[rng.integers(m)]
        return p

    stack = np.empty((n, m, 3))
    stack[0] = arrangement()
    jump_at = rng.integers(1, max(n, 2))
    i, j = rng.choice(m, 2, replace=False)
    gap = (stack[0, j] - stack[0, i]) / (2 * n)
    for s in range(1, n):
        if motion == "scale":
            stack[s] = stack[0] * (1 + s) + s
        elif motion == "drift":
            stack[s] = stack[s - 1] + 0.05 * rng.normal(size=(m, 3))
        elif motion == "jump":
            stack[s] = arrangement()
        elif motion == "translate":
            stack[s] = stack[0] + offset * rng.uniform(-1.0, 1.0, 3)
        elif motion == "pinch":
            stack[s] = stack[0]
            stack[s, i] += s * gap
            stack[s, j] -= s * gap
        elif s == jump_at:
            stack[s] = arrangement()
        else:
            stack[s] = stack[s - 1] + 0.1 * 0.5 ** s * rng.normal(size=(m, 3))
    if motion == "pinch":
        stack += offset * rng.uniform(-1.0, 1.0, 3)
    if bad is not None:
        stack[rng.integers(n), rng.integers(m), rng.integers(3)] = bad
    return stack


def _pinch(steps, rate, offset):
    """Agents 0 and 1 close in on each other along (1, 1, 1), `rate` each a
    sample from 6 apart, while 40 agents on a sparse lattice of spacing 2
    hold still, two of them 2 apart along the same direction; all of it
    translated by `offset`. The anchored bound is tight on the pinched pair,
    whose distance falls by exactly twice its reach, and 2 apart it ties the
    closest pair of the rest."""
    d = np.ones(3) / np.sqrt(3.0)
    rest = sparse_lattice()
    rest[1] = rest[0] + 2.0 * d
    start = np.array([30.0, -10.0, -10.0])
    t = rate * np.arange(steps)[:, None]
    pair = np.stack([start + t * d, start + (6.0 - t) * d], axis=1)
    return np.concatenate([pair, np.repeat(rest[None], steps, axis=0)], axis=1) + offset


# hard cases pinned, since the derandomized draws move when unrelated code does:
# the pinched ties after a large translation (they need the rounding slack)
# and inside a block cut short, two agents that share a site through a
# translation, and a nan in sample 9, where the first anchor's first block
# ends and the next block or anchor would start
_SHIFTED = sparse_lattice()[None] + 0.25 * np.arange(14)[:, None, None]
_COINCIDENT = _SHIFTED.copy()
_COINCIDENT[:, 5] = _COINCIDENT[:, 9]
_NAN_ANCHOR = _SHIFTED.copy()
_NAN_ANCHOR[9, 7, 1] = np.nan
# and, on the k-d tree's side of the crossover, the non-finite closed form:
# agent 0 nan in sample 0, whose pair is (0, 1), and an inf in a middle sample
# between samples that keep the warm radius
_NAN_FIRST = drifting_lattice(KDTREE_MIN_AGENTS + 4, 5)
_NAN_FIRST[0, 0, 0] = np.nan
_INF_MIDDLE = drifting_lattice(KDTREE_MIN_AGENTS + 4, 5)
_INF_MIDDLE[2, 100, 1] = np.inf


@settings(max_examples=150, deadline=None, derandomize=True)
@given(position_stacks())
@example(_pinch(12, 0.25, np.array([7e5, -3e5, 1e5])))
@example(_pinch(20, 0.2, np.zeros(3)))
@example(_COINCIDENT)
@example(_NAN_ANCHOR)
@example(_NAN_FIRST)
@example(_INF_MIDDLE)
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


def centroid_team(fan, radii, share, ceiling):
    """The ring of a fan team, each leader moved radially to `radii` of its
    radius, the core, and one agent at each cell's centroid; the clearance is
    `share` of the tightest cell separation and the window's upper edge `ceiling`."""
    n_b = fan.n_pl - 1
    ring = fan.positions[:n_b] * np.reshape(radii, (n_b, 1))
    centroids = (ring + np.roll(ring, -1, axis=0)) / 3.0
    positions = np.vstack([ring, np.zeros((1, 3)), centroids])
    n_pl = n_b + 1
    partition = sd.LayerPartition((tuple(range(1, n_pl + 1)),
                                   tuple(range(n_pl + 1, n_pl + n_b + 1))))
    cells = sd.build_cells(partition, positions)
    clearance = share * min(cell.p_min for cell in cells)
    a0 = np.linalg.norm(ring, axis=1).max()
    safety = sd.SafetyParameters(clearance / 4.0, clearance / 4.0,
                                 ceiling * a0 + clearance, a0)
    return sd.TeamConfiguration(partition, positions, cells, safety)


def boundary_schedule(boundary, shift, core=0.0):
    """A schedule of boundary scales (n, n_pl - 1), a core column (0 unless
    given), and shifts (n, 3)."""
    n = boundary.shape[0]
    alpha = np.column_stack([boundary, np.broadcast_to(core, n)])
    return sd.Schedule(np.arange(n, dtype=float), alpha, shift, np.zeros(n), None,
                       boundary.min(), boundary.max(), 1e-6, "consistent")


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
    fan, _ = draw(fan_teams())
    n_b = fan.n_pl - 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    radii = rng.uniform(0.3, 1.0, n_b)
    share = draw(st.floats(0.1, 1.0))
    ceiling = draw(st.floats(1.0, 3.0))
    team = centroid_team(fan, radii, share, ceiling)
    top = draw(st.floats(0.5, 1.5)) * ceiling

    n = draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["independent", "equal", "nearly-equal"]))
    if kind == "independent":
        boundary = rng.uniform(0.15, top, (n, n_b))
    else:
        boundary = np.repeat(rng.uniform(0.15, top, (n, 1)), n_b, axis=1)
        if kind == "nearly-equal":
            boundary += 1e-9 * rng.uniform(-1.0, 1.0, (n, n_b))
    return team, boundary_schedule(boundary, rng.uniform(-5.0, 5.0, (n, 3)))


# hard cases pinned on one skewed six-leader team: all boundary scales equal
# (a double singular value in every cell), equal up to 1e-9 (a nearly double
# one), one scale exactly on the window's upper edge, which passes, or one
# double above it, which fails the window, and one negative scale, which
# folds its two cells and fails the window; 0.5 is the window's lower edge
_PIN_TEAM = centroid_team(fan_team(6, 3.0, [0.1, -0.2, 0.0, 0.25, -0.1, 0.05], 0.7, 1.3,
                                   [], 0)[0],
                          [1.0, 0.6, 0.8, 0.45, 0.9, 0.7], 0.5, 2.0)
_PIN_SHIFT = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0], [-3.0, 1.0, 2.0]])
_PIN_EQUAL = np.repeat([[0.4], [0.5], [1.9]], 6, axis=1)
_PIN_EDGE = np.full((3, 6), 1.0)
_PIN_EDGE[1, 3] = sd.alpha_bounds(_PIN_TEAM).alpha_max
_PIN_ABOVE = _PIN_EDGE.copy()
_PIN_ABOVE[1, 3] = np.nextafter(_PIN_EDGE[1, 3], np.inf)
_PIN_FOLDED = _PIN_EDGE.copy()
_PIN_FOLDED[1, 2] = -0.7
# and the magnitude bound: the core scale and a shift at +-MAX_COORDINATE,
# which pass the window, and one double beyond it, which fail it (a boundary
# scale there is far above the window, and its Jacobian reads singular)
_M, _BEYOND = MAX_COORDINATE, np.nextafter(MAX_COORDINATE, np.inf)
_PIN_SHIFT_AT_BOUND = _PIN_SHIFT.copy()
_PIN_SHIFT_AT_BOUND[0] = [_M, -_M, 0.0]
_PIN_SHIFT_BEYOND = _PIN_SHIFT.copy()
_PIN_SHIFT_BEYOND[2, 1] = -_BEYOND


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scaled_missions())
@example((_PIN_TEAM, boundary_schedule(_PIN_EQUAL, _PIN_SHIFT)))
@example((_PIN_TEAM, boundary_schedule(
    _PIN_EQUAL + 1e-9 * np.sin(np.arange(18.0)).reshape(3, 6), _PIN_SHIFT)))
@example((_PIN_TEAM, boundary_schedule(_PIN_EDGE, _PIN_SHIFT)))
@example((_PIN_TEAM, boundary_schedule(_PIN_ABOVE, _PIN_SHIFT)))
@example((_PIN_TEAM, boundary_schedule(_PIN_FOLDED, _PIN_SHIFT)))
@example((_PIN_TEAM, boundary_schedule(_PIN_EDGE, _PIN_SHIFT_AT_BOUND, [_M, -_M, 1.0])))
@example((_PIN_TEAM, boundary_schedule(_PIN_EDGE, _PIN_SHIFT, [1.0, _BEYOND, 1.0])))
@example((_PIN_TEAM, boundary_schedule(_PIN_EDGE, _PIN_SHIFT_BEYOND)))
def test_certificate_matches_svd_pdist_and_window_oracle(mission):
    team, schedule = mission
    weights = sd.build_layer_weights(team)
    desired = sd.trajectory_positions(team, weights, schedule.alpha, schedule.shift)
    report = sd.certify_configuration(team, schedule, desired)

    svd = np.array([[np.linalg.svd(cell_jacobian(team, cell, row), compute_uv=False)
                     for cell in team.cells] for row in schedule.alpha])
    assert np.all(np.abs(report.lambdas - svd) <= 1e-12 * np.maximum(1.0, svd[..., :1]))

    safety, tol = team.safety, report.margin_tol
    margins = svd[..., 2] - safety.clearance / np.array([cell.p_min for cell in team.cells])
    distance = np.min([pdist(p).min() for p in desired])   # nan where a value is beyond
    ceiling = (safety.a_max - safety.clearance) / safety.a0
    rest = np.hstack([schedule.alpha[:, -1:], schedule.shift])
    gates = (bool(margins.min() >= -tol), bool(distance >= safety.clearance - tol),
             bool(np.all((schedule.alpha[:, :-1] > 0) & (schedule.alpha[:, :-1] <= ceiling))
                  and np.all(np.abs(rest) <= MAX_COORDINATE)))
    assert (report.margins_ok, report.distance_ok, report.window_ok) == gates
    assert report.verdict == all(gates)


@st.composite
def non_finite_missions(draw):
    """A scaled mission and its commanded positions with one nan or inf in a
    schedule scale or shift (the positions follow), in one coordinate of the
    positions, or in a safety parameter."""
    team, schedule = draw(scaled_missions())
    value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    where = draw(st.sampled_from(["scale", "shift", "position", "delta", "epsilon",
                                  "a_max", "a0"]))
    sample = draw(st.integers(0, schedule.n_samples - 1))
    alpha, shift = schedule.alpha.copy(), schedule.shift.copy()
    if where == "scale":
        alpha[sample, draw(st.integers(0, team.n_pl - 1))] = value
    elif where == "shift":
        shift[sample, draw(st.integers(0, 2))] = value
    positions = sd.trajectory_positions(team, sd.build_layer_weights(team), alpha, shift)
    if where == "position":
        agent, axis = draw(st.integers(0, team.n_agents - 1)), draw(st.integers(0, 2))
        positions[sample, agent, axis] = value
    elif where not in ("scale", "shift"):
        team = dataclasses.replace(team, safety=dataclasses.replace(team.safety,
                                                                    **{where: value}))
    return team, dataclasses.replace(schedule, alpha=alpha, shift=shift), positions


@settings(max_examples=100, deadline=None, derandomize=True)
@given(non_finite_missions(), st.sampled_from(["desired", "actual"]))
def test_non_finite_input_is_never_safe(mission, kind):
    team, schedule, positions = mission
    try:
        report = sd.certify_configuration(team, schedule, positions, kind)
    except sd.SwarmError:
        return
    assert not report.verdict


def scenario_doc(team):
    """A scenario document holding a generated team."""
    safety = team.safety
    return {"schema": "swarm-scenario/1",
            "team": {"n_agents": team.n_agents,
                     "layers": [list(layer) for layer in team.partition.new_sets],
                     "positions": {agent: team.positions[agent - 1].tolist()
                                   for agent in range(1, team.n_agents + 1)}},
            "safety": {"delta": safety.delta, "epsilon": safety.epsilon,
                       "a_max": safety.a_max},
            "trajectory": {"kind": "helix"}}


# the magnitude bound and the doubles next to it; the pins keep a coordinate
# on each side of it covered whatever the derandomized draws become
@settings(max_examples=60, deadline=None, derandomize=True)
@given(fan_teams(), st.sampled_from([np.nan, np.inf, -np.inf, 2.0 * MAX_COORDINATE,
                                     -2.0 * MAX_COORDINATE, MAX_COORDINATE, -MAX_COORDINATE,
                                     np.nextafter(MAX_COORDINATE, np.inf),
                                     np.nextafter(-MAX_COORDINATE, -np.inf)]),
       st.integers(1, 40), st.integers(0, 2))
@example(NEAR_CORE, MAX_COORDINATE, 1, 0)
@example(NEAR_CORE, -MAX_COORDINATE, 2, 1)
@example(NEAR_CORE, np.nextafter(MAX_COORDINATE, np.inf), 1, 0)
def test_out_of_range_material_coordinate_is_refused(fan, value, agent, axis):
    # exactly a value outside [-MAX_COORDINATE, MAX_COORDINATE] is refused,
    # naming its agent, and none warns; a value at the bound may fail a later
    # check of the team, not the range
    team, _ = fan
    agent = (agent - 1) % team.n_agents + 1
    doc = scenario_doc(team)
    doc["team"]["positions"][agent][axis] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        if abs(value) <= MAX_COORDINATE:
            try:
                sd.load_scenario(doc)
            except sd.ScenarioError as exc:
                assert "material position" not in str(exc)
        else:
            with pytest.raises(sd.ScenarioError, match=rf"^agent {agent}: material position "
                                                       rf"must be in \[-1.60694e\+60, "):
                sd.load_scenario(doc)


def test_fan_team_at_the_magnitude_bound_stays_in_the_sweep_range():
    # material coordinates, scales and shifts all at +-MAX_COORDINATE (2**200):
    # the team passes the scenario's checks, every commanded position is a
    # convex row of alpha * a + s, so below 2**401 and far from the distance
    # sweep's 2**500, and the sweep equals the oracle with no warning
    m = MAX_COORDINATE
    ring = [[m, m, 0.0], [-m, m, 0.0], [-m, -m, 0.0], [m, -m, 0.0]]
    interior = [[0.5 * m, 0.25 * m, 0.0], [-0.25 * m, 0.5 * m, 0.0],
                [-0.5 * m, -0.5 * m, 0.0], [0.125 * m, -0.75 * m, 0.0], [0.75 * m, 0.0, 0.0]]
    doc = {"schema": "swarm-scenario/1",
           "team": {"n_agents": 10, "layers": ["1..5", "6..8", "9..10"],
                    "positions": dict(enumerate(ring + [[0.0, 0.0, 0.0]] + interior, 1))},
           "safety": {"delta": 1.0, "epsilon": 1.0, "a_max": m},
           "trajectory": {"kind": "helix"}}
    team = sd.load_scenario(doc).team
    signs = np.random.default_rng(7).choice([-1.0, 1.0], size=(16, team.n_pl + 3))
    signs[0], signs[1] = 1.0, -1.0
    stack = sd.trajectory_positions(team, sd.build_layer_weights(team),
                                    m * signs[:, :team.n_pl], m * signs[:, team.n_pl:])
    assert np.isfinite(stack).all() and np.abs(stack).max() < 2.0 ** 402
    assert np.abs(stack).max() >= 2.0 ** 399
    dist, pairs = closest_pairs(stack)
    ref_dist, ref_pairs = first_argmin_oracle(stack)
    assert dist.tobytes() == ref_dist.tobytes() and np.array_equal(pairs, ref_pairs)


def per_step_loop(desired, r, gains, dt, limit, t_grid):
    """The closed loop one step at a time with the guard after every step:
    the reference the blocked loop must equal bit for bit."""
    actual = np.empty_like(desired)
    tracking = np.zeros(desired.shape[0])
    v = np.zeros_like(r)
    actual[0] = r
    tracking[0] = np.linalg.norm(r - desired[0], axis=1).max()
    for i in range(1, desired.shape[0]):
        v_des = (desired[i] - desired[i - 1]) / dt
        r, v = pd_step(r, v, desired[i], v_des, gains, dt)
        actual[i] = r
        err = tracking[i] = np.linalg.norm(r - desired[i], axis=1).max()
        if not np.isfinite(err) or err > limit:
            raise sd.NumericalError(
                f"simulation diverged at t={t_grid[i]:.6g}: "
                f"tracking error {err:.6g} exceeds {limit:.6g}")
    return actual, tracking


# square13 steps in blocks of 2**13 // 39 = 210 samples; from the first command
# at dt 0.1 with kd = 0, kp just above the stability edge 400 diverges late
@settings(max_examples=40, deadline=None, derandomize=True)
@given(kp=st.floats(0.0, 450.0), kd=st.floats(0.0, 30.0),
       dt=st.sampled_from([0.05, 0.1, 0.25]), steps=st.integers(1, 450),
       start=st.sampled_from(["material", "command"]))
@example(kp=400.01, kd=0.0, dt=0.1, steps=450, start="command")    # step 294, mid-block
@example(kp=400.0266, kd=0.0, dt=0.1, steps=450, start="command")  # step 210, a block's last
@example(kp=1e6, kd=1e6, dt=0.1, steps=450, start="material")      # step 1, then inf in-block
def test_blocked_closed_loop_equals_per_step_loop(square_scenario, square_weights, kp, kd,
                                                  dt, steps, start):
    sc = square_scenario
    duration, bounds, gains = steps * dt, planning_bounds(sc), sd.ControllerGains(kp, kd)
    t_grid = sd.time_grid(duration, dt)
    schedule = sd.alpha_schedule(sc.team, square_weights, sc.trajectory, t_grid, bounds,
                                 sc.qp.zeta)
    desired = sd.trajectory_positions(sc.team, square_weights, schedule.alpha, schedule.shift)
    initial = sc.team.positions if start == "material" else desired[0]

    def blocked():
        return sd.run_simulation(sc.team, square_weights, sc.trajectory, duration, dt,
                                 bounds, sc.qp.zeta, gains=gains, initial_positions=initial)

    try:
        actual, tracking = per_step_loop(desired, initial.copy(), gains, dt,
                                         sim.DIVERGENCE_FACTOR * sc.team.safety.delta, t_grid)
    except sd.NumericalError as exc:
        with pytest.raises(sd.NumericalError) as info:
            blocked()
        assert str(info.value) == str(exc)
        return
    log = blocked()
    assert log.actual.tobytes() == actual.tobytes()
    assert log.tracking.tobytes() == tracking.tobytes()
