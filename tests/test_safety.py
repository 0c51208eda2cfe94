import dataclasses
import sys
import warnings

import numpy as np
import pytest

import swarmdeform as sd
from conftest import cell_jacobian, drifting_lattice, first_argmin_oracle, sparse_lattice
from swarmdeform import safety
from swarmdeform.safety import KDTREE_MIN_AGENTS, cell_blocks, closest_pairs, min_pairwise_distance
from swarmdeform.scenario import planning_bounds


def test_safety_window_frozen_values():
    safety = sd.SafetyParameters(delta=0.1, epsilon=0.4, a_max=101.0, a0=20.0)
    window = sd.safety_window([2.0], safety)
    assert (window.alpha_min, window.alpha_max) == (0.5, 5.0)
    # tightest cell dominates the lower edge
    window = sd.safety_window([2.0, 4.0, 10.0], safety)
    assert window.alpha_min == 0.5


def test_safety_window_errors():
    safety = sd.SafetyParameters(0.1, 0.4, 101.0, 20.0)
    with pytest.raises(sd.SafetyWindowError, match=r"cell separations must be in \(0, inf\)"):
        sd.safety_window([2.0, 0.0], safety)
    with pytest.raises(sd.SafetyWindowError, match="no cell separations"):
        sd.safety_window([], safety)
    tight = sd.SafetyParameters(0.1, 0.4, 1.5, 20.0)
    with pytest.raises(sd.SafetyWindowError, match="safety window empty"):
        sd.safety_window([2.0], tight)


@pytest.mark.parametrize("separations, safety", [
    ([1.0, np.nan], (0.1, 0.4, 101.0, 20.0)),
    ([np.nan, 1.0], (0.1, 0.4, 101.0, 20.0)),
    ([2.0, np.inf], (0.1, 0.4, 101.0, 20.0)),
    ([2.0], (np.inf, 0.4, 101.0, 20.0)),
    ([2.0], (0.1, 0.4, np.inf, 20.0)),
    ([2.0], (0.1, 0.4, 101.0, np.nan)),
], ids=["nan-last", "nan-first", "inf-separation", "inf-clearance", "inf-a_max", "nan-a0"])
def test_safety_window_non_finite_raises(separations, safety):
    # max() skips a nan that is not first, and an infinite a_max opens the
    # upper edge; either would let a window through
    with pytest.raises(sd.SafetyWindowError, match=r"must be in \(0, inf\), got (nan|inf)"):
        sd.safety_window(separations, sd.SafetyParameters(*safety))


def test_alpha_bounds_infinite_a_max_raises(square_team):
    team = dataclasses.replace(square_team,
                               safety=dataclasses.replace(square_team.safety, a_max=np.inf))
    assert sd.validate_team(team).ok
    with pytest.raises(sd.SafetyWindowError, match=r"a_max and a0 must be in \(0, inf\), got inf"):
        sd.alpha_bounds(team)


def test_alpha_bounds_square(square_team):
    window = sd.alpha_bounds(square_team)
    assert window.alpha_min == pytest.approx(0.4 / np.sqrt(1.25), abs=1e-15)
    assert window.alpha_max == pytest.approx(1.125, abs=1e-15)


def test_alpha_bounds_helix(helix_team):
    window = sd.alpha_bounds(helix_team)
    assert window.alpha_min == pytest.approx(64.0 / np.sqrt(20000.0), rel=1e-12)
    assert window.alpha_max == pytest.approx(24.0 / np.sqrt(401.0), rel=1e-12)
    # the scenario's fixed lower bound clears the window's lower edge; the
    # fixed upper bound deliberately exceeds the window's upper edge
    assert window.alpha_min < 0.6
    assert window.alpha_max < 5.0


def test_cell_basis_partitions_identity(square_team):
    index, b1, b2 = cell_blocks(square_team)
    assert index.tolist() == [[cell.vertices[1] - 1, cell.vertices[2] - 1]
                              for cell in square_team.cells]
    assert b1.shape == b2.shape == (len(square_team.cells), 2, 2)
    assert np.max(np.abs(b1 + b2 - np.eye(2))) < 1e-14
    for cell in square_team.cells:
        q = cell_jacobian(square_team, cell, np.ones(square_team.n_pl))
        assert np.max(np.abs(q - np.eye(3))) < 1e-14


def test_cell_basis_degenerate_raises():
    positions = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                          [0.0, 0.0, 0.0]])
    partition = sd.LayerPartition(((1, 2, 3, 4),))
    cell = sd.TriangleCell(1, (4, 1, 2), (1, 2, 4), 1.0, (), np.zeros((0, 3)))
    team = sd.TeamConfiguration(partition, positions, (cell,),
                                sd.SafetyParameters(0.1, 0.4, 25.0, 2.0))
    with pytest.raises(sd.NumericalError, match="degenerate"):
        cell_blocks(team)


def test_uniform_scale_spectrum(square_team):
    # Q = a*I + (1-a)*n n^T in the cell plane: singular values {1, a, a}
    alpha = np.full(5, 0.6)
    alpha[-1] = 0.0
    for cell in square_team.cells:
        q = cell_jacobian(square_team, cell, alpha)
        vals = sd.pure_deformation_spectrum(q)
        assert np.max(np.abs(vals - [1.0, 0.6, 0.6])) < 1e-12


def test_skewed_cell_dips_below_smaller_alpha():
    # 45-degree cell with unequal vertex scales: the smallest singular value
    # drops below min(alpha), so certification must not shortcut to the box
    r = np.sqrt(0.5)
    positions = np.array([[1.0, 0.0, 0.0], [r, r, 0.0], [0.0, -1.0, 0.0],
                          [0.0, 0.0, 0.0]])
    partition = sd.LayerPartition(((1, 2, 3, 4),))
    cell = sd.TriangleCell(1, (4, 1, 2), (1, 2, 4), 1.0, (), np.zeros((0, 3)))
    team = sd.TeamConfiguration(partition, positions, (cell,),
                                sd.SafetyParameters(0.1, 0.4, 25.0, 1.0))
    q = cell_jacobian(team, cell, np.array([1.0, 0.5, 1.0, 0.0]))
    vals = sd.pure_deformation_spectrum(q)
    oracle = np.linalg.svd(q, compute_uv=False)
    assert np.max(np.abs(vals - oracle)) < 1e-12
    assert vals[2] < 0.5
    assert vals[2] == pytest.approx(0.437, abs=2e-3)


def test_spectrum_matches_svd_on_random_batch():
    rng = np.random.default_rng(17)
    mats = rng.normal(size=(200, 3, 3))
    vals = sd.pure_deformation_spectrum(mats)
    oracle = np.linalg.svd(mats, compute_uv=False)
    assert np.max(np.abs(vals - oracle)) < 1e-10


def test_spectrum_shapes_and_diagonal():
    mats = np.broadcast_to(np.diag([4.0, 9.0, 1.0]), (2, 5, 3, 3)).copy()
    vals = sd.pure_deformation_spectrum(mats)
    assert vals.shape == (2, 5, 3)
    assert np.array_equal(vals[0, 0], [9.0, 4.0, 1.0])
    assert np.array_equal(sd.pure_deformation_spectrum(np.diag([4.0, 9.0, 1.0])),
                          [9.0, 4.0, 1.0])


def test_spectrum_singular_raises():
    # singular when (sigma_2 / sigma_1) (sigma_3 / sigma_1) <= 1e-12, that is
    # sigma_1 sigma_2 sigma_3 <= 1e-12 sigma_1**3. The near case has det 9.0e-12
    # against 1e-12 sigma_1**3 = 2.7e-11: the cutoff scales with sigma_1, not
    # with the largest entry (1e-12 max|Q|**3 = 1e-12). The zero matrix's
    # ratios would be 0/0, and it must still be singular. A finite Jacobian at
    # 1e200 is singular too, where sigma_1**3 would overflow: the ratio form
    # gives no warning
    near = np.ones((3, 3)) + np.diag([0.0, 3e-6, 3e-6])
    assert np.linalg.det(near) == pytest.approx(9.0e-12, rel=1e-3)
    for q in (np.diag([1.0, 1.0, 0.0]), np.diag([1.0, 1.0, 5e-13]), near, np.zeros((3, 3)),
              np.diag([1e200, 0.5, 1.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(sd.NumericalError, match="singular"):
                sd.pure_deformation_spectrum(q)
    np.testing.assert_allclose(sd.pure_deformation_spectrum(np.diag([1.0, 1.0, 2e-12])),
                               [1.0, 1.0, 2e-12], rtol=1e-9)


def test_spectrum_non_finite_raises():
    # checked before the SVD, whose answer to a nan or an inf varies by build
    mats = np.broadcast_to(np.eye(3), (4, 3, 3)).copy()
    mats[2, 0, 1] = np.nan
    for q in (mats, np.diag([1.0, np.inf, 2.0])):
        with pytest.raises(sd.NumericalError, match="not finite"):
            sd.pure_deformation_spectrum(q)


def test_min_pairwise_distance_decode():
    rng = np.random.default_rng(29)
    for n in (2, 3, 5, 8, 12):
        for _ in range(20):
            pts = rng.normal(size=(n, 3))
            d, (i, j) = min_pairwise_distance(pts)
            best = np.inf
            best_pair = None
            for a in range(n):
                for b in range(a + 1, n):
                    dist = float(np.linalg.norm(pts[a] - pts[b]))
                    if dist < best:
                        best, best_pair = dist, (a, b)
            assert (i, j) == best_pair
            assert d == pytest.approx(best, rel=1e-12)
    with pytest.raises(ValueError, match="at least two"):
        min_pairwise_distance(np.zeros((1, 3)))


def _counting_pdist(monkeypatch):
    calls = []

    def pdist(p):
        calls.append(1)
        return safety_pdist(p)

    safety_pdist = safety.pdist
    monkeypatch.setattr(safety, "pdist", pdist)
    return calls


def _assert_oracle_but_beyond(stack, dist, pairs, beyond=()):
    """The samples `beyond`, whose agent 0 lies beyond _MAX_COORD, read nan at
    the pair (0, 1); every other sample is the oracle's, bit for bit."""
    beyond = np.asarray(beyond, dtype=np.intp)
    assert np.all(np.abs(stack[beyond, 0]).max(axis=-1) > safety._MAX_COORD)
    assert np.isnan(dist[beyond]).all() and (pairs[beyond] == (0, 1)).all()
    ref_dist, ref_pairs = first_argmin_oracle(stack)
    keep = np.ones(stack.shape[0], dtype=bool)
    keep[beyond] = False
    assert dist[keep].tobytes() == ref_dist[keep].tobytes()
    assert np.array_equal(pairs[keep], ref_pairs[keep])


@pytest.mark.parametrize("start", [9, 10], ids=["block-edge", "mid-block"])
@pytest.mark.parametrize("scale", [1e-200, 1e160], ids=["underflow", "overflow"])
def test_closest_pairs_extreme_coordinates_match_pdist(monkeypatch, scale, start):
    # from sample `start` on, the team sits at `scale`: its squares underflow
    # to 0, which the anchored bound cannot reason about, or it lies beyond
    # _MAX_COORD (2**500), a range no stack the program builds reaches, and
    # reads nan like a non-finite sample
    stack = sparse_lattice()[None] + 0.25 * np.arange(16)[:, None, None]
    stack[start:] *= scale
    calls = _counting_pdist(monkeypatch)
    dist, pairs = closest_pairs(stack)
    _assert_oracle_but_beyond(stack, dist, pairs, range(start, 16) if scale > 1.0 else ())
    # samples 1 to 8 come from the first anchor's first block. A sample
    # beyond _MAX_COORD ends the anchored run before it and takes no pdist;
    # an underflowed one fails the second block (samples 9 to 15) whole, and
    # that block's first sample is the next anchor
    assert len(calls) == (1 if scale > 1.0 else 1 + 16 - 9)
    # the k-d tree path takes an underflowed sample itself, and no path takes
    # one beyond _MAX_COORD
    large = drifting_lattice(KDTREE_MIN_AGENTS + 4, 8)
    large[start - 4:] *= scale
    calls = _counting_pdist(monkeypatch)
    dist, pairs = closest_pairs(large)
    _assert_oracle_but_beyond(large, dist, pairs, range(start - 4, 8) if scale > 1.0 else ())
    assert len(calls) == 0


def test_non_finite_samples_make_no_pdist_call(monkeypatch):
    # their nan and first pair are written directly: the anchored sweep
    # pdists only the anchors of the two finite runs around sample 9, and
    # the k-d tree path none at all
    small = sparse_lattice()[None] + 0.25 * np.arange(14)[:, None, None]
    small[9, 7, 1] = np.nan
    large = drifting_lattice(KDTREE_MIN_AGENTS + 4, 5)
    large[0, 0, 0] = np.nan
    large[2, 100, 1] = np.inf
    for stack, pdists in ((small, 2), (large, 0)):
        calls = _counting_pdist(monkeypatch)
        dist, pairs = closest_pairs(stack)
        ref_dist, ref_pairs = first_argmin_oracle(stack)
        assert dist.tobytes() == ref_dist.tobytes() and np.array_equal(pairs, ref_pairs)
        assert len(calls) == pdists


@pytest.fixture(scope="module")
def helix_sweeps(helix_scenario, helix_weights):
    """Desired and actual stacks of the 1000 s helix67 mission at dt 0.4, per
    scaling mode; paper-exact starts from its first command, consistent from
    the material configuration (the benchmark's two helix67 workloads)."""
    sc = helix_scenario
    stacks = {}
    for scaling in ("consistent", "paper-exact"):
        grid = sd.time_grid(sc.sim.duration, 0.4)
        schedule = sd.alpha_schedule(sc.team, helix_weights, sc.trajectory, grid,
                                     planning_bounds(sc), sc.qp.zeta, scaling)
        first = sd.trajectory_positions(sc.team, helix_weights, schedule.alpha[:1],
                                        schedule.shift[:1])[0]
        log = sd.run_simulation(sc.team, helix_weights, sc.trajectory, sc.sim.duration,
                                0.4, planning_bounds(sc), sc.qp.zeta, scaling,
                                initial_positions=None if scaling == "consistent" else first)
        stacks[scaling] = {"desired": log.desired, "actual": log.actual}
    return stacks


@pytest.mark.parametrize("kind", ["desired", "actual"])
@pytest.mark.parametrize("scaling", ["consistent", "paper-exact"])
def test_helix_sweep_matches_pdist_and_skips_it_when_rigid(monkeypatch, helix_sweeps,
                                                           scaling, kind):
    stack = helix_sweeps[scaling][kind]
    calls = _counting_pdist(monkeypatch)
    dist, pairs = closest_pairs(stack)
    ref_dist, ref_pairs = first_argmin_oracle(stack)
    assert dist.tobytes() == ref_dist.tobytes() and np.array_equal(pairs, ref_pairs)
    share = len(calls) / stack.shape[0]
    # a rigid translation (consistent commands) needs pdist on its anchors
    # only; a deforming team (paper-exact) stays on per-sample pdist
    if scaling == "paper-exact":
        assert share >= 0.95
    elif kind == "desired":
        assert share < 0.05


def test_tree_warm_radius_falls_back_after_a_jump(monkeypatch):
    rng = np.random.default_rng(7)
    m = KDTREE_MIN_AGENTS
    sites = np.stack(np.unravel_index(rng.permutation(7 ** 3)[:m], (7,) * 3), axis=1)
    first = sites + 0.3 * rng.uniform(-1.0, 1.0, (m, 3))
    drift = first + 0.01 * rng.normal(size=(m, 3))
    jump = drift[rng.permutation(m)]
    stack = np.stack([first, drift, jump, jump + 0.01 * rng.normal(size=(m, 3))])
    radii = []

    class RecordingTree(safety.cKDTree):
        def query_pairs(self, r, *args, **kwargs):
            radii.append(r)
            return super().query_pairs(r, *args, **kwargs)

    monkeypatch.setattr(safety, "cKDTree", RecordingTree)
    dist, pairs = closest_pairs(stack)
    ref_dist, ref_pairs = first_argmin_oracle(stack)
    assert dist.tobytes() == ref_dist.tobytes() and np.array_equal(pairs, ref_pairs)
    # the drift sample's closest pair is far apart after the jump, so a warm
    # radius would take in many pairs; the jump sample asks for the
    # nearest-neighbour radius instead, and the samples around it stay tight
    stale = np.linalg.norm(jump[pairs[1, 0]] - jump[pairs[1, 1]])
    assert stale > 3.0 * dist[2]
    assert radii[2] == pytest.approx(dist[2] * (1.0 + 1e-9), rel=1e-12)
    assert np.all(np.array(radii) <= 1.01 * dist)


@pytest.fixture(scope="module")
def split_lattice():
    """40 samples of a drifting lattice just large enough to split the tree sweep."""
    return drifting_lattice(safety._SPLIT_MIN_AGENTS + 4, 40)


# the bad samples straddle the middle: on two runs the first ends before them
# and the second starts after them; on three the middle run holds them
@pytest.mark.parametrize("nan_at, huge_at, starts", [
    (None, None, (1, 2, 3)), (19, 20, (2, 2, 4)), (20, 19, (2, 2, 4)),
], ids=["finite", "nan-then-huge", "huge-then-nan"])
def test_split_tree_sweep_matches_pdist(monkeypatch, split_lattice, nan_at, huge_at, starts):
    stack = split_lattice.copy()
    beyond = ()
    if nan_at is not None:
        stack[nan_at, 7, 1] = np.nan
        stack[huge_at] *= 2.0 ** 510   # beyond _MAX_COORD: reads nan at (0, 1)
        beyond = (huge_at,)
    queries = []

    class RecordingTree(safety.cKDTree):
        def query(self, *args, **kwargs):
            queries.append(1)
            return super().query(*args, **kwargs)

    monkeypatch.setattr(safety, "cKDTree", RecordingTree)
    # runs write disjoint samples of shared arrays: switching threads often,
    # three of them on fewer cores, a lost write would show as a nan or a 0 pair
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers, expected in zip((1, 2, 3), starts):
            monkeypatch.setattr(safety, "_usable_cpus", lambda: workers)
            queries.clear()
            dist, pairs = closest_pairs(stack)
            _assert_oracle_but_beyond(stack, dist, pairs, beyond)
            # the nearest-neighbour radius is taken at each run's first sample
            # and after the bad samples (sample 21), the warm radius elsewhere
            assert len(queries) == expected
    finally:
        sys.setswitchinterval(interval)


def test_tree_sweep_splits_only_large_teams_and_long_runs(monkeypatch):
    runs = []

    def sweep(stack, in_range, run, dist, pairs):
        runs.append(run.tolist())

    monkeypatch.setattr(safety, "_tree_sweep", sweep)
    monkeypatch.setattr(safety, "_usable_cpus", lambda: 4)
    small = drifting_lattice(KDTREE_MIN_AGENTS, 1)
    large = drifting_lattice(safety._SPLIT_MIN_AGENTS, 1)
    for stack, n, expected in ((small, 40, 1), (large, 2 * safety._MIN_RUN - 1, 1),
                               (large, 3 * safety._MIN_RUN, 3), (large, 40, 4)):
        runs.clear()
        closest_pairs(np.repeat(stack, n, axis=0))
        assert len(runs) == expected
        assert sorted(s for run in runs for s in run) == list(range(n))
        assert min(map(len, runs)) >= (safety._MIN_RUN if expected > 1 else 0)
    monkeypatch.setattr(safety, "_usable_cpus", lambda: 1)
    runs.clear()
    closest_pairs(np.repeat(large, 40, axis=0))
    assert runs == [list(range(40))]


@pytest.fixture(scope="module")
def square_certification(square_team, square_weights, square_scenario):
    t_grid = np.linspace(0.0, 5.0, 6)
    schedule = sd.alpha_schedule(square_team, square_weights,
                                 square_scenario.trajectory, t_grid, (0.5, 1.1))
    desired = sd.trajectory_positions(square_team, square_weights,
                                      schedule.alpha, schedule.shift)
    return schedule, desired


def test_certify_square_schedule(square_team, square_certification):
    schedule, desired = square_certification
    report = sd.certify_configuration(square_team, schedule, desired)
    assert report.verdict and report.margins_ok and report.distance_ok
    assert report.positions_kind == "desired"
    assert report.lambdas.shape == (6, 4, 3)
    assert report.margins.shape == (6, 4)
    # alpha rides 0.5 throughout: lambda_3 = 0.5 against bound 0.4/sqrt(1.25)
    expected_margin = 0.5 - 0.4 / np.sqrt(1.25)
    assert np.max(np.abs(report.margins - expected_margin)) < 1e-12
    assert report.worst_margin == report.margins.min()
    assert report.distance_threshold == square_team.safety.clearance
    assert report.min_distance == pytest.approx(0.5 * np.sqrt(1.25), rel=1e-12)
    assert report.min_distance == report.distance_trace.min()
    assert "SAFE" in report.summary()


def test_certify_actual_positions_threshold(square_team, square_certification):
    schedule, desired = square_certification
    report = sd.certify_configuration(square_team, schedule, desired,
                                      positions_kind="actual")
    assert report.distance_threshold == 2.0 * square_team.safety.epsilon
    assert report.verdict


def test_certify_flags_violations(square_team, square_weights, square_scenario):
    # dropping the lower bound to 0.2 shrinks pairs below the clearance
    t_grid = np.linspace(0.0, 2.0, 3)
    schedule = sd.alpha_schedule(square_team, square_weights,
                                 square_scenario.trajectory, t_grid, (0.2, 1.1))
    desired = sd.trajectory_positions(square_team, square_weights,
                                      schedule.alpha, schedule.shift)
    report = sd.certify_configuration(square_team, schedule, desired)
    assert not report.margins_ok
    assert not report.distance_ok
    assert not report.verdict
    assert report.worst_margin == pytest.approx(0.2 - 0.4 / np.sqrt(1.25), abs=1e-12)
    assert "UNSAFE" in report.summary()
    assert report.min_distance < report.distance_threshold


def test_certify_validates_inputs(square_team, square_certification):
    schedule, desired = square_certification
    with pytest.raises(ValueError, match="positions_kind"):
        sd.certify_configuration(square_team, schedule, desired, positions_kind="raw")
    with pytest.raises(ValueError, match="does not match"):
        sd.certify_configuration(square_team, schedule, desired[:-1])


@pytest.mark.parametrize("rows", [slice(None), slice(3, 4)], ids=["every-sample", "one-sample"])
def test_certify_fails_closed_on_nan_positions(square_team, square_weights,
                                              square_certification, rows):
    schedule, _ = square_certification
    shift = schedule.shift.copy()
    shift[rows, 0] = np.nan
    desired = sd.trajectory_positions(square_team, square_weights, schedule.alpha, shift)
    report = sd.certify_configuration(square_team, schedule, desired)
    assert report.margins_ok
    assert not report.distance_ok and not report.verdict
    assert np.isnan(report.min_distance)
    assert report.min_distance_index == (0 if rows == slice(None) else 3)
    assert report.summary().startswith("UNSAFE:")


@pytest.mark.parametrize("value", [10.0, -0.5, np.nan, np.inf, -np.inf])
def test_certify_fails_closed_outside_window(square_team, square_weights,
                                             square_certification, value):
    schedule, _ = square_certification
    alpha = schedule.alpha.copy()
    alpha[2:, :-1] = value
    bad = dataclasses.replace(schedule, alpha=alpha)
    desired = sd.trajectory_positions(square_team, square_weights, alpha, bad.shift)
    report = sd.certify_configuration(square_team, bad, desired)
    assert not report.window_ok and not report.verdict
    assert report.window_index == 2
    assert report.alpha_ceiling == sd.alpha_bounds(square_team).alpha_max == 1.125
    assert report.summary().startswith("UNSAFE:")
    assert f"boundary scale {value:.6g} outside the window (alpha_max 1.125, sample 2)" \
        in report.summary()
    if np.isfinite(value):  # larger scales pass every other gate, and -0.5
        # point-reflects every cell, with the lambdas and distances of 0.5
        assert report.margins_ok and report.distance_ok
    else:  # and a non-finite one reads nan in every cell from that sample on
        assert np.isnan(report.margins[2:]).all() and not report.margins_ok
        assert np.isfinite(report.margins[:2]).all()


@pytest.mark.parametrize("entry, where", [("shift s_y", ("shift", 1)),
                                          ("core scale", ("alpha", -1))],
                         ids=["shift", "core-scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf, 1e308])
def test_certify_fails_closed_on_non_finite_shift_or_core_scale(
        square_team, square_certification, entry, where, value):
    # no other gate reads these columns: certified against the clean commanded
    # stack, the schedule would pass every other gate; a finite value beyond
    # team.MAX_COORDINATE is out of range too, since trajectory_positions reads
    # it as nan
    schedule, desired = square_certification
    column = getattr(schedule, where[0]).copy()
    column[5, where[1]] = value
    bad = dataclasses.replace(schedule, **{where[0]: column})
    report = sd.certify_configuration(square_team, bad, desired)
    assert report.margins_ok and report.distance_ok
    assert not report.window_ok and not report.verdict
    assert (report.window_index, report.window_entry) == (5, entry)
    assert report.summary() == (sd.certify_configuration(square_team, schedule, desired)
                                .summary().replace("SAFE", "UNSAFE")
                                + f", {entry} {value:.6g} out of range (sample 5)")
    assert "boundary scale" not in report.summary()


def test_certify_window_edge_is_admissible(square_team, square_weights,
                                           square_certification):
    schedule, desired = square_certification
    report = sd.certify_configuration(square_team, schedule, desired)
    assert report.window_ok and report.window_index == -1
    assert "window" not in report.summary()
    alpha = schedule.alpha.copy()
    alpha[:, :-1] = 1.125
    edge = dataclasses.replace(schedule, alpha=alpha)
    desired = sd.trajectory_positions(square_team, square_weights, alpha, edge.shift)
    assert sd.certify_configuration(square_team, edge, desired).verdict


@pytest.mark.parametrize("scale", [0.0, 1e-12, 1e7])
def test_certify_singular_jacobian_is_unsafe(square_team, square_weights, square_certification,
                                             scale):
    # a singular cell reads nan in every lambda, as an out-of-range scale
    # does, so the margin gate fails; pure_deformation_spectrum still raises.
    # A scale at 0 or far above the window is named by the window gate too
    schedule, desired = square_certification
    base = sd.certify_configuration(square_team, schedule, desired)
    alpha = schedule.alpha.copy()
    alpha[3, 0] = scale
    collapsed = dataclasses.replace(schedule, alpha=alpha)
    desired = sd.trajectory_positions(square_team, square_weights, alpha, collapsed.shift)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = sd.certify_configuration(square_team, collapsed, desired)
    singular = np.zeros(report.margins.shape, dtype=bool)
    singular[3] = [1 in cell.vertices for cell in square_team.cells]
    assert np.isnan(report.lambdas[singular]).all()
    assert np.array_equal(report.lambdas[~singular], base.lambdas[~singular])
    assert not report.margins_ok and not report.verdict
    assert report.worst_margin_index == 3
    assert report.worst_margin_cell == square_team.cells[np.argmax(singular[3])].cell_id
    if scale == 1e-12:
        assert report.window_ok
    else:
        assert (report.window_index, report.window_alpha) == (3, scale)


def test_certified_spectra_of_folded_cells_match_svd(square_team, square_certification):
    # a negative scale folds its cells (det Q < 0); the values stay SVD's
    schedule, desired = square_certification
    alpha = schedule.alpha.copy()
    alpha[:, 0] = np.linspace(-1.1, -0.4, schedule.n_samples)
    alpha[:, 1] = 0.9
    folded = dataclasses.replace(schedule, alpha=alpha)
    report = sd.certify_configuration(square_team, folded, desired)
    svd = np.array([[np.linalg.svd(cell_jacobian(square_team, cell, row),
                                   compute_uv=False) for cell in square_team.cells]
                    for row in alpha])
    assert np.max(np.abs(report.lambdas - svd)) <= 1e-12
