import dataclasses

import numpy as np
import pytest

import swarmdeform as sd
from swarmdeform.safety import cell_basis, min_pairwise_distance


def test_safety_window_frozen_values():
    safety = sd.SafetyParameters(delta=0.1, epsilon=0.4, a_max=101.0, a0=20.0)
    window = sd.safety_window([2.0], safety)
    assert window.as_tuple() == (0.5, 5.0)
    # tightest cell dominates the lower edge
    window = sd.safety_window([2.0, 4.0, 10.0], safety)
    assert window.alpha_min == 0.5


def test_safety_window_errors():
    safety = sd.SafetyParameters(0.1, 0.4, 101.0, 20.0)
    with pytest.raises(sd.SafetyWindowError, match="must be positive"):
        sd.safety_window([2.0, 0.0], safety)
    with pytest.raises(sd.SafetyWindowError, match="must be positive"):
        sd.safety_window([], safety)
    tight = sd.SafetyParameters(0.1, 0.4, 1.5, 20.0)
    with pytest.raises(sd.SafetyWindowError, match="safety window empty"):
        sd.safety_window([2.0], tight)


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
    for cell in square_team.cells:
        basis = cell_basis(square_team, cell)
        assert basis.alpha_index == (cell.vertices[1] - 1, cell.vertices[2] - 1)
        total = basis.k1 + basis.k2 + basis.k3
        assert np.max(np.abs(total - np.eye(3))) < 1e-14
        assert np.max(np.abs(basis.b1 + basis.b2 - np.eye(2))) < 1e-14
        q, b = sd.triangle_jacobian(square_team, cell, np.ones(square_team.n_pl))
        assert np.max(np.abs(q - np.eye(3))) < 1e-14
        assert np.array_equal(b, np.zeros(3))


def test_cell_basis_degenerate_raises():
    positions = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    partition = sd.LayerPartition(((1, 2, 3),))
    cell = sd.TriangleCell(1, (3, 1, 2), (1, 2, 3), 1.0)
    team = sd.TeamConfiguration(partition, positions, (cell,),
                                sd.SafetyParameters(0.1, 0.4, 25.0, 2.0))
    with pytest.raises(sd.NumericalError, match="degenerate"):
        cell_basis(team, cell)


def test_uniform_scale_spectrum(square_team):
    # Q = a*I + (1-a)*n n^T in the cell plane: singular values {1, a, a}
    alpha = np.full(5, 0.6)
    alpha[-1] = 0.0
    for cell in square_team.cells:
        q, _ = sd.triangle_jacobian(square_team, cell, alpha)
        vals = sd.pure_deformation_spectrum(q)
        assert np.max(np.abs(vals - [1.0, 0.6, 0.6])) < 1e-12


def test_skewed_cell_dips_below_smaller_alpha():
    # 45-degree cell with unequal vertex scales: the smallest singular value
    # drops below min(alpha), so certification must not shortcut to the box
    r = np.sqrt(0.5)
    positions = np.array([[1.0, 0.0, 0.0], [r, r, 0.0], [0.0, 0.0, 0.0]])
    partition = sd.LayerPartition(((1, 2, 3),))
    cell = sd.TriangleCell(1, (3, 1, 2), (1, 2, 3), 1.0)
    team = sd.TeamConfiguration(partition, positions, (cell,),
                                sd.SafetyParameters(0.1, 0.4, 25.0, 1.0))
    q, _ = sd.triangle_jacobian(team, cell, np.array([1.0, 0.5, 0.0]))
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
    q = np.diag([1.0, 1.0, 0.0])
    with pytest.raises(sd.NumericalError, match="singular"):
        sd.pure_deformation_spectrum(q)


def test_spectrum_non_finite_raises():
    # checked before the singular test: an infinite entry makes the singular
    # threshold infinite, so diag(1, inf, 2) would read as singular
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
    with np.errstate(invalid="ignore"):
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


def test_certify_singular_jacobian_raises(square_team, square_weights, square_certification):
    schedule, _ = square_certification
    alpha = schedule.alpha.copy()
    alpha[3, 0] = 0.0
    collapsed = dataclasses.replace(schedule, alpha=alpha)
    desired = sd.trajectory_positions(square_team, square_weights, alpha, collapsed.shift)
    with pytest.raises(sd.NumericalError, match="deformation Jacobian is singular"):
        sd.certify_configuration(square_team, collapsed, desired)


def test_certified_spectra_of_folded_cells_match_svd(square_team, square_certification):
    # a negative scale folds its cells (det Q < 0); the values stay SVD's
    schedule, desired = square_certification
    alpha = schedule.alpha.copy()
    alpha[:, 0] = np.linspace(-1.1, -0.4, schedule.n_samples)
    alpha[:, 1] = 0.9
    folded = dataclasses.replace(schedule, alpha=alpha)
    report = sd.certify_configuration(square_team, folded, desired)
    svd = np.array([[np.linalg.svd(sd.triangle_jacobian(square_team, cell, row)[0],
                                   compute_uv=False) for cell in square_team.cells]
                    for row in alpha])
    assert np.max(np.abs(report.lambdas - svd)) <= 1e-12
