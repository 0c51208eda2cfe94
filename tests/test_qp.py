import warnings

import numpy as np
import pytest

import swarmdeform as sd
from swarmdeform.qp import _box_active_set

from conftest import grid_search_solution, random_planner_instance


@pytest.fixture(scope="module")
def square_rows(square_team, square_weights):
    return sd.compose_delta_rows(square_team, square_weights)


def test_assemble_consistent_structure(square_rows):
    s = np.array([0.3, -0.2, 0.1])
    problem = sd.assemble_problem(square_rows, s, (0.5, 1.1))
    r = square_rows.r_matrix()
    rtr = r.T @ r
    assert problem.dim == 8
    assert np.array_equal(problem.h, 2.0 * 1e-6 * np.eye(8) + 2.0 * rtr)
    assert np.array_equal(problem.k, -2.0 * (r.T @ s))
    # box rows on the four boundary scale factors only
    assert np.array_equal(problem.a_ineq[:4, :4], -np.eye(4))
    assert np.array_equal(problem.a_ineq[4:, :4], np.eye(4))
    assert np.all(problem.a_ineq[:, 4:] == 0.0)
    assert np.array_equal(problem.b_ineq, [-0.5] * 4 + [1.1] * 4)
    assert np.array_equal(problem.a_eq @ np.arange(8.0), [4.0, 5.0, 6.0, 7.0])
    assert np.array_equal(problem.b_eq, [0.0, 0.3, -0.2, 0.1])


def test_assemble_paper_exact_halves_quadratic(square_rows):
    s = np.array([1.0, 0.0, 0.0])
    cons = sd.assemble_problem(square_rows, s, (0.5, 1.1), scaling="consistent")
    half = sd.assemble_problem(square_rows, s, (0.5, 1.1), scaling="paper-exact")
    assert np.array_equal(2.0 * half.h, cons.h)
    assert np.array_equal(half.k, cons.k)


def test_assemble_validation(square_rows):
    s = np.zeros(3)
    with pytest.raises(sd.ScenarioError, match="zeta must be positive"):
        sd.assemble_problem(square_rows, s, (0.5, 1.1), zeta=0.0)
    with pytest.raises(sd.ScenarioError, match="unknown scaling mode"):
        sd.assemble_problem(square_rows, s, (0.5, 1.1), scaling="exact")
    with pytest.raises(sd.ScenarioError, match="infeasible alpha bounds"):
        sd.assemble_problem(square_rows, s, (1.1, 0.5))
    with pytest.raises(sd.ScenarioError, match="desired shift"):
        sd.assemble_problem(square_rows, np.array([np.nan, 0.0, 0.0]), (0.5, 1.1))
    for zeta in (np.nan, np.inf):
        with pytest.raises(sd.ScenarioError, match="zeta must be positive"):
            sd.assemble_problem(square_rows, s, (0.5, 1.1), zeta=zeta)
    for bounds in ((np.nan, 1.1), (0.5, np.nan), (-np.inf, 1.1), (0.5, np.inf)):
        with pytest.raises(sd.ScenarioError, match="alpha bounds must be finite"):
            sd.assemble_problem(square_rows, s, bounds)


def test_zero_centroid_team_rides_lower_bound(square_rows):
    # the square team is centro-symmetric, so shrinking as far as the box
    # allows costs nothing and the planner settles on alpha_min exactly
    s = np.array([0.3, -0.2, 0.1])
    problem = sd.assemble_problem(square_rows, s, (0.5, 1.1))
    sol = sd.solve_box_eq_qp(problem)
    assert np.array_equal(sol.alpha, [0.5, 0.5, 0.5, 0.5, 0.0])
    assert np.array_equal(sol.shift, s)
    assert max(sol.kkt) <= 1e-8
    nominal = square_rows.r_matrix() @ sol.x
    assert np.max(np.abs(nominal - s)) < 1e-12


def test_collapsed_bounds_pin_alpha(square_rows):
    s = np.array([-0.4, 0.0, 0.2])
    problem = sd.assemble_problem(square_rows, s, (0.8, 0.8))
    sol = sd.solve_box_eq_qp(problem)
    assert np.array_equal(sol.alpha, [0.8, 0.8, 0.8, 0.8, 0.0])
    assert sol.stationarity == 0.0
    assert max(sol.kkt) <= 1e-8


def test_interior_solution_matches_equality_kkt_oracle():
    rng = np.random.default_rng(21)
    for _ in range(10):
        rows, s, _ = random_planner_instance(rng)
        problem = sd.assemble_problem(rows, s, (-10.0, 10.0), scaling="paper-exact")
        sol = sd.solve_box_eq_qp(problem)
        # wide box: only the equality block binds, so the full KKT system is linear
        dim = problem.dim
        kkt = np.zeros((dim + 4, dim + 4))
        kkt[:dim, :dim] = problem.h
        kkt[:dim, dim:] = problem.a_eq.T
        kkt[dim:, :dim] = problem.a_eq
        rhs = np.concatenate([-problem.k, problem.b_eq])
        x_direct = np.linalg.solve(kkt, rhs)[:dim]
        assert np.max(np.abs(sol.x - x_direct)) < 1e-9
        assert max(sol.kkt) <= 1e-8


def test_active_set_release_hand_case():
    q = np.array([[1.0, -0.9], [-0.9, 1.0]])
    c = np.array([-0.5, 0.05])
    x, iters = _box_active_set(q, c, 0.0, 1.0)
    assert np.allclose(x, [1.0, 0.85], atol=1e-12)
    assert iters >= 2


def test_overflowing_step_ratio_does_not_block():
    # (lo - x) / d overflows to +inf for a subnormal-scale direction d; an
    # infinite ratio is "not blocking", and must not warn
    q = np.array([[2.0, 2.2250738585072014e-308], [2.2250738585072014e-308, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _ = _box_active_set(q, np.array([0.0, 0.5]), 0.0, 1.0)
    assert np.array_equal(x, [0.0, 0.0])


def test_box_solver_against_cholesky_least_squares():
    from scipy.optimize import lsq_linear

    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n))
        q = a @ a.T + 0.1 * np.eye(n)
        c = rng.normal(size=n)
        lo, hi = sorted(rng.normal(size=2))
        x, _ = _box_active_set(q, c, lo, hi)
        ell = np.linalg.cholesky(q)
        w = np.linalg.solve(ell, -c)
        ref = lsq_linear(ell.T, w, bounds=(lo, hi), method="bvls").x
        assert np.max(np.abs(x - ref)) < 1e-9


def test_random_instances_match_grid_search():
    rng = np.random.default_rng(101)
    for _ in range(12):
        rows, s, bounds = random_planner_instance(rng)
        problem = sd.assemble_problem(rows, s, bounds, scaling="paper-exact")
        sol = sd.solve_box_eq_qp(problem)
        x_grid, f_grid = grid_search_solution(problem)
        assert sol.objective <= f_grid + 1e-10
        assert np.max(np.abs(sol.x - x_grid)) <= 1e-2
        assert max(sol.kkt) <= 1e-8


def test_kkt_residual_flags_perturbed_points(square_rows):
    s = np.array([0.2, 0.1, -0.3])
    problem = sd.assemble_problem(square_rows, s, (0.5, 1.1))
    sol = sd.solve_box_eq_qp(problem)
    at_solution = sd.kkt_residual(problem, sol.x)
    assert max(at_solution) <= 1e-8
    nudged = sol.x.copy()
    nudged[0] += 0.05  # stays inside the box, off the optimum
    worse = sd.kkt_residual(problem, nudged)
    assert worse[0] > 1e-3


def test_schedule_matches_per_step_solves(square_team, square_weights, square_scenario):
    t_grid = np.linspace(0.0, 2.0, 11)
    rows = sd.compose_delta_rows(square_team, square_weights)
    schedule = sd.alpha_schedule(square_team, square_weights,
                                 square_scenario.trajectory, t_grid, (0.5, 1.1))
    assert schedule.n_samples == 11
    assert schedule.alpha.shape == (11, 5)
    assert np.all(schedule.alpha[:, -1] == 0.0)
    for i, t in enumerate(t_grid):
        problem = sd.assemble_problem(rows, square_scenario.trajectory.position(t),
                                      (0.5, 1.1))
        sol = sd.solve_box_eq_qp(problem)
        assert np.array_equal(schedule.alpha[i], sol.alpha)
        assert np.array_equal(schedule.shift[i], sol.shift)
        assert schedule.objective[i] == sol.objective
        assert np.array_equal(schedule.kkt[i], sol.kkt)
        assert np.array_equal(schedule.decision_vector(i), sol.x)
    assert np.max(schedule.kkt) <= 1e-8


def test_schedule_records_iterations_and_active_bounds(square_team, square_weights,
                                                      square_scenario):
    t_grid = np.linspace(0.0, 30.0, 16)
    rows = sd.compose_delta_rows(square_team, square_weights)
    schedule = sd.alpha_schedule(square_team, square_weights, square_scenario.trajectory,
                                 t_grid, (0.5, 1.1), scaling="paper-exact")
    assert schedule.iterations.dtype.kind == schedule.active_bounds.dtype.kind == "i"
    for i, t in enumerate(t_grid):
        problem = sd.assemble_problem(rows, square_scenario.trajectory.position(t),
                                      (0.5, 1.1), scaling="paper-exact")
        sol = sd.solve_box_eq_qp(problem)
        assert schedule.iterations[i] == sol.iterations
        assert schedule.active_bounds[i] == len(sol.active_set)
        assert np.array_equal(schedule.decision_vector(i), sol.x)
    assert len(set(schedule.iterations.tolist())) > 1


def test_paper_exact_unconstrained_overshoots_shift(square_team, square_weights):
    # with a wide box the halved quadratic tracks twice the desired shift;
    # the square team is planar, so keep the shift in its spanned plane
    rows = sd.compose_delta_rows(square_team, square_weights)
    s = np.array([0.5, 0.25, 0.0])
    problem = sd.assemble_problem(rows, s, (-50.0, 50.0), scaling="paper-exact")
    sol = sd.solve_box_eq_qp(problem)
    nominal = rows.r_matrix() @ sol.x
    assert np.max(np.abs(nominal - 2.0 * s)) < 1e-3
