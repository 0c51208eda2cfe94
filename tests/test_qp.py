import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import lsq_linear

import swarmdeform as sd
from swarmdeform.qp import KKT_ACTIVE_TOL, _box_active_set, _solve
from swarmdeform.team import MAX_COORDINATE

from conftest import grid_search_solution, random_planner_instance


@pytest.fixture(scope="module")
def square_rows(square_team, square_weights):
    return sd.compose_delta_rows(square_team, square_weights)


def test_assemble_consistent_structure(square_rows):
    s = np.array([0.3, -0.2, 0.1])
    problem = sd.assemble_problem(square_rows, s, (0.5, 1.1))
    r = square_rows
    rtr = r.T @ r
    assert problem.dim == 8
    assert np.array_equal(problem.h, 2.0 * 1e-6 * np.eye(8) + 2.0 * rtr)
    assert np.array_equal(problem.k, -2.0 * (r.T @ s))
    # box [0.5, 1.1] on the four boundary scale factors; core scale and shift
    # pinned to [0, s]
    assert problem.n_pl == 5
    assert (problem.alpha_min, problem.alpha_max) == (0.5, 1.1)
    assert np.array_equal(problem.b_eq, [0.0, 0.3, -0.2, 0.1])


@pytest.mark.parametrize("scaling", sd.qp.SCALING_MODES)
@pytest.mark.parametrize("bounds", [(1.0, 1.0), (-1.0, 1.0)], ids=["both-at-bound", "symmetric"])
def test_mission_at_the_magnitude_bound_plans_finite(square_team, square_weights, bounds,
                                                     scaling):
    # zeta, both box edges and the sampled shift at team.MAX_COORDINATE (2**200):
    # every product of H, k and x stays near 2**800 at most, so nothing
    # overflows and no warning is raised
    m = MAX_COORDINATE
    trajectory = sd.helix_reference(0.01, (0.4, m, m))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        schedule = sd.alpha_schedule(square_team, square_weights, trajectory,
                                     sd.time_grid(100.0, 0.5), (bounds[0] * m, bounds[1] * m),
                                     zeta=m, scaling=scaling)
    assert np.abs(schedule.shift).max() == m
    assert np.all(np.isfinite(schedule.objective))
    assert np.all(np.isfinite(schedule.kkt))
    assert schedule.kkt.max() <= 1e-8 * np.abs(schedule.objective).max()


def test_assemble_paper_exact_halves_quadratic(square_rows):
    s = np.array([1.0, 0.0, 0.0])
    cons = sd.assemble_problem(square_rows, s, (0.5, 1.1), scaling="consistent")
    half = sd.assemble_problem(square_rows, s, (0.5, 1.1), scaling="paper-exact")
    assert np.array_equal(2.0 * half.h, cons.h)
    assert np.array_equal(half.k, cons.k)


def test_assemble_validation(square_rows):
    s = np.zeros(3)
    with pytest.raises(sd.ScenarioError, match=r"zeta must be in \(0, .*got 0.0"):
        sd.assemble_problem(square_rows, s, (0.5, 1.1), zeta=0.0)
    with pytest.raises(sd.ScenarioError, match="unknown scaling mode"):
        sd.assemble_problem(square_rows, s, (0.5, 1.1), scaling="exact")
    with pytest.raises(sd.ScenarioError, match="infeasible alpha bounds"):
        sd.assemble_problem(square_rows, s, (1.1, 0.5))
    # every number beyond team.MAX_COORDINATE is refused like a non-finite one
    huge = (2.0 * MAX_COORDINATE, 1e308)
    for value in (np.nan, *huge):
        with pytest.raises(sd.ScenarioError, match="desired shift must be in"):
            sd.assemble_problem(square_rows, np.array([value, 0.0, 0.0]), (0.5, 1.1))
    for zeta in (np.nan, np.inf, *huge):
        with pytest.raises(sd.ScenarioError, match=r"zeta must be in \(0, "):
            sd.assemble_problem(square_rows, s, (0.5, 1.1), zeta=zeta)
    for bounds in ((np.nan, 1.1), (0.5, np.nan), (-np.inf, 1.1), (0.5, np.inf),
                   *((-value, 1.1) for value in huge), *((0.5, value) for value in huge)):
        with pytest.raises(sd.ScenarioError, match=r"alpha_m(in|ax) must be in \[-1.60694e\+60, "):
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
    nominal = square_rows @ sol.x
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
        # wide box: only the pinned block binds, so the full KKT system is linear
        dim = problem.dim
        a_eq = np.zeros((4, dim))
        a_eq[:, problem.n_pl - 1:] = np.eye(4)
        kkt = np.zeros((dim + 4, dim + 4))
        kkt[:dim, :dim] = problem.h
        kkt[:dim, dim:] = a_eq.T
        kkt[dim:, :dim] = a_eq
        rhs = np.concatenate([-problem.k, problem.b_eq])
        x_direct = np.linalg.solve(kkt, rhs)[:dim]
        assert np.max(np.abs(sol.x - x_direct)) < 1e-9
        assert max(sol.kkt) <= 1e-8


def test_active_set_release_hand_case():
    q = np.array([[1.0, -0.9], [-0.9, 1.0]])
    c = np.array([-0.5, 0.05])
    x, iters = _box_active_set(q, c[None], 0.0, 1.0)
    assert np.allclose(x[0], [1.0, 0.85], atol=1e-12)
    assert iters[0] >= 2


def test_overflowing_step_ratio_does_not_block():
    # (lo - x) / d overflows to +inf for a subnormal-scale direction d; an
    # infinite ratio is "not blocking", and must not warn
    q = np.array([[2.0, 2.2250738585072014e-308], [2.2250738585072014e-308, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _ = _box_active_set(q, np.array([[0.0, 0.5]]), 0.0, 1.0)
    assert np.array_equal(x[0], [0.0, 0.0])


def test_box_solver_against_cholesky_least_squares():
    from scipy.optimize import lsq_linear

    rng = np.random.default_rng(33)
    for _ in range(25):
        n = int(rng.integers(1, 4))
        a = rng.normal(size=(n, n))
        q = a @ a.T + 0.1 * np.eye(n)
        c = rng.normal(size=n)
        lo, hi = sorted(rng.normal(size=2))
        x, _ = _box_active_set(q, c[None], lo, hi)
        ell = np.linalg.cholesky(q)
        w = np.linalg.solve(ell, -c)
        ref = lsq_linear(ell.T, w, bounds=(lo, hi), method="bvls").x
        assert np.max(np.abs(x[0] - ref)) < 1e-9


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


def nnls_kkt_oracle(problem, x):
    """KKT residuals with multipliers from a bounded least-squares fit over
    dense constraint rows: box rows with slack <= KKT_ACTIVE_TOL (multipliers
    >= 0) and the pinned-block identity rows (free multipliers)."""
    n_free, dim = problem.n_pl - 1, problem.dim
    a_ineq = np.zeros((2 * n_free, dim))
    a_ineq[:n_free, :n_free] = -np.eye(n_free)
    a_ineq[n_free:, :n_free] = np.eye(n_free)
    b_ineq = np.concatenate([np.full(n_free, -problem.alpha_min),
                             np.full(n_free, problem.alpha_max)])
    a_eq = np.zeros((4, dim))
    a_eq[:, n_free:] = np.eye(4)
    g = problem.h @ x + problem.k
    slack = b_ineq - a_ineq @ x
    primal = max(0.0, -slack.min(), np.abs(a_eq @ x - problem.b_eq).max())
    active = np.flatnonzero(slack <= KKT_ACTIVE_TOL)
    basis = np.vstack([a_ineq[active], a_eq])
    lower = np.concatenate([np.zeros(active.size), np.full(4, -np.inf)])
    fit = lsq_linear(basis.T, -g, bounds=(lower, np.inf), method="bvls")
    mu = np.zeros(2 * n_free)
    mu[active] = fit.x[:active.size]
    stationarity = np.abs(g + a_ineq.T @ mu + a_eq.T @ fit.x[active.size:]).max()
    return stationarity, primal, np.abs(mu * slack).max()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), collapse=st.booleans(), off_pinned=st.booleans(),
       where=st.lists(st.tuples(st.sampled_from([0.0, 0.5, 1.0]),
                                st.sampled_from([-1e-3, -1e-9, 0.0, 1e-9, 1e-3])),
                      min_size=3, max_size=3))
def test_kkt_residual_matches_nnls_oracle(seed, collapse, off_pinned, where):
    # each boundary scale sits at lo, mid-box or hi plus an offset that keeps
    # it there or moves it just inside or outside; the box may be collapsed
    rng = np.random.default_rng(seed)
    rows, s, bounds = random_planner_instance(rng)
    if collapse:
        bounds = (bounds[0], bounds[0])
    problem = sd.assemble_problem(rows, s, bounds, scaling="paper-exact")
    lo, hi = problem.alpha_min, problem.alpha_max
    y = [lo + f * (hi - lo) + e for f, e in where[:problem.n_pl - 1]]
    pinned = problem.b_eq + (rng.normal(scale=1e-3, size=4) if off_pinned else 0.0)
    x = np.concatenate([y, pinned])
    got = sd.kkt_residual(problem, x)
    assert np.max(np.abs(np.subtract(got, nnls_kkt_oracle(problem, x)))) <= 1e-9


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), scaling=st.sampled_from(sd.qp.SCALING_MODES),
       factors=st.lists(st.sampled_from([0.0, 1.0, -1.0, 0.9, 1.1, 3.0]), min_size=1,
                        max_size=6),
       noise=st.sampled_from([0.0, 0.01, 0.3]), collapse=st.booleans())
def test_mission_problem_equals_its_samples_problems(seed, scaling, factors, noise, collapse):
    # a mission's problem stacks the rows of its samples' one-shift problems,
    # and its one solve gives each row what solve_box_eq_qp gives that sample,
    # bit for bit; rows repeat, sit at zero, inside the box or far outside it
    rng = np.random.default_rng(seed)
    rows, s, bounds = random_planner_instance(rng)
    if collapse:
        bounds = (bounds[0], bounds[0])
    shifts = np.outer(factors, s) + rng.normal(scale=noise, size=(len(factors), 3))
    mission = sd.assemble_problem(rows, shifts, bounds, scaling=scaling)
    x, objective, kkt, active, iterations = _solve(mission)
    assert mission.k.shape == (len(factors), mission.dim)
    assert mission.b_eq.shape == (len(factors), 4)
    for i, shift in enumerate(shifts):
        one = sd.assemble_problem(rows, shift, bounds, scaling=scaling)
        assert one.h.tobytes() == mission.h.tobytes()
        assert one.k.tobytes() == mission.k[i].tobytes()
        assert one.b_eq.tobytes() == mission.b_eq[i].tobytes()
        sol = sd.solve_box_eq_qp(one)
        assert sol.x.tobytes() == x[i].tobytes()
        assert sol.objective == objective[i]
        assert np.array_equal(sol.kkt, kkt[i])
        assert sol.iterations == iterations[i]
        assert sol.active_set == tuple(np.flatnonzero(active[i]))
        assert max(sol.kkt) <= 1e-8
    # the one-shift entry points refuse a mission rather than read its row 0
    for call in (lambda: sd.solve_box_eq_qp(mission), lambda: sd.kkt_residual(mission, x[0])):
        with pytest.raises(ValueError, match="one desired shift"):
            call()


def test_square_schedule_rows_pass_kkt_residual(square_team, square_weights,
                                                square_scenario):
    bounds = sd.planning_bounds(square_scenario)
    grid = sd.time_grid(square_scenario.sim.duration, square_scenario.sim.dt)
    schedule = sd.alpha_schedule(square_team, square_weights, square_scenario.trajectory,
                                 grid, bounds, square_scenario.qp.zeta, "paper-exact")
    rows = sd.compose_delta_rows(square_team, square_weights)
    for i, t in enumerate(schedule.t):
        problem = sd.assemble_problem(rows, square_scenario.trajectory.position(t), bounds,
                                      square_scenario.qp.zeta, "paper-exact")
        x = np.concatenate([schedule.alpha[i], schedule.shift[i]])
        assert max(sd.kkt_residual(problem, x)) <= 1e-8


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
        assert np.array_equal(np.concatenate([schedule.alpha[i], schedule.shift[i]]), sol.x)
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
        assert np.array_equal(np.concatenate([schedule.alpha[i], schedule.shift[i]]), sol.x)
    assert len(set(schedule.iterations.tolist())) > 1


def test_paper_exact_unconstrained_overshoots_shift(square_team, square_weights):
    # with a wide box the halved quadratic tracks twice the desired shift;
    # the square team is planar, so keep the shift in its spanned plane
    rows = sd.compose_delta_rows(square_team, square_weights)
    s = np.array([0.5, 0.25, 0.0])
    problem = sd.assemble_problem(rows, s, (-50.0, 50.0), scaling="paper-exact")
    sol = sd.solve_box_eq_qp(problem)
    nominal = rows @ sol.x
    assert np.max(np.abs(nominal - 2.0 * s)) < 1e-3
