"""End-to-end acceptance checks.

Each test covers one shipped guarantee and prints a single PASS/FAIL line
with the measured figure next to its tolerance (surfaced on green runs via
the -rP flag configured in pyproject.toml). The helix67 mission is simulated
once per session at its shipped settings; the certification run re-plans with
window-clamped bounds.
"""

import time

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import swarmdeform as sd
from swarmdeform.scenario import planning_bounds

from conftest import grid_search_solution, random_planner_instance

TIME_BUDGET = 60.0


def _report(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@pytest.fixture(scope="module")
def mission(helix_scenario, helix_weights):
    """The helix67 mission exactly as configured in the scenario file."""
    sim = helix_scenario.sim
    bounds = planning_bounds(helix_scenario)
    start = time.perf_counter()
    log = sd.run_simulation(helix_scenario.team, helix_weights,
                            helix_scenario.trajectory, sim.duration, sim.dt,
                            bounds, zeta=helix_scenario.qp.zeta,
                            scaling=helix_scenario.qp.scaling,
                            average=helix_scenario.weights.average,
                            gains=sd.ControllerGains(sim.kp, sim.kd),
                            mode=sim.mode)
    elapsed = time.perf_counter() - start
    return log, elapsed


@pytest.fixture(scope="module")
def clamped_certification(helix_scenario, helix_weights):
    """Re-plan with the safety window as the box, certify commanded positions."""
    team = helix_scenario.team
    window = sd.alpha_bounds(team)
    t_grid = sd.time_grid(helix_scenario.sim.duration, helix_scenario.sim.dt)
    schedule = sd.alpha_schedule(team, helix_weights, helix_scenario.trajectory,
                                 t_grid, (window.alpha_min, window.alpha_max),
                                 helix_scenario.qp.zeta,
                                 helix_scenario.qp.scaling)
    desired = sd.trajectory_positions(team, helix_weights,
                                      schedule.alpha, schedule.shift)
    return sd.certify_configuration(team, schedule, desired, "desired")


def test_mission_runs_to_completion_in_budget(mission, helix_scenario):
    log, elapsed = mission
    boundary = log.schedule.alpha[:, :6]
    ok = (log.t.shape == (10001,)
          and log.desired.shape == (10001, 67, 3)
          and log.actual.shape == (10001, 67, 3)
          and planning_bounds(helix_scenario) == (0.6, 5.0)
          and bool(np.all(boundary >= 0.6) and np.all(boundary <= 5.0))
          and bool(np.all(log.schedule.alpha[:, 6] == 0.0))
          and elapsed < TIME_BUDGET)
    _report("mission", ok,
            f"67 agents, 10001 samples, scale box [0.6, 5.0] respected, "
            f"{elapsed:.1f} s elapsed (budget {TIME_BUDGET:.0f} s)")


def test_planner_stationarity_and_grid_oracle(mission):
    log, _ = mission
    kkt_max = float(np.max(log.schedule.kkt))

    rng = np.random.default_rng(424242)
    worst_gap = 0.0
    worst_excess = 0.0
    for _ in range(50):
        rows, s, bounds = random_planner_instance(rng)
        problem = sd.assemble_problem(rows, s, bounds, scaling="paper-exact")
        sol = sd.solve_box_eq_qp(problem)
        x_grid, f_grid = grid_search_solution(problem)
        worst_gap = max(worst_gap, float(np.max(np.abs(sol.x - x_grid))))
        worst_excess = max(worst_excess, sol.objective - f_grid)

    ok = kkt_max <= 1e-8 and worst_gap <= 1e-2 and worst_excess <= 1e-10
    _report("planner optimality", ok,
            f"max KKT residual {kkt_max:.2e} (tol 1e-08) over 10001 solves; "
            f"50 random instances within {worst_gap:.2e} of grid search (tol 1e-02)")


def test_nominal_position_tracks_composite_rows(helix_scenario, helix_weights,
                                                square_scenario, square_weights):
    worst = 0.0
    rng = np.random.default_rng(77)
    team = helix_scenario.team
    r = sd.compose_delta_rows(team, helix_weights)
    for _ in range(100):
        alpha = rng.uniform(0.6, 5.0, size=7)
        shift = 2.0 * rng.normal(size=3)
        x = np.concatenate([alpha, shift])
        nominal = sd.forward_pass(team, helix_weights, alpha, shift).mean(axis=0)
        worst = max(worst, float(np.max(np.abs(r @ x - nominal))))

    ident = 0.0
    for sc, w in ((helix_scenario, helix_weights), (square_scenario, square_weights)):
        unit = sd.forward_pass(sc.team, w, np.ones(sc.team.n_pl), np.zeros(3))
        ident = max(ident, float(np.max(np.abs(unit - sc.team.positions))))

    ok = worst <= 1e-12 and ident <= 1e-14
    _report("composite rows", ok,
            f"nominal vs rows gap {worst:.2e} (tol 1e-12) over 100 draws; "
            f"unit-scale reproduction {ident:.2e} (tol 1e-14)")


def test_weight_hierarchy_is_convex_combination(helix_team, helix_weights):
    c = helix_weights.composite
    row_dev = float(np.max(np.abs(c.sum(axis=1) - 1.0)))
    in_range = bool(np.all(c >= 0.0) and np.all(c <= 1.0))
    supports = int(np.count_nonzero(c, axis=1).max())
    hull = ConvexHull(helix_team.leader_positions)
    signed = helix_team.positions @ hull.equations[:, :3].T + hull.equations[:, 3]
    hull_dev = float(signed.max())
    ok = row_dev <= 1e-12 and in_range and supports <= 3 and hull_dev <= 1e-9
    _report("weight hierarchy", ok,
            f"row-sum deviation {row_dev:.2e} (tol 1e-12), entries in [0, 1], "
            f"at most {supports} supports per row (max 3), "
            f"hull containment {hull_dev:.2e} (tol 1e-09)")


def test_deformation_spectrum_oracles():
    rng = np.random.default_rng(2024)
    mats = rng.normal(size=(1000, 3, 3))
    vals = sd.pure_deformation_spectrum(mats)
    oracle = np.linalg.svd(mats, compute_uv=False)
    rel = float(np.max(np.abs(vals - oracle) / oracle[:, :1]))

    diag_exact = bool(np.array_equal(
        sd.pure_deformation_spectrum(np.diag([4.0, 9.0, 1.0])), [9.0, 4.0, 1.0]))

    rot_dev = 0.0
    for _ in range(20):
        q, r = np.linalg.qr(rng.normal(size=(3, 3)))
        q *= np.sign(np.diag(r))
        rot_dev = max(rot_dev, float(np.max(np.abs(
            sd.pure_deformation_spectrum(q) - 1.0))))

    ok = rel <= 1e-10 and diag_exact and rot_dev <= 1e-12
    _report("deformation spectrum", ok,
            f"1000 Jacobians within {rel:.2e} of SVD (tol 1e-10), "
            f"diag(4,9,1) exact, rotations within {rot_dev:.2e} of 1 (tol 1e-12)")


def test_safety_window_frozen_table():
    # (delta, epsilon, a_max, a0, separations) -> (alpha_min, alpha_max)
    table = [
        (0.1, 0.4, 101.0, 20.0, [2.0], 0.5, 5.0),
        (0.05, 0.15, 4.9, 4.0, [1.118033988749895], 0.35777087639996635, 1.125),
        (0.1, 0.4, 25.0, 20.024984394500787, [2.209708691207961],
         0.4525483399593904, 1.1985028066534136),
        (0.2, 0.3, 12.0, 5.0, [1.5, 2.5], 0.6666666666666666, 2.2),
        (0.01, 0.09, 3.0, 1.0, [0.25], 0.7999999999999999, 2.8),
        (0.5, 0.5, 50.0, 10.0, [4.0, 3.0, 8.0], 0.6666666666666666, 4.8),
        (0.05, 0.2, 9.0, 6.0, [0.75], 0.6666666666666666, 1.4166666666666667),
        (0.3, 0.2, 30.0, 12.5, [2.0, 1.25], 0.8, 2.32),
        (0.02, 0.08, 1.2, 0.9, [0.4], 0.5, 1.1111111111111112),
        (0.125, 0.375, 64.0, 16.0, [1.0, 5.0], 1.0, 3.9375),
    ]
    dev = 0.0
    for delta, eps, a_max, a0, seps, lo, hi in table:
        window = sd.safety_window(seps, sd.SafetyParameters(delta, eps, a_max, a0))
        dev = max(dev, abs(window.alpha_min - lo), abs(window.alpha_max - hi))
    ok = dev <= 1e-12
    _report("safety window", ok,
            f"10 frozen bound fixtures within {dev:.2e} (tol 1e-12)")


def test_window_clamped_mission_is_certified(clamped_certification, helix_team):
    report = clamped_certification
    clearance = helix_team.safety.clearance
    worst_margin = float(report.margins.min())
    ok = (worst_margin >= -1e-9
          and report.min_distance >= clearance - 1e-9
          and report.verdict)
    _report("certification", ok,
            f"worst deformation margin {worst_margin:.2e} (floor -1e-09), "
            f"min commanded distance {report.min_distance:.9f} "
            f"(clearance {clearance:.1f}), verdict "
            f"{'SAFE' if report.verdict else 'UNSAFE'}")


def test_tracking_stays_within_guarantee(mission, helix_team):
    log, _ = mission
    delta = helix_team.safety.delta
    settled = log.tracking[log.t >= 10.0].max()
    ok = settled <= delta
    _report("tracking", ok,
            f"max tracking error {settled:.2e} after 10 s transient "
            f"(guarantee delta = {delta:g})")
