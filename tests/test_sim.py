import numpy as np
import pytest

import swarmdeform as sd
from swarmdeform.sim import pd_step


def test_helix_reference_oracle_points():
    traj = sd.helix_reference()
    assert np.max(np.abs(traj.position(0.0) - [0.0, 0.0, 0.6])) < 1e-15
    # quarter period of the transverse sweep: sin -> 1, cos -> 0
    p50 = traj.position(50.0)
    assert p50 == pytest.approx([0.2, 0.4, 0.0], abs=1e-15)
    p100 = traj.position(100.0)
    assert p100 == pytest.approx([0.4, 0.0, -0.6], abs=1e-15)


def test_helix_reference_vectorized_and_custom():
    traj = sd.helix_reference(omega=0.02, amplitudes=(1.0, 2.0, 3.0))
    t = np.linspace(0.0, 10.0, 7)
    batch = traj.position(t)
    assert batch.shape == (7, 3)
    for i, ti in enumerate(t):
        assert np.array_equal(batch[i], traj.position(ti))
        assert np.array_equal(traj(ti), traj.position(ti))
    assert np.max(np.abs(batch[:, 0] - 0.02 * t)) < 1e-15
    with pytest.raises(sd.ScenarioError, match="omega"):
        sd.helix_reference(omega=0.0)


@pytest.mark.parametrize("name, dt", [("helix", 0.1), ("square", None)])
def test_position_on_a_grid_equals_per_t_calls(request, name, dt):
    # the planner samples s(t) in one call; its rows must equal the one-sample path
    sc = request.getfixturevalue(f"{name}_scenario")
    t_grid = sd.time_grid(sc.sim.duration, dt or sc.sim.dt)
    per_t = np.array([sc.trajectory.position(t) for t in t_grid])
    assert sc.trajectory.position(t_grid).tobytes() == per_t.tobytes()


def test_waypoint_reference_interpolates():
    times = [0.0, 1.0, 2.0, 4.0]
    points = [[0.0, 0.0, 0.0], [1.0, -1.0, 0.5], [0.5, 2.0, 1.0], [0.0, 0.0, 0.0]]
    traj = sd.waypoint_reference(times, points)
    assert traj.kind == "waypoints"
    for ti, pi in zip(times, points):
        assert np.max(np.abs(traj.position(ti) - pi)) < 1e-12
    with pytest.raises(sd.ScenarioError, match="strictly increasing"):
        sd.waypoint_reference([0.0, 0.0, 1.0], points[:3])
    with pytest.raises(sd.ScenarioError, match="triple per time"):
        sd.waypoint_reference([0.0, 1.0], [[1.0, 2.0]])


def test_make_trajectory_dispatch():
    helix = sd.make_trajectory({"kind": "helix", "omega": 0.05})
    assert helix.kind == "helix"
    wp = sd.make_trajectory({"kind": "waypoints", "times": [0.0, 1.0],
                             "points": [[0.0] * 3, [1.0] * 3]})
    assert wp.kind == "waypoints"
    with pytest.raises(sd.ScenarioError, match="unknown trajectory kind"):
        sd.make_trajectory({"kind": "spiral"})


def test_time_grid():
    t = sd.time_grid(1.0, 0.25)
    assert np.array_equal(t, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(sd.ScenarioError, match="does not divide"):
        sd.time_grid(1.0, 0.3)
    with pytest.raises(sd.ScenarioError, match="must be positive"):
        sd.time_grid(-1.0, 0.1)
    for duration, dt in ((1.0, np.nan), (np.nan, 0.1), (np.inf, 0.1), (1.0, np.inf)):
        with pytest.raises(sd.ScenarioError, match="positive and finite"):
            sd.time_grid(duration, dt)


def test_pd_step_hand_computed():
    gains = sd.ControllerGains(kp=2.0, kd=1.0)
    r = np.array([1.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0])
    target_r = np.array([2.0, 0.0, 0.0])
    target_v = np.zeros(3)
    r1, v1 = pd_step(r, v, target_r, target_v, gains, 0.5)
    # a = 2*(1,0,0) + 1*(0,-1,0); v' = v + 0.5a; r' = r + 0.5v'
    assert np.array_equal(v1, [1.0, 0.5, 0.0])
    assert np.array_equal(r1, [1.5, 0.25, 0.0])
    with pytest.raises(sd.ScenarioError, match="dt must be positive"):
        pd_step(r, v, target_r, target_v, gains, 0.0)


@pytest.fixture(scope="module")
def square_log(square_team, square_weights, square_scenario):
    return sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                             duration=30.0, dt=0.1, bounds=(0.5, 1.1))


def test_closed_loop_log_shapes(square_log):
    assert square_log.t.shape == (301,)
    assert square_log.desired.shape == (301, 13, 3)
    assert square_log.actual.shape == (301, 13, 3)
    assert square_log.dt == pytest.approx(0.1, abs=1e-15)
    assert square_log.mode == "closed-loop"
    assert square_log.schedule.n_samples == 301
    # the sim starts from the material layout, which is the t=0 command
    # only when alpha is unconstrained; here alpha = 0.5, so error starts big
    assert square_log.tracking[0] > 0.5


def test_closed_loop_converges(square_log):
    assert sd.tracking_error(square_log, after=10.0) <= 0.05
    assert square_log.tracking[-1] < 2e-2
    assert np.all(square_log.min_dist_desired >= 0.4)


def test_tracking_error_mask(square_log):
    full = sd.tracking_error(square_log)
    assert full == square_log.tracking.max()
    with pytest.raises(ValueError, match="no samples"):
        sd.tracking_error(square_log, after=1e6)


def test_open_loop_copies_commands(square_team, square_weights, square_scenario):
    log = sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                            duration=2.0, dt=0.5, bounds=(0.5, 1.1), mode="open-loop")
    assert np.array_equal(log.actual, log.desired)
    assert np.all(log.tracking == 0.0)
    assert np.array_equal(log.min_dist_actual, log.min_dist_desired)


def test_initial_positions_override(square_team, square_weights, square_scenario):
    start = square_team.positions * 0.5
    log = sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                            duration=2.0, dt=0.1, bounds=(0.5, 1.1),
                            initial_positions=start)
    assert np.array_equal(log.actual[0], start)
    with pytest.raises(sd.ScenarioError, match="one triple per agent"):
        sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                          duration=1.0, dt=0.1, bounds=(0.5, 1.1),
                          initial_positions=np.zeros((4, 3)))


def test_divergence_guard(square_team, square_weights, square_scenario):
    # an unstable gain pair blows up quickly and must abort, not return junk
    with pytest.raises(sd.NumericalError, match="simulation diverged"):
        sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                          duration=30.0, dt=0.1, bounds=(0.5, 1.1),
                          gains=sd.ControllerGains(kp=500.0, kd=0.0))


def test_unknown_mode_rejected(square_team, square_weights, square_scenario):
    with pytest.raises(sd.ScenarioError, match="unknown simulation mode"):
        sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                          duration=1.0, dt=0.1, bounds=(0.5, 1.1), mode="hybrid")
