import warnings

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
    with pytest.raises(sd.ScenarioError, match=r"duration must be in \(0, .*got -1.0"):
        sd.time_grid(-1.0, 0.1)
    for duration, dt in ((1.0, np.nan), (np.nan, 0.1), (np.inf, 0.1), (1.0, np.inf)):
        name = "dt" if duration == 1.0 else "duration"
        with pytest.raises(sd.ScenarioError, match=rf"^{name} must be in \(0, 1.60694e\+60\], got"):
            sd.time_grid(duration, dt)



def test_time_grid_refuses_a_mission_beyond_the_stack_budget():
    # checked before np.arange: 1e20 samples, or an overflowing inf, never allocate
    for duration, dt, n_agents in ((1e20, 1.0, 1), (1e50, 1e-300, 1), (1e7, 1.0, 13)):
        with pytest.raises(sd.ScenarioError, match="samples of .* above the budget"):
            sd.time_grid(duration, dt, n_agents)
    with pytest.raises(sd.ScenarioError, match="duration must be in"):
        sd.time_grid(1e300, 1e-300)
    # the largest hexagon team over the shipped mission grid fits: 1.8e8 doubles
    assert sd.time_grid(1000.0, 0.4, 24571).size == 2501
    assert 2501 * 24571 * 3 <= sd.qp.MAX_STACK_DOUBLES


def test_trajectories_refuse_numbers_beyond_the_magnitude_bound():
    huge = 2.0 ** 201
    with pytest.raises(sd.ScenarioError, match=r"\|trajectory.omega\| must be in"):
        sd.helix_reference(omega=huge)
    with pytest.raises(sd.ScenarioError, match=r"\|trajectory.omega\| must be in .*got 0.0"):
        sd.helix_reference(omega=0.0)
    with pytest.raises(sd.ScenarioError, match="trajectory.amplitudes must be in .*got inf"):
        sd.helix_reference(amplitudes=(0.4, np.inf, 0.6))
    points = [[0.0, 0.0, 0.0], [huge, 0.0, 0.0]]
    with pytest.raises(sd.ScenarioError, match="trajectory.points must be in"):
        sd.waypoint_reference([0.0, 1.0], points)
    with pytest.raises(sd.ScenarioError, match="trajectory.times must be in"):
        sd.waypoint_reference([0.0, huge], [[0.0] * 3, [1.0] * 3])
    # times in range whose divided differences overflow, with warnings fatal
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(sd.ScenarioError, match="spline's coefficients overflow"):
            sd.waypoint_reference([0.0, 1e-300, 20.0, 30.0],
                                  [[0.0] * 3, [0.3, 0.2, 0.1], [0.5, -0.2, 0.2], [0.8, 0, 0]])


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
    with pytest.raises(sd.ScenarioError, match=r"dt must be in \(0, .*got 0.0"):
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
    assert square_log.tracking[square_log.t >= 10.0].max() <= 0.05
    assert square_log.tracking[-1] < 2e-2
    assert np.all(square_log.min_dist_desired >= 0.4)


def test_tracking_is_each_steps_error(square_log, helix_team, helix_weights, helix_scenario):
    # the loop records the error its divergence guard checks; it must equal
    # the whole-stack error bit for bit
    helix_log = sd.run_simulation(helix_team, helix_weights, helix_scenario.trajectory,
                                  duration=1000.0, dt=0.4, bounds=(0.6, 5.0))
    for log in (square_log, helix_log):
        stacked = np.linalg.norm(log.actual - log.desired, axis=2).max(axis=1)
        assert np.array_equal(log.tracking, stacked)


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


def test_closed_loop_calls_pd_step_once_per_step(square_team, square_weights,
                                                 square_scenario, monkeypatch):
    # 300 steps of 13 agents are two blocks; the step law runs once per step
    calls = []

    def counting_pd_step(*args):
        calls.append(1)
        return pd_step(*args)

    monkeypatch.setattr(sd.sim, "pd_step", counting_pd_step)
    log = sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                            duration=30.0, dt=0.1, bounds=(0.5, 1.1))
    assert sd.sim.BLOCK_COORDINATES // log.actual[0].size < 300
    assert len(calls) == 300


def test_overflow_on_the_diverging_step_raises_without_a_warning(square_team, square_weights,
                                                                 square_scenario):
    # a block runs with overflow warnings off, and the guard reports the
    # first step over the limit: the error is the run's only signal
    with (warnings.catch_warnings(), pytest.raises(
            sd.NumericalError, match="diverged at t=0.1: tracking error inf exceeds 5$")):
        warnings.simplefilter("error")
        sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                          duration=30.0, dt=0.1, bounds=(0.5, 1.1),
                          gains=sd.ControllerGains(kp=1e300, kd=1e300),
                          initial_positions=square_team.positions * 1e10)


def test_unknown_mode_rejected(square_team, square_weights, square_scenario):
    with pytest.raises(sd.ScenarioError, match="unknown simulation mode"):
        sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                          duration=1.0, dt=0.1, bounds=(0.5, 1.1), mode="hybrid")
