"""Reference trajectories and closed-loop team simulation.

The planner runs once over the whole time grid; each agent then tracks its
commanded position with a PD law integrated semi-implicitly (velocity first),
which keeps the discrete loop stable at the default gains and step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from scipy.interpolate import CubicSpline
# unused here, kept because the benchmark tracer (perfbench/) wraps sim.pdist by name
from scipy.spatial.distance import pdist  # noqa: F401

from .errors import NumericalError, ScenarioError
from .hierarchy import LayerWeights, trajectory_positions
from .qp import Schedule, alpha_schedule, check_stack
from .safety import closest_pairs
from .team import TeamConfiguration, check_range

DEFAULT_HELIX_AMPLITUDES = (0.4, 0.4, 0.6)
SIM_MODES = ("closed-loop", "open-loop")
# a closed-loop run aborts once an agent strays this many deltas from command
DIVERGENCE_FACTOR = 100.0
# the closed loop steps in blocks of at most this many coordinates (at least
# one sample), so every block array stays near 64 KiB whatever the team size
BLOCK_COORDINATES = 2**13


@dataclass(frozen=True, eq=False)
class ReferenceTrajectory:
    kind: str
    _fn: Callable[[np.ndarray], np.ndarray]

    def position(self, t) -> np.ndarray:
        """Desired shift at time(s) t; scalar -> (3,), array (n,) -> (n, 3)."""
        return self._fn(np.asarray(t, dtype=float))


def helix_reference(omega: float = 0.01,
                    amplitudes=DEFAULT_HELIX_AMPLITUDES) -> ReferenceTrajectory:
    """Drift along x with a synchronized sine/cosine sweep in y and z:
    s(t) = [ax*omega*t, ay*sin(pi*omega*t), az*cos(pi*omega*t)].
    """
    ax, ay, az = (float(a) for a in amplitudes)
    # with t in the same magnitude range (time_grid), |ax * omega * t| <= 2**600
    check_range("|trajectory.omega|", abs(omega), 0.0, ends="(]")
    check_range("trajectory.amplitudes", [ax, ay, az])

    def fn(t: np.ndarray) -> np.ndarray:
        phase = np.pi * omega * t
        return np.stack([ax * omega * t, ay * np.sin(phase), az * np.cos(phase)],
                        axis=-1)

    return ReferenceTrajectory("helix", fn)


def waypoint_reference(times, points) -> ReferenceTrajectory:
    """Natural cubic spline through (t_i, [x, y, z]_i) waypoints."""
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float)
    check_range("trajectory.times", times)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise ScenarioError("trajectory.times must be strictly increasing, >= 2 samples")
    if points.shape != (times.size, 3):
        raise ScenarioError("trajectory.points must be one [x, y, z] triple per time")
    check_range("trajectory.points", points)
    # waypoints in range still overflow the divided differences when they are
    # close in time (1e-300 apart): the spline's slopes or coefficients then
    # read inf or nan, refused here without a warning
    with np.errstate(all="ignore"):
        try:
            spline = CubicSpline(times, points, axis=0, bc_type="natural")
        except ValueError:  # a non-finite slope
            spline = None
    if spline is None or not np.all(np.isfinite(spline.c)):
        raise ScenarioError("trajectory.times too close for the spread of trajectory.points: "
                            "the spline's coefficients overflow")

    def fn(t: np.ndarray) -> np.ndarray:
        return spline(t)

    return ReferenceTrajectory("waypoints", fn)


def make_trajectory(spec: Mapping) -> ReferenceTrajectory:
    kind = spec.get("kind", "helix")
    if kind == "helix":
        return helix_reference(float(spec.get("omega", 0.01)),
                               spec.get("amplitudes", DEFAULT_HELIX_AMPLITUDES))
    if kind == "waypoints":
        return waypoint_reference(spec.get("times", ()), spec.get("points", ()))
    raise ScenarioError(f"unknown trajectory kind {kind!r}")


@dataclass(frozen=True)
class ControllerGains:
    kp: float = 4.0
    kd: float = 4.0


def pd_step(position, velocity, target_position, target_velocity,
            gains: ControllerGains, dt: float):
    """One semi-implicit PD step; works on any matching array shapes."""
    check_range("dt", dt, 0.0, ends="(]")
    accel = gains.kp * (target_position - position) + \
        gains.kd * (target_velocity - velocity)
    velocity = velocity + dt * accel
    position = position + dt * velocity
    return position, velocity


@dataclass(eq=False)
class SimLog:
    t: np.ndarray                  # (n+1,)
    desired: np.ndarray            # (n+1, N, 3) commanded positions
    actual: np.ndarray             # (n+1, N, 3) simulated positions
    tracking: np.ndarray           # (n+1,) max per-agent position error
    min_dist_desired: np.ndarray   # (n+1,)
    min_dist_actual: np.ndarray    # (n+1,)
    schedule: Schedule
    gains: ControllerGains
    mode: str

    @property
    def dt(self) -> float:
        return float(self.t[1] - self.t[0]) if self.t.size > 1 else 0.0


def time_grid(duration: float, dt: float, n_agents: int = 1) -> np.ndarray:
    """Samples 0, dt, ..., duration; their count is checked against the stack
    budget of `n_agents` (`qp.check_stack`) before the grid is built."""
    duration, dt = float(duration), float(dt)  # a ratio that overflows reads inf, unwarned
    check_range("duration", duration, 0.0, ends="(]")
    check_range("dt", dt, 0.0, ends="(]")
    check_stack(duration / dt + 1.0, n_agents)
    n = int(round(duration / dt))
    if abs(n * dt - duration) > 1e-9 * max(1.0, abs(duration)):
        raise ScenarioError(f"dt {dt} does not divide duration {duration}")
    return np.arange(n + 1) * dt


def run_simulation(team: TeamConfiguration, weights: LayerWeights,
                   trajectory: ReferenceTrajectory, duration: float, dt: float,
                   bounds: tuple[float, float], zeta: float = 1e-6,
                   scaling: str = "consistent", average: str = "all",
                   gains: ControllerGains = ControllerGains(),
                   mode: str = "closed-loop",
                   initial_positions: np.ndarray | None = None) -> SimLog:
    """Plan the scale schedule, then track it agent-by-agent.

    mode "closed-loop" integrates the PD law from the material configuration
    (or `initial_positions`); "open-loop" copies the commanded positions. The
    run aborts once any agent strays DIVERGENCE_FACTOR * delta from command.
    The closed loop steps in blocks of BLOCK_COORDINATES: one commanded
    velocity pass, `pd_step` once per step, then one tracking and guard pass
    that raises `NumericalError` at the block's first step over the limit.
    """
    if mode not in SIM_MODES:
        raise ScenarioError(f"unknown simulation mode {mode!r}")
    t_grid = time_grid(duration, dt, team.n_agents)
    schedule = alpha_schedule(team, weights, trajectory, t_grid, bounds,
                              zeta, scaling, average)
    desired = trajectory_positions(team, weights, schedule.alpha, schedule.shift)
    n_steps = t_grid.size - 1

    if initial_positions is None:
        r = team.positions.copy()
    else:
        r = np.array(initial_positions, dtype=float)
        if r.shape != (team.n_agents, 3):
            raise ScenarioError("initial positions must be one triple per agent")

    actual = np.empty_like(desired)
    tracking = np.zeros(n_steps + 1)
    if mode == "open-loop":
        actual[:] = desired
    else:
        limit = DIVERGENCE_FACTOR * team.safety.delta
        v = np.zeros_like(r)
        actual[0] = r
        tracking[0] = np.linalg.norm(r - desired[0], axis=1).max()
        block = max(1, BLOCK_COORDINATES // r.size)
        # numpy scalars: the same doubles, but a Python float costs each ufunc
        # call about as much again on arrays this small
        step_gains = ControllerGains(np.float64(gains.kp), np.float64(gains.kd))
        step_dt = np.float64(dt)
        for a in range(1, n_steps + 1, block):
            b = min(a + block, n_steps + 1)
            with np.errstate(over="ignore", invalid="ignore"):   # the guard reports a divergence
                v_des = (desired[a:b] - desired[a - 1:b - 1]) / dt
                for i in range(a, b):
                    r, v = pd_step(r, v, desired[i], v_des[i - a], step_gains, step_dt)
                    actual[i] = r
                err = tracking[a:b] = np.linalg.norm(actual[a:b] - desired[a:b],
                                                     axis=2).max(axis=1)
            over = np.flatnonzero(~np.isfinite(err) | (err > limit))
            if over.size:
                raise NumericalError(
                    f"simulation diverged at t={t_grid[a + over[0]]:.6g}: "
                    f"tracking error {err[over[0]]:.6g} exceeds {limit:.6g}")

    min_des = closest_pairs(desired)[0]
    min_act = closest_pairs(actual)[0]
    return SimLog(t_grid, desired, actual, tracking, min_des, min_act,
                  schedule, gains, mode)
