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
from .qp import Schedule, alpha_schedule
from .safety import closest_pairs
from .team import TeamConfiguration

DEFAULT_HELIX_AMPLITUDES = (0.4, 0.4, 0.6)
SIM_MODES = ("closed-loop", "open-loop")
# a closed-loop run aborts once an agent strays this many deltas from command
DIVERGENCE_FACTOR = 100.0


@dataclass(frozen=True, eq=False)
class ReferenceTrajectory:
    kind: str
    _fn: Callable[[np.ndarray], np.ndarray]

    def position(self, t) -> np.ndarray:
        """Desired shift at time(s) t; scalar -> (3,), array (n,) -> (n, 3)."""
        return self._fn(np.asarray(t, dtype=float))

    def __call__(self, t) -> np.ndarray:
        return self.position(t)


def helix_reference(omega: float = 0.01,
                    amplitudes=DEFAULT_HELIX_AMPLITUDES) -> ReferenceTrajectory:
    """Drift along x with a synchronized sine/cosine sweep in y and z:
    s(t) = [ax*omega*t, ay*sin(pi*omega*t), az*cos(pi*omega*t)].
    """
    ax, ay, az = (float(a) for a in amplitudes)
    if not np.isfinite(omega) or omega == 0.0:
        raise ScenarioError("helix omega must be finite and nonzero")

    def fn(t: np.ndarray) -> np.ndarray:
        phase = np.pi * omega * t
        return np.stack([ax * omega * t, ay * np.sin(phase), az * np.cos(phase)],
                        axis=-1)

    return ReferenceTrajectory("helix", fn)


def waypoint_reference(times, points) -> ReferenceTrajectory:
    """Natural cubic spline through (t_i, [x, y, z]_i) waypoints."""
    times = np.asarray(times, dtype=float)
    points = np.asarray(points, dtype=float)
    if times.ndim != 1 or times.size < 2 or np.any(np.diff(times) <= 0.0):
        raise ScenarioError("waypoint times must be strictly increasing, >= 2 samples")
    if points.shape != (times.size, 3):
        raise ScenarioError("waypoints must be one [x, y, z] triple per time")
    spline = CubicSpline(times, points, axis=0, bc_type="natural")

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
    if dt <= 0.0:
        raise ScenarioError("dt must be positive")
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


def time_grid(duration: float, dt: float) -> np.ndarray:
    if not (0.0 < dt < np.inf and 0.0 < duration < np.inf):
        raise ScenarioError("duration and dt must be positive and finite")
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
    """
    if mode not in SIM_MODES:
        raise ScenarioError(f"unknown simulation mode {mode!r}")
    t_grid = time_grid(duration, dt)
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
    if mode == "open-loop":
        actual[:] = desired
    else:
        limit = DIVERGENCE_FACTOR * team.safety.delta
        v = np.zeros_like(r)
        actual[0] = r
        for i in range(1, n_steps + 1):
            v_des = (desired[i] - desired[i - 1]) / dt  # per step: no (n, N, 3) copy
            r, v = pd_step(r, v, desired[i], v_des, gains, dt)
            actual[i] = r
            err = float(np.linalg.norm(r - desired[i], axis=1).max())
            if not np.isfinite(err) or err > limit:
                raise NumericalError(
                    f"simulation diverged at t={t_grid[i]:.3f}: "
                    f"tracking error {err:.3f} exceeds {limit:.3f}")

    tracking = np.linalg.norm(actual - desired, axis=2).max(axis=1)
    min_des = closest_pairs(desired)[0]
    min_act = closest_pairs(actual)[0]
    return SimLog(t_grid, desired, actual, tracking, min_des, min_act,
                  schedule, gains, mode)


def tracking_error(log: SimLog, after: float = 0.0) -> float:
    """Largest per-agent tracking error over samples with t >= after."""
    mask = log.t >= after
    if not mask.any():
        raise ValueError("no samples at or after the requested time")
    return float(log.tracking[mask].max())
