"""Check a closed-loop trajectory trace against a per-step replay of the PD law.

Usage: python scripts/check_pd_replay.py SCENARIO TRACE

TRACE is a closed-loop trajectory trace written by `swarmdeform simulate
--config SCENARIO --out TRACE` at the scenario's dt and gains. Starting from
the trace's first actual row at rest, `sim.pd_step` is applied one step at a
time with the commanded velocity v_des = (d_i - d_{i-1}) / dt, and every
actual coordinate must equal the trace's bit for bit. The simulator steps in
blocks of `sim.BLOCK_COORDINATES`; this replay does not. Exits 1 naming the
first step that differs.
"""

from __future__ import annotations

import sys

import numpy as np

from swarmdeform import sim
from swarmdeform.io import read_trajectory
from swarmdeform.scenario import load_scenario


def replay(desired: np.ndarray, start: np.ndarray, gains: sim.ControllerGains,
           dt: float) -> np.ndarray:
    """Actual positions (n, N, 3) of the PD law stepped once per sample."""
    actual = np.empty_like(desired)
    actual[0] = r = start
    v = np.zeros_like(r)
    for i in range(1, desired.shape[0]):
        r, v = sim.pd_step(r, v, desired[i], (desired[i] - desired[i - 1]) / dt, gains, dt)
        actual[i] = r
    return actual


def main(config: str, path: str) -> int:
    scenario = load_scenario(config)
    dt = scenario.sim.dt
    gains = sim.ControllerGains(scenario.sim.kp, scenario.sim.kd)
    t, _, desired, actual = read_trajectory(path)
    if t.tobytes() != (np.arange(t.size) * dt).tobytes():
        print(f"{path}: times are not the grid of dt {dt!r}")
        return 1
    ref = replay(desired, actual[0], gains, dt)
    bits = np.ascontiguousarray(actual).view(np.uint64)
    differs = (ref.view(np.uint64) != bits).any(axis=(1, 2))
    if differs.any():
        i = int(np.argmax(differs))
        print(f"{path}: step {i} (t={float(t[i])!r}) differs from the per-step replay")
        return 1
    print(f"{path}: {t.size - 1} steps equal the per-step replay "
          f"at dt {dt!r}, kp {gains.kp!r}, kd {gains.kd!r}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__.split("\n\n")[1])
    sys.exit(main(*sys.argv[1:]))
