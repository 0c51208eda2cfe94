"""One benchmark pass: the six timed stages and the checks on their outputs.

Every stage calls the library through the module attribute its CLI command
uses (`swarmdeform.qp.alpha_schedule`, not the package re-export), so a
Tracer installed around the stages sees the same calls.
"""

from __future__ import annotations

import contextlib
import gc
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from swarmdeform import hierarchy, qp, safety, sim
from swarmdeform import io as trace_io
from swarmdeform import scenario as scenario_mod

STAGES = ("setup", "plan", "certify", "simulate", "trace_write", "trace_read")
KKT_TOL = 1e-8
MAX_REPEATS = 10
REPEAT_SECONDS = 0.3


@dataclass
class Ledger:
    """Operations attempted and failed: stage calls plus output checks."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok


@dataclass
class TracePaths:
    schedule: Path
    certification: Path
    trajectory: Path

    @classmethod
    def under(cls, out_dir: Path, stem: str) -> "TracePaths":
        return cls(out_dir / f"{stem}-schedule.csv", out_dir / f"{stem}-certification.csv",
                   out_dir / f"{stem}-trajectory.csv")

    def remove(self) -> None:
        for path in (self.schedule, self.certification, self.trajectory):
            path.unlink(missing_ok=True)


@dataclass
class Outputs:
    scenario: object
    weights: object
    schedule: object
    desired: np.ndarray
    report: object
    log: object
    readback: tuple


def setup(path):
    sc = scenario_mod.load_scenario(path)
    return sc, hierarchy.build_layer_weights(sc.team, sc.weights)


def write_traces(paths: TracePaths, schedule, report, log, team) -> None:
    trace_io.write_schedule(paths.schedule, schedule, "csv")
    trace_io.write_certification(paths.certification, report, "csv",
                                 [cell.cell_id for cell in team.cells])
    trace_io.write_trajectory(paths.trajectory, log, team.partition.all_ids(), "csv")


def read_traces(paths: TracePaths) -> tuple:
    return (trace_io.read_schedule(paths.schedule),
            trace_io.read_certification(paths.certification),
            trace_io.read_trajectory(paths.trajectory))


def run_stages(workload, path, paths: TracePaths, times: dict, ledger: Ledger,
               tracer=None, repeat_seconds: float = REPEAT_SECONDS) -> Outputs:
    """Run every stage; repeat each one while its calls total under `repeat_seconds`.

    After each stage, every earlier stage still under that budget is called
    once more, so the samples of a short stage are spread over the whole pass
    rather than taken back to back; leftover repeats follow the last stage.
    `repeat_seconds=0` calls each stage once. Each completed call is one
    operation in `ledger`; a stage that raises propagates, and the caller
    records the failed operation.
    """
    used: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    done: list[tuple] = []

    def call(stage, fn, *args):
        gc.collect()  # start every sample from the same collector state
        span = tracer.span(f"stage.{stage}") if tracer else contextlib.nullcontext()
        start = time.perf_counter()
        with span:
            result = fn(*args)
        times[stage].append(time.perf_counter() - start)
        ledger.record(True, stage)
        used[stage] += times[stage][-1]
        calls[stage] += 1
        return result

    def short(stage):
        return used[stage] < repeat_seconds and calls[stage] < MAX_REPEATS

    def timed(stage, fn, *args):
        result = call(stage, fn, *args)
        for entry in done:
            if short(entry[0]):
                call(*entry)
        done.append((stage, fn, *args))
        return result

    sc, weights = timed("setup", setup, path)
    team = sc.team
    duration = workload.duration or sc.sim.duration
    dt = workload.dt or sc.sim.dt
    grid = sim.time_grid(duration, dt)
    bounds = scenario_mod.planning_bounds(sc)
    scaling = workload.scaling or sc.qp.scaling
    schedule = timed("plan", lambda: qp.alpha_schedule(
        team, weights, sc.trajectory, grid, bounds, sc.qp.zeta, scaling,
        sc.weights.average))

    def certify():
        desired = hierarchy.trajectory_positions(team, weights, schedule.alpha,
                                                 schedule.shift)
        return desired, safety.certify_configuration(team, schedule, desired, "desired")

    desired, report = timed("certify", certify)
    initial = desired[0] if workload.start_from_command else None
    log = timed("simulate", lambda: sim.run_simulation(
        team, weights, sc.trajectory, duration, dt, bounds, sc.qp.zeta,
        scaling, sc.weights.average, sim.ControllerGains(sc.sim.kp, sc.sim.kd),
        sc.sim.mode, initial_positions=initial))
    timed("trace_write", write_traces, paths, schedule, report, log, team)
    readback = timed("trace_read", read_traces, paths)
    for entry in done:
        while short(entry[0]):
            call(*entry)
    return Outputs(sc, weights, schedule, desired, report, log, readback)


def bitwise_equal(a, b) -> bool:
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_schedule_round_trip(ledger: Ledger, schedule, read_back) -> bool:
    ok = (bitwise_equal(read_back.t, schedule.t)
          and bitwise_equal(read_back.alpha, schedule.alpha)
          and bitwise_equal(read_back.shift, schedule.shift)
          and bitwise_equal(read_back.objective, schedule.objective)
          and bitwise_equal(read_back.kkt, schedule.kkt.max(axis=1)))
    return ledger.record(ok, "schedule trace does not round-trip bit for bit")


def check_outputs(ledger: Ledger, workload, out: Outputs) -> None:
    team = out.scenario.team
    schedule, report, log = out.schedule, out.report, out.log
    ledger.record(bool(np.all(schedule.kkt <= KKT_TOL)),
                  f"plan: kkt residual above {KKT_TOL} (max {np.max(schedule.kkt):.3e})")
    ledger.record(bool(np.all(log.schedule.kkt <= KKT_TOL)),
                  f"simulate: kkt residual above {KKT_TOL}")
    finite = all(bool(np.all(np.isfinite(a))) for a in (
        out.desired, report.lambdas, report.margins, report.distance_trace,
        log.desired, log.actual, log.tracking, log.min_dist_desired,
        log.min_dist_actual))
    ledger.record(finite, "non-finite positions or margins")
    ledger.record(bitwise_equal(log.desired, out.desired),
                  "simulate commands differ from the planned positions")

    expected = workload.expected
    ok = report.verdict == expected.safe
    if expected.worst_margin is not None:
        ok = ok and (f"{report.worst_margin:.3e}" == expected.worst_margin
                     and report.worst_margin_cell == expected.worst_cell
                     and report.worst_margin_index == expected.worst_sample)
    ledger.record(ok, f"verdict changed: {report.summary()}")

    read_schedule, read_cert, read_traj = out.readback
    check_schedule_round_trip(ledger, schedule, read_schedule)
    t, cells, lambdas, bounds, margins = read_cert
    cell_ids = np.array([cell.cell_id for cell in team.cells], dtype=np.int64)
    ledger.record(bitwise_equal(t, report.t) and bitwise_equal(cells.astype(np.int64), cell_ids)
                  and bitwise_equal(lambdas, report.lambdas)
                  and bitwise_equal(bounds, report.cell_bounds)
                  and bitwise_equal(margins, report.margins),
                  "certification trace does not round-trip bit for bit")
    t, ids, desired, actual = read_traj
    agent_ids = np.array(team.partition.all_ids(), dtype=np.int64)
    ledger.record(bitwise_equal(t, log.t) and bitwise_equal(ids.astype(np.int64), agent_ids)
                  and bitwise_equal(desired, log.desired)
                  and bitwise_equal(actual, log.actual),
                  "trajectory trace does not round-trip bit for bit")
    replayed = hierarchy.trajectory_positions(team, out.weights, read_schedule.alpha,
                                              read_schedule.shift)
    ledger.record(bitwise_equal(replayed, out.desired),
                  "read-back schedule does not reproduce the commanded positions")


def new_times() -> dict[str, list[float]]:
    return defaultdict(list)
