"""Command-line front end: plan / simulate / certify.

Exit codes: 0 success (and certified safe), 1 certification rejected the
schedule, 2 scenario or configuration errors, 3 numerical failures.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import NumericalError, ScenarioError
from .hierarchy import build_layer_weights, compose_delta_rows, trajectory_positions
from .io import (TRACE_FORMATS, read_schedule, write_certification, write_schedule,
                 write_trajectory)
from .qp import SCALING_MODES, alpha_schedule
from .safety import alpha_bounds, certify_configuration
from .scenario import load_scenario, planning_bounds
from .sim import ControllerGains, run_simulation, time_grid


# planner overrides: argparse dest -> flag
PLANNER_FLAGS = {"dt": "--dt", "duration": "--T", "mode": "--mode",
                 "alpha_min": "--alpha-min", "alpha_max": "--alpha-max"}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="scenario YAML file")
    sub.add_argument("--out", help="write the result trace to this path")
    sub.add_argument("--format", choices=tuple(TRACE_FORMATS), default="csv",
                     help="trace dialect (default csv)")
    sub.add_argument("--dt", type=float, help="override the scenario time step")
    sub.add_argument("--T", type=float, dest="duration",
                     help="override the scenario duration")
    sub.add_argument("--mode", choices=SCALING_MODES,
                     help="override the QP scaling mode")
    sub.add_argument("--alpha-min", type=float, help="override the lower scale bound")
    sub.add_argument("--alpha-max", type=float, help="override the upper scale bound")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmdeform",
        description="Plan, simulate and certify multi-layer team deformations.")
    subs = parser.add_subparsers(dest="command", required=True)

    plan = subs.add_parser("plan", help="solve the scale-factor schedule")
    _add_common(plan)

    simulate = subs.add_parser("simulate", help="plan, then track the commands")
    _add_common(simulate)
    simulate.add_argument("--open-loop", action="store_true",
                          help="copy commands instead of integrating the PD law")

    certify = subs.add_parser("certify", help="check deformation and spacing limits")
    _add_common(certify)
    certify.add_argument("--schedule",
                         help="reuse a planner trace instead of re-planning; "
                              "takes no planner overrides")
    return parser


def _load(args):
    scenario = load_scenario(args.config)
    for warning in scenario.validation.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    weights = build_layer_weights(scenario.team, scenario.weights)
    return scenario, weights


def _settings(scenario, args) -> tuple[tuple[float, float], str, float, float]:
    """Scale box, scaling mode, time step and duration, overrides applied."""
    lo, hi = planning_bounds(scenario)
    if args.alpha_min is not None:
        lo = args.alpha_min
    if args.alpha_max is not None:
        hi = args.alpha_max
    dt = args.dt if args.dt is not None else scenario.sim.dt
    duration = args.duration if args.duration is not None else scenario.sim.duration
    return (lo, hi), args.mode or scenario.qp.scaling, dt, duration


def _plan(scenario, weights, args):
    bounds, scaling, dt, duration = _settings(scenario, args)
    team = scenario.team
    schedule = alpha_schedule(team, weights, scenario.trajectory,
                              time_grid(duration, dt, team.n_agents), bounds, scenario.qp.zeta,
                              scaling, scenario.weights.average)
    return schedule, bounds, scaling


def cmd_plan(args) -> int:
    scenario, weights = _load(args)
    team = scenario.team
    window = alpha_bounds(team)  # raises on an empty safety window
    schedule, bounds, scaling = _plan(scenario, weights, args)

    r = compose_delta_rows(team, weights, scenario.weights.average)
    nominal = schedule.alpha @ r[:, :team.n_pl].T + schedule.shift
    gap = float(np.linalg.norm(nominal - scenario.trajectory.position(schedule.t),
                               axis=1).max())
    boundary = schedule.alpha[:, :team.n_pl - 1]
    print(f"scenario {scenario.name}: {team.n_agents} agents, "
          f"{len(team.cells)} cells, {schedule.n_samples} samples")
    print(f"safety window: alpha_min {window.alpha_min:.6g}, "
          f"alpha_max {window.alpha_max:.6g}")
    print(f"planning bounds [{bounds[0]:.6g}, {bounds[1]:.6g}], "
          f"scaling {scaling}, zeta {schedule.zeta:g}")
    print(f"boundary scale range [{boundary.min():.6g}, {boundary.max():.6g}]")
    print(f"max |nominal - desired| {gap:.3e}, "
          f"max kkt residual {float(schedule.kkt.max()):.3e}")
    if args.out:
        write_schedule(args.out, schedule, args.format)
        print(f"wrote planner trace to {args.out}")
    return 0


def cmd_simulate(args) -> int:
    scenario, weights = _load(args)
    team = scenario.team
    bounds, scaling, dt, duration = _settings(scenario, args)
    mode = "open-loop" if args.open_loop else scenario.sim.mode
    gains = ControllerGains(scenario.sim.kp, scenario.sim.kd)
    log = run_simulation(team, weights, scenario.trajectory, duration, dt, bounds,
                         scenario.qp.zeta, scaling, scenario.weights.average,
                         gains, mode)
    print(f"scenario {scenario.name}: {mode} over {duration:g} s at dt {dt:g}")
    print(f"max tracking error {log.tracking.max():.6f}, "
          f"final {log.tracking[-1]:.3e}")
    print(f"min commanded distance {log.min_dist_desired.min():.6f}, "
          f"min actual distance {log.min_dist_actual.min():.6f}")
    if args.out:
        write_trajectory(args.out, log, team.partition.all_ids(), args.format)
        print(f"wrote trajectory trace to {args.out}")
    return 0


def cmd_certify(args) -> int:
    overrides = [flag for dest, flag in PLANNER_FLAGS.items()
                 if getattr(args, dest) is not None]
    if args.schedule and overrides:
        raise ScenarioError("--schedule takes the time grid, mode and scale box "
                            f"from the planner trace; drop {', '.join(overrides)}")
    scenario, weights = _load(args)
    team = scenario.team
    if args.schedule:
        schedule = read_schedule(args.schedule)
        if schedule.alpha.shape[1] != team.n_pl:
            raise ScenarioError(
                f"planner trace has {schedule.alpha.shape[1]} scale columns, "
                f"scenario has {team.n_pl} leaders")
    else:
        schedule, _, _ = _plan(scenario, weights, args)
    desired = trajectory_positions(team, weights, schedule.alpha, schedule.shift)
    report = certify_configuration(team, schedule, desired, "desired")
    # write first: a run that fails to write exits 2 and prints no verdict
    if args.out:
        write_certification(args.out, report, args.format,
                            [cell.cell_id for cell in team.cells])
    print(report.summary())
    if args.out:
        print(f"wrote certification trace to {args.out}")
    return 0 if report.verdict else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {"plan": cmd_plan, "simulate": cmd_simulate, "certify": cmd_certify}
    try:
        return handlers[args.command](args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
