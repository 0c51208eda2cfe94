"""Bad inputs and how each must end: one table for the test suite and for CI.

`tests/test_cli.py` runs every row in process; `python3 tests/bad_inputs.py`
runs every row against the installed `swarmdeform` console script, with
numpy's RuntimeWarnings made errors, and exits 1 if any row fails.

A row edits a base, runs a command on it and names the exit code and a
message the run must end in. A base is a shipped scenario, "square13" or
"helix67", edited at key paths, or "plan.csv", square13's planner trace over
5 s, edited at (sample, column) or with a column dropped (column: None) and
certified against square13. The message follows "error: " in stderr on exit
2 and "numerical error: " on exit 3, and is in the stdout verdict on exit 1
(UNSAFE). Every run's stderr holds no traceback and stays under 1 kB, and
the stdout of an exit 2 or 3 is empty; a quiet row's stderr also holds no
warning, and in process no warning is issued.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

import yaml

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SQUARE = SCENARIOS / "square13.yaml"
RANGE = "must be in [-1.60694e+60, 1.60694e+60], got"
POSITIVE = "must be in (0, 1.60694e+60], got"


class Row(NamedTuple):
    id: str
    edits: dict
    message: str
    base: str = "square13"   # "square13", "helix67" or "plan.csv"
    argv: tuple = ("plan",)  # the command and its flags; --config and --schedule are added
    code: int = 2
    quiet: bool = True


def _square_scaled_by(factor):
    """Edits scaling square13's positions, waypoints, delta and epsilon by `factor`."""
    doc = yaml.safe_load(SQUARE.read_text())
    return {("team", "positions"): {agent: [factor * x for x in triple]
                                    for agent, triple in doc["team"]["positions"].items()},
            ("trajectory", "points"): [[factor * x for x in point]
                                       for point in doc["trajectory"]["points"]],
            ("safety", "delta"): factor * doc["safety"]["delta"],
            ("safety", "epsilon"): factor * doc["safety"]["epsilon"]}


PARTITION = "invalid partition: "
FEW_LEADERS = PARTITION + "the first layer needs at least 3 boundary leaders plus the core"
# the team is checked before any geometry, its cells after
TEAM = [
    Row("no-layer", {("team", "layers"): []}, PARTITION + "it needs a layer"),
    Row("empty-layer", {("team", "layers"): [""]}, PARTITION + "it needs a layer"),
    Row("one-agent", {("team", "layers"): ["1"]}, FEW_LEADERS),
    Row("two-leaders", {("team", "layers"): ["1..2", "3..13"]}, FEW_LEADERS),
    Row("overlap", {("team", "layers"): ["1..5", "5..9", "10..13"]},
        PARTITION + "duplicate agent ids [5]"),
    Row("gap", {("team", "layers"): ["1..5", "6..8", "10..13"]},
        PARTITION + "agent ids must be 1..12, missing [9]"),
    Row("n-agents", {("team", "n_agents"): 14},
        PARTITION + "the layers list 13 agents, team.n_agents is 14"),
    Row("inf-coordinate", {("team", "positions", 2): [float("inf"), 0.0, 0.0]},
        f"agent 2: material position {RANGE} inf"),
    Row("huge-coordinate", {("team", "positions", 7): [0.0, 1e160, 0.0]},
        f"agent 7: material position {RANGE} 1e+160"),
    # a range is bounded before it is expanded
    Row("huge-range", {("team", "layers", 2): "10..1000000000"},
        "team.layers id '10..1000000000' must be in [1, 13], got 1000000000"),
    Row("unknown-agent", {("team", "positions", 14): [1.0, 1.0, 0.0]},
        "team.positions key must be in [1, 13], got 14"),
    Row("zero-leader", {("team", "positions", 1): [0.0, 0.0, 0.0]},
        "invalid team: boundary leader 1 has zero material position"),
    Row("coincident", {("team", "positions", 7): [-1.5, -1.5, 0.0]},
        "invalid team: coincident agents in cell 3"),
    # a team larger than its document is refused before anything of its size is built
    Row("huge-team", {("team", "n_agents"): 1000000, ("team", "layers", 2): "10..1000000"},
        "agents [14, 15, 16, 17, 18, 19, 20, 21, 22, 23] and 999977 more have no "
        "material position"),
]

MARGINS = [(key, value) for key in ("delta", "epsilon", "a_max")
           for value in (1e308, float("inf"), 0.0, -1.0)]
# every number is checked where it enters, before anything overflows or
# anything of the mission's size is built
MISSION = [
    Row("huge-grid", {}, "a mission of 1e+20 samples of 13 agents commands 3.9e+21 "
        "coordinates, above the budget of 268435456 doubles",
        argv=("plan", "--T", "1e20", "--dt", "1")),
    Row("overflowing-grid", {}, f"duration {POSITIVE} 1e+300",
        argv=("plan", "--T", "1e300", "--dt", "1e-300")),
    Row("dt-flag-nan", {}, f"dt {POSITIVE} nan", argv=("plan", "--dt", "nan")),
    Row("duration-flag-inf", {}, f"duration {POSITIVE} inf", argv=("plan", "--T", "inf")),
    Row("zeta", {("qp", "zeta"): 1e308}, f"qp.zeta {POSITIVE} 1e+308"),
    Row("alpha-bounds", {("qp", "alpha_bounds"): {"mode": "fixed", "min": 1e300, "max": 1e301}},
        f"qp.alpha_bounds.min {RANGE} 1e+300"),
    Row("alpha-flags", {}, f"alpha_min {RANGE} 1e+300",
        argv=("plan", "--alpha-min", "1e300", "--alpha-max", "1e300")),
    Row("alpha-min-flag-nan", {}, f"alpha_min {RANGE} nan", argv=("plan", "--alpha-min", "nan")),
    Row("alpha-max-flag-inf", {}, f"alpha_max {RANGE} inf", argv=("plan", "--alpha-max", "inf")),
    Row("amplitude", {("trajectory", "amplitudes"): [1e300, 0.4, 0.6]},
        f"trajectory.amplitudes {RANGE} 1e+300", base="helix67"),
    Row("inf-amplitude", {("trajectory", "amplitudes"): [float("inf"), 0.4, 0.6]},
        f"trajectory.amplitudes {RANGE} inf", base="helix67"),
    Row("omega", {("trajectory", "omega"): 1e308}, f"|trajectory.omega| {POSITIVE} 1e+308",
        base="helix67"),
    Row("waypoint", {("trajectory", "points", 1): [1e308, 0.0, 0.0]},
        f"trajectory.points {RANGE} 1e+308"),
    Row("waypoint-times", {("trajectory", "times"): [0.0, 1e-300, 20.0, 30.0]},
        "trajectory.times too close for the spread of trajectory.points"),
    *[Row(f"{key}-{value}", {("safety", key): value}, f"safety.{key} {POSITIVE} {value}",
          argv=("simulate",) if (key, value) == ("delta", 1e308) else ("plan",))
      for key, value in MARGINS],
    Row("safety-box-a_max", {("qp", "alpha_bounds"): {"mode": "safety"},
                             ("safety", "a_max"): 1e300}, f"safety.a_max {POSITIVE} 1e+300"),
    # margins in range can still open the window past the range on a tiny team
    Row("safety-box-edge", {**_square_scaled_by(1e-50), ("qp", "alpha_bounds"): {"mode": "safety"},
                            ("safety", "a_max"): 1e20},
        "safety window edge alpha_max (safety.a_max 1e+20, a0 4e-50) "
        f"{RANGE} 2.4999999999999998e+69"),
    Row("kp", {("sim", "gains", "kp"): 1e300},
        "sim.gains.kp must be in [0, 1.60694e+60], got 1e+300", argv=("simulate",)),
    Row("kd", {("sim", "gains", "kd"): 1e300},
        "sim.gains.kd must be in [0, 1.60694e+60], got 1e+300"),
]

OTHER = [
    # a planner trace value beyond the range is UNSAFE, not an error: it lies
    # outside what plan can write
    Row("huge-scale-trace", {(1, "alpha_1"): "1e308"},
        "boundary scale 1e+308 outside the window (alpha_max 1.125, sample 1)",
        base="plan.csv", argv=("certify",), code=1),
    Row("no-shift-trace", {"s_x": None, "s_y": None, "s_z": None}, "not a planner trace: ",
        base="plan.csv", argv=("certify",)),
    Row("nan-time-trace", {(3, "t"): "nan"}, "malformed trace file ",
        base="plan.csv", argv=("certify",)),
    # gains at the end of the range: the guard stops the run at the first step
    Row("diverging-gains", {("sim", "gains"): {"kp": 2.0 ** 200, "kd": 2.0 ** 200}},
        "simulation diverged at t=0.1: tracking error 3.28514e+58 exceeds 5",
        argv=("simulate",), code=3),
    # the validation warning comes first, then the error
    Row("empty-window", {("safety", "a_max"): 0.3}, "safety window empty: alpha_min",
        quiet=False),
]

ROWS = TEAM + MISSION + OTHER


def prepare(row: Row, directory: Path, run) -> list[str]:
    """Write the row's edited base into `directory` and return the arguments
    to run; `run(argv)` runs the program, to write a planner trace."""
    if row.base == "plan.csv":
        trace = directory / "plan.csv"
        run(["plan", "--config", str(SQUARE), "--T", "5", "--out", str(trace)])
        header, *lines = [line.split(",") for line in trace.read_text().splitlines()]
        for key, value in row.edits.items():
            if value is not None:
                sample, column = key
                lines[sample][header.index(column)] = value
        dropped = [name for name, value in row.edits.items() if value is None]
        keep = [j for j, name in enumerate(header) if name not in dropped]
        trace.write_text("".join(",".join(line[j] for j in keep) + "\n"
                                 for line in [header] + lines))
        return [*row.argv, "--config", str(SQUARE), "--schedule", str(trace)]
    doc = yaml.safe_load((SCENARIOS / f"{row.base}.yaml").read_text())
    for path, value in row.edits.items():
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    config = directory / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    return [row.argv[0], "--config", str(config), *row.argv[1:]]


def check(row: Row, code: int, out: str, err: str, warned=()) -> None:
    """Assert that a run of `row` ended as the row says."""
    assert code == row.code, f"exit {code}, expected {row.code}; stderr: {err!r}"
    prefix = {1: "", 2: "error: ", 3: "numerical error: "}[row.code]
    assert prefix + row.message in (out if row.code == 1 else err), (out, err)
    assert "Traceback" not in err and len(err.encode()) < 1024, err
    assert row.code == 1 or out == "", out
    if row.quiet:
        assert "warning" not in err.lower() and not warned, (err, warned)


def main() -> int:
    def run(argv):
        return subprocess.run(["swarmdeform", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})

    def run_ok(argv):
        assert run(argv).returncode == 0

    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        for row in ROWS:
            directory = Path(tmp, row.id)
            directory.mkdir()
            done = run(prepare(row, directory, run_ok))
            try:
                check(row, done.returncode, done.stdout, done.stderr)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {row.id}: {exc}")
            else:
                print(f"ok   {row.id}: exit {row.code}")
    print(f"{len(ROWS) - failed} of {len(ROWS)} bad inputs end as their rows say")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
