"""Bad inputs and how each must end: one table for the test suite and for CI.

`tests/test_cli.py` runs every row in process, one test per group of
`GROUPS`; `python3 tests/bad_inputs.py` runs every row against the installed
`swarmdeform` console script, with numpy's RuntimeWarnings made errors, and
exits 1 if any row fails.

A row edits a base, a shipped scenario ("square13" or "helix67") at key
paths and may write bytes before it, runs a command on it and names the exit code and the message line the
run must end in. A row with trace edits also writes square13's planner trace
over 5 s, edits it at (sample, column) or drops a column (column: None), and
certifies it against the edited scenario. The message is the whole stdout on
exit 1 (the UNSAFE verdict, stderr empty) and the last stderr line after
"error: " on exit 2 or "numerical error: " on exit 3 (stdout empty); "{path}"
in it stands for the row's file, the trace if the row has one. Every run's
stderr holds no traceback and stays under 1 kB; a quiet row's stderr is the
message line alone, and in process no warning is issued.
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
    edits: dict              # key path -> value in the base scenario
    message: str
    base: str = "square13"   # "square13" or "helix67"
    argv: tuple = ("plan",)  # the command and its flags; --config and --schedule are added
    code: int = 2
    quiet: bool = True
    # (sample, column) -> field, or column -> None to drop it, in square13's
    # planner trace over 5 s, which the run takes as --schedule; None: no trace
    trace: dict | None = None
    preamble: bytes = b""    # written before the edited base


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
NO_LAYER = PARTITION + "it needs a layer, and no layer may be empty"
FEW_LEADERS = PARTITION + "the first layer needs at least 3 boundary leaders plus the core"
# the team is checked before any geometry, its cells after
TEAM = [
    Row("no-layer", {("team", "layers"): []}, NO_LAYER),
    Row("empty-layer", {("team", "layers"): [""]}, NO_LAYER),
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
        "trajectory.times too close for the spread of trajectory.points: the spline's "
        "coefficients overflow"),
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

# the UNSAFE verdict's parts, on square13's planner trace over 5 s
NAN_MARGIN = "UNSAFE: worst margin nan (cell 1, sample"
FIRST_MARGIN = "UNSAFE: worst margin 1.422e-01 (cell 1, sample 0)"
NAN_DISTANCE = "min desired distance nan (threshold 0.400000, agents 1-2)"
ZERO_DISTANCE = "min desired distance 0.000000 (threshold 0.400000, agents 1-5)"
FAR_DISTANCE = "min desired distance 0.559017 (threshold 0.400000, agents 6-10)"
OTHER = [
    # a planner trace value beyond the range is UNSAFE, not an error: it lies
    # outside what plan can write
    Row("huge-scale-trace", {}, f"{NAN_MARGIN} 1), {NAN_DISTANCE}, boundary scale 1e+308 "
        "outside the window (alpha_max 1.125, sample 1)",
        argv=("certify",), code=1, trace={(1, "alpha_1"): "1e308"}),
    Row("no-shift-trace", {}, "not a planner trace: {path}", argv=("certify",),
        trace={"s_x": None, "s_y": None, "s_z": None}),
    Row("nan-time-trace", {}, "malformed trace file {path}", argv=("certify",),
        trace={(3, "t"): "nan"}),
    # gains at the end of the range: the first step's error is near 2**194,
    # and later steps of its block overflow; the guard stops the run at the
    # first step
    Row("diverging-gains", {("sim", "gains"): {"kp": 2.0 ** 200, "kd": 2.0 ** 200}},
        "simulation diverged at t=0.1: tracking error 3.28514e+58 exceeds 5",
        argv=("simulate",), code=3),
    # the validation warning comes first, then the error
    Row("empty-window", {("safety", "a_max"): 0.3}, "safety window empty: alpha_min "
        "0.357771 > alpha_max -0.025", quiet=False),
]

# float() would read a bool as 1.0 or 0.0 and plan on; an edited section holds True
BOOLEAN_NUMBERS = [Row(name, {path: value}, f"{field} must be a number, got "
                       f"{value if isinstance(value, bool) else True}")
                   for name, path, value, field in [
    ("delta", ("safety", "delta"), True, "safety.delta"),
    ("epsilon", ("safety", "epsilon"), True, "safety.epsilon"),
    ("a_max", ("safety", "a_max"), True, "safety.a_max"),
    ("zeta", ("qp", "zeta"), True, "qp.zeta"),
    ("alpha-min", ("qp", "alpha_bounds", "min"), True, "qp.alpha_bounds.min"),
    ("alpha-max", ("qp", "alpha_bounds", "max"), True, "qp.alpha_bounds.max"),
    ("duration", ("sim", "duration"), True, "sim.duration"),
    ("dt", ("sim", "dt"), True, "sim.dt"),
    ("kp", ("sim", "gains", "kp"), True, "sim.gains.kp"),
    ("kd", ("sim", "gains", "kd"), True, "sim.gains.kd"),
    ("weight", ("weights",),
     {"mode": "explicit", "matrices": [{"layer": 2, "rows": {6: {1: True}}}]},
     "weights.matrices.rows weight"),
    ("position", ("team", "positions", 13, 2), True, "team.positions coordinate"),
    ("omega", ("trajectory",), {"kind": "helix", "omega": True}, "trajectory.omega"),
    ("amplitude", ("trajectory",), {"kind": "helix", "amplitudes": [0.4, True, 0.6]},
     "trajectory.amplitudes"),
    ("time", ("trajectory", "times", 0), False, "trajectory.times"),
    ("point", ("trajectory", "points", 1, 2), True, "trajectory.points"),
]]

# int() would truncate the fraction or read the bool as agent 1 and plan on
INTEGER_IDS = [
    Row("n_agents", {("team", "n_agents"): 13.9}, "team.n_agents must be an integer, got 13.9"),
    Row("position-key", {("team", "positions", 13.5): [0.5, 0.25, 0.0]},
        "team.positions key must be an integer, got 13.5"),
    Row("layer-bool", {("team", "layers", 0): [True, "2..5"]},
        "team.layers id must be an integer, got True"),
    Row("weight-layer", {("weights",): {"mode": "explicit",
                                       "matrices": [{"layer": 2.0, "rows": {}}]}},
        "weights.matrices.layer must be an integer, got 2.0"),
    Row("weight-agent", {("weights",): {"mode": "explicit",
                                       "matrices": [{"layer": 2, "rows": {6.0: {5: 1.0}}}]}},
        "weights.matrices.rows agent id must be an integer, got 6.0"),
    Row("weight-leader", {("weights",): {"mode": "explicit",
                                        "matrices": [{"layer": 2, "rows": {6: {True: 1.0}}}]}},
        "weights.matrices.rows leader id must be an integer, got True"),
]

# a section that is not a mapping is a scenario error, not a traceback
SECTIONS = [Row(name, {path: value}, f"{'.'.join(path)} must be a mapping")
            for name, path, value in [
    ("qp", ("qp",), 5), ("sim", ("sim",), 5), ("weights", ("weights",), [1]),
    ("trajectory", ("trajectory",), 5), ("gains", ("sim", "gains"), 7),
    ("alpha-bounds", ("qp", "alpha_bounds"), [0.5, 1.0]),
    ("positions", ("team", "positions"), [1, 2]),
]]

MALFORMED = "malformed scenario value: "
NOT_FLOAT = MALFORMED + "could not convert string to float: "
NOT_INT = MALFORMED + "invalid literal for int() with base 10: "
# a field that does not convert
VALUES = [
    Row("delta", {("safety", "delta"): "abc"}, NOT_FLOAT + "'abc'"),
    Row("position", {("team", "positions", 1): ["x", 0.0, 0.0]}, NOT_FLOAT + "'x'"),
    Row("layer", {("team", "layers", 0): "1..x"}, NOT_INT + "'x'"),
    Row("zeta", {("qp", "zeta"): "abc"}, NOT_FLOAT + "'abc'"),
    Row("omega", {("trajectory",): {"kind": "helix", "omega": "abc"}}, NOT_FLOAT + "'abc'"),
    Row("n_agents", {("team", "n_agents"): "many"}, NOT_INT + "'many'"),
    Row("alpha-max-list", {("qp", "alpha_bounds", "max"): [1]},
        MALFORMED + "float() argument must be a string or a real number, not 'list'"),
    Row("non-utf8", {}, "cannot read scenario {path}: 'utf-8' codec can't decode byte 0xff "
        "in position 2: invalid start byte", preamble=b"# \xff\n"),
]

# bad gains are bad input, not a diverged simulation (exit 3)
NON_FINITE_GAINS = [Row(f"{value}-{gain}", {("sim", "gains", gain): float(value)},
                        f"sim.gains.{gain} must be in [0, 1.60694e+60], got {value}",
                        argv=("simulate",))
                    for value in ("nan", "inf") for gain in ("kp", "kd")]
NEGATIVE_GAINS = [Row(gain, {("sim", "gains", gain): -1.0},
                      f"sim.gains.{gain} must be in [0, 1.60694e+60], got -1.0",
                      argv=("simulate",)) for gain in ("kp", "kd")]

OVERRIDES = [
    Row("alpha-min", {}, "infeasible alpha bounds: 2.0 > 1.1", argv=("plan", "--alpha-min", "2.0")),
    # the trace fixes the grid and the scales, so these flags would be dropped
    Row("schedule-four", {}, "--schedule takes the time grid, mode and scale box from the "
        "planner trace; drop --dt, --T, --mode, --alpha-min",
        argv=("certify", "--dt", "7", "--mode", "paper-exact", "--alpha-min", "99", "--T", "5"),
        trace={}),
    Row("schedule-alpha-max", {}, "--schedule takes the time grid, mode and scale box from "
        "the planner trace; drop --alpha-max", argv=("certify", "--alpha-max", "1.1"), trace={}),
]

SAMPLES = 51  # of square13's planner trace over 5 s at dt 0.1
BOUNDARY = ("alpha_1", "alpha_2", "alpha_3", "alpha_4")
SCALES_10 = {(i, column): "10" for i in range(SAMPLES) for column in BOUNDARY}
# trace values plan cannot write read UNSAFE, with nothing on stderr and no
# warning; scales far above the window make the cell Jacobians singular,
# and singular cells read nan like out-of-range ones
TRACES = [
    Row("nan-shift-every-sample", {}, f"{FIRST_MARGIN}, {NAN_DISTANCE}, shift s_x nan out of "
        "range (sample 0)", argv=("certify",), code=1,
        trace={(i, "s_x"): "nan" for i in range(SAMPLES)}),
    Row("nan-shift-one-sample", {}, f"{FIRST_MARGIN}, {NAN_DISTANCE}, shift s_x nan out of "
        "range (sample 19)", argv=("certify",), code=1, trace={(19, "s_x"): "nan"}),
    Row("scales-10", {}, "UNSAFE: worst margin 6.422e-01 (cell 1, sample 0), min desired "
        "distance 11.180340 (threshold 0.400000, agents 9-13), boundary scale 10 outside the "
        "window (alpha_max 1.125, sample 0)", argv=("certify",), code=1, trace=SCALES_10),
    # an infinite a_max would open the window's upper edge and pass scales of
    # 10; it is refused where it is read, by name
    Row("inf-a_max", {("safety", "a_max"): float("inf")},
        f"safety.a_max {POSITIVE} inf", argv=("certify",), trace=SCALES_10),
    # one boundary scale in one sample: at 0 and 1e-12, and at 1e7 and 1e59
    # (far above the window, inside the range), sigma_1 sigma_2 sigma_3 <=
    # 1e-12 sigma_1**3 holds; at 1e-11 the cells are certified, far below
    # their bound; 1e200 is beyond the range and reads nan as it is
    *[Row(f"scale-{scale}", {}, message, argv=("certify",), code=1,
          trace={(19, "alpha_1"): scale}) for scale, message in [
        ("0", f"{NAN_MARGIN} 19), {ZERO_DISTANCE}, boundary scale 0 outside the window "
              "(alpha_max 1.125, sample 19)"),
        ("1e-12", f"{NAN_MARGIN} 19), {ZERO_DISTANCE}"),
        ("1e-11", f"UNSAFE: worst margin -3.578e-01 (cell 1, sample 19), {ZERO_DISTANCE}"),
        ("1e7", f"{NAN_MARGIN} 19), {FAR_DISTANCE}, boundary scale 1e+07 outside the window "
                "(alpha_max 1.125, sample 19)"),
        ("1e59", f"{NAN_MARGIN} 19), {FAR_DISTANCE}, boundary scale 1e+59 outside the window "
                 "(alpha_max 1.125, sample 19)"),
        ("1e200", f"{NAN_MARGIN} 19), {NAN_DISTANCE}, boundary scale 1e+200 outside the "
                  "window (alpha_max 1.125, sample 19)")]],
    # inf * 0 at the core's material position reads nan
    Row("inf-scale", {}, f"{NAN_MARGIN} 1), {NAN_DISTANCE}, boundary scale inf outside the "
        "window (alpha_max 1.125, sample 1)", argv=("certify",), code=1,
        trace={(1, "alpha_1"): "inf"}),
    Row("huge-shift", {}, f"{FIRST_MARGIN}, {NAN_DISTANCE}, shift s_x 1e+308 out of range "
        "(sample 1)", argv=("certify",), code=1, trace={(1, "s_x"): "1e308"}),
]

# each group is one test of tests/test_cli.py
GROUPS = {"team": TEAM, "mission": MISSION, "other": OTHER, "boolean-number": BOOLEAN_NUMBERS,
          "integer-id": INTEGER_IDS, "section": SECTIONS, "value": VALUES,
          "non-finite-gain": NON_FINITE_GAINS, "negative-gain": NEGATIVE_GAINS,
          "override": OVERRIDES, "trace": TRACES}


def prepare(row: Row, directory: Path, run) -> tuple[list[str], Path]:
    """Write the row's edited base, and its edited planner trace, into
    `directory`; return the arguments to run and the path of the row's file,
    the trace if it has one. `run(argv)` runs the program, to write the trace."""
    config = SCENARIOS / f"{row.base}.yaml"
    if row.edits or row.preamble:
        doc = yaml.safe_load(config.read_text())
        for path, value in row.edits.items():
            node = doc
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
        config = directory / "bad.yaml"
        config.write_bytes(row.preamble + yaml.safe_dump(doc).encode())
    argv = [row.argv[0], "--config", str(config), *row.argv[1:]]
    if row.trace is None:
        return argv, config
    trace = directory / "plan.csv"
    run(["plan", "--config", str(SQUARE), "--T", "5", "--out", str(trace)])
    header, *lines = [line.split(",") for line in trace.read_text().splitlines()]
    for key, value in row.trace.items():
        if value is not None:
            sample, column = key
            lines[sample][header.index(column)] = value
    keep = [j for j, name in enumerate(header) if row.trace.get(name, "") is not None]
    trace.write_text("".join(",".join(line[j] for j in keep) + "\n"
                             for line in [header] + lines))
    return [*argv, "--schedule", str(trace)], trace


def check(row: Row, path: Path, code: int, out: str, err: str, warned=()) -> None:
    """Assert that a run of `row`, whose file is `path`, ended as the row says."""
    assert code == row.code, f"exit {code}, expected {row.code}; stderr: {err!r}"
    prefix = {1: "", 2: "error: ", 3: "numerical error: "}[row.code]
    line = prefix + row.message.replace("{path}", str(path)) + "\n"
    if row.code == 1:
        assert out == line and err == "", (out, err)
    else:
        assert err.endswith(line) and out == "", (out, err)
    assert "Traceback" not in err and len(err.encode()) < 1024, err
    if row.quiet:
        assert err in ("", line) and not warned, (err, warned)


def main() -> int:
    def run(argv):
        return subprocess.run(["swarmdeform", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})

    def run_ok(argv):
        assert run(argv).returncode == 0

    failed = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        for group, rows in GROUPS.items():
            for row in rows:
                name = f"{group}/{row.id}"
                directory = Path(tmp, group, row.id)
                directory.mkdir(parents=True)
                argv, path = prepare(row, directory, run_ok)
                done = run(argv)
                total += 1
                try:
                    check(row, path, done.returncode, done.stdout, done.stderr)
                except AssertionError as exc:
                    failed += 1
                    print(f"FAIL {name}: {exc}")
                else:
                    print(f"ok   {name}: exit {row.code}")
    print(f"{total - failed} of {total} bad inputs end as their rows say")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
