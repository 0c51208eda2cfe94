import warnings

import numpy as np
import pytest
import yaml

import swarmdeform as sd
from swarmdeform.cli import main

import bad_inputs
from conftest import SCENARIO_DIR

SQUARE = str(SCENARIO_DIR / "square13.yaml")


def test_plan_square(capsys, tmp_path):
    out = tmp_path / "plan.csv"
    code = main(["plan", "--config", SQUARE, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "scenario square13: 13 agents, 4 cells, 301 samples" in captured.out
    assert "planning bounds [0.5, 1.1]" in captured.out
    assert "boundary scale range [0.5, 0.5]" in captured.out
    assert out.exists()
    schedule = sd.read_schedule(out)
    assert schedule.n_samples == 301
    assert np.all(schedule.alpha[:, :4] == 0.5)


def test_plan_duration_and_dt_overrides(capsys):
    code = main(["plan", "--config", SQUARE, "--T", "2", "--dt", "0.5"])
    assert code == 0
    assert "5 samples" in capsys.readouterr().out


def test_plan_mode_override(capsys):
    code = main(["plan", "--config", SQUARE, "--mode", "paper-exact", "--T", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "scaling paper-exact" in captured.out


def test_simulate_square(capsys, tmp_path):
    out = tmp_path / "traj.csv"
    code = main(["simulate", "--config", SQUARE, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert "closed-loop over 30 s at dt 0.1" in captured.out
    t, ids, desired, actual = sd.read_trajectory(out)
    assert t.shape == (301,)
    assert np.array_equal(ids, np.arange(1, 14))
    assert desired.shape == (301, 13, 3)
    assert not np.array_equal(desired, actual)


def test_simulate_open_loop(capsys):
    code = main(["simulate", "--config", SQUARE, "--open-loop", "--T", "2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "open-loop" in captured.out
    assert "max tracking error 0.000000" in captured.out


def test_certify_square(capsys, tmp_path):
    out = tmp_path / "cert.csv"
    code = main(["certify", "--config", SQUARE, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("SAFE:")
    t, cells, lambdas, bounds, margins = sd.read_certification(out)
    assert np.array_equal(cells, [1, 2, 3, 4])
    assert margins.min() > 0.0


def test_certify_reuses_planner_trace(capsys, tmp_path):
    plan_out = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(plan_out), "--T", "5"]) == 0
    capsys.readouterr()
    code = main(["certify", "--config", SQUARE, "--schedule", str(plan_out)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out.startswith("SAFE:")


def test_certify_schedule_refuses_planner_overrides(capsys, tmp_path):
    # the trace fixes the grid and the scales, so these flags would be dropped
    plan_out = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(plan_out)]) == 0
    capsys.readouterr()
    code = main(["certify", "--config", SQUARE, "--schedule", str(plan_out), "--dt", "7",
                 "--mode", "paper-exact", "--alpha-min", "99", "--T", "5"])
    captured = capsys.readouterr()
    assert code == 2
    assert "drop --dt, --T, --mode, --alpha-min" in captured.err
    assert captured.out == ""
    code = main(["certify", "--config", SQUARE, "--schedule", str(plan_out),
                 "--alpha-max", "1.1"])
    assert code == 2
    assert "drop --alpha-max" in capsys.readouterr().err


def test_certify_rejects_mismatched_trace(capsys, tmp_path):
    trace = tmp_path / "plan.csv"
    trace.write_text("t,alpha_1,alpha_2,s_x,s_y,s_z,objective,kkt\n"
                     "0,1,0,0,0,0,0,0\n")
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert "scale columns" in captured.err


def test_certify_unsafe_bounds_exit_code(capsys, tmp_path):
    # same scenario with the lower scale bound dropped below the safe window
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["qp"]["alpha_bounds"] = {"mode": "fixed", "min": 0.2, "max": 1.1}
    config = tmp_path / "unsafe.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["certify", "--config", str(config), "--T", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("UNSAFE:")


def test_plan_empty_window_exit_code(capsys, tmp_path):
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["safety"]["a_max"] = 0.3
    config = tmp_path / "empty.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["plan", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert "safety window empty" in captured.err


def test_bad_config_exit_code(capsys, tmp_path):
    missing = tmp_path / "missing.yaml"
    assert main(["plan", "--config", str(missing)]) == 2
    assert "cannot read scenario" in capsys.readouterr().err

    not_a_scenario = tmp_path / "junk.yaml"
    not_a_scenario.write_text("just: some\nyaml: file\n")
    assert main(["plan", "--config", str(not_a_scenario)]) == 2
    assert "unsupported scenario schema" in capsys.readouterr().err


def test_infeasible_bound_overrides(capsys):
    code = main(["plan", "--config", SQUARE, "--alpha-min", "2.0"])
    captured = capsys.readouterr()
    assert code == 2
    assert "infeasible alpha bounds" in captured.err


def test_validation_warnings_go_to_stderr(capsys, tmp_path):
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["team"]["positions"][13] = [1.0, -2.5, 0.4]
    config = tmp_path / "offplane.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["plan", "--config", str(config), "--T", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "off their cell plane" in captured.err


def _planner_trace_with_nan_shift(tmp_path, every_sample):
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    lines = trace.read_text().splitlines()
    column = lines[0].split(",").index("s_x")
    for i in range(1, len(lines)) if every_sample else [20]:
        fields = lines[i].split(",")
        fields[column] = "nan"
        lines[i] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    return trace


@pytest.mark.parametrize("which", ["every-sample", "one-sample"])
def test_certify_nan_shift_is_unsafe(capsys, tmp_path, which):
    trace = _planner_trace_with_nan_shift(tmp_path, which == "every-sample")
    capsys.readouterr()
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("UNSAFE:")
    assert "distance nan" in captured.out


def _planner_trace_with_boundary_scales_10(tmp_path):
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    lines = trace.read_text().splitlines()
    boundary = [i for i, name in enumerate(lines[0].split(","))
                if name.startswith("alpha_")][:-1]
    for i in range(1, len(lines)):
        fields = lines[i].split(",")
        for column in boundary:
            fields[column] = "10"
        lines[i] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    return trace


def test_certify_scales_above_window_are_unsafe(capsys, tmp_path):
    trace = _planner_trace_with_boundary_scales_10(tmp_path)
    capsys.readouterr()
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("UNSAFE:")
    assert "boundary scale 10 outside the window (alpha_max 1.125, sample 0)" in captured.out


def test_certify_infinite_a_max_exit_code(capsys, tmp_path):
    # an infinite a_max would open the window's upper edge and pass scales of
    # 10; it is refused where it is read, by name
    trace = _planner_trace_with_boundary_scales_10(tmp_path)
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["safety"]["a_max"] = float("inf")
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    capsys.readouterr()
    code = main(["certify", "--config", str(config), "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert "error: safety.a_max must be in (0, 1.60694e+60], got inf" in captured.err
    assert captured.out == ""


def test_certify_singular_jacobian_exit_code(capsys, tmp_path):
    # one boundary scale at 0 in one sample collapses its cells' Jacobians; at
    # 1e-12, sigma_1 sigma_2 sigma_3 <= 1e-12 sigma_1**3 still holds, and at
    # 1e-11 the cells are certified, far below their bound. 1e200 is beyond
    # team.MAX_COORDINATE, so it is outside the window and reads nan in the
    # spectrum (the ratio form's finite 1e200 case is tests/test_safety.py's)
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    lines = trace.read_text().splitlines()
    column = lines[0].split(",").index("alpha_1")
    for scale, expected in (("0", 3), ("1e-12", 3), ("1e-11", 1), ("1e200", 1)):
        fields = lines[20].split(",")
        fields[column] = scale
        trace.write_text("\n".join(lines[:20] + [",".join(fields)] + lines[21:]) + "\n")
        capsys.readouterr()
        code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
        captured = capsys.readouterr()
        assert code == expected
        if code == 3:
            assert "deformation Jacobian is singular" in captured.err
            assert captured.out == ""
        elif scale == "1e200":
            assert captured.out.startswith("UNSAFE: worst margin nan (cell 1, sample 19)")
            assert ("boundary scale 1e+200 outside the window (alpha_max 1.125, sample 19)"
                    in captured.out)
        else:
            assert captured.out.startswith(
                "UNSAFE: worst margin -3.578e-01 (cell 1, sample 19)")


def test_certify_infinite_scale_is_unsafe(capsys, tmp_path):
    # inf * 0 at the core's material position reads nan, with no warning
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    lines = trace.read_text().splitlines()
    column = lines[0].split(",").index("alpha_1")
    fields = lines[2].split(",")
    fields[column] = "inf"
    trace.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    capsys.readouterr()
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("UNSAFE: worst margin nan (cell 1, sample 1)")
    assert "boundary scale inf outside the window (alpha_max 1.125, sample 1)" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("column, expected", [
    ("alpha_1", "boundary scale 1e+308 outside the window (alpha_max 1.125, sample 1)"),
    ("s_x", "shift s_x 1e+308 out of range (sample 1)"),
], ids=["boundary-scale", "shift"])
def test_certify_huge_schedule_value_is_unsafe(capsys, tmp_path, column, expected):
    # a finite value beyond team.MAX_COORDINATE reads nan like inf: it lies
    # outside the range plan can write, so it must read UNSAFE with no warning
    # in either warning setting
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    lines = trace.read_text().splitlines()
    fields = lines[2].split(",")
    fields[lines[0].split(",").index(column)] = "1e308"
    trace.write_text("\n".join(lines[:2] + [",".join(fields)] + lines[3:]) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("UNSAFE: ")
    assert expected in captured.out
    assert captured.err == ""
    assert caught == []


def _run_row(row, tmp_path, capsys):
    def plan(argv):
        assert main(argv) == 0

    argv = bad_inputs.prepare(row, tmp_path, plan)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    bad_inputs.check(row, code, captured.out, captured.err, caught)


# the rows of tests/bad_inputs.py, which CI also runs on the console script;
# exit 1 is the UNSAFE verdict, so a bad input exits 2 or 3 with a short
# message that names it, unless a trace value is one plan cannot write
@pytest.mark.parametrize("row", bad_inputs.TEAM, ids=lambda row: row.id)
def test_malformed_team_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


@pytest.mark.parametrize("row", bad_inputs.MISSION, ids=lambda row: row.id)
def test_out_of_range_mission_number_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


@pytest.mark.parametrize("row", bad_inputs.OTHER, ids=lambda row: row.id)
def test_bad_input_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


def test_certify_planner_trace_without_shift_exit_code(capsys, tmp_path):
    # exit 1 is the UNSAFE verdict; the old reader ended here in an IndexError
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    table = [line.split(",") for line in trace.read_text().splitlines()]
    j = table[0].index("s_x")
    trace.write_text("\n".join(",".join(row[:j] + row[j + 3:]) for row in table) + "\n")
    capsys.readouterr()
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: not a planner trace: {trace}" in captured.err
    assert captured.out == ""


def test_malformed_scenario_exit_code(capsys, tmp_path):
    config = tmp_path / "broken.yaml"
    config.write_text("schema: swarm-scenario/1\nteam: {n_agents: 13\n")
    code = main(["plan", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert "malformed scenario document" in captured.err


def test_certify_malformed_trace_exit_code(capsys, tmp_path):
    trace = tmp_path / "plan.csv"
    trace.write_text("t,alpha_1,alpha_2,alpha_3,alpha_4,alpha_5,s_x,s_y,s_z,objective,kkt\n"
                     "0,1,1,1,1,0,abc,0,0,0,0\n")
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert "malformed trace file" in captured.err


@pytest.mark.parametrize("edit", ["nan", "reversed", "all-zero"])
def test_certify_planner_trace_with_bad_times_exit_code(capsys, tmp_path, edit):
    # each copy certified SAFE before: the reader looked at no time, so the
    # samples could come out of order, twice, or at no time at all
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    header, *rows = [line.split(",") for line in trace.read_text().splitlines()]
    if edit == "nan":
        rows[3][0] = "nan"
    elif edit == "reversed":
        rows.reverse()
    else:
        for row in rows:
            row[0] = "0"
    trace.write_text("".join(",".join(row) + "\n" for row in [header] + rows))
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"error: malformed trace file {trace}\n"
    assert captured.out == ""
    assert caught == []


PLAN_HEADER = b"t,alpha_1,alpha_2,alpha_3,alpha_4,alpha_5,s_x,s_y,s_z,objective,kkt\n"


@pytest.mark.parametrize("case", ["missing", "directory", "non-utf8-first-line",
                                  "non-utf8-deep"])
def test_certify_unreadable_trace_exit_code(capsys, tmp_path, case):
    # exit 1 is the UNSAFE verdict, so a trace that cannot be read must not
    # end in a traceback
    trace = tmp_path / "plan.csv"
    if case == "directory":
        trace.mkdir()
    elif case == "non-utf8-first-line":
        trace.write_bytes(b"t,alpha_\xff\n0,1\n")
    elif case == "non-utf8-deep":
        # past the first decoded buffer, inside the numeric parse
        trace.write_bytes(PLAN_HEADER + b"0,1,1,1,1,0,0,0,0,0,0\n" * 2000 + b"\xff\n")
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"cannot read trace file {trace}" in captured.err


@pytest.mark.parametrize("path, value", [
    (("safety", "delta"), "abc"),
    (("team", "positions", 1), ["x", 0.0, 0.0]),
    (("team", "layers", 0), "1..x"),
    (("qp", "zeta"), "abc"),
    (("trajectory",), {"kind": "helix", "omega": "abc"}),
    (("team", "n_agents"), "many"),
    (("qp", "alpha_bounds", "max"), [1]),
    (None, None),
], ids=["delta", "position", "layer", "zeta", "omega", "n_agents", "alpha-max-list",
        "non-utf8"])
def test_malformed_scenario_value_exit_code(capsys, tmp_path, path, value):
    # exit 1 is the UNSAFE verdict, so a field that does not convert must not
    # end in a traceback
    config = tmp_path / "bad.yaml"
    text = (SCENARIO_DIR / "square13.yaml").read_text()
    if path is None:
        config.write_bytes(b"# \xff\n" + text.encode())
        message = f"error: cannot read scenario {config}"
    else:
        doc = node = yaml.safe_load(text)
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        config.write_text(yaml.safe_dump(doc))
        message = "error: malformed scenario value: "
    code = main(["plan", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("path, value, field", [
    (("team", "n_agents"), 13.9, "team.n_agents"),
    (("team", "positions", 13.5), [0.5, 0.25, 0.0], "team.positions key"),
    (("team", "layers", 0), [True, "2..5"], "team.layers id"),
    (("weights",), {"mode": "explicit", "matrices": [{"layer": 2.0, "rows": {}}]},
     "weights.matrices.layer"),
    (("weights",), {"mode": "explicit", "matrices": [{"layer": 2, "rows": {6.0: {5: 1.0}}}]},
     "weights.matrices.rows agent id"),
    (("weights",), {"mode": "explicit", "matrices": [{"layer": 2, "rows": {6: {True: 1.0}}}]},
     "weights.matrices.rows leader id"),
], ids=["n_agents", "position-key", "layer-bool", "weight-layer", "weight-agent",
        "weight-leader"])
def test_fractional_or_boolean_id_exit_code(capsys, tmp_path, path, value, field):
    # int() would truncate the fraction or read the bool as agent 1 and plan on
    doc = node = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["plan", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {field} must be an integer, got " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("path, value, field", [
    (("safety", "delta"), True, "safety.delta"),
    (("safety", "epsilon"), True, "safety.epsilon"),
    (("safety", "a_max"), True, "safety.a_max"),
    (("qp", "zeta"), True, "qp.zeta"),
    (("qp", "alpha_bounds", "min"), True, "qp.alpha_bounds.min"),
    (("qp", "alpha_bounds", "max"), True, "qp.alpha_bounds.max"),
    (("sim", "duration"), True, "sim.duration"),
    (("sim", "dt"), True, "sim.dt"),
    (("sim", "gains", "kp"), True, "sim.gains.kp"),
    (("sim", "gains", "kd"), True, "sim.gains.kd"),
    (("weights",), {"mode": "explicit", "matrices": [{"layer": 2, "rows": {6: {1: True}}}]},
     "weights.matrices.rows weight"),
    (("team", "positions", 13, 2), True, "team.positions coordinate"),
    (("trajectory",), {"kind": "helix", "omega": True}, "trajectory.omega"),
    (("trajectory",), {"kind": "helix", "amplitudes": [0.4, True, 0.6]},
     "trajectory.amplitudes"),
    (("trajectory", "times", 0), False, "trajectory.times"),
    (("trajectory", "points", 1, 2), True, "trajectory.points"),
], ids=["delta", "epsilon", "a_max", "zeta", "alpha-min", "alpha-max", "duration", "dt",
        "kp", "kd", "weight", "position", "omega", "amplitude", "time", "point"])
def test_boolean_number_exit_code(capsys, tmp_path, path, value, field):
    # float() would read the bool as 1.0 or 0.0 and plan on
    doc = node = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["plan", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {field} must be a number, got " in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, target", [
    ("plan", "missing-dir"),
    ("simulate", "missing-dir"),
    ("certify", "directory"),
])
def test_unwritable_out_exit_code(capsys, tmp_path, command, target):
    out = tmp_path / "missing" / "trace.csv"
    if target == "directory":
        out = tmp_path
    code = main([command, "--config", SQUARE, "--T", "2", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: cannot write trace file {out}" in captured.err


@pytest.mark.parametrize("path, value", [
    (("qp",), 5),
    (("sim",), 5),
    (("weights",), [1]),
    (("trajectory",), 5),
    (("sim", "gains"), 7),
    (("qp", "alpha_bounds"), [0.5, 1.0]),
    (("team", "positions"), [1, 2]),
], ids=["qp", "sim", "weights", "trajectory", "gains", "alpha-bounds", "positions"])
def test_wrong_type_scenario_section_exit_code(capsys, tmp_path, path, value):
    # a section that is not a mapping is a scenario error, not a traceback
    doc = node = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["plan", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: {'.'.join(path)} must be a mapping" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("gain", ["kp", "kd"])
@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_non_finite_gains_exit_code(capsys, tmp_path, gain, value):
    # bad input, not a diverged simulation (exit 3)
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["sim"]["gains"][gain] = value
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["simulate", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: sim.gains.{gain} must be in [0, 1.60694e+60], got {value}" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_diverging_simulation_exit_code(capsys, tmp_path):
    # gains at the magnitude bound: the first step's error is near 2**194, and
    # later steps of its block overflow; the guard reports the first step in
    # six digits, and no warning escapes
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["sim"]["gains"] = {"kp": 2.0 ** 200, "kd": 2.0 ** 200}
    config = tmp_path / "diverging.yaml"
    config.write_text(yaml.safe_dump(doc))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["simulate", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ("numerical error: simulation diverged at t=0.1: "
                            "tracking error 3.28514e+58 exceeds 5\n")
    assert captured.out == ""
    assert caught == []


@pytest.mark.parametrize("gain", ["kp", "kd"])
def test_negative_gains_exit_code(capsys, tmp_path, gain):
    # a negative gain is bad input, not a diverged simulation (exit 3)
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["sim"]["gains"][gain] = -1.0
    config = tmp_path / "bad.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["simulate", "--config", str(config)])
    captured = capsys.readouterr()
    assert code == 2
    assert f"error: sim.gains.{gain} must be in [0, 1.60694e+60], got -1.0" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_certify_unwritable_out_prints_no_verdict(capsys, tmp_path):
    code = main(["certify", "--config", SQUARE, "--T", "2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "SAFE" not in captured.out
