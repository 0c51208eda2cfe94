import numpy as np
import pytest
import yaml

import swarmdeform as sd
from swarmdeform.cli import main

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


def test_certify_scales_above_window_are_unsafe(capsys, tmp_path):
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
    capsys.readouterr()
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out.startswith("UNSAFE:")
    assert "boundary scale 10 outside the window (alpha_max 1.125, sample 0)" in captured.out


def test_certify_singular_jacobian_exit_code(capsys, tmp_path):
    # one boundary scale at 0 in one sample collapses its cells' Jacobians
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    lines = trace.read_text().splitlines()
    fields = lines[20].split(",")
    fields[lines[0].split(",").index("alpha_1")] = "0"
    lines[20] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = main(["certify", "--config", SQUARE, "--schedule", str(trace)])
    captured = capsys.readouterr()
    assert code == 3
    assert "deformation Jacobian is singular" in captured.err
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


@pytest.mark.parametrize("flags, message", [
    (["--dt", "nan"], "must be positive and finite"),
    (["--T", "inf"], "must be positive and finite"),
    (["--alpha-min", "nan"], "alpha bounds must be finite"),
    (["--alpha-max", "inf"], "alpha bounds must be finite"),
])
def test_non_finite_overrides_exit_code(capsys, flags, message):
    code = main(["plan", "--config", SQUARE] + flags)
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


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
