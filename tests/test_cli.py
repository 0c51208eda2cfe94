import warnings

import numpy as np
import pytest
import yaml

import swarmdeform as sd
from swarmdeform.cli import main

import bad_inputs
from conftest import SCENARIO_DIR

SQUARE = str(SCENARIO_DIR / "square13.yaml")


def _run_row(row, directory, capsys):
    """Run a row of tests/bad_inputs.py in process and check how it ends."""
    def plan(argv):
        assert main(argv) == 0

    directory.mkdir(exist_ok=True)
    argv, path = bad_inputs.prepare(row, directory, plan)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    bad_inputs.check(row, path, code, captured.out, captured.err, caught)


def _run_rows(capsys, tmp_path, group, *ids):
    """Run the rows named `ids` of a group of tests/bad_inputs.py."""
    rows = {row.id: row for row in bad_inputs.GROUPS[group]}
    for name in ids:
        _run_row(rows[name], tmp_path / name, capsys)


def _group(name):
    """Parametrize a test over the rows of a group of tests/bad_inputs.py."""
    return pytest.mark.parametrize("row", bad_inputs.GROUPS[name], ids=lambda row: row.id)


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
    _run_rows(capsys, tmp_path, "override", "schedule-four", "schedule-alpha-max")


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


def test_bad_config_exit_code(capsys, tmp_path):
    missing = tmp_path / "missing.yaml"
    assert main(["plan", "--config", str(missing)]) == 2
    assert "cannot read scenario" in capsys.readouterr().err

    not_a_scenario = tmp_path / "junk.yaml"
    not_a_scenario.write_text("just: some\nyaml: file\n")
    assert main(["plan", "--config", str(not_a_scenario)]) == 2
    assert "unsupported scenario schema" in capsys.readouterr().err


def test_plan_empty_window_exit_code(capsys, tmp_path):
    _run_rows(capsys, tmp_path, "other", "empty-window")


def test_infeasible_bound_overrides(capsys, tmp_path):
    _run_rows(capsys, tmp_path, "override", "alpha-min")


def test_validation_warnings_go_to_stderr(capsys, tmp_path):
    doc = yaml.safe_load((SCENARIO_DIR / "square13.yaml").read_text())
    doc["team"]["positions"][13] = [1.0, -2.5, 0.4]
    config = tmp_path / "offplane.yaml"
    config.write_text(yaml.safe_dump(doc))
    code = main(["plan", "--config", str(config), "--T", "1"])
    captured = capsys.readouterr()
    assert code == 0
    assert "off their cell plane" in captured.err


# planner trace values plan cannot write, certified from the trace: UNSAFE
@pytest.mark.parametrize("which", ["every-sample", "one-sample"])
def test_certify_nan_shift_is_unsafe(capsys, tmp_path, which):
    _run_rows(capsys, tmp_path, "trace", f"nan-shift-{which}")


def test_certify_scales_above_window_are_unsafe(capsys, tmp_path):
    _run_rows(capsys, tmp_path, "trace", "scales-10")


def test_certify_infinite_a_max_exit_code(capsys, tmp_path):
    _run_rows(capsys, tmp_path, "trace", "inf-a_max")


def test_certify_singular_jacobian_exit_code(capsys, tmp_path):
    _run_rows(capsys, tmp_path, "trace", "scale-0", "scale-1e-12", "scale-1e-11",
              "scale-1e7", "scale-1e59", "scale-1e200")


def test_certify_infinite_scale_is_unsafe(capsys, tmp_path):
    _run_rows(capsys, tmp_path, "trace", "inf-scale")


@pytest.mark.parametrize("group, name", [("other", "huge-scale-trace"), ("trace", "huge-shift")],
                         ids=["boundary-scale", "shift"])
def test_certify_huge_schedule_value_is_unsafe(capsys, tmp_path, group, name):
    _run_rows(capsys, tmp_path, group, name)


# the rows of tests/bad_inputs.py, which CI also runs on the console script;
# exit 1 is the UNSAFE verdict, so a bad input exits 2 or 3 with a short
# message that names it, unless a trace value is one plan cannot write
@_group("team")
def test_malformed_team_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


@_group("mission")
def test_out_of_range_mission_number_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


@_group("other")
def test_bad_input_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


def test_certify_planner_trace_without_shift_exit_code(capsys, tmp_path):
    # the old reader ended here in an IndexError
    _run_rows(capsys, tmp_path, "other", "no-shift-trace")


def test_diverging_simulation_exit_code(capsys, tmp_path):
    _run_rows(capsys, tmp_path, "other", "diverging-gains")


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
    if edit == "nan":
        _run_rows(capsys, tmp_path, "other", "nan-time-trace")
        return
    trace = tmp_path / "plan.csv"
    assert main(["plan", "--config", SQUARE, "--out", str(trace), "--T", "5"]) == 0
    header, *rows = [line.split(",") for line in trace.read_text().splitlines()]
    if edit == "reversed":
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


# a field that does not convert must not end in a traceback
@_group("value")
def test_malformed_scenario_value_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


@_group("integer-id")
def test_fractional_or_boolean_id_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


@_group("boolean-number")
def test_boolean_number_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


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


@_group("section")
def test_wrong_type_scenario_section_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


@_group("non-finite-gain")
def test_non_finite_gains_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


@_group("negative-gain")
def test_negative_gains_exit_code(capsys, tmp_path, row):
    _run_row(row, tmp_path, capsys)


def test_certify_unwritable_out_prints_no_verdict(capsys, tmp_path):
    code = main(["certify", "--config", SQUARE, "--T", "2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "SAFE" not in captured.out
