"""Tests of the benchmark itself, on the square13 smoke workload.

Run with: python3 -m pytest perfbench/tests
"""

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import hexgen  # noqa: E402
import pipeline  # noqa: E402
import swarmdeform.qp  # noqa: E402
from swarmdeform import scenario as scenario_mod  # noqa: E402
from tracing import BOUNDARIES, Tracer  # noqa: E402
from workloads import BENCHMARKED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_prints_every_metric_with_unit(trace, section):
    proc = run_bench("--workload", "square13-smoke", "--seed", "3", "--seconds", "1",
                     "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    table = "\n".join(lines[:-1])
    for name, unit in expected.items():
        assert re.search(rf"^\s+{re.escape(name)}\s+\S+ {re.escape(unit)}$", table, re.M), name
    assert re.search(r"^\s+ops_failed\s+0 count \(of \d+ ops_attempted\)$", table, re.M)


def test_benchmark_json_names_the_workloads_run_py_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(BENCHMARKED)
    assert all(name in WORKLOADS for name in BENCHMARKED)


def test_corrupted_schedule_digit_fails_round_trip_and_is_counted(tmp_path):
    workload = WORKLOADS["square13-smoke"]
    path = workload.scenario_path(0, tmp_path)
    paths = pipeline.TracePaths.under(tmp_path, "smoke")
    ledger = pipeline.Ledger()
    out = pipeline.run_stages(workload, path, paths, pipeline.new_times(), ledger,
                              repeat_seconds=0.0)
    pipeline.check_outputs(ledger, workload, out)
    assert ledger.failed == 0, ledger.failures

    lines = paths.schedule.read_text().splitlines()
    fields = lines[3].split(",")
    digit = fields[1][-1]
    fields[1] = fields[1][:-1] + str((int(digit) + 1) % 10)
    lines[3] = ",".join(fields)
    paths.schedule.write_text("\n".join(lines) + "\n")

    corrupted = dataclasses.replace(out, readback=pipeline.read_traces(paths))
    ledger = pipeline.Ledger()
    pipeline.check_outputs(ledger, workload, corrupted)
    assert "schedule trace does not round-trip bit for bit" in ledger.failures
    assert ledger.failed >= 1 and ledger.attempted > ledger.failed


def test_tracer_restores_every_boundary():
    before = [getattr(sys.modules[m], a) for m, a, _, _ in BOUNDARIES]
    tracer = Tracer()
    with tracer.installed():
        assert swarmdeform.qp.solve_box_eq_qp is not before[
            [a for _, a, _, _ in BOUNDARIES].index("solve_box_eq_qp")]
    assert [getattr(sys.modules[m], a) for m, a, _, _ in BOUNDARIES] == before


def test_hex_generator_is_seeded_and_meets_its_floors():
    small = hexgen.scenario_yaml(5, rings=6)
    assert small == hexgen.scenario_yaml(5, rings=6)
    assert small != hexgen.scenario_yaml(6, rings=6)
    sc = scenario_mod.load_scenario(small)
    assert sc.team.n_agents == 1 + 3 * 6 * 7
    assert sc.team.partition.depth == 4
    hexgen.check_team(sc.team, sc.validation)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "square13-smoke", "--seed", "0", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
