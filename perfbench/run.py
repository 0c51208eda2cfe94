#!/usr/bin/env python3
"""Stage-timed benchmark of the swarmdeform plan / certify / simulate pipeline.

One workload per process (peak memory then belongs to that workload):

    python3 perfbench/run.py --workload helix67-consistent --seed 1 --seconds 40 --trace 0

Every workload, each in a fresh process, with a summary table:

    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

With --trace 0 the run is untraced and reports the end-to-end metrics. With
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics plus the tracing overhead (traced minus untraced
end-to-end seconds). The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. Reports, spans and scratch traces go
to .perfbench_out/ at the repository root.
"""

from __future__ import annotations

import os

# single BLAS thread (<= nproc): the stages are Python-loop bound and one
# thread keeps their timings steady on a shared machine
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
SUBPROCESS_TIMEOUT = 900


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "peak_rss_mb":
        return "MiB"
    if "bytes" in name:
        return "B"
    if name == "qp.distinct_ratio":
        return "ratio"
    if name == "qp.kkt_max":
        return "1"
    return "count"


def import_program():
    """Import the package from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import swarmdeform

    expected = (ROOT / "src" / "swarmdeform").resolve()
    if Path(swarmdeform.__file__).resolve().parent != expected:
        raise ImportError(f"swarmdeform imported from {swarmdeform.__file__}, "
                          f"not {expected}")
    return swarmdeform


def machine_notes() -> dict:
    import numpy
    import scipy

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": int(BLAS_THREADS),
    }


def pass_seconds(times: dict) -> float:
    """End-to-end seconds of one pass: the median sample of every stage, summed."""
    return sum(statistics.median(v) for v in times.values())


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    from hexgen import check_team
    from pipeline import STAGES, Ledger, TracePaths, check_outputs, new_times, run_stages
    from swarmdeform import scenario as scenario_mod
    from tracing import Tracer, histograms, layer_metrics
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}"
    path = workload.scenario_path(seed, OUT_DIR)
    # untimed: the generated input must meet its design before anything is timed
    checked = scenario_mod.load_scenario(path)
    if workload.source == "hexgen":
        check_team(checked.team, checked.validation)
    del checked

    paths = TracePaths.under(OUT_DIR, stem)
    ledger = Ledger()
    times = new_times()
    untraced_totals: list[float] = []
    traced_totals: list[float] = []
    layer_runs: list[dict] = []
    start = time.perf_counter()
    try:
        while True:
            pass_start = time.perf_counter()
            pass_times = new_times()
            if trace and len(untraced_totals) > len(traced_totals):
                tracer = Tracer()
                with tracer.installed():
                    out = run_stages(workload, path, paths, pass_times, ledger, tracer,
                                     repeat_seconds=0.0)
                layer_runs.append(layer_metrics(tracer))
                traced_totals.append(pass_seconds(pass_times))
            else:
                out = run_stages(workload, path, paths, pass_times, ledger)
                untraced_totals.append(pass_seconds(pass_times))
                for stage, values in pass_times.items():
                    times[stage].extend(values)
            check_outputs(ledger, workload, out)
            del out
            now = time.perf_counter()
            done = not trace or traced_totals
            if done and (now - start) + (now - pass_start) > seconds:
                break
    except Exception:  # a failed stage or check ends the run, counted once
        traceback.print_exc()
        ledger.record(False, f"run raised: {traceback.format_exc(limit=1).strip()}")
    finally:
        paths.remove()

    metrics: dict[str, float] = {}
    report: dict = {"workload": name, "seed": seed, "seconds": seconds,
                    "trace": int(trace), "machine": machine_notes()}
    if not trace:
        for stage in STAGES:
            if times[stage]:
                metrics[f"{stage}_s"] = statistics.median(times[stage])
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        report["samples"] = {stage: times[stage] for stage in STAGES}
    elif layer_runs:
        for key in layer_runs[0]:
            metrics[key] = statistics.median_low(run[key] for run in layer_runs)
        overhead = statistics.median(traced_totals) - statistics.median(untraced_totals)
        metrics["trace.overhead_s"] = overhead
        metrics["trace.spans"] = len(tracer.spans)
        tracer.write_spans(OUT_DIR / f"{stem}-spans.csv")
        report.update(histograms(tracer))
        report["untraced_seconds"] = untraced_totals
        report["traced_seconds"] = traced_totals
        report["stage_breakdown"] = tracer.stage_breakdown()
        report["spans_file"] = f"{stem}-spans.csv"
    report["metrics"] = metrics
    report["attempted"] = ledger.attempted
    report["failures"] = ledger.failures
    (OUT_DIR / f"{stem}-trace{int(trace)}.json").write_text(json.dumps(report, indent=1))

    passes = len(untraced_totals) + len(traced_totals)
    print(f"workload {name} seed {seed}: {passes} pass(es) in "
          f"{time.perf_counter() - start:.1f} s, trace {int(trace)}")
    for key, value in metrics.items():
        print(f"  {key:28s} {value:14.6g} {unit_of(key)}")
    print(f"  {'ops_failed':28s} {ledger.failed:14d} count "
          f"(of {ledger.attempted} ops_attempted)")
    for failure in ledger.failures:
        print(f"  FAILED: {failure}")
    result = {
        "correct": ledger.failed == 0 and passes > 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each benchmarked workload in its own process, then one summary table."""
    from workloads import BENCHMARKED

    results = {}
    for name in BENCHMARKED:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}")
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])

    names = list(results)
    keys = list(dict.fromkeys(k for r in results.values() for k in r["metrics"]))
    print(f"\n{'metric':28s} {'unit':6s} " + " ".join(f"{n:>20s}" for n in names))
    for key in keys + ["ops_failed", "ops_attempted"]:
        cells = []
        for n in names:
            r = results[n]
            if key in ("ops_failed", "ops_attempted"):
                cells.append(f"{r['failed' if key == 'ops_failed' else 'attempted']:>20d}")
            else:
                cells.append(f"{r['metrics'][key]['value']:>20.6g}")
        unit = unit_of(key) if key in keys else "count"
        print(f"{key:28s} {unit:6s} " + " ".join(cells))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="workload name, or 'all' for every benchmarked workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0,
                        help="measure for this long (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(WORKLOADS)} or all")
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
