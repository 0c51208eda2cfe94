"""Span tracing around the swarmdeform layer boundaries, from outside the package.

`Tracer.installed()` replaces the public functions each caller looks up at
module level (for example `swarmdeform.qp.solve_box_eq_qp`, which
`alpha_schedule` resolves through the `qp` module globals) with wrappers that
record a span (id, name, start, end, parent) and the counts at that boundary.
Leaving the context restores the original functions, so untraced runs execute
the package unmodified. Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import os
import time
from collections import Counter, defaultdict

import numpy as np


def _solve_counts(tracer, args, result):
    tracer.qp_iterations[result.iterations] += 1
    tracer.qp_active[len(result.active_set)] += 1
    tracer.counts["qp.kkt_max"] = float(max(tracer.counts["qp.kkt_max"], *result.kkt))


def _schedule_counts(tracer, args, result):
    # distinct rows are counted when the report is built, off the clock
    tracer.alphas.append(result.alpha)


def _cells_counts(tracer, args, result):
    tracer.counts["team.cell_memberships"] = sum(len(c.members) for c in result)


def _weights_counts(tracer, args, result):
    tracer.counts["hierarchy.weight_bytes"] = sum(
        m.shape[0] * m.shape[1] * m.itemsize for m in result.matrices)


def _sweep_counts(tracer, args, result):
    n = np.shape(args[0])[0]
    tracer.counts["safety.pairs_checked"] += n * (n - 1) // 2


def _eig_counts(tracer, args, result):
    shape = np.shape(args[0])
    tracer.counts["spectral.matrices"] += 1 if len(shape) == 2 else shape[0]


def _write_counts(rows_of):
    def count(tracer, args, result):
        tracer.counts["io.bytes_written"] += os.path.getsize(args[0])
        tracer.counts["io.rows_written"] += rows_of(args)
    return count


# (module, attribute, span name, counter); one row per caller-visible name
BOUNDARIES = (
    ("swarmdeform.scenario", "load_scenario", "scenario.load_scenario", None),
    ("swarmdeform.scenario", "build_cells", "team.build_cells", _cells_counts),
    ("swarmdeform.scenario", "validate_team", "team.validate_team", None),
    ("swarmdeform.hierarchy", "build_layer_weights", "hierarchy.build_layer_weights",
     _weights_counts),
    ("swarmdeform.qp", "compose_delta_rows", "hierarchy.compose_delta_rows", None),
    ("swarmdeform.hierarchy", "trajectory_positions", "hierarchy.trajectory_positions",
     None),
    ("swarmdeform.sim", "trajectory_positions", "hierarchy.trajectory_positions", None),
    ("swarmdeform.hierarchy", "forward_pass", "hierarchy.forward_pass", None),
    ("swarmdeform.qp", "alpha_schedule", "qp.alpha_schedule", _schedule_counts),
    ("swarmdeform.sim", "alpha_schedule", "qp.alpha_schedule", _schedule_counts),
    ("swarmdeform.qp", "assemble_problem", "qp.assemble_problem", None),
    ("swarmdeform.qp", "solve_box_eq_qp", "qp.solve_box_eq_qp", _solve_counts),
    ("swarmdeform.safety", "certify_configuration", "safety.certify_configuration", None),
    ("swarmdeform.safety", "pure_deformation_spectrum", "safety.pure_deformation_spectrum",
     None),
    ("swarmdeform.safety", "min_pairwise_distance", "safety.min_pairwise_distance",
     _sweep_counts),
    ("swarmdeform.safety", "eigvals_sym3", "spectral.eigvals_sym3", _eig_counts),
    ("swarmdeform.sim", "run_simulation", "sim.run_simulation", None),
    ("swarmdeform.sim", "pd_step", "sim.pd_step", None),
    ("swarmdeform.sim", "pdist", "sim.pdist", None),
    ("swarmdeform.io", "write_schedule", "io.write_schedule",
     _write_counts(lambda a: a[1].n_samples)),
    ("swarmdeform.io", "write_certification", "io.write_certification",
     _write_counts(lambda a: a[1].margins.size)),
    ("swarmdeform.io", "write_trajectory", "io.write_trajectory",
     _write_counts(lambda a: a[1].t.size * len(a[2]))),
    ("swarmdeform.io", "read_schedule", "io.read_schedule", None),
    ("swarmdeform.io", "read_certification", "io.read_certification", None),
    ("swarmdeform.io", "read_trajectory", "io.read_trajectory", None),
)


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self._stack: list[int] = [-1]
        self.counts: Counter = Counter()
        self.qp_iterations: Counter = Counter()
        self.qp_active: Counter = Counter()
        self.alphas: list[np.ndarray] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, name, start, end, parent)

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name] += 1
            if counter is not None:
                counter(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, counter in BOUNDARIES:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def durations(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            total[name] += end - start
            child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for sid, name, start, end, parent in self.spans:
            own[name] += end - start - child[sid]
        return total, own

    def stage_breakdown(self) -> dict[str, dict[str, float]]:
        """Seconds per span name, grouped by the benchmark stage that caused it."""
        names = {sid: name for sid, name, *_ in self.spans}
        parents = {sid: parent for sid, _, _, _, parent in self.spans}
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for sid, name, start, end, parent in self.spans:
            root = sid
            while parents[root] != -1:
                root = parents[root]
            out[names[root]][name] += end - start
        return {stage: dict(v) for stage, v in out.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "name", "start_s", "end_s", "parent_id"])
            origin = self.spans[0][2] if self.spans else 0.0
            for sid, name, start, end, parent in self.spans:
                writer.writerow([sid, name, repr(start - origin), repr(end - origin),
                                 parent])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of everything the tracer recorded, per mission."""
    total, own = tracer.durations()
    c = tracer.counts
    solves = c["qp.solve_box_eq_qp"]
    distinct = sum(np.unique(alpha, axis=0).shape[0] for alpha in tracer.alphas)
    iterations = sum(k * v for k, v in tracer.qp_iterations.items())
    active = sum(k * v for k, v in tracer.qp_active.items())
    nested_forward = sum(
        end - start for sid, name, start, end, parent in tracer.spans
        if name == "hierarchy.forward_pass" and parent >= 0
        and tracer.spans[parent][1] == "hierarchy.trajectory_positions")
    return {
        "scenario.parse_s": own["scenario.load_scenario"],
        "team.build_cells_s": total["team.build_cells"],
        "team.validate_s": total["team.validate_team"],
        "team.cell_memberships": c["team.cell_memberships"],
        "hierarchy.build_weights_s": total["hierarchy.build_layer_weights"],
        "hierarchy.compose_rows_s": total["hierarchy.compose_delta_rows"],
        "hierarchy.forward_s": (total["hierarchy.trajectory_positions"]
                                + total["hierarchy.forward_pass"] - nested_forward),
        "hierarchy.forward_calls": c["hierarchy.forward_pass"],
        "hierarchy.weight_bytes": c["hierarchy.weight_bytes"],
        "qp.assemble_s": total["qp.assemble_problem"],
        "qp.solve_s": total["qp.solve_box_eq_qp"],
        "qp.solves": solves,
        "qp.iterations_total": iterations,
        "qp.iterations_max": max(tracer.qp_iterations, default=0),
        "qp.active_bounds_mean": active / solves if solves else 0.0,
        "qp.distinct_alpha_rows": distinct,
        "qp.distinct_ratio": distinct / solves if solves else 0.0,
        "qp.kkt_max": c["qp.kkt_max"],
        "safety.certify_self_s": own["safety.certify_configuration"],
        "safety.spectrum_s": total["safety.pure_deformation_spectrum"],
        "safety.distance_sweep_s": total["safety.min_pairwise_distance"],
        "safety.distance_sweeps": c["safety.min_pairwise_distance"],
        "safety.pairs_checked": c["safety.pairs_checked"],
        "spectral.eigvals_s": total["spectral.eigvals_sym3"],
        "spectral.matrices": c["spectral.matrices"],
        "sim.self_s": own["sim.run_simulation"],
        "sim.pd_steps": c["sim.pd_step"],
        "sim.pd_step_s": total["sim.pd_step"],
        "sim.min_distance_s": total["sim.pdist"],
        "io.write_schedule_s": total["io.write_schedule"],
        "io.write_certification_s": total["io.write_certification"],
        "io.write_trajectory_s": total["io.write_trajectory"],
        "io.read_schedule_s": total["io.read_schedule"],
        "io.read_certification_s": total["io.read_certification"],
        "io.read_trajectory_s": total["io.read_trajectory"],
        "io.bytes_written": c["io.bytes_written"],
        "io.rows_written": c["io.rows_written"],
    }


def histograms(tracer: Tracer) -> dict[str, dict[str, int]]:
    return {
        "qp_iterations": {str(k): v for k, v in sorted(tracer.qp_iterations.items())},
        "qp_active_bounds": {str(k): v for k, v in sorted(tracer.qp_active.items())},
    }
