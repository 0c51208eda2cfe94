"""Flat-file traces for the planner, simulator and certifier.

All floats are written with %.17g so a written trace reparses to the exact
same doubles; `certify` can therefore re-derive commanded positions from a
planner trace bit-for-bit. Two dialects: "csv" (comma) and "text"
(whitespace). The first line is always the column header.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .errors import ScenarioError
from .qp import Schedule
from .safety import CertificationReport
from .sim import SimLog

_DELIMS = {"csv": ",", "text": " "}


def _delimiter(fmt: str) -> str:
    try:
        return _DELIMS[fmt]
    except KeyError:
        raise ScenarioError(f"unknown trace format {fmt!r}") from None


def _f(x: float) -> str:
    return format(float(x), ".17g")


def _write_table(path, header: list[str], rows, fmt: str) -> None:
    delim = _delimiter(fmt)
    with open(path, "w") as fh:
        fh.write(delim.join(header) + "\n")
        for row in rows:
            fh.write(delim.join(row) + "\n")


def _read_table(path) -> tuple[list[str], np.ndarray]:
    with open(path) as fh:  # streamed: no whole-file string, no per-row float lists
        lines = (line for line in fh if line.strip())
        first, second = next(lines, ""), next(lines, "")
        if not second:
            raise ScenarioError(f"{'malformed' if first else 'empty'} trace file {path}")
        header = first.replace(",", " ").split()
        try:  # np.loadtxt parses each field exactly as float() does
            data = np.loadtxt(itertools.chain([second], lines), comments=None, ndmin=2,
                              delimiter="," if "," in first else None)
        except ValueError:  # a non-numeric field, or rows of unequal length
            raise ScenarioError(f"malformed trace file {path}") from None
    if data.shape[1] != len(header):
        raise ScenarioError(f"malformed trace file {path}")
    return header, data


def write_schedule(path, schedule: Schedule, fmt: str = "csv") -> None:
    n_pl = schedule.alpha.shape[1]
    header = (["t"] + [f"alpha_{i + 1}" for i in range(n_pl)]
              + ["s_x", "s_y", "s_z", "objective", "kkt"])
    kkt = (schedule.kkt.max(axis=1) if schedule.kkt is not None
           else np.full(schedule.n_samples, math.nan))

    def rows():
        for i in range(schedule.n_samples):
            vals = ([schedule.t[i]] + list(schedule.alpha[i])
                    + list(schedule.shift[i]) + [schedule.objective[i], kkt[i]])
            yield [_f(v) for v in vals]

    _write_table(path, header, rows(), fmt)


def read_schedule(path) -> Schedule:
    """Rebuild a Schedule from a planner trace.

    The planner settings (bounds, zeta, scaling) are not stored in the trace;
    they come back as nan / "unknown". The kkt column holds the per-sample
    maximum residual.
    """
    header, data = _read_table(path)
    alpha_cols = [i for i, name in enumerate(header) if name.startswith("alpha_")]
    if header[0] != "t" or not alpha_cols or header[-2:] != ["objective", "kkt"]:
        raise ScenarioError(f"not a planner trace: {path}")
    n_pl = len(alpha_cols)
    t = data[:, 0]
    alpha = data[:, 1:1 + n_pl]
    shift = data[:, 1 + n_pl:4 + n_pl]
    objective = data[:, 4 + n_pl]
    kkt = data[:, 5 + n_pl]
    return Schedule(t, alpha, shift, objective, kkt, math.nan, math.nan,
                    math.nan, "unknown")


def write_trajectory(path, log: SimLog, agent_ids, fmt: str = "csv") -> None:
    header = ["t", "agent_id", "x_des", "y_des", "z_des", "x_act", "y_act", "z_act"]
    ids = list(agent_ids)

    def rows():
        for i in range(log.t.size):
            for a, agent in enumerate(ids):
                vals = [_f(log.t[i]), str(int(agent))]
                vals += [_f(v) for v in log.desired[i, a]]
                vals += [_f(v) for v in log.actual[i, a]]
                yield vals

    _write_table(path, header, rows(), fmt)


def read_trajectory(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (t, agent_ids, desired, actual) with positions (n, N, 3)."""
    header, data = _read_table(path)
    if header[:2] != ["t", "agent_id"] or len(header) != 8:
        raise ScenarioError(f"not a trajectory trace: {path}")
    ids = np.unique(data[:, 1]).astype(int)
    n_agents = ids.size
    if data.shape[0] % n_agents:
        raise ScenarioError(f"ragged trajectory trace: {path}")
    n = data.shape[0] // n_agents
    t = data[::n_agents, 0]
    desired = data[:, 2:5].reshape(n, n_agents, 3)
    actual = data[:, 5:8].reshape(n, n_agents, 3)
    return t, ids, desired, actual


def write_certification(path, report: CertificationReport, fmt: str = "csv",
                        cell_ids=None) -> None:
    header = ["t", "cell_id", "lambda_1", "lambda_2", "lambda_3",
              "bound", "margin", "safe"]
    n, n_cells, _ = report.lambdas.shape
    if cell_ids is None:
        cell_ids = list(range(1, n_cells + 1))

    def rows():
        for i in range(n):
            for c in range(n_cells):
                margin = report.margins[i, c]
                vals = [_f(report.t[i]), str(int(cell_ids[c]))]
                vals += [_f(v) for v in report.lambdas[i, c]]
                vals += [_f(report.cell_bounds[c]), _f(margin),
                         str(int(margin >= -report.margin_tol))]
                yield vals

    _write_table(path, header, rows(), fmt)


def read_certification(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (t, cell_ids, lambdas (n, n_cells, 3), bounds, margins)."""
    header, data = _read_table(path)
    if header[:2] != ["t", "cell_id"] or len(header) != 8:
        raise ScenarioError(f"not a certification trace: {path}")
    cells = np.unique(data[:, 1]).astype(int)
    n_cells = cells.size
    if data.shape[0] % n_cells:
        raise ScenarioError(f"ragged certification trace: {path}")
    n = data.shape[0] // n_cells
    t = data[::n_cells, 0]
    lambdas = data[:, 2:5].reshape(n, n_cells, 3)
    bounds = data[:n_cells, 5]
    margins = data[:, 6].reshape(n, n_cells)
    return t, cells, lambdas, bounds, margins
