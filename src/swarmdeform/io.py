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
# rows formatted per string operation; with 1024 the process's peak resident
# memory crept up by about 5 MiB over repeated writes, with 128 it stays flat
_CHUNK_ROWS = 128


def _delimiter(fmt: str) -> str:
    try:
        return _DELIMS[fmt]
    except KeyError:
        raise ScenarioError(f"unknown trace format {fmt!r}") from None


def _chunks(n_rows: int):
    """Row slices of at most _CHUNK_ROWS."""
    return (slice(i, min(i + _CHUNK_ROWS, n_rows)) for i in range(0, n_rows, _CHUNK_ROWS))


def _write_table(path, header: list[str], blocks, fmt: str, int_cols=()) -> None:
    """Write the header, then each float block (rows, len(header)).

    Floats are written with %.17g, the columns in `int_cols` with %d; a whole
    block is formatted by one string operation.
    """
    delim = _delimiter(fmt)
    row = delim.join("%d" if i in int_cols else "%.17g" for i in range(len(header))) + "\n"
    with open(path, "w") as fh:
        fh.write(delim.join(header) + "\n")
        for block in blocks:
            fh.write((row * block.shape[0]) % tuple(block.ravel().tolist()))


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


def _samples(path, data: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Times (n,) and ids (k,) of a trace whose rows come in per-sample blocks.

    Every block must list the first block's ids in the same order, each once,
    at a single t; anything else would pair a row with the wrong agent or cell.
    Blocks are k rows long, k the number of distinct ids, so when every block
    repeats the first one, that block holds each id once.
    """
    t, ids = data[:, 0], data[:, 1]
    k = np.unique(ids).size
    n = ids.size // k
    if (ids.size % k
            or not np.array_equal(ids.reshape(n, k), np.broadcast_to(ids[:k], (n, k)))
            or not np.array_equal(t.reshape(n, k), np.broadcast_to(t[::k, None], (n, k)),
                                  equal_nan=True)):
        raise ScenarioError(f"malformed {kind} trace: {path}")
    return t[::k], ids[:k].astype(int)


def write_schedule(path, schedule: Schedule, fmt: str = "csv") -> None:
    n_pl = schedule.alpha.shape[1]
    header = (["t"] + [f"alpha_{i + 1}" for i in range(n_pl)]
              + ["s_x", "s_y", "s_z", "objective", "kkt"])
    kkt = (schedule.kkt.max(axis=1) if schedule.kkt is not None
           else np.full(schedule.n_samples, math.nan))

    blocks = (np.column_stack([schedule.t[s], schedule.alpha[s], schedule.shift[s],
                               schedule.objective[s], kkt[s]])
              for s in _chunks(schedule.n_samples))
    _write_table(path, header, blocks, fmt)


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
    ids = np.asarray(list(agent_ids), dtype=float)
    desired = log.desired.reshape(-1, 3)
    actual = log.actual.reshape(-1, 3)

    def block(s):
        sample, agent = np.divmod(np.arange(s.start, s.stop), ids.size)
        return np.column_stack([log.t[sample], ids[agent], desired[s], actual[s]])

    _write_table(path, header, map(block, _chunks(desired.shape[0])), fmt, int_cols=(1,))


def read_trajectory(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (t, agent_ids, desired, actual) with positions (n, N, 3)."""
    header, data = _read_table(path)
    if header[:2] != ["t", "agent_id"] or len(header) != 8:
        raise ScenarioError(f"not a trajectory trace: {path}")
    t, ids = _samples(path, data, "trajectory")
    n, n_agents = t.size, ids.size
    desired = data[:, 2:5].reshape(n, n_agents, 3)
    actual = data[:, 5:8].reshape(n, n_agents, 3)
    return t, ids, desired, actual


def write_certification(path, report: CertificationReport, fmt: str = "csv",
                        cell_ids=None) -> None:
    header = ["t", "cell_id", "lambda_1", "lambda_2", "lambda_3",
              "bound", "margin", "safe"]
    n_cells = report.margins.shape[1]
    if cell_ids is None:
        cell_ids = range(1, n_cells + 1)
    cell_ids = np.asarray(list(cell_ids), dtype=float)
    lambdas = report.lambdas.reshape(-1, 3)
    margins = report.margins.ravel()

    def block(s):
        sample, cell = np.divmod(np.arange(s.start, s.stop), n_cells)
        return np.column_stack([report.t[sample], cell_ids[cell], lambdas[s],
                                report.cell_bounds[cell], margins[s],
                                margins[s] >= -report.margin_tol])

    _write_table(path, header, map(block, _chunks(margins.size)), fmt, int_cols=(1, 7))


def read_certification(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (t, cell_ids, lambdas (n, n_cells, 3), bounds, margins)."""
    header, data = _read_table(path)
    if header[:2] != ["t", "cell_id"] or len(header) != 8:
        raise ScenarioError(f"not a certification trace: {path}")
    t, cells = _samples(path, data, "certification")
    n, n_cells = t.size, cells.size
    lambdas = data[:, 2:5].reshape(n, n_cells, 3)
    bounds = data[:n_cells, 5]
    margins = data[:, 6].reshape(n, n_cells)
    return t, cells, lambdas, bounds, margins
