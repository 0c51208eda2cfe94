"""Flat-file traces for the planner, simulator and certifier.

All floats are written as the bytes of format(x, ".17g"), so a written trace
reparses to the exact same doubles; `certify` can therefore re-derive
commanded positions from a planner trace bit-for-bit. Two dialects: "csv"
(comma) and "text" (whitespace). The first line is always the column header,
and each trace kind has one layout, `_header`, which its writer writes and its
reader requires name for name; every kind then parses in one structured pass.

The writers format floats with one numpy kernel, `_float_slots`, instead of
a dtoa call per field. It derives each value's 17 significant digits as an
integer from an exact double-double product with a power of ten, accepts them
only where that product proves them, and lays them out as ASCII in fixed
32-byte slots with NUL filler, which is dropped when a block is written. The
few values it refuses (nan, inf, subnormals, extreme exponents and near-ties
of the 18th digit) go through format(x, ".17g") itself.
"""

from __future__ import annotations

import itertools
import math
import operator

import numpy as np

from .errors import ScenarioError
from .qp import Schedule
from .safety import CertificationReport
from .sim import SimLog

# trace format -> field delimiter
TRACE_FORMATS = {"csv": ",", "text": " "}
# rows formatted per block; sized for peak resident memory: with 2048 it stays
# flat over repeated writes, with 8192 it grew by about 9 MiB
_CHUNK_ROWS = 2048

# A field is one slot of four little-endian uint64 words (32 bytes): byte 0
# holds the sign, bytes 2-6 the "0.000" prefix of fixed notation below 1, bytes
# 7-24 the 17 digits and the decimal point, bytes 25-29 the exponent suffix and
# byte 31 the delimiter; every other byte is NUL filler.
_U8, _U32, _U56 = np.uint64(8), np.uint64(32), np.uint64(56)
# decimal exponents k whose scale 10**(16 - k) is tabulated as hi + lo, and the
# magnitudes handled without format(): floor(log10) of these lies in the table
_K_MIN, _K_MAX = -271, 281
_FAST_MIN, _FAST_MAX = 1e-270, 1e280
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant


def _split(v):
    """Veltkamp's split of v into halves of 26 bits whose products are exact."""
    t = v * _SPLIT
    hi = t - (t - v)
    return hi, v - hi


def _divmod(a, b):
    """np.divmod of non-negative integers with one division."""
    q = a // b
    return q, a - q * b


def _le(text: str, at: int = 0) -> int:
    """The little-endian word holding ASCII `text` from byte `at` on."""
    return int.from_bytes(text.encode().rjust(at + len(text), b"\0"), "little")


def _power_table():
    """10**(16 - k) for each tabulated k as hi + lo, the nearest double and the
    nearest double to the rest, in exact rational arithmetic on ints (whose
    true division rounds correctly); hi is also returned split."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den
        h_num, h_den = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * h_den - h_num * den) / (den * h_den))
    hi = np.array(hi)
    return (hi, *_split(hi), np.array(lo))


def _layout_tables():
    """Where the point goes and which digit bytes survive, as word masks.

    A layout is q * 18 + z. With q >= 1 the point goes in at byte 7 + q after
    digit q - 1, and the digits from q on move up one byte, to end at byte 24;
    with q = 0 (below 1, where the prefix holds the point) they stay at 7-23.
    The last z bytes of that run, trailing zeros and possibly the point, are
    cleared. Returns the layout of each (k - _K_MIN) * 17 + trailing zeros of
    the digits, and per layout the words (4, 324) of the bytes kept in place,
    of those taken from the shifted digits, and of the point.
    """
    k = np.arange(_K_MIN, _K_MAX + 1)[:, None]
    point_at = np.where((k < -4) | (k > 16), 1, np.maximum(k + 1, 0))
    fraction = 17 - point_at
    cleared = np.minimum(np.arange(17), fraction)
    layout = point_at * 18 + cleared + (cleared == fraction)

    q, z = np.divmod(np.arange(324)[:, None], 18)
    b = np.arange(32)
    end = np.where(q > 0, 25, 24) - z
    kept = b < np.where(q > 0, np.minimum(7 + q, end), end)
    shifted = (q > 0) & (b >= 8 + q) & (b < end)
    point = (q > 0) & (b == 7 + q) & (b < end)

    def words(byte_values):
        return byte_values.astype(np.uint8).view("<u8").astype(np.uint64).T.copy()

    return layout.ravel(), words(kept * 0xFF), words(shifted * 0xFF), words(point * ord("."))


def _exponent_tables():
    """Per decimal exponent k: the word 0 prefix of fixed notation below 1 and
    the word 3 suffix of scientific notation, as format(x, ".17g") writes them."""
    prefix, suffix = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        prefix.append(_le("0." + "0" * (-k - 1), 6 + k) if -4 <= k < 0 else 0)
        suffix.append(_le(f"e{k:+03d}", 1) if not -4 <= k <= 16 else 0)
    return np.array(prefix, np.uint64), np.array(suffix, np.uint64)


def _group_tables():
    """Per 4-digit group g: its ASCII word, first digit in the low byte, and its
    trailing zeros (4 for 0)."""
    g = np.arange(10_000)
    ascii_word = sum((g // 10 ** (3 - j) % 10 + 48).astype(np.uint64) << np.uint64(8 * j)
                     for j in range(4))
    return ascii_word, sum(g % 10 ** j == 0 for j in range(1, 5)).astype(np.uint8)


_POW_HI, _POW_HI_HI, _POW_HI_LO, _POW_LO = _power_table()
_LAYOUT, _KEEP, _SHIFTED, _POINT = _layout_tables()
_PREFIX, _SUFFIX = _exponent_tables()
_DIGITS4, _ZEROS4 = _group_tables()
_LEAD = np.array([_le(str(d), 7) for d in range(10)], np.uint64)
_MINUS = np.uint64(ord("-"))


def _slots(texts) -> np.ndarray:
    """(n, 4) slots holding each ASCII text of at most 31 bytes."""
    return np.array(texts, dtype="S32").view("<u8").astype(np.uint64).reshape(-1, 4)


_SIGNED_ZERO = _slots(["0", "-0"])


def _int_slots(ids) -> np.ndarray:
    """Slots of each integer id written with %d from the integer itself, so an
    id past 2**53 stays exact (and the readers refuse it); a float id is a
    TypeError."""
    texts = ["%d" % operator.index(v) for v in ids]
    if max(map(len, texts), default=0) > 31:
        raise ValueError("an id is wider than a 31-byte field")
    return _slots(texts)


def _float_slots(x) -> np.ndarray:
    """Slots (x.shape + (4,)) holding format(v, ".17g") of each value of x.

    For 1e-270 <= |v| <= 1e280, y = |v| * 10**(16 - k) with k = floor(log10|v|)
    is formed as s + e: Dekker's exact product with the table's hi, plus the
    product with its lo (relative error below 2**-100). The 17 digits are
    round(y) when that is certain: y >= 1e16 exactly (k not one too high),
    round(y) < 1e17 (k not one too low, no carry into an 18th digit) and y at
    least 2**-30 from a rounding tie. Zeros come from a table. The rest, nan,
    infinities, subnormals, magnitudes outside that range and the refused
    values (near-ties are about 2 in 10**9), go through format().
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    a = np.abs(flat)
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    a = np.where(fast, a, 1.0)
    i = np.floor(np.log10(a)).astype(np.intp) - _K_MIN
    a_hi, a_lo = _split(a)
    p = a * _POW_HI[i]
    tail = ((a_hi * _POW_HI_HI[i] - p) + a_hi * _POW_HI_LO[i] + a_lo * _POW_HI_HI[i]
            + a_lo * _POW_HI_LO[i]) + a * _POW_LO[i]
    s = p + tail
    e = tail - (s - p)
    r = np.rint(e)
    digits = s.astype(np.int64) + r.astype(np.int64)
    fast &= (((s > 1e16) | ((s == 1e16) & (e >= 0))) & (digits < 10**17)
             & (np.abs(e - r) < 0.5 - 2.0**-30))

    # refused values keep in-table digits until format() overwrites them
    lead, rest = _divmod(np.where(fast, digits, 10**16), 10**16)
    high, low = _divmod(rest, 10**8)
    g1, g2 = _divmod(high, 10**4)
    g3, g4 = _divmod(low, 10**4)
    zeros = _ZEROS4[g4] + (g4 == 0) * (_ZEROS4[g3] + (g3 == 0) * (
        _ZEROS4[g2] + (g2 == 0) * _ZEROS4[g1]))
    layout = _LAYOUT[i * 17 + zeros]
    w1 = _DIGITS4[g1] | (_DIGITS4[g2] << _U32)
    w2 = _DIGITS4[g3] | (_DIGITS4[g4] << _U32)
    top1, top2 = w1 >> _U56, w2 >> _U56
    out = np.empty((flat.size, 4), np.uint64)
    out[:, 0] = _LEAD[lead] | _PREFIX[i] | (flat < 0) * _MINUS
    out[:, 1] = ((w1 & _KEEP[1][layout]) | (((w1 << _U8) | (out[:, 0] >> _U56))
                                            & _SHIFTED[1][layout]) | _POINT[1][layout])
    out[:, 2] = ((w2 & _KEEP[2][layout]) | (((w2 << _U8) | top1) & _SHIFTED[2][layout])
                 | _POINT[2][layout])
    out[:, 3] = (top2 & _SHIFTED[3][layout]) | _POINT[3][layout] | _SUFFIX[i]

    zero = flat == 0
    if zero.any():
        out[zero] = _SIGNED_ZERO[np.signbit(flat[zero]).astype(np.intp)]
    other = ~(fast | zero)
    if other.any():
        out[other] = _slots([format(v, ".17g") for v in flat[other].tolist()])
    return out.reshape(x.shape + (4,))


def _columns(*parts) -> np.ndarray:
    """Join (rows, 4) and (rows, m, 4) slot arrays into (rows, cols, 4)."""
    return np.concatenate([p.reshape(p.shape[0], -1, 4) for p in parts], axis=1)


def _delimiter(fmt: str) -> str:
    try:
        return TRACE_FORMATS[fmt]
    except KeyError:
        raise ScenarioError(f"unknown trace format {fmt!r}") from None


def _chunks(n_rows: int):
    """Row slices of at most _CHUNK_ROWS."""
    return (slice(i, min(i + _CHUNK_ROWS, n_rows)) for i in range(0, n_rows, _CHUNK_ROWS))


def _write_table(path, header: list[str], blocks, fmt: str) -> None:
    """Write the header, then each block of field slots (rows, len(header), 4)."""
    delim = _delimiter(fmt)
    ends = np.array([ord(delim)] * (len(header) - 1) + [ord("\n")], np.uint64) << _U56
    try:
        with open(path, "wb") as fh:
            fh.write((delim.join(header) + "\n").encode())
            for block in blocks:
                block[..., 3] |= ends
                fh.write(block.astype("<u8", copy=False).tobytes().translate(None, b"\0"))
    except OSError as exc:
        raise ScenarioError(f"cannot write trace file {path}: {exc.strerror}") from None


def _header(kind: str, n_pl: int = 0) -> list[str]:
    """The one column layout of a `kind` trace, for its writer and its reader:
    t, then an id for the id-keyed kinds, then the values."""
    if kind == "planner":
        return (["t"] + [f"alpha_{i + 1}" for i in range(n_pl)]
                + ["s_x", "s_y", "s_z", "objective", "kkt"])
    if kind == "trajectory":
        return ["t", "agent_id", "x_des", "y_des", "z_des", "x_act", "y_act", "z_act"]
    return ["t", "cell_id", "lambda_1", "lambda_2", "lambda_3", "bound", "margin", "safe"]


def _read_table(path, kind: str) -> np.ndarray:
    """Rows of a `kind` trace whose header is exactly `_header(kind, ...)`.

    Rows are structured: t, an int64 id for the id-keyed kinds, and the other
    columns as `values`. The id column is parsed as integer text in the same
    pass, so an id such as 1.0, 1e3, nan or 4503599627370496.5 (a double that
    rounds to an integer) makes the trace malformed, as a row of another width
    or any field that does not parse does.
    """
    try:
        with open(path) as fh:  # streamed: no whole-file string, no per-row float lists
            lines = (line for line in fh if line.strip())
            first, second = next(lines, ""), next(lines, "")
            if not second:
                raise ScenarioError(f"{'malformed' if first else 'empty'} trace file {path}")
            header = first.replace(",", " ").split()
            if header != _header(kind, sum(name.startswith("alpha_") for name in header)):
                raise ScenarioError(f"not a {kind} trace: {path}")
            keyed = kind != "planner"
            dtype = np.dtype([("t", float)] + [("id", np.int64)] * keyed
                             + [("values", float, (len(header) - 1 - keyed,))])
            try:  # np.loadtxt parses each float field exactly as float() does
                return np.loadtxt(itertools.chain([second], lines), dtype, comments=None,
                                  delimiter="," if "," in first else None, ndmin=1)
            except UnicodeDecodeError:  # a ValueError too, but not a malformed row
                raise
            except ValueError:  # a field that does not parse, or a row of another width
                raise _malformed(path, kind) from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else exc.reason
        raise ScenarioError(f"cannot read trace file {path}: {reason}") from None


def _malformed(path, kind: str) -> ScenarioError:
    return ScenarioError(f"malformed trace file {path}" if kind == "planner"
                         else f"malformed {kind} trace: {path}")


def _sample_times(path, t: np.ndarray, kind: str) -> np.ndarray:
    """`t`, one time per sample, unless a time is not finite or the times do not
    strictly increase: such a trace would certify samples out of order or twice."""
    if not (np.isfinite(t).all() and (t[1:] > t[:-1]).all()):
        raise _malformed(path, kind)
    return t


def _samples(path, data: np.ndarray, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """Times (n,) and ids (k,) of a trace whose rows come in per-sample blocks.

    Every block must list the first block's ids in the same order, each once,
    at a single t; anything else would pair a row with the wrong agent or cell.
    The blocks' times must then pass `_sample_times`.
    Blocks are k rows long, k the number of distinct ids, so when every block
    repeats the first one, that block holds each id once. Ids must be below
    2**53 in magnitude, where a double holds every integer, so an accepted
    trace names the same agents or cells when read as all floats.
    """
    t, ids = data["t"], data["id"]
    k = np.unique(ids).size
    n = ids.size // k
    first = ids[:k]
    if (ids.size % k
            or not np.array_equal(ids.reshape(n, k), np.broadcast_to(first, (n, k)))
            or not np.array_equal(t.reshape(n, k), np.broadcast_to(t[::k, None], (n, k)))
            or not np.all((first > -2**53) & (first < 2**53))):
        raise _malformed(path, kind)
    return _sample_times(path, t[::k], kind), first


def write_schedule(path, schedule: Schedule, fmt: str = "csv") -> None:
    # (n, 3) residuals from the planner, or (n,) maxima read back from a trace
    if schedule.kkt is None:
        kkt = np.full(schedule.n_samples, math.nan)
    else:
        kkt = schedule.kkt if schedule.kkt.ndim == 1 else schedule.kkt.max(axis=1)

    blocks = (_float_slots(np.column_stack([schedule.t[s], schedule.alpha[s], schedule.shift[s],
                                            schedule.objective[s], kkt[s]]))
              for s in _chunks(schedule.n_samples))
    _write_table(path, _header("planner", schedule.alpha.shape[1]), blocks, fmt)


def read_schedule(path) -> Schedule:
    """Rebuild a Schedule from a planner trace.

    The planner settings (bounds, zeta, scaling) are not stored in the trace;
    they come back as nan / "unknown". The kkt column holds the per-sample
    maximum residual.
    """
    data = _read_table(path, "planner")
    t, values = _sample_times(path, data["t"], "planner"), data["values"]
    return Schedule(t, values[:, :-5], values[:, -5:-2], values[:, -2], values[:, -1],
                    math.nan, math.nan, math.nan, "unknown")


def write_trajectory(path, log: SimLog, agent_ids, fmt: str = "csv") -> None:
    id_slots = _int_slots(agent_ids)
    desired = log.desired.reshape(-1, 3)
    actual = log.actual.reshape(-1, 3)
    t_slots = _float_slots(log.t)

    def block(s):
        sample, agent = np.divmod(np.arange(s.start, s.stop), id_slots.shape[0])
        return _columns(t_slots[sample], id_slots[agent],
                        _float_slots(np.column_stack([desired[s], actual[s]])))

    _write_table(path, _header("trajectory"), map(block, _chunks(desired.shape[0])), fmt)


def read_trajectory(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (t, agent_ids, desired, actual) with positions (n, N, 3)."""
    data = _read_table(path, "trajectory")
    t, ids = _samples(path, data, "trajectory")
    n, n_agents = t.size, ids.size
    desired = data["values"][:, 0:3].reshape(n, n_agents, 3)
    actual = data["values"][:, 3:6].reshape(n, n_agents, 3)
    return t, ids, desired, actual


def write_certification(path, report: CertificationReport, fmt: str = "csv",
                        cell_ids=None) -> None:
    n_cells = report.margins.shape[1]
    if cell_ids is None:
        cell_ids = range(1, n_cells + 1)
    lambdas = report.lambdas.reshape(-1, 3)
    margins = report.margins.ravel()
    t_slots, id_slots = _float_slots(report.t), _int_slots(cell_ids)
    bound_slots, safe_slots = _float_slots(report.cell_bounds), _slots(["0", "1"])

    def block(s):
        sample, cell = np.divmod(np.arange(s.start, s.stop), n_cells)
        return _columns(t_slots[sample], id_slots[cell], _float_slots(lambdas[s]),
                        bound_slots[cell], _float_slots(margins[s]),
                        safe_slots[(margins[s] >= -report.margin_tol).astype(np.intp)])

    _write_table(path, _header("certification"), map(block, _chunks(margins.size)), fmt)


def read_certification(path) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Returns (t, cell_ids, lambdas (n, n_cells, 3), bounds, margins)."""
    data = _read_table(path, "certification")
    t, cells = _samples(path, data, "certification")
    n, n_cells = t.size, cells.size
    values = data["values"]
    lambdas = values[:, 0:3].reshape(n, n_cells, 3)
    bounds = values[:n_cells, 3]
    margins = values[:, 4].reshape(n, n_cells)
    return t, cells, lambdas, bounds, margins
