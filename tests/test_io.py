import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import swarmdeform as sd


@pytest.fixture(scope="module")
def square_run(square_team, square_weights, square_scenario):
    log = sd.run_simulation(square_team, square_weights, square_scenario.trajectory,
                            duration=3.0, dt=0.1, bounds=(0.5, 1.1))
    desired = sd.trajectory_positions(square_team, square_weights,
                                      log.schedule.alpha, log.schedule.shift)
    report = sd.certify_configuration(square_team, log.schedule, desired)
    return log, report


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_schedule_round_trip_bitwise(square_run, tmp_path, fmt):
    log, _ = square_run
    path = tmp_path / f"plan.{fmt}"
    sd.write_schedule(path, log.schedule, fmt=fmt)
    back = sd.read_schedule(path)
    assert np.array_equal(back.t, log.schedule.t)
    assert np.array_equal(back.alpha, log.schedule.alpha)
    assert np.array_equal(back.shift, log.schedule.shift)
    assert np.array_equal(back.objective, log.schedule.objective)
    assert np.array_equal(back.kkt, log.schedule.kkt.max(axis=1))
    assert np.isnan(back.alpha_min) and np.isnan(back.zeta)
    assert back.scaling == "unknown"


def test_schedule_without_kkt_writes_nan(square_run, tmp_path):
    log, _ = square_run
    bare = dataclasses.replace(log.schedule, kkt=None)
    path = tmp_path / "plan.csv"
    sd.write_schedule(path, bare)
    back = sd.read_schedule(path)
    assert np.all(np.isnan(back.kkt))
    assert np.array_equal(back.alpha, log.schedule.alpha)


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_trajectory_round_trip_bitwise(square_run, tmp_path, fmt):
    log, _ = square_run
    ids = range(1, 14)
    path = tmp_path / f"traj.{fmt}"
    sd.write_trajectory(path, log, ids, fmt=fmt)
    t, got_ids, desired, actual = sd.read_trajectory(path)
    assert np.array_equal(t, log.t)
    assert np.array_equal(got_ids, np.arange(1, 14))
    assert np.array_equal(desired, log.desired)
    assert np.array_equal(actual, log.actual)


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_certification_round_trip_bitwise(square_run, tmp_path, fmt):
    _, report = square_run
    path = tmp_path / f"cert.{fmt}"
    sd.write_certification(path, report, fmt=fmt, cell_ids=[1, 2, 3, 4])
    t, cells, lambdas, bounds, margins = sd.read_certification(path)
    assert np.array_equal(t, report.t)
    assert np.array_equal(cells, [1, 2, 3, 4])
    assert np.array_equal(lambdas, report.lambdas)
    assert np.array_equal(bounds, report.cell_bounds)
    assert np.array_equal(margins, report.margins)


def _swap_first_two(rows, k):
    rows[k], rows[k + 1] = rows[k + 1], rows[k]


def _repeat_first(rows, k):
    rows[k + 1] = rows[k]


def _shift_time(rows, k):
    # the last row of sample 1 takes sample 2's time
    delim = "," if "," in rows[0] else " "
    rows[2 * k - 1] = delim.join([rows[2 * k].split(delim)[0]]
                                 + rows[2 * k - 1].split(delim)[1:])


@pytest.mark.parametrize("edit", [_swap_first_two, _repeat_first, _shift_time],
                         ids=["reordered", "repeated-id", "two-times"])
@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_readers_reject_blocks_unlike_the_first(square_run, tmp_path, edit, fmt):
    # sample 1's block must list the ids of sample 0's, in order, at one t
    log, report = square_run
    traces = [("trajectory", lambda p: sd.write_trajectory(p, log, range(1, 14), fmt),
               sd.read_trajectory, 13),
              ("certification", lambda p: sd.write_certification(p, report, fmt),
               sd.read_certification, 4)]
    for kind, write, read, k in traces:
        path = tmp_path / f"{kind}.{fmt}"
        write(path)
        read(path)
        lines = path.read_text().splitlines(keepends=True)
        rows = lines[1:]
        edit(rows, k)
        path.write_text(lines[0] + "".join(rows))
        with pytest.raises(sd.ScenarioError, match=f"malformed {kind} trace"):
            read(path)


def test_readers_keep_the_written_id_order(square_run, tmp_path):
    log, report = square_run
    ids = [13, *range(1, 13)]
    path = tmp_path / "traj.csv"
    sd.write_trajectory(path, log, ids)
    t, got_ids, desired, actual = sd.read_trajectory(path)
    assert got_ids.tolist() == ids
    assert np.array_equal(desired, log.desired) and np.array_equal(actual, log.actual)
    path = tmp_path / "cert.csv"
    sd.write_certification(path, report, cell_ids=[4, 3, 2, 1])
    assert sd.read_certification(path)[1].tolist() == [4, 3, 2, 1]


def test_writers_format_ids_from_the_integers(square_run, tmp_path):
    log, report = square_run
    big = 2**53 + 1   # float64 would round it to 2**53
    one_agent = dataclasses.replace(log, desired=log.desired[:, :1], actual=log.actual[:, :1])
    path = tmp_path / "traj.csv"
    sd.write_trajectory(path, one_agent, [big])
    assert {line.split(",")[1] for line in path.read_text().splitlines()[1:]} == {str(big)}
    # it parses to 2**53, so readers refuse ids from 2**53 on
    with pytest.raises(sd.ScenarioError, match="malformed trajectory trace"):
        sd.read_trajectory(path)
    path = tmp_path / "cert.csv"
    sd.write_certification(path, report, cell_ids=[1, 2, 3, -big])
    assert path.read_text().splitlines()[4].split(",")[1] == str(-big)
    with pytest.raises(sd.ScenarioError, match="malformed certification trace"):
        sd.read_certification(path)
    with pytest.raises(TypeError):
        sd.write_trajectory(path, one_agent, [1.0])


@pytest.mark.parametrize("text", ["1.25", "9007199254740992", "-9007199254740993", "inf",
                                  "nan", "2.0", "1e3", "-9223372036854775808",
                                  # doubles that round to an integer id
                                  "4503599627370496.5", "2.0000000000000001"])
@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_readers_reject_ids_that_are_not_exact_integers(square_run, tmp_path, text, fmt):
    # agent 2 reads `text` in every block, so the blocks still agree
    log, _ = square_run
    path = tmp_path / f"traj.{fmt}"
    sd.write_trajectory(path, log, range(1, 14), fmt)
    delim = "," if fmt == "csv" else " "
    lines = path.read_text().splitlines()
    rows = [line.split(delim) for line in lines[1:]]
    for row in rows:
        row[1] = text if row[1] == "2" else row[1]
    path.write_text("\n".join([lines[0]] + [delim.join(row) for row in rows]) + "\n")
    with pytest.raises(sd.ScenarioError, match="malformed trajectory trace"):
        sd.read_trajectory(path)
    rows = [line.split(delim) for line in lines[1:]]
    for row in rows:
        row[1] = "-9007199254740991" if row[1] == "2" else row[1]   # 1 - 2**53 is exact
    path.write_text("\n".join([lines[0]] + [delim.join(row) for row in rows]) + "\n")
    assert sd.read_trajectory(path)[1].tolist() == [1, 1 - 2**53, *range(3, 14)]


def test_unknown_format_rejected(square_run, tmp_path):
    log, _ = square_run
    with pytest.raises(sd.ScenarioError, match="unknown trace format"):
        sd.write_schedule(tmp_path / "plan.tsv", log.schedule, fmt="tsv")


def test_read_rejects_wrong_trace_kind(square_run, tmp_path):
    log, report = square_run
    plan = tmp_path / "plan.csv"
    cert = tmp_path / "cert.csv"
    sd.write_schedule(plan, log.schedule)
    sd.write_certification(cert, report)
    with pytest.raises(sd.ScenarioError, match="not a planner trace"):
        sd.read_schedule(cert)
    with pytest.raises(sd.ScenarioError, match="not a certification trace"):
        sd.read_certification(plan)
    with pytest.raises(sd.ScenarioError, match="not a trajectory trace"):
        sd.read_trajectory(plan)


def _write_kind(square_run, kind, path, fmt):
    log, report = square_run
    write, read = {"planner": (lambda: sd.write_schedule(path, log.schedule, fmt),
                               sd.read_schedule),
                   "trajectory": (lambda: sd.write_trajectory(path, log, range(1, 14), fmt),
                                  sd.read_trajectory),
                   "certification": (lambda: sd.write_certification(path, report, fmt),
                                     sd.read_certification)}[kind]
    write()
    read(path)
    delim = "," if fmt == "csv" else " "
    return read, delim, [line.split(delim) for line in path.read_text().splitlines()]


def _drop(row, j, first):
    del row[j]


def _rename(row, j, first):
    if first:
        row[j] = row[j][::-1]


def _swap(row, j, first):
    row[j], row[j + 1] = row[j + 1], row[j]


def _duplicate(row, j, first):
    row.insert(j, row[j])


@pytest.mark.parametrize("edit", [_drop, _rename, _swap, _duplicate],
                         ids=["drop", "rename", "swap", "duplicate"])
@pytest.mark.parametrize("kind, column", [("planner", "alpha_1"), ("planner", "s_y"),
                                          ("trajectory", "y_act"),
                                          ("certification", "bound")])
@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_readers_refuse_any_other_header(square_run, tmp_path, edit, kind, column, fmt):
    # the column is dropped, swapped with the next or duplicated in the header
    # and in every row, or renamed in the header, so only the layout is wrong;
    # the old readers accepted most of these and sliced the columns by position
    path = tmp_path / f"{kind}.{fmt}"
    read, delim, table = _write_kind(square_run, kind, path, fmt)
    j = table[0].index(column)
    for i, row in enumerate(table):
        edit(row, j, i == 0)
    path.write_text("\n".join(delim.join(row) for row in table) + "\n")
    with pytest.raises(sd.ScenarioError, match=f"not a {kind} trace"):
        read(path)


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_planner_trace_without_its_shift_is_refused(square_run, tmp_path, fmt):
    # s_x, s_y and s_z cut from the header and every row: the old reader took
    # the objective and kkt columns for the shift, then ran out of columns
    path = tmp_path / f"planner.{fmt}"
    read, delim, table = _write_kind(square_run, "planner", path, fmt)
    j = table[0].index("s_x")
    path.write_text("\n".join(delim.join(row[:j] + row[j + 3:]) for row in table) + "\n")
    with pytest.raises(sd.ScenarioError, match="not a planner trace"):
        read(path)


def _nan_time(blocks):
    for row in blocks[1]:
        row[0] = "nan"


def _reverse_times(blocks):
    blocks.reverse()


def _zero_times(blocks):
    for block in blocks:
        for row in block:
            row[0] = "0"


@pytest.mark.parametrize("edit", [_nan_time, _reverse_times, _zero_times],
                         ids=["nan", "reversed", "all-zero"])
@pytest.mark.parametrize("kind, k", [("planner", 1), ("trajectory", 13), ("certification", 4)])
def test_readers_refuse_times_that_do_not_increase(square_run, tmp_path, edit, kind, k):
    # sample 1's time is nan, the samples come in reverse order, or every time
    # is 0: per-sample times must be finite and strictly increase
    path = tmp_path / f"{kind}.csv"
    read, delim, table = _write_kind(square_run, kind, path, "csv")
    blocks = [table[i:i + k] for i in range(1, len(table), k)]
    edit(blocks)
    path.write_text("\n".join(delim.join(row) for row in [table[0]] + sum(blocks, [])) + "\n")
    message = "malformed trace file" if kind == "planner" else f"malformed {kind} trace"
    with pytest.raises(sd.ScenarioError, match=message):
        read(path)


def test_read_rejects_malformed_and_empty(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(sd.ScenarioError, match="empty trace file"):
        sd.read_schedule(empty)
    header_only = tmp_path / "header_only.csv"
    header_only.write_text("t,alpha_1,s_x,s_y,s_z,objective,kkt\n\n")
    with pytest.raises(sd.ScenarioError, match="malformed trace file"):
        sd.read_schedule(header_only)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("t,alpha_1,s_x,s_y,s_z,objective,kkt\n0.0,1.0\n")
    with pytest.raises(sd.ScenarioError, match="malformed trace file"):
        sd.read_schedule(ragged)
    uneven = tmp_path / "uneven.csv"
    uneven.write_text("t,alpha_1,s_x,s_y,s_z,objective,kkt\n"
                      "0,1,0,0,0,0,0\n1,1,0,0,0,0\n")
    with pytest.raises(sd.ScenarioError, match="malformed trace file"):
        sd.read_schedule(uneven)
    non_numeric = tmp_path / "non_numeric.csv"
    non_numeric.write_text("t,alpha_1,s_x,s_y,s_z,objective,kkt\n0,1,abc,0,0,0,0\n")
    with pytest.raises(sd.ScenarioError, match="malformed trace file"):
        sd.read_schedule(non_numeric)


def test_read_skips_blank_lines_and_keeps_extreme_doubles(tmp_path):
    values = [5e-324, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308,
              0.1, float("nan"), float("inf")]
    path = tmp_path / "plan.csv"
    path.write_text("\n t,alpha_1,s_x,s_y,s_z,objective,kkt\n"
                    + ",".join(format(v, ".17g") for v in values) + "\n\n"
                    + ",".join("1" * 7) + "\n\n")
    schedule = sd.read_schedule(path)
    row = np.concatenate([schedule.t[:1], schedule.alpha[0], schedule.shift[0],
                          schedule.objective[:1], schedule.kkt[:1]])
    assert row.tobytes() == np.array(values).tobytes()
    assert schedule.n_samples == 2


EXTREME = [5e-324, -0.0, 2.2250738585072014e-308, 1.7976931348623157e308,
           -1.7976931348623157e308, 0.1, 1.0 / 3.0, float("nan"), float("inf"),
           float("-inf"), 1e22, 123456789012345678.0]


def _format_rows(header, rows, delim):
    """The reference text: every field through format(x, ".17g"), ids through int."""
    lines = [delim.join(header)]
    lines += [delim.join(v if isinstance(v, str) else format(v, ".17g") for v in row)
              for row in rows]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt, delim", [("csv", ","), ("text", " ")])
def test_writers_format_extreme_doubles_like_format_17g(tmp_path, fmt, delim):
    n = len(EXTREME)
    column = np.array(EXTREME)
    alpha = np.column_stack([np.roll(column, 1), np.roll(column, 2), np.zeros(n)])
    shift = np.column_stack([np.roll(column, 3), np.roll(column, 4), np.roll(column, 5)])
    schedule = sd.Schedule(column, alpha, shift, np.roll(column, 6), None,
                           0.5, 1.1, 1e-6, "consistent")
    path = tmp_path / f"plan.{fmt}"
    sd.write_schedule(path, schedule, fmt=fmt)
    header = ["t", "alpha_1", "alpha_2", "alpha_3", "s_x", "s_y", "s_z", "objective", "kkt"]
    rows = [[column[i], *alpha[i], *shift[i], schedule.objective[i], float("nan")]
            for i in range(n)]
    assert path.read_bytes() == _format_rows(header, rows, delim).encode()

    # two samples of 7 agents with ids 1..7, every position an extreme double
    positions = np.resize(column, 2 * 7 * 3).reshape(2, 7, 3)
    log = sd.SimLog(column[:2], positions, positions[::-1], np.zeros(2), np.zeros(2),
                    np.zeros(2), schedule, sd.ControllerGains(), "open-loop")
    path = tmp_path / f"traj.{fmt}"
    sd.write_trajectory(path, log, range(1, 8), fmt=fmt)
    header = ["t", "agent_id", "x_des", "y_des", "z_des", "x_act", "y_act", "z_act"]
    rows = [[column[i], str(a + 1), *positions[i, a], *positions[1 - i, a]]
            for i in range(2) for a in range(7)]
    assert path.read_bytes() == _format_rows(header, rows, delim).encode()


def test_schedule_writer_spans_chunks(tmp_path):
    # more rows than one formatting chunk holds, incl. a partial last chunk
    rng = np.random.default_rng(5)
    n = 2 * sd.io._CHUNK_ROWS + 3
    values = rng.normal(size=(n, 6)) * 10.0 ** rng.integers(-300, 300, size=(n, 6))
    schedule = sd.Schedule(values[:, 0], values[:, 1:3], values[:, 3:6], values[:, 0] / 3.0,
                           np.abs(values[:, 1:4]), 0.5, 1.1, 1e-6, "consistent")
    path = tmp_path / "plan.csv"
    sd.write_schedule(path, schedule)
    header = ["t", "alpha_1", "alpha_2", "s_x", "s_y", "s_z", "objective", "kkt"]
    rows = [[*values[i], schedule.objective[i], schedule.kkt[i].max()] for i in range(n)]
    assert path.read_bytes() == _format_rows(header, rows, ",").encode()


@pytest.mark.parametrize("fmt", ["csv", "text"])
def test_read_back_schedule_writes_the_same_bytes(square_run, tmp_path, fmt):
    # the read kkt holds per-sample maxima (n,), the planner's residuals (n, 3)
    log, _ = square_run
    first, second = tmp_path / f"a.{fmt}", tmp_path / f"b.{fmt}"
    sd.write_schedule(first, log.schedule, fmt=fmt)
    back = sd.read_schedule(first)
    assert back.kkt.shape == (log.schedule.n_samples,)
    sd.write_schedule(second, back, fmt=fmt)
    assert second.read_bytes() == first.read_bytes()


@pytest.mark.parametrize("fmt, delim", [("csv", ","), ("text", " ")])
def test_long_schedule_with_nan_and_zero_columns(tmp_path, fmt, delim):
    # like helix67's: a kkt-less (nan) column and an all-zero alpha column,
    # over several formatting chunks
    n = 10_000
    rng = np.random.default_rng(11)
    t = np.arange(n) * 0.4
    alpha = np.column_stack([np.full(n, 0.6), np.zeros(n), rng.uniform(0.5, 5.0, n)])
    shift = rng.normal(size=(n, 3)) * 100.0
    objective = -rng.uniform(size=n)
    schedule = sd.Schedule(t, alpha, shift, objective, None, 0.6, 5.0, 1e-6, "consistent")
    path = tmp_path / f"plan.{fmt}"
    sd.write_schedule(path, schedule, fmt=fmt)
    header = ["t", "alpha_1", "alpha_2", "alpha_3", "s_x", "s_y", "s_z", "objective", "kkt"]
    rows = [[t[i], *alpha[i], *shift[i], objective[i], math.nan] for i in range(n)]
    assert path.read_bytes() == _format_rows(header, rows, delim).encode()


def _assert_schedule_writes_format_17g(path, values):
    # every column of the schedule holds `values`
    schedule = sd.Schedule(values, values[:, None], np.column_stack([values] * 3), values,
                           values, 0.5, 1.1, 1e-6, "consistent")
    sd.write_schedule(path, schedule)
    header = ["t", "alpha_1", "s_x", "s_y", "s_z", "objective", "kkt"]
    assert path.read_bytes() == _format_rows(header, [[v] * 7 for v in values], ",").encode()


def test_writer_matches_format_17g_beside_powers_of_ten_and_two(tmp_path):
    # log10 misjudges the exponent next to a power of ten; the digits' proof
    # must refuse those guesses, over the whole double range
    tens = [float(f"1e{j}") for j in range(-330, 309)]
    twos = [2.0**j for j in range(-1074, 1024)]
    values = [v for p in tens + twos for v in (p, math.nextafter(p, 0.0),
                                                 math.nextafter(p, math.inf), -p)]
    _assert_schedule_writes_format_17g(tmp_path / "plan.csv",
                                       np.array([v for v in values if math.isfinite(v)]))


def test_writer_refuses_wrong_exponent_guesses(monkeypatch, tmp_path):
    # the digits are accepted on their own proof, not on log10's exponent:
    # with the guess one too low or too high, a value is refused and still
    # comes out as format(x, ".17g")
    rng = np.random.default_rng(3)
    values = rng.normal(size=3000) * 10.0 ** rng.uniform(-200, 200, 3000)
    log10 = np.log10
    monkeypatch.setattr(np, "log10", lambda a: log10(a) + np.resize([-0.7, 0.0, 0.7], a.shape))
    _assert_schedule_writes_format_17g(tmp_path / "plan.csv", values)


def _double(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


@pytest.fixture(scope="module")
def writer_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("writers")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=st.lists(st.one_of(st.integers(0, 2**64 - 1).map(_double), st.floats()),
                       min_size=1, max_size=12))
# log10 rounds up just below a power of ten, so the first exponent guess is high
@example(values=[math.nextafter(10.0 ** j, 0.0) for j in (-6, -5, -1, 0, 1, 15, 16, 22)]
         + [math.nextafter(1e-300, 0.0), math.nextafter(1e300, 0.0)])
@example(values=[2.0**-25])  # an exact tie at the 18th significant digit
# 18th digits within about 2**-50 of a tie, not on it: the double-double
# product alone would round them the wrong way
@example(values=[5.264670116847178e-14, 6.83280278535067e-12])
@example(values=[-math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308])
@example(values=[1e16, math.nextafter(1e17, 0.0), 1e17])
@example(values=[9.9999999999999995e-05, 1e-4])  # the fixed/scientific boundary
def test_writers_give_format_17g_bytes_for_any_double(square_run, writer_dir, values):
    _, report = square_run
    v = np.array(values)
    n = v.size
    c = [np.roll(v, j) for j in range(9)]
    positions = np.stack([np.column_stack(c[:3]), np.column_stack(c[3:6])], axis=1)
    schedule = sd.Schedule(v, np.column_stack(c[1:3]), np.column_stack(c[3:6]), c[6], c[7],
                           0.5, 1.1, 1e-6, "consistent")
    log = sd.SimLog(v, positions, positions[:, ::-1], np.zeros(n), np.zeros(n), np.zeros(n),
                    schedule, sd.ControllerGains(), "open-loop")
    bounds = np.resize(v, 2)
    margins = np.column_stack(c[7:9])
    cert = dataclasses.replace(report, t=v, lambdas=positions, cell_bounds=bounds,
                               margins=margins)
    tol = cert.margin_tol
    for fmt, delim in [("csv", ","), ("text", " ")]:
        cases = [
            (lambda p: sd.write_schedule(p, schedule, fmt),
             ["t", "alpha_1", "alpha_2", "s_x", "s_y", "s_z", "objective", "kkt"],
             [[c[j][i] for j in range(8)] for i in range(n)]),
            (lambda p: sd.write_trajectory(p, log, [1, 2], fmt),
             ["t", "agent_id", "x_des", "y_des", "z_des", "x_act", "y_act", "z_act"],
             [[v[i], str(a + 1), *positions[i, a], *positions[i, 1 - a]]
              for i in range(n) for a in range(2)]),
            (lambda p: sd.write_certification(p, cert, fmt),
             ["t", "cell_id", "lambda_1", "lambda_2", "lambda_3", "bound", "margin", "safe"],
             [[v[i], str(j + 1), *positions[i, j], bounds[j], margins[i, j],
               str(int(margins[i, j] >= -tol))] for i in range(n) for j in range(2)]),
        ]
        for write, header, rows in cases:
            path = writer_dir / f"trace.{fmt}"
            write(path)
            assert path.read_bytes() == _format_rows(header, rows, delim).encode()
