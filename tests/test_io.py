import numpy as np
import pytest

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
    import dataclasses

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
