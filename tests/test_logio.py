import os
import signal
import threading
import time
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import simulate_rig
from oracles import (log_row, log_slice, rowwise_estimate_csv, rowwise_spectrum_csv,
                     rowwise_write_log, rowwise_write_truth)
from tiltkit import logio
from tiltkit.analysis import make_report
from tiltkit.errors import OrderingError, ParameterError, ParseError
from tiltkit.logio import (BLOCK_ROWS, RawLog, TruthLog, parse_log, read_columns, write_columns,
                           write_log, write_truth)
from tiltkit.tuning import TuningResult

HEADER = "t,gyro_dps,acc_x_mps2,acc_y_mps2,enc_count,ref_count\n"


@pytest.fixture(autouse=True)
def no_child_left():
    # A split write waits for its child, whether the write succeeds or not.
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_single_row(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "0.000,0.0,0.0,9.80665,0,0\n")
    log = parse_log(path)
    assert len(log) == 1
    s = log_row(log, 0)
    assert s.acc_y_mps2 == 9.80665
    assert s.enc_count == 0 and s.ref_count == 0


def test_fractional_enc_count_rejected(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "0.0,0.0,0.0,9.8,1.5,0\n")
    with pytest.raises(ParseError) as exc:
        parse_log(path)
    assert exc.value.line == 2
    assert exc.value.column == "enc_count"


@pytest.mark.parametrize("column, row", [
    ("t", "nan,0,0,9.8,0,0"),
    ("gyro_dps", "0.01,inf,0,9.8,0,0"),
    ("acc_x_mps2", "0.01,0,-inf,9.8,0,0"),
    ("acc_y_mps2", "0.01,0,0,NaN,0,0"),
])
def test_non_finite_field_rejected(tmp_path, column, row):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "0.0,0,0,9.8,0,0\n" + row + "\n")
    with pytest.raises(ParseError) as exc:
        parse_log(path)
    assert exc.value.line == 3
    assert exc.value.column == column


def test_read_columns_keeps_nan_for_empty_fields(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "0.0,1.0,0,9.8,,\n")
    cols = read_columns(path)
    assert cols["gyro_dps"][0] == 1.0
    assert np.isnan(cols["enc_count"][0]) and np.isnan(cols["ref_count"][0])


def test_non_monotone_t_rejected(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "0.0,0,0,9.8,0,0\n0.01,0,0,9.8,0,0\n0.01,0,0,9.8,0,0\n")
    with pytest.raises(OrderingError) as exc:
        parse_log(path)
    assert exc.value.line == 4


def test_bad_header_rejected(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("time,gyro\n0,1\n")
    with pytest.raises(ParseError) as exc:
        parse_log(path)
    assert exc.value.line == 1


def test_ref_column_optional(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text("t,gyro_dps,acc_x_mps2,acc_y_mps2,enc_count\n0.0,1.0,0.0,9.8,3\n")
    log = parse_log(path)
    assert log.ref_count is None
    assert log_row(log, 0).enc_count == 3


def test_missing_enc_count_flagged(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "0.0,0,0,9.8,,0\n")
    log = parse_log(path)
    assert log_row(log, 0).enc_missing
    assert log_row(log, 0).enc_count == 0


def test_write_parse_roundtrip_bit_exact(tmp_path):
    truth, log, params = simulate_rig(duration=2.0, gyro_noise=0.17,
                                      accel_noise=0.1, seed=8)
    path = tmp_path / "log.csv"
    write_log(path, log)
    back = parse_log(path)
    for name in ("t", "gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count"):
        assert np.array_equal(getattr(back, name), getattr(log, name)), name


@pytest.mark.parametrize("n_ref", [1, 4])
def test_ref_count_of_another_length_rejected(n_ref):
    with pytest.raises(ParameterError, match=f"ref_count has length {n_ref}, expected 3"):
        RawLog(np.arange(3.0), np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(3, dtype=int),
               ref_count=np.zeros(n_ref, dtype=int))


def test_slicing():
    truth, log, params = simulate_rig(duration=1.0)
    part = log_slice(log, 10, 20)
    assert len(part) == 10
    assert log_row(part, 0) == log_row(log, 10)


def test_large_file_streams_with_bounded_memory(tmp_path):
    # one million rows must parse into columnar arrays, not per-row objects
    n = 1_000_000
    path = tmp_path / "big.csv"
    with open(path, "w") as fh:
        fh.write(HEADER)
        for k in range(n):
            fh.write(f"{k * 0.001},0.1,0.0,9.8,1,0\n")
    tracemalloc.start()
    log = parse_log(path)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert len(log) == n
    # six float64/int64 columns ~= 48 MB; a per-row object design would be
    # several hundred MB
    assert peak < 150 * 1024 * 1024
    assert log.t[-1] == pytest.approx((n - 1) * 0.001)


def test_read_columns_roundtrip(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("a,b\n0.1,2.5\n-0.25,\n")
    cols = read_columns(path)
    assert cols["a"][0] == 0.1 and cols["a"][1] == -0.25
    assert np.isnan(cols["b"][1])


@pytest.mark.parametrize("text, line, column", [
    ("a,b\n0.1,2.5\n0.2,abc\n", 3, "b"),
    ("a,b\n0.1,2.5\n1e-3x,1\n", 3, "a"),
    ("a,b\n0.1,nan\n", 2, "b"),
    ("a,b\n0.1,\n0.2,2\ninf,1\n", 4, "a"),
    ("a,b\n0.1,\n0.2,-inf\n", 3, "b"),
    ("a,b\n,\n0.2, NaN \n", 3, "b"),
])
def test_read_columns_rejects_bad_fields(tmp_path, text, line, column):
    path = tmp_path / "cols.csv"
    path.write_text(text)
    with pytest.raises(ParseError) as exc:
        read_columns(path)
    assert (exc.value.line, exc.value.column) == (line, column)


# Float values whose repr is easy to get wrong: signed zero, the smallest
# subnormal, the switches between fixed and exponent notation, and the
# non-finite values.
SPECIAL_FLOATS = (-0.0, 5e-324, 1e-05, 0.0001, 9999999999999998.0, 1e16,
                  float("inf"), float("nan"))
# The writers refuse the non-finite ones, as the readers would.
FINITE_SPECIAL_FLOATS = SPECIAL_FLOATS[:-2]
WRITER_SIZES = (0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3)


def _float_columns(n, k, seed, specials=SPECIAL_FLOATS):
    """k float columns of n rows, the special values spread over each one."""
    rng = np.random.default_rng(seed)
    cols = rng.standard_normal((k, n)) * 10.0 ** rng.integers(-30, 30, (k, n))
    for c in range(k):
        for i, value in enumerate(specials):
            if n:
                cols[c, (c + i * 613) % n] = value
    return cols


def _assert_same_bytes(tmp_path, write, reference, *args):
    write(tmp_path / "new.csv", *args)
    reference(tmp_path / "old.csv", *args)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n", WRITER_SIZES)
@pytest.mark.parametrize("ref", ["absent", "full"])
def test_write_log_matches_rowwise_writer(tmp_path, n, ref):
    rng = np.random.default_rng(n)
    t, gyro, acc_x, acc_y = _float_columns(n, 4, seed=n, specials=FINITE_SPECIAL_FLOATS)
    enc = rng.integers(-2 ** 62, 2 ** 62, n)
    missing = rng.random(n) < 0.2
    missing[BLOCK_ROWS - 1:BLOCK_ROWS + 1] = True
    ref_count = rng.integers(-5, 5, n) if ref == "full" else None
    log = RawLog(t, gyro, acc_x, acc_y, enc, ref_count, missing)
    _assert_same_bytes(tmp_path, write_log, rowwise_write_log, log)


@pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS + 1])
def test_write_log_of_samples_matches_rowwise_writer(tmp_path, n):
    # a ref_count of 0 in some rows and an empty enc_count field in others,
    # then the same columns with no reference channel and no empty field
    k = np.arange(n)
    floats = _float_columns(n, 4, seed=n + 1, specials=FINITE_SPECIAL_FLOATS)
    log = RawLog(*floats, k - 3, np.where(k % 3, 0, k), k % 5 == 0)
    _assert_same_bytes(tmp_path, write_log, rowwise_write_log, log)
    _assert_same_bytes(tmp_path, write_log, rowwise_write_log, RawLog(*floats, k - 3))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("name", ["t", "gyro_dps", "acc_x_mps2", "acc_y_mps2"])
def test_write_log_refuses_non_finite_values(tmp_path, name, value):
    # parse_log would refuse the file; write_log does not write it
    n = 10
    log = RawLog(np.arange(n) * 0.01, np.zeros(n), np.zeros(n), np.full(n, 9.8),
                 np.zeros(n, dtype=int))
    getattr(log, name)[[3, 7]] = value
    with pytest.raises(ParameterError, match=f"^column {name} row 3 is {value}, not finite$"):
        write_log(tmp_path / "log.csv", log)
    assert not (tmp_path / "log.csv").exists()


@pytest.mark.parametrize("n", WRITER_SIZES)
def test_write_truth_matches_rowwise_writer(tmp_path, n):
    truth = TruthLog(*_float_columns(n, 7, seed=n, specials=FINITE_SPECIAL_FLOATS))
    _assert_same_bytes(tmp_path, write_truth, rowwise_write_truth, truth)


@pytest.mark.parametrize("n", WRITER_SIZES)
@pytest.mark.parametrize("debug", [False, True])
def test_estimate_rows_match_rowwise_writer(tmp_path, n, debug):
    t, phi_hat, *fields = _float_columns(n, 9, seed=n, specials=FINITE_SPECIAL_FLOATS)
    names = ("phi_bar", "rate_bar", "a_c", "a_e", "a_t", "a_t_x", "a_t_y")
    corrected = [SimpleNamespace(**dict(zip(names, row)))
                 for row in np.array(fields).T.tolist()]
    header = ["t", "phi_hat_deg"]
    columns = [t, phi_hat]
    if debug:
        header += ["phi_bar_deg", "rate_bar_dps", "a_c", "a_e", "a_t", "a_t_x", "a_t_y"]
        columns += fields
    write_columns(tmp_path / "new.csv", header, columns)
    rowwise_estimate_csv(tmp_path / "old.csv", t, phi_hat, corrected, debug)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("n", WRITER_SIZES)
def test_spectrum_rows_match_rowwise_writer(tmp_path, n):
    freqs, mags = _float_columns(n, 2, seed=n, specials=FINITE_SPECIAL_FLOATS)
    write_columns(tmp_path / "new.csv", ["frequency_hz", "magnitude"], [freqs, mags])
    rowwise_spectrum_csv(tmp_path / "old.csv", freqs, mags)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


@pytest.mark.parametrize("columns, message", [
    ([np.arange(3.0), np.arange(2.0)], "column b has 2 rows, a has 3"),
    ([np.arange(2.0), np.arange(3.0)], "column b has 3 rows, a has 2"),
    ([np.arange(2.0), (np.arange(2.0), np.zeros(3, dtype=bool))], "column b has 3 rows"),
], ids=["shorter", "longer", "blank_flags"])
def test_write_columns_refuses_unequal_lengths(tmp_path, columns, message):
    path = tmp_path / "out.csv"
    with pytest.raises(ParameterError, match=message):
        write_columns(path, ["a", "b", "c"][:len(columns)], columns)
    assert not path.exists()


@pytest.mark.parametrize("names, count", [(["a"], 2), (["a", "b", "c"], 2)])
def test_write_columns_refuses_a_header_without_one_name_per_column(tmp_path, names, count):
    # read_columns would refuse the file: expected 1 fields, got 2 (line 2)
    path = tmp_path / "out.csv"
    with pytest.raises(ParameterError, match=f"^{len(names)} header names for {count} columns$"):
        write_columns(path, names, [np.arange(3.0)] * count)
    assert not path.exists()


# Row counts at and around the split threshold, the last one with a
# partial block on the child's side.
SPLIT_SIZES = (4 * BLOCK_ROWS - 1, 4 * BLOCK_ROWS, 4 * BLOCK_ROWS + 1, 7 * BLOCK_ROWS + 5)


@pytest.mark.parametrize("n", SPLIT_SIZES)
def test_split_write_matches_rowwise_writers(tmp_path, monkeypatch, n):
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(True) or fork())
    rng = np.random.default_rng(n)
    floats = _float_columns(n, 4, seed=n, specials=FINITE_SPECIAL_FLOATS)
    missing = rng.random(n) < 0.2
    mid = n // 2 // BLOCK_ROWS * BLOCK_ROWS
    missing[[0, mid - 1, mid, mid + 1, n - 1]] = True
    log = RawLog(*floats, rng.integers(-2 ** 62, 2 ** 62, n), rng.integers(-5, 5, n), missing)
    _assert_same_bytes(tmp_path, write_log, rowwise_write_log, log)
    truth = TruthLog(*_float_columns(n, 7, seed=n + 1, specials=FINITE_SPECIAL_FLOATS))
    _assert_same_bytes(tmp_path, write_truth, rowwise_write_truth, truth)
    assert len(forks) == (2 if n >= 4 * BLOCK_ROWS else 0)


def test_split_write_child_failure_is_oserror(tmp_path, monkeypatch):
    n = 4 * BLOCK_ROWS
    block_fields = logio._block_fields

    def fail(column, start, stop):
        if start >= 2 * BLOCK_ROWS:  # the child's rows
            raise RuntimeError("formatting failed")
        return block_fields(column, start, stop)
    monkeypatch.setattr(logio, "_block_fields", fail)
    path = tmp_path / "out.csv"
    with pytest.raises(OSError, match=f"^could not write {path}: the process formatting rows "
                                      f"{2 * BLOCK_ROWS} to {n} exited with 1$"):
        write_columns(path, ["a", "b"], [np.arange(n, dtype=float)] * 2)


def test_split_write_parent_failure_stops_the_child(tmp_path, monkeypatch):
    # The parent fails half a second into its second block, by when the
    # child has formatted its 131 kB, twice a pipe's capacity, and blocks
    # on the full pipe: it must get BrokenPipeError rather than wait for a
    # reader for ever.  The alarm turns such a deadlock into a failure.
    n = 7 * BLOCK_ROWS
    block_fields = logio._block_fields

    def fail(column, start, stop):
        if start == BLOCK_ROWS:
            time.sleep(0.5)
            raise RuntimeError("parent failed")
        return block_fields(column, start, stop)
    monkeypatch.setattr(logio, "_block_fields", fail)

    def deadlock(signum, frame):
        raise TimeoutError("write_columns did not return in 20 s")
    previous = signal.signal(signal.SIGALRM, deadlock)
    signal.alarm(20)
    try:
        with pytest.raises(RuntimeError, match="parent failed"):
            write_columns(tmp_path / "out.csv", ["a"], [np.arange(n, dtype=float)])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("n, process", [
    (4 * BLOCK_ROWS - 1, "one thread"),
    (4 * BLOCK_ROWS, "two threads"),
    (4 * BLOCK_ROWS, "no os.fork"),
])
def test_writes_in_one_process_when_a_fork_is_not_wanted(tmp_path, monkeypatch, n, process):
    def refuse():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "fork", refuse)
    if process == "no os.fork":
        monkeypatch.delattr(os, "fork")
    truth = TruthLog(*_float_columns(n, 7, seed=n, specials=FINITE_SPECIAL_FLOATS))
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    if process == "two threads":
        thread.start()
    try:
        _assert_same_bytes(tmp_path, write_truth, rowwise_write_truth, truth)
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(timeout=10)
    assert not thread.is_alive()


def _write_report(path, columns):
    result = TuningResult(variant="wb", dt=0.01, parameters={"alpha": 0.1, "beta": 0.0},
                          training_mse=1.0)
    make_report([result], trajectories=columns).write(path.parent)


# The writer of every artifact but log.csv, with the columns it writes:
# write_truth, run's estimate.csv (with --debug-intermediates), spectrum's
# spectrum.csv and a report's trajectories.csv.
ESTIMATE = ("t", "phi_hat_deg", "phi_bar_deg", "rate_bar_dps", "a_c", "a_e", "a_t", "a_t_x",
            "a_t_y")
SPECTRUM = ("frequency_hz", "magnitude")
WRITERS = {
    "truth": (TruthLog.COLUMNS, lambda path, columns: write_truth(path, TruthLog(*columns))),
    "estimate": (ESTIMATE, lambda path, columns: write_columns(path, ESTIMATE, columns)),
    "spectrum": (SPECTRUM, lambda path, columns: write_columns(path, SPECTRUM, columns)),
    "trajectories": (("t", "phi_true_deg", "phi_bar_deg", "phi_hat_deg", "arctan_raw_deg"),
                     _write_report),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("writer", WRITERS)
def test_writers_refuse_non_finite_values(tmp_path, writer, value):
    # tiltkit's readers would refuse the file; no writer writes it, nor
    # any other file
    names, write = WRITERS[writer]
    for c, name in enumerate(names):
        columns = _float_columns(10, len(names), seed=c, specials=FINITE_SPECIAL_FLOATS)
        columns[c, [3, 7]] = value
        with pytest.raises(ParameterError, match=f"^column {name} row 3 is {value}, not finite$"):
            write(tmp_path / "out.csv", list(columns))
        assert not any(tmp_path.iterdir())


def test_write_columns_blank_fields_may_hold_non_finite_values(tmp_path):
    values = np.array([1.0, float("nan"), float("inf"), 2.0])
    write_columns(tmp_path / "blank.csv", ["a", "b"],
                  [np.arange(4.0), (values, ~np.isfinite(values))])
    assert (tmp_path / "blank.csv").read_text() == "a,b\n0.0,1.0\n1.0,\n2.0,\n3.0,2.0\n"
    with pytest.raises(ParameterError, match="^column b row 2 is inf, not finite$"):
        write_columns(tmp_path / "out.csv", ["a", "b"],
                      [np.arange(4.0), (values, np.isnan(values))])
    assert not (tmp_path / "out.csv").exists()


def test_write_truth_memory_stays_bounded(tmp_path):
    # Formatting a block of rows at a time keeps the writer's transient
    # memory near 2 MB at 50k rows; whole-column string lists need about
    # 11 MB, and raise the peak RSS of a long simulate run with them.
    n = 50_000
    truth = TruthLog(np.arange(n) * 0.002, *np.random.default_rng(3).standard_normal((6, n)))
    tracemalloc.start()
    try:
        write_truth(tmp_path / "truth.csv", truth)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 1024 * 1024
