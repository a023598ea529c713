import tracemalloc

import numpy as np
import pytest

from conftest import simulate_rig
from tiltkit.errors import OrderingError, ParseError
from tiltkit.logio import RawLog, RawSample, parse_log, read_columns, write_log

HEADER = "t,gyro_dps,acc_x_mps2,acc_y_mps2,enc_count,ref_count\n"


def test_single_row(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "0.000,0.0,0.0,9.80665,0,0\n")
    log = parse_log(path)
    assert len(log) == 1
    s = log[0]
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
    assert log[0].enc_count == 3


def test_missing_enc_count_flagged(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(HEADER + "0.0,0,0,9.8,,0\n")
    log = parse_log(path)
    assert log[0].enc_missing
    assert log[0].enc_count == 0


def test_write_parse_roundtrip_bit_exact(tmp_path):
    truth, log, params = simulate_rig(duration=2.0, gyro_noise=0.17,
                                      accel_noise=0.1, seed=8)
    path = tmp_path / "log.csv"
    write_log(path, log)
    back = parse_log(path)
    for name in ("t", "gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count"):
        assert np.array_equal(getattr(back, name), getattr(log, name)), name


def test_from_samples_roundtrip():
    samples = [RawSample(t=0.0, gyro_dps=1.0, acc_x_mps2=0.1, acc_y_mps2=9.7,
                         enc_count=2, ref_count=5),
               RawSample(t=0.01, gyro_dps=-1.0, acc_x_mps2=-0.1, acc_y_mps2=9.9,
                         enc_count=-2, ref_count=-5)]
    log = RawLog.from_samples(samples)
    assert len(log) == 2
    assert log[1] == samples[1]


def test_slicing():
    truth, log, params = simulate_rig(duration=1.0)
    part = log[10:20]
    assert len(part) == 10
    assert part[0] == log[10]


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
