"""The CSV readers against their row-wise oracles, and CSV round trips.

``parse_log`` and ``read_columns`` parse rows with numpy's C reader;
``tests/oracles.py`` keeps the former readers, which parse one field at a
time with ``float``/``int``.  Arrays are compared by their bytes, errors
by (type, line, column).
"""

import gzip
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import rowwise_parse_log, rowwise_read_columns
from tiltkit import logio
from tiltkit.errors import OrderingError, ParseError, TiltkitError
from tiltkit.logio import CSV_HEADER, RawLog, parse_log, read_columns, write_columns, write_log

H6 = ",".join(CSV_HEADER)
H5 = ",".join(CSV_HEADER[:5])


def lines(header, *rows, end="\n"):
    return "".join(line + end for line in (header,) + rows)


def _bytes(array, layout=True):
    """An array's dtype, shape, flags and bytes; its C-contiguity only with
    ``layout``."""
    if array is None:
        return None
    return (array.dtype.str, array.shape, layout and array.flags.c_contiguous,
            array.flags.writeable, array.tobytes())


def outcome(read, path):
    """A reader's result as bytes per column, or its error's (type, line, column).
    A log's columns are compared without their layout: ``parse_log``'s are
    views of one structured array (see ``test_parse_log_columns_share_one_array``)."""
    try:
        result = read(path)
    except TiltkitError as exc:
        return type(exc), exc.line, exc.column
    if isinstance(result, RawLog):
        return {name: _bytes(getattr(result, name), layout=False)
                for name in ("t", "gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count",
                             "ref_count", "enc_missing")}
    return {name: _bytes(column) for name, column in result.items()}


ROW = "0.0,1.5,-0.25,9.8,3,4"
ROWS = ("0.0,1.5,-0.25,9.8,3,4", "0.002,1.25,-0.5,9.75,-2,5", "0.004,1.0,0.0,9.7,0,-1")

# Raw-log files, each read by both readers.
LOG_FILES = {
    "empty_file": "",
    "header_only": lines(H6),
    "header_only_no_line_end": H6,
    "header_only_blank_lines": lines(H6, "", "", end="\r\n"),
    "header5_only": lines(H5),
    "lf": lines(H6, *ROWS),
    "crlf": lines(H6, *ROWS, end="\r\n"),
    "mixed_line_ends": H6 + "\r\n" + ROWS[0] + "\n" + ROWS[1] + "\r\n" + ROWS[2],
    "blank_line_between": lines(H6, ROWS[0], "", ROWS[1], "", "", ROWS[2]),
    "blank_crlf_line_between": lines(H6, ROWS[0], "", ROWS[1], end="\r\n"),
    "quoted_fields": lines(H6, '"0.0","1.5","-0.25","9.8","3","4"', '0.1,"2",3,4,"-5",6'),
    "quoted_header": lines('"t","gyro_dps","acc_x_mps2","acc_y_mps2","enc_count","ref_count"',
                           *ROWS),
    "quoted_empty_counts": lines(H6, '0.0,1,2,3,"",""', '0.1,1,2,3,"",7'),
    "quoted_empty_float": lines(H6, '0.0,"",2,3,1,1'),
    "spaces_around_fields": lines(H6, " 0.0 , 1.5 ,\t-0.25\t, 9.8 , 3 , -4 "),
    "spaced_header": lines(" t , gyro_dps,acc_x_mps2 ,acc_y_mps2,enc_count, ref_count ", ROW),
    "whitespace_only_counts": lines(H6, "0.0,1,2,3, ,\t", "0.1,1,2,3,\t\t,  "),
    "whitespace_only_float": lines(H6, "0.0,1, ,3,1,1"),
    "enc_blank_no_row": lines(H6, *ROWS),
    "enc_blank_some_rows": lines(H6, ROWS[0], "0.002,1,2,3,,5", ROWS[2]),
    "enc_blank_every_row": lines(H6, "0.0,1,2,3,,1", "0.1,1,2,3,,2"),
    "ref_blank_some_rows": lines(H6, ROWS[0], "0.002,1,2,3,4,", ROWS[2]),
    "ref_blank_every_row": lines(H6, "0.0,1,2,3,1,", "0.1,1,2,3,2,", end="\r\n"),
    "ref_blank_last_row_no_line_end": lines(H6, ROWS[0]) + "0.1,1,2,3,2,",
    "both_blank_every_row": lines(H6, "0.0,1,2,3,,", "0.1,1,2,3,,"),
    "both_blank_some_rows": lines(H6, "0.0,1,2,3,,", ROWS[1], "0.1,1,2,3,,7"),
    "header5": lines(H5, "0.0,1,2,3,4", "0.1,1,2,3,-4"),
    "header5_enc_blank_some_rows": lines(H5, "0.0,1,2,3,4", "0.1,1,2,3,", end="\r\n"),
    "header5_enc_blank_every_row": lines(H5, "0.0,1,2,3,", "0.1,1,2,3,"),
    "extreme_values": lines(H6, "-0.0,5e-324,1e16,-1e16,-9223372036854775808,9223372036854775807",
                            "5e-324,-5e-324,9999999999999998.0,1e-05,-7,-0"),
    "number_syntax": lines(H6, "+0.5,.5,5.,1E5,+3,007", "1e1,1e-400,-.0,0.0001,-0,+0"),
    "hash_row": lines(H6, ROWS[0], "#" + ROWS[1]),
    "short_row": lines(H6, ROWS[0], "0.1,1,2,3,4"),
    "long_row": lines(H6, ROWS[0], "0.1,1,2,3,4,5,6"),
    "every_row_short": lines(H6, "0.0,1,2,3,4", "0.1,1,2,3,4"),
    "every_row_long": lines(H6, "0.0,1,2,3,4,5,6", "0.1,1,2,3,4,5,6"),
    "trailing_comma_rows": lines(H6, "0.0,1,2,3,4,5,", "0.1,1,2,3,4,5,"),
    "short_rows_ending_blank": lines(H6, "0.0,1,", "0.1,1,"),
    "nan_t": lines(H6, ROWS[0], "nan,1,2,3,4,5"),
    "inf_gyro": lines(H6, ROWS[0], "0.1,inf,2,3,4,5"),
    "minus_inf_acc_x": lines(H6, ROWS[0], "0.1,1,-inf,3,4,5"),
    "nan_acc_y_with_blank_ref": lines(H6, "0.0,1,2,3,4,", "0.1,1,2,NaN,4,"),
    "infinity_word": lines(H6, "0.0,1,2,3,4,5", "0.1,Infinity,2,3,4,5"),
    "overflowing_float": lines(H6, "0.0,1e400,2,3,4,5"),
    "not_a_number": lines(H6, ROWS[0], "0.1,1,2,abc,4,5"),
    "blank_float": lines(H6, "0.0,,2,3,4,5"),
    "blank_t": lines(H6, ",1,2,3,4,5"),
    "fractional_enc": lines(H6, "0.0,1,2,3,1.5,0"),
    "exponent_count": lines(H6, "0.0,1,2,3,1,1e3"),
    "hex_count": lines(H6, "0.0,1,2,3,0x10,1"),
    "count_with_blank_elsewhere": lines(H6, "0.0,1,2,3,1.5,", "0.1,1,2,3,,"),
    "unordered_t": lines(H6, ROWS[1], ROWS[0]),
    "equal_t": lines(H6, ROWS[0], ROWS[0]),
    "unordered_t_and_bad_field_same_row": lines(H6, ROWS[1], "0.0,x,2,3,4,5"),
    "bad_field_before_unordered_t": lines(H6, "0.0,x,2,3,4,5", ROWS[0]),
    "unordered_t_after_blank_line": lines(H6, ROWS[1], "", ROWS[0], end="\r\n"),
    "bad_header": lines("time,gyro", "0,1"),
    "quoted_line_end_in_count": lines(H6, '0.0,1,2,3,"4\n",5'),
    "cr_line_ends": lines(H6, *ROWS, end="\r"),
    "cr_line_ends_blank_line_between": lines(H6, ROWS[0], "", ROWS[1], end="\r"),
    "quoted_line_end_in_header_name": lines('"t\nx",' + H6[2:], *ROWS),
    "quoted_crlf_in_header_name": lines('"t\r\n",' + H6[2:], *ROWS, end="\r\n"),
    "quoted_line_end_in_float": lines(H6, '0.0,"1.5\n",-0.25,9.8,3,4', ROWS[1]),
    "quoted_cr_in_float": lines(H6, '0.0,"1.5\r",-0.25,9.8,3,4', ROWS[1], end="\r"),
    "quoted_line_end_splitting_a_float": lines(H6, ROWS[0], '0.1,"1.\n5",2,3,4,5'),
}

# Files that only read_columns takes: any header, any field may be empty.
COLUMN_FILES = {
    "one_column": lines("a", "1", "", "2"),
    "one_column_whitespace_line": lines("a", "1", "  ", "2"),
    "leading_blank": lines("a,b", ",1", "2,3"),
    "trailing_blank": lines("a,b", "1,", "2,3"),
    "inner_blank": lines("a,b,c", "1,,3", "4,5,6"),
    "all_blank_row": lines("a,b", ",", "1,2"),
    "quoted_empty": lines("a,b", '"",1', "2,3"),
    "whitespace_only_field": lines("a,b", " ,1", "2,\t"),
    "nan_in_column_without_blank": lines("a,b", "1,", "nan,2"),
    "nan_in_column_with_blank": lines("a,b", "1,", "2,nan"),
    "inf_without_blank": lines("a,b", "1,2", "inf,2"),
    "spaced_nan": lines("a,b", ",", "0.2, NaN "),
    "more_fields_than_header": lines("a,b", "1,2,3"),
    "fewer_fields_than_header": lines("a,b,c", "1,2"),
    "blank_header_row": "\na\n1\n",
    "header_only_two_columns": lines("a,b"),
    "spaced_header_names": lines(" a ,b", "1,2"),
    "empty_header_name": lines("a,,b", "1,2,3", "4,5,6"),
    "empty_header_name_after_f1": lines("f1,", "1,2"),
    "cr_line_ends_with_blank": lines("a,b", "1,", "", "2,3", end="\r"),
    "quoted_line_end_in_header_name_with_blank": lines('"a\nb",c', "1,", "3,4"),
    "quoted_line_end_in_text_column": lines("a,b,c", '1,"x\ny",3', "4,5,6"),
    "quoted_line_end_in_float_with_blank": lines("a,b", '"1\n",', "2,3"),
}


@pytest.mark.parametrize("name", sorted(LOG_FILES))
def test_parse_log_matches_rowwise(tmp_path, name):
    path = tmp_path / "log.csv"
    path.write_bytes(LOG_FILES[name].encode())
    assert outcome(parse_log, path) == outcome(rowwise_parse_log, path)


@pytest.mark.parametrize("name", sorted(LOG_FILES) + sorted(COLUMN_FILES))
def test_read_columns_matches_rowwise(tmp_path, name):
    path = tmp_path / "cols.csv"
    path.write_bytes({**LOG_FILES, **COLUMN_FILES}[name].encode())
    assert outcome(read_columns, path) == outcome(rowwise_read_columns, path)


@pytest.mark.parametrize("text, line, column", [
    (lines(H6, "0.0,1_0,2,3,4,5"), 2, "gyro_dps"),
    (lines(H6, ROW, "0.1,1,2,3,1_0,5"), 3, "enc_count"),
    (lines(H6, "0.0,1,2,3,,1_0"), 2, "ref_count"),
    (lines(H6, "0.0,1,2,3,4,١"), 2, "ref_count"),
], ids=["float", "count", "count_in_file_with_blank", "non_ascii_digit"])
def test_parse_log_refuses_digit_grouping(tmp_path, text, line, column):
    # Deliberately stricter than float()/int(), which the row-wise reader
    # used: numpy's parser refuses "1_0" and non-ASCII digits, and so do
    # the error locator and the converters for empty fields.
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode())
    assert isinstance(outcome(rowwise_parse_log, path), dict)
    assert outcome(parse_log, path) == (ParseError, line, column)


@pytest.mark.parametrize("text, line, column", [
    (lines("a,b", "1,1_0"), 2, "b"),
    (lines("a,b", ",1", "1_0,2"), 3, "a"),
], ids=["file_without_blank", "file_with_blank"])
def test_read_columns_refuses_digit_grouping(tmp_path, text, line, column):
    path = tmp_path / "cols.csv"
    path.write_text(text)
    assert isinstance(outcome(rowwise_read_columns, path), dict)
    assert outcome(read_columns, path) == (ParseError, line, column)


def test_read_columns_names_first_bad_row(tmp_path):
    # A non-finite field before a malformed row: the row-wise reader named
    # the malformed row, which its first pass met first; the error is now
    # the first bad row in file order.
    path = tmp_path / "cols.csv"
    path.write_text(lines("a,b", "0,nan", "0,1,2"))
    assert outcome(rowwise_read_columns, path) == (ParseError, 3, None)
    assert outcome(read_columns, path) == (ParseError, 2, "b")


@pytest.mark.parametrize("header, name", [("a,a", "a"), ("a,b,b,a", "b")])
def test_read_columns_refuses_repeated_header_name(tmp_path, header, name):
    # Deliberately different: the row-wise reader kept one column per name
    # and filled it from every column of that name, interleaved; the first
    # name that repeats is now refused on line 1.
    path = tmp_path / "cols.csv"
    path.write_text(lines(header, "1,2,3,4"[:len(header)]))
    assert list(rowwise_read_columns(path)) == list(dict.fromkeys(header.split(",")))
    assert outcome(read_columns, path) == (ParseError, 1, name)


# The readers decode with the locale's encoding, UTF-8, in which \xff is
# not a character.  MANY_ROWS fill more than the csv module's first
# decoded chunk, so that only numpy's read decodes a row after them.
MANY_ROWS = [f"{k * 0.002!r},1.5,-0.25,9.8,3,4" for k in range(2000)]


@pytest.mark.parametrize("read", [parse_log, read_columns])
@pytest.mark.parametrize("data, line", [
    (lines("t,gyro\xff", "0,1").encode("latin-1"), 1),
    (gzip.compress(lines(H6, ROW).encode(), mtime=0), 1),
    (lines(H6, *ROWS[:2], ROWS[2] + "\xff").encode("latin-1"), 4),
], ids=["header", "gzip", "row_3"])
def test_undecodable_byte_before_numpy_read(tmp_path, read, data, line):
    # the csv module's header read decodes the file's first chunk
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    assert outcome(read, path) == (ParseError, line, None)


@pytest.mark.parametrize("read", [parse_log, read_columns])
def test_undecodable_byte_in_numpy_read(tmp_path, monkeypatch, read):
    def unreachable(*args, **kwargs):
        raise AssertionError("the row-wise locator was called")
    monkeypatch.setattr(logio, "_raise_first_bad_field", unreachable)
    path = tmp_path / "log.csv"
    path.write_bytes(lines(H6, *MANY_ROWS, "0\xff,1,2,3,4,5").encode("latin-1"))
    with pytest.raises(ParseError, match=r"(?i)^byte b'\\xff' is not utf-8 text \(line 2002\)$"):
        read(path)


def test_undecodable_byte_in_row_wise_locator(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_bytes(lines("a,b", *["1,2"] * 3000, "1,\xff").encode("latin-1"))
    with pytest.raises(ParseError) as exc:
        logio._raise_first_bad_field(path, ["a", "b"])
    assert (exc.value.line, exc.value.column) == (3002, None)


SELECTED = "a,b,c"


@pytest.mark.parametrize("names", [["a"], ["b"], ["c"], ["a", "c"], [], ["z"]])
@pytest.mark.parametrize("text, line", [
    (lines(SELECTED, "1,2,3", "4,5", "7,8,9"), 3),
    (lines(SELECTED, "1,2,3", "4,5,6,7", "7,8,9"), 3),
    (lines(SELECTED, "1,2", "4,5"), 2),
    (lines(SELECTED, "1,2,3,4", "4,5,6,7"), 2),
    (lines(SELECTED, "1,2,3", "4,5,6", "", "7"), 5),
    (lines(SELECTED, "1,2,3", "4,5,6,", "7,8,9", end="\r\n"), 3),
    (lines(SELECTED, "1,2,3", "4,5,6", "7,8,9,10,11,12"), 4),
    (lines(SELECTED, "1,2,3", "4,5", "7,8,9,10"), 3),
], ids=["short", "long", "every_row_short", "every_row_long", "one_field_after_blank_line",
        "trailing_comma", "long_last_row", "short_then_long"])
def test_selection_refuses_rows_of_wrong_width(tmp_path, names, text, line):
    # whichever columns it parses, a selection refuses a row of the wrong
    # width on the line the full read names
    path = tmp_path / "cols.csv"
    path.write_text(text)
    assert outcome(read_columns, path) == (ParseError, line, None)
    assert outcome(lambda p: read_columns(p, names), path) == (ParseError, line, None)


@pytest.mark.parametrize("field", ["abc", "nan", "-inf", "1e400", "1_0"])
def test_selection_accepts_a_bad_field_in_a_column_not_read(tmp_path, field):
    # b is not selected, so it is not parsed; a read of it still refuses
    # the field, naming its line and column
    path = tmp_path / "cols.csv"
    path.write_text(lines(SELECTED, "1,2,3", f"4,{field},6"))
    assert outcome(read_columns, path) == (ParseError, 3, "b")
    assert outcome(lambda p: read_columns(p, ["b"]), path) == (ParseError, 3, "b")
    assert outcome(lambda p: read_columns(p, ["a"]), path) == {"a": _bytes(np.array([1.0, 4.0]))}


def test_selection_accepts_a_quoted_comma_in_a_column_not_read(tmp_path):
    # the quoted field is one field of b, which a read of a does not parse
    path = tmp_path / "cols.csv"
    path.write_text(lines(SELECTED, "1,2,3", '4,"1,5",6'))
    assert outcome(read_columns, path) == (ParseError, 3, "b")
    assert outcome(lambda p: read_columns(p, ["a"]), path) == {"a": _bytes(np.array([1.0, 4.0]))}


def test_selection_accepts_a_quoted_line_end_in_a_column_not_read(tmp_path):
    # the quoted field spans two physical lines; a read of a and c skips it
    path = tmp_path / "cols.csv"
    path.write_text(lines(SELECTED, '1,"x\ny",3', "4,5,6"))
    assert outcome(read_columns, path) == (ParseError, 2, "b")
    assert outcome(lambda p: read_columns(p, ["a", "c"]), path) == {
        "a": _bytes(np.array([1.0, 4.0])), "c": _bytes(np.array([3.0, 6.0]))}


@pytest.mark.parametrize("field, column", [("abc", "c"), ("abc", "a"), ("inf", "c")])
def test_selection_checks_only_the_columns_it_names(tmp_path, field, column):
    # the file's last column is parsed only when named, as any other
    path = tmp_path / "cols.csv"
    row = {"a": f"{field},5,6", "c": f"4,5,{field}"}[column]
    path.write_text(lines(SELECTED, "1,2,3", row))
    want = (ParseError, 3, "a") if column == "a" else {"a": _bytes(np.array([1.0, 4.0]))}
    assert outcome(lambda p: read_columns(p, ["a"]), path) == want


@pytest.mark.parametrize("row, column", [
    ("0.0,0,0,9.8,9223372036854775808,0", "enc_count"),
    ("0.0,0,0,9.8,-9223372036854775809,0", "enc_count"),
    ("0.0,0,0,9.8,0,99999999999999999999", "ref_count"),
    ("0.0,0,0,9.8,,9223372036854775808", "ref_count"),
    ("0.0,0,0,9.8,9223372036854775808,", "enc_count"),
], ids=["enc_above", "enc_below", "ref_above", "ref_beside_blank_enc", "enc_beside_blank_ref"])
def test_out_of_range_count_raises_parse_error(tmp_path, row, column):
    path = tmp_path / "log.csv"
    path.write_text(lines(H6, "-1.0,0,0,9.8,0,0", row))
    with pytest.raises(ParseError) as exc:
        parse_log(path)
    assert (exc.value.line, exc.value.column) == (3, column)


def test_parse_log_columns_share_one_array(tmp_path):
    # the columns are views of numpy's structured array, not copies of it,
    # so a log's values are held once: a 200,000-row log of 48 bytes a row
    # peaks near the array's 9.6 MB, where copying the columns out peaked
    # at twice that
    n = 200_000
    path = tmp_path / "log.csv"
    path.write_text(lines(H6, *(f"{k * 0.001!r},0.1,0.0,9.8,1,{k}" for k in range(n))))
    tracemalloc.start()
    try:
        log = parse_log(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    columns = [log.t, log.gyro_dps, log.acc_x_mps2, log.acc_y_mps2, log.enc_count, log.ref_count]
    assert all(c.base is not None and c.base is log.t.base for c in columns)
    assert peak < 1.5 * 48 * n
    assert log.ref_count[-1] == n - 1 and log.t[-1] == (n - 1) * 0.001


def _python_calls(read, path):
    """Python function calls made while ``read(path)`` runs, after a first
    call that leaves out one-time imports."""
    read(path)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        read(path)
    finally:
        sys.setprofile(None)
    return calls


def read_t_and_gyro_dps(path):
    return read_columns(path, ["t", "gyro_dps"])


@pytest.mark.parametrize("read", [parse_log, read_columns, read_t_and_gyro_dps])
def test_no_python_call_per_field(tmp_path, read):
    # 2,000 rows of 6 fields: without an empty field no field reaches
    # Python.  With an empty ref_count on every row, or only on the last
    # row of a file without a final line end, a second read converts every
    # column read whose fields may be empty (the two counts of a log, all
    # six columns otherwise): one converter call per field of those
    # columns, plus a number parse for each full one.  A read of t and
    # gyro_dps does not parse ref_count, so it makes one numpy read and no
    # converter call.  A read makes a fixed number of calls besides:
    # numpy's own and the reader's, 121 to 134 per numpy read of a path
    # (measured with numpy 2.4.6; 75 of them open the path through
    # np.lib._datasource), and a file with an empty field is read twice.
    n, per_read = 2000, 150
    fixed = 2 * per_read
    converted = {parse_log: 2, read_columns: 6}.get(read, 0)
    full_row = 2 * converted  # calls for a row of full fields
    blank_row = max(full_row - 1, 0)
    path = tmp_path / "log.csv"
    full = [f"{k * 0.002!r},1.5,-0.25,9.8,{k},{k}" for k in range(n)]
    path.write_text(lines(H6, *full))
    assert _python_calls(read, path) < fixed
    path.write_text(lines(H6, *(row[:row.rindex(",") + 1] for row in full)))
    assert blank_row * n <= _python_calls(read, path) < blank_row * n + fixed
    path.write_text(lines(H6, *full[:-1]) + full[-1][:full[-1].rindex(",") + 1])
    assert full_row * n - 1 <= _python_calls(read, path) < full_row * n + fixed


# --- property tests ---------------------------------------------------------

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture,
                                           HealthCheck.too_slow])
finite = st.floats(allow_nan=False, allow_infinity=False)
int64 = st.integers(-2 ** 63, 2 ** 63 - 1)


def _draw_log(draw):
    """Columns of a raw log with strictly increasing t, and how to write its
    ref_count column."""
    t = np.unique(np.array(draw(st.lists(finite, max_size=25)), dtype=float))
    n = len(t)
    floats = st.lists(finite, min_size=n, max_size=n)
    counts = st.lists(int64, min_size=n, max_size=n)
    flags = st.lists(st.booleans(), min_size=n, max_size=n)
    return dict(
        t=t,
        gyro=np.array(draw(floats), dtype=float),
        acc_x=np.array(draw(floats), dtype=float),
        acc_y=np.array(draw(floats), dtype=float),
        enc=np.array(draw(counts), dtype=np.int64),
        missing=np.array(draw(flags), dtype=bool),
        ref=np.array(draw(counts), dtype=np.int64),
        ref_blank=np.array(draw(flags), dtype=bool),
        ref_mode=draw(st.sampled_from(["absent", "full", "partly", "no_column"])),
    )


@PROPERTY
@given(data=st.data())
def test_write_log_parse_log_round_trip(tmp_path, data):
    c = _draw_log(data.draw)
    path = tmp_path / "log.csv"
    mode = c["ref_mode"]
    if mode in ("absent", "full"):
        write_log(path, RawLog(c["t"], c["gyro"], c["acc_x"], c["acc_y"], c["enc"],
                               c["ref"] if mode == "full" else None, c["missing"]))
    else:
        write_columns(path, CSV_HEADER if mode == "partly" else CSV_HEADER[:5],
                      (c["t"], c["gyro"], c["acc_x"], c["acc_y"], (c["enc"], c["missing"]))
                      + (((c["ref"], c["ref_blank"]),) if mode == "partly" else ()), "\r\n")
    back = parse_log(path)
    for name, key in (("t", "t"), ("gyro_dps", "gyro"), ("acc_x_mps2", "acc_x"),
                      ("acc_y_mps2", "acc_y"), ("enc_missing", "missing")):
        assert _bytes(getattr(back, name), False) == _bytes(c[key], False), name
    assert _bytes(back.enc_count, False) == _bytes(np.where(c["missing"], 0, c["enc"]), False)
    given_ref = {"full": np.ones(len(c["t"]), bool), "partly": ~c["ref_blank"]}.get(mode)
    if given_ref is None or not given_ref.any():
        assert back.ref_count is None
    else:
        assert _bytes(back.ref_count, False) == _bytes(np.where(given_ref, c["ref"], 0), False)
    assert outcome(parse_log, path) == outcome(rowwise_parse_log, path)


@PROPERTY
@given(data=st.data())
def test_write_columns_read_columns_round_trip(tmp_path, data):
    k = data.draw(st.integers(1, 5), label="columns")
    n = data.draw(st.integers(0, 25), label="rows")
    values = [np.array(data.draw(st.lists(finite, min_size=n, max_size=n)), dtype=float)
              for _ in range(k)]
    # write_columns takes its row count from a plain first column
    blank = [np.zeros(n, bool)] + [
        np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        for _ in range(k - 1)]
    names = [f"c{i}" for i in range(k)]
    path = tmp_path / "cols.csv"
    write_columns(path, names, [values[0]] + list(zip(values[1:], blank[1:])))
    back = read_columns(path)
    assert list(back) == names
    for name, v, b in zip(names, values, blank):
        assert _bytes(back[name]) == _bytes(np.where(b, np.nan, v)), name
    assert outcome(read_columns, path) == outcome(rowwise_read_columns, path)


def _decorated(text):
    return st.sampled_from([text, f" {text} ", f'"{text}"', f"\t{text}", f"{text} "])


good_float = finite.map(repr).flatmap(_decorated)
good_count = int64.map(str).flatmap(_decorated)
blank_field = st.sampled_from(["", " ", "\t", '""', '" "'])
bad_field = st.sampled_from(["abc", "nan", " NaN ", "inf", "-inf", "Infinity", "1e400", "",
                             " ", "1.5", "1e3", "0x10", "#1", "1,5", "--1", "1.5.5"])


@st.composite
def messy_file(draw, log):
    """A CSV file text: valid rows in mixed field syntax, line ends and
    blank lines, with at most one fault (a bad field, a missing or extra
    field, or for a log a repeated timestamp)."""
    if log:
        header = CSV_HEADER[:draw(st.sampled_from([5, 6]))]
    else:
        header = [f"c{i}" for i in range(draw(st.integers(1, 4)))]
    n = draw(st.integers(0, 12))
    rows = []
    for k in range(n):
        row = []
        for c, name in enumerate(header):
            if log and name == "t":
                row.append(draw(_decorated(repr(k * 0.002 - 0.01))))
            elif log and name in ("enc_count", "ref_count"):
                row.append(draw(st.one_of(good_count, blank_field)))
            elif log:
                row.append(draw(good_float))
            else:
                row.append(draw(st.one_of(good_float, blank_field)))
        rows.append(row)
    if rows and draw(st.booleans()):
        r = draw(st.integers(0, n - 1))
        kind = draw(st.sampled_from(["field", "drop", "extra", "repeat_t"]))
        if kind == "field":
            rows[r][draw(st.integers(0, len(header) - 1))] = draw(bad_field)
        elif kind == "drop":
            rows[r].pop()
        elif kind == "extra":
            rows[r].append(draw(good_float))
        elif log and r > 0:
            rows[r][0] = rows[r - 1][0]
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ",".join(header) + end
    for row in rows:
        text += end * draw(st.integers(0, 1)) + ",".join(row) + end
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@PROPERTY
@given(text=messy_file(log=True))
def test_parse_log_matches_rowwise_on_messy_files(tmp_path, text):
    path = tmp_path / "log.csv"
    path.write_bytes(text.encode())
    assert outcome(parse_log, path) == outcome(rowwise_parse_log, path)


@PROPERTY
@given(text=messy_file(log=False))
def test_read_columns_matches_rowwise_on_messy_files(tmp_path, text):
    path = tmp_path / "cols.csv"
    path.write_bytes(text.encode())
    assert outcome(read_columns, path) == outcome(rowwise_read_columns, path)


@settings(PROPERTY, max_examples=300)
@given(data=st.data())
def test_read_columns_selection_is_the_full_read_restricted(tmp_path, data):
    # whenever the full read succeeds, a selection reads the same values
    # of the columns it names and leaves out the rest.  A file holds at
    # most one fault (a bad field in about one in ten, hence the 300
    # examples): where the full read refuses a row's width or a field
    # of a named column, the selection refuses the same; where it refuses
    # a field of a column not named, the selection returns its columns.
    text = data.draw(messy_file(log=data.draw(st.booleans(), label="log")), label="text")
    names = data.draw(st.lists(st.sampled_from(["c0", "c1", "c2", "c3", "absent"] + CSV_HEADER),
                               max_size=4), label="names")
    path = tmp_path / "cols.csv"
    path.write_bytes(text.encode())
    full = outcome(read_columns, path)
    selection = outcome(lambda p: read_columns(p, names), path)
    if isinstance(full, dict):
        assert selection == {name: value for name, value in full.items() if name in names}
    elif full[2] is None or full[2] in names:
        assert selection == full
    else:
        header = text.splitlines()[0].split(",")
        assert isinstance(selection, dict)
        assert list(selection) == [name for name in header if name in names]


def test_messy_files_reach_every_outcome(tmp_path):
    # the generator must yield accepted files, ParseErrors and OrderingErrors
    seen = set()
    path = tmp_path / "log.csv"

    @settings(max_examples=60, derandomize=True, database=None)
    @given(text=messy_file(log=True))
    def collect(text):
        path.write_bytes(text.encode())
        result = outcome(parse_log, path)
        seen.add(dict if isinstance(result, dict) else result[0])

    collect()
    assert seen == {dict, ParseError, OrderingError}
