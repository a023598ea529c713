"""Raw sensor logs and their on-disk CSV format.

A raw log is stored column-wise (one numpy array per channel), and the
readers parse a file with numpy's C reader (``np.loadtxt``) into one
structured array with a field per header column, so that a
multi-million-row file never materialises one Python object per row.
The ``csv`` module reads the header; numpy gets the file's path and skips
the header's lines, so it reads the file in chunks rather than a line
string at a time.  numpy refuses a row without one field per header name.
A read of some columns parses only those: the others are zero-width text
fields, which take any text.

CSV layout (fixed header, decimal point, no locale formatting)::

    t,gyro_dps,acc_x_mps2,acc_y_mps2,enc_count,ref_count

``ref_count`` (reference-encoder pulses) is optional: :func:`write_log`
writes the column only for a log that has the reference channel, and a file
without it has the 5-column header.  A ``ref_count`` field may be empty; a
column that is empty on every row reads as no channel.  An empty
``enc_count`` field is accepted and flagged; it is treated as zero pulses
downstream.  Every reader decodes with the locale's text encoding, and a
byte it cannot decode is a :class:`ParseError` naming its line
(:func:`decoding`).

Floats are written with ``repr`` so a written file re-parses bit-exactly.
Every writer goes through :func:`write_columns`, which refuses a
non-finite value, as the readers do.  Rows of ``log.csv`` and
``truth.csv`` (:func:`write_log`, :func:`write_truth`) end in CRLF, the
``csv`` module's default; rows of the CLI's ``estimate.csv`` and
``spectrum.csv`` end in LF.

A write of at least ``4 * BLOCK_ROWS`` rows uses a second core: a child
forked before the file is opened formats its second half, from a block
boundary near half its rows, and sends it down a pipe, while the parent
formats and writes the header and the first half, then copies the pipe
into the file.  The child holds its half's text until the parent reads
it.  A smaller write, a platform without ``os.fork`` and a process with
more than one live thread (forking one is unsafe) write every row in the
parent, through the same block loop.
"""

from math import inf, isfinite, nan

import contextlib
import csv
import os
import threading
import warnings

import numpy as np

from .errors import OrderingError, ParameterError, ParseError

CSV_HEADER = ["t", "gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count", "ref_count"]


class RawLog:
    """Column-wise container of raw samples."""

    def __init__(self, t, gyro_dps, acc_x_mps2, acc_y_mps2, enc_count,
                 ref_count=None, enc_missing=None):
        self.t = np.asarray(t, dtype=float)
        self.gyro_dps = np.asarray(gyro_dps, dtype=float)
        self.acc_x_mps2 = np.asarray(acc_x_mps2, dtype=float)
        self.acc_y_mps2 = np.asarray(acc_y_mps2, dtype=float)
        self.enc_count = np.asarray(enc_count, dtype=np.int64)
        self.ref_count = None if ref_count is None else np.asarray(ref_count, dtype=np.int64)
        n = len(self.t)
        if enc_missing is None:
            self.enc_missing = np.zeros(n, dtype=bool)
        else:
            self.enc_missing = np.asarray(enc_missing, dtype=bool)
        for name in ("gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count", "ref_count",
                     "enc_missing"):
            column = getattr(self, name)
            if column is not None and len(column) != n:
                raise ParameterError(f"column {name} has length {len(column)}, expected {n}")

    def __len__(self):
        return len(self.t)


class TruthLog:
    """Column-wise ground-truth trajectory emitted by the simulator: one
    float64 array attribute per name of COLUMNS, given in that order."""

    COLUMNS = ("t", "phi_deg", "phi_dot_dps", "phi_ddot_dps2", "x_m", "v_mps", "a_t_mps2")

    def __init__(self, *columns):
        for name, column in zip(self.COLUMNS, columns, strict=True):
            setattr(self, name, np.asarray(column, dtype=float))

    def __len__(self):
        return len(self.t)


# Columns of a log that hold int64 pulse counts; their fields may be empty.
_COUNTS = ("enc_count", "ref_count")


def number(text, kind=float):
    """``kind(text)``, refusing the ``_`` and non-ASCII digits numpy refuses."""
    if "_" in text or not text.strip().isascii():
        raise ValueError(f"not a plain number: {text!r}")
    return kind(text)


@contextlib.contextmanager
def decoding(path):
    """Turn a UnicodeDecodeError raised in the ``with`` block, which reads
    the file at ``path`` in the locale's text encoding, into a
    :class:`ParseError` naming the first line that holds a byte the
    encoding cannot decode."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, newline="", errors="surrogateescape") as fh:
            for line_no, line in enumerate(fh, start=1):
                try:
                    line.encode(fh.encoding)
                except UnicodeEncodeError as exc:
                    byte = line[exc.start].encode(fh.encoding, "surrogateescape")
                    raise ParseError(f"byte {byte!r} is not {fh.encoding} text",
                                     line=line_no) from None
        raise ParseError(f"not {fh.encoding} text, or the file changed") from None


def _blank_field(kind, flags):
    """A converter for a column whose fields may be empty: an empty field
    reads as 0 or NaN, and ``flags`` gets one "was empty" bool per row."""
    def convert(text):
        empty = not text.strip()
        flags.append(empty)
        return (0 if kind is int else nan) if empty else number(text, kind)
    return convert


def _read_rows(path, log=False, names=None):
    """A CSV file's header (checked and stripped for a log), the indices of
    the columns read, its rows parsed by ``np.loadtxt`` into one structured
    array, and the empty-field flags of each converted column, keyed by
    index.  The array has one field per header column, named by its index:
    a float (for a log's counts an int64) for a column read, and for any
    other a zero-width text field, which takes any text and parses none.
    With ``names``, the columns read are those of the header's names in
    ``names``.  numpy gets the path and skips the physical lines that the
    ``csv`` module read the header from (more than one if a quoted name
    holds a line end).  numpy refuses a row without one field per header
    name."""
    with decoding(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
    if header is None:
        raise ParseError("empty file", line=1)
    if log:
        header = [h.strip() for h in header]
        if header not in (CSV_HEADER, CSV_HEADER[:5]):
            raise ParseError(f"unexpected header {header!r}, want {','.join(CSV_HEADER)!r}", line=1)
    elif len(set(header)) < len(header):
        name = next(h for c, h in enumerate(header) if h in header[:c])
        raise ParseError(f"header repeats the column name {name!r}", line=1, column=name)
    cols = [c for c, n in enumerate(header) if names is None or n in names]
    dtype = np.dtype([(str(c), "U0" if c not in cols else np.int64 if log and n in _COUNTS
                       else float) for c, n in enumerate(header)])
    # A read without converters; if it fails, one with a converter on every
    # column read whose fields may be empty: the counts of a log, any column
    # else.  numpy keys converters by the column's index in the file.
    blank = {c for c in cols if not log or header[c] in _COUNTS}
    for columns in (set(), blank):
        flags = {c: [] for c in columns}
        try:
            with decoding(path), warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                converters = {c: _blank_field(int if log else float, f) for c, f in flags.items()}
                return header, cols, np.loadtxt(
                    os.fspath(path), dtype, delimiter=",", comments=None, quotechar='"',
                    converters=converters, skiprows=reader.line_num, ndmin=1), flags
        except (ValueError, OverflowError):
            continue
    _raise_first_bad_field(path, header, log, [header[c] for c in cols])


def parse_log(path):
    """Parse a raw-sample CSV into a :class:`RawLog`.

    numpy's C reader parses the rows; count fields reach Python only in a
    file with empty fields.  Raises :class:`ParseError` (line and column)
    for malformed rows and non-finite numbers, :class:`OrderingError` if
    timestamps do not strictly increase.
    """
    header, _, rows, flags = _read_rows(path, log=True)
    if (not all(np.isfinite(rows[str(c)]).all() for c in range(4))
            or (np.diff(rows["0"]) <= 0).any()):
        _raise_first_bad_field(path, header, log=True)
    # A 6-column log whose ref_count is empty on every row has no channel.
    ref_given = len(header) == 6 and len(rows) and not all(flags.get(5, [False]))
    # The columns are views of numpy's one structured array: copies would
    # hold the log's values twice while they are made.
    return RawLog(*(rows[str(c)] for c in range(5)), rows["5"] if ref_given else None,
                  np.array(flags[4], dtype=bool) if 4 in flags else None)


# Rows formatted per write.  Formatting a whole column at once would hold a
# string per value; a block bounds that memory to BLOCK_ROWS rows.
BLOCK_ROWS = 4096


def _block_fields(column, start, stop):
    """Fields of rows start..stop of one :func:`write_columns` column."""
    if isinstance(column, tuple):
        values, blank = column
        fields = list(map(repr, values[start:stop].tolist()))
        for i in np.flatnonzero(blank[start:stop]).tolist():
            fields[i] = ""
        return fields
    return map(repr, column[start:stop].tolist())


def _write_blocks(write, columns, start, stop, line_end):
    """Hand ``write`` rows start..stop of :func:`write_columns`, a list of
    lines per block of :data:`BLOCK_ROWS` rows; ``start`` is a block
    boundary.  Each list is freed before the next is made."""
    for block in range(start, stop, BLOCK_ROWS):
        rows = zip(*(_block_fields(c, block, min(block + BLOCK_ROWS, stop)) for c in columns))
        write([",".join(row) + line_end for row in rows])


# Bytes the parent copies from the child's pipe per read: the default
# capacity of a Linux pipe.
PIPE_CHUNK = 1 << 16


def _fork_rows(columns, start, stop, line_end):
    """Fork a child that formats rows start..stop of :func:`write_columns`
    and sends them ASCII-encoded down a pipe; returns its pid and the
    pipe's read end.  The child formats every row before it sends one, so
    that it need not wait for the parent to read, and always leaves by
    ``os._exit``: 0 once every byte is sent, 1 on any exception."""
    read_end, write_end = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12 warns on a fork while a second OS thread runs.
            # Any such thread here is numpy's BLAS pool, not Python's, and
            # the child calls no BLAS routine.
            warnings.filterwarnings("ignore", ".* is multi-threaded", DeprecationWarning)
            pid = os.fork()
    except BaseException:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            text = []
            _write_blocks(lambda lines: text.append("".join(lines).encode("ascii")),
                          columns, start, stop, line_end)
            for chunk in text:
                view = memoryview(chunk)
                while view:
                    view = view[os.write(write_end, view):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, read_end


def write_columns(path, header, columns, line_end="\n"):
    """Write equal-length numpy columns as CSV rows ending in ``line_end``.

    A field is the ``repr`` of the column's Python value: floats re-parse
    bit-exactly, ints print as digits.  A ``(values, blank)`` pair is empty
    where the boolean array ``blank`` is set.  The first column must be an
    array; it fixes the row count.  A header without one name per column,
    a column of another length, or a non-finite value in a field that is
    not blank, each of which the readers refuse, is a
    :class:`ParameterError` raised before the file is opened.
    Rows are formatted :data:`BLOCK_ROWS` at a time.  A write of at least
    ``4 * BLOCK_ROWS`` rows, in a process with ``os.fork`` and one live
    thread, formats the rows from the last block boundary at or before half
    of them in a forked child, so each process formats at least two
    blocks; a child that does not exit 0 is an :class:`OSError` naming
    ``path``.
    """
    if len(header) != len(columns):
        raise ParameterError(f"{len(header)} header names for {len(columns)} columns")
    n = len(columns[0])
    for name, column in zip(header, columns):
        values, blank = column if isinstance(column, tuple) else (column, False)
        for part in (column if isinstance(column, tuple) else (column,)):
            if len(part) != n:
                raise ParameterError(f"column {name} has {len(part)} rows, {header[0]} has {n}")
        bad = np.flatnonzero(~(np.isfinite(values) | blank))
        if bad.size:
            raise ParameterError(f"column {name} row {bad[0]} is {values[bad[0]]}, not finite")
    mid = n
    if n >= 4 * BLOCK_ROWS and hasattr(os, "fork") and threading.active_count() == 1:
        mid = n // 2 // BLOCK_ROWS * BLOCK_ROWS
        pid, read_end = _fork_rows(columns, mid, n, line_end)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + line_end)
            _write_blocks(fh.writelines, columns, 0, mid, line_end)
            if mid < n:
                fh.flush()
                # One buffer for every read: a bytes object per os.read
                # left the heap fragmented, 2-3 MB above the one-process
                # write's peak by the next large numpy read.
                chunk = memoryview(bytearray(PIPE_CHUNK))
                while size := os.readv(read_end, [chunk]):
                    fh.buffer.write(chunk[:size])
    finally:
        if mid < n:
            # Closed before the wait: a child still sending then gets
            # BrokenPipeError and exits, where it would block for ever.
            os.close(read_end)
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if mid < n and code:
        raise OSError(f"could not write {path}: the process formatting rows {mid} to {n} "
                      f"exited with {code}")


def write_log(path, log):
    """Write a :class:`RawLog` as CSV through :func:`write_columns`, with
    the ``ref_count`` column only when the log has one."""
    columns = [log.t, log.gyro_dps, log.acc_x_mps2, log.acc_y_mps2,
               (log.enc_count, log.enc_missing)]
    if log.ref_count is not None:
        columns.append(log.ref_count)
    write_columns(path, CSV_HEADER[:len(columns)], columns, "\r\n")


def write_truth(path, truth):
    """Write a :class:`TruthLog` as CSV."""
    write_columns(path, TruthLog.COLUMNS, [getattr(truth, c) for c in TruthLog.COLUMNS],
                  "\r\n")


def read_columns(path, names=None):
    """Read any tiltkit-written CSV back as {column: float ndarray}.

    With ``names``, only the columns of those names that the header has
    are parsed and returned; the others may hold any text.  Empty fields
    become NaN.  Raises :class:`ParseError` (line and column) for a field
    of a column read that is not a number or is a non-finite one, for a
    row without one field per header name, and on line 1 for a header
    that repeats a column name.  Used by the ``eval`` and ``spectrum``
    commands and by round-trip tests.  Parsed as :func:`parse_log` is; a
    file with an empty field in a column read is read again with a
    converter on every column read.
    """
    header, cols, rows, flags = _read_rows(path, names=names)
    # Every non-finite value must come from an empty field.
    if not all((np.isfinite(rows[str(c)]) | flags.get(c, False)).all() for c in cols):
        _raise_first_bad_field(path, header, columns=[header[c] for c in cols])
    return {header[c]: rows[str(c)].copy() for c in cols}


def _raise_first_bad_field(path, names, log=False, columns=None):
    """Re-read a CSV file that numpy refused, a row at a time, and raise
    ParseError (line and column) for its first row without one field per
    name or bad field of the ``columns`` read (all by default).  Fields
    may be empty or finite numbers; in a log only counts may be empty, they
    must be int64 integers, and ``t`` must increase (OrderingError)."""
    with decoding(path), open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        prev_t = -inf
        for line_no, row in enumerate(reader, start=2):
            if row and len(row) != len(names):
                raise ParseError(f"expected {len(names)} fields, got {len(row)}", line=line_no)
            for name, text in zip(names, row):
                count = log and name in _COUNTS
                if columns is not None and name not in columns or (
                        not text.strip() and (count or not log)):
                    continue
                try:
                    value = number(text, int if count else float)
                except ValueError:
                    value = nan
                if not (-2 ** 63 <= value < 2 ** 63 if count else isfinite(value)):
                    raise ParseError(f"expected {'an int64 integer' if count else 'a finite number'}"
                                     f", got {text!r}", line=line_no, column=name)
                if log and name == "t":
                    if value <= prev_t:
                        raise OrderingError(f"t={value!r} does not increase past {prev_t!r}",
                                            line=line_no, column="t")
                    prev_t = value
    raise ParseError("numpy refused a field that float() accepts, or the file changed")
