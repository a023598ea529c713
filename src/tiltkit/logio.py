"""Raw sensor logs and their on-disk CSV format.

A raw log is stored column-wise (one numpy array per channel) so that a
multi-million-row file never materialises one Python object per row.
Iteration and indexing hand out :class:`RawSample` views on demand.

CSV layout (fixed header, decimal point, no locale formatting)::

    t,gyro_dps,acc_x_mps2,acc_y_mps2,enc_count,ref_count

``ref_count`` (reference-encoder pulses) is optional: the column may be
absent entirely or individual fields may be empty.  An empty ``enc_count``
field is accepted and flagged; it is treated as zero pulses downstream.
Floats are written with ``repr`` so a written file re-parses bit-exactly.
Every writer goes through :func:`write_columns`.  Rows of ``log.csv`` and
``truth.csv`` (:func:`write_log`, :func:`write_truth`) end in CRLF, the
``csv`` module's default; rows of the CLI's ``estimate.csv`` and
``spectrum.csv`` end in LF.
"""

from array import array
from dataclasses import dataclass
from itertools import repeat
from math import isfinite, nan
from typing import Optional

import csv
import numpy as np

from .errors import OrderingError, ParameterError, ParseError

CSV_HEADER = ["t", "gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count", "ref_count"]


@dataclass
class RawSample:
    """One timestamped frame of uncorrected sensor outputs."""

    t: float                        # seconds
    gyro_dps: float                 # gyro rate, degrees/second
    acc_x_mps2: float               # accelerometer x' axis, m/s^2
    acc_y_mps2: float               # accelerometer y' axis, m/s^2
    enc_count: int                  # drive-encoder pulses counted this period
    ref_count: Optional[int] = None  # reference-encoder pulses, optional
    enc_missing: bool = False       # True when the field was empty in the source


class RawLog:
    """Column-wise container of raw samples, indexable like a sequence."""

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
        for name in ("gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count", "enc_missing"):
            if len(getattr(self, name)) != n:
                raise ParameterError(
                    f"column {name} has length {len(getattr(self, name))}, expected {n}")

    def __len__(self):
        return len(self.t)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return RawLog(self.t[k], self.gyro_dps[k], self.acc_x_mps2[k],
                          self.acc_y_mps2[k], self.enc_count[k],
                          None if self.ref_count is None else self.ref_count[k],
                          self.enc_missing[k])
        return RawSample(
            t=float(self.t[k]),
            gyro_dps=float(self.gyro_dps[k]),
            acc_x_mps2=float(self.acc_x_mps2[k]),
            acc_y_mps2=float(self.acc_y_mps2[k]),
            enc_count=int(self.enc_count[k]),
            ref_count=None if self.ref_count is None else int(self.ref_count[k]),
            enc_missing=bool(self.enc_missing[k]),
        )

    def __iter__(self):
        for k in range(len(self)):
            yield self[k]

    @property
    def dt(self):
        """Median sample period, seconds."""
        if len(self.t) < 2:
            raise ParameterError("cannot infer dt from fewer than two samples")
        return float(np.median(np.diff(self.t)))

    @classmethod
    def from_samples(cls, samples):
        samples = list(samples)
        has_ref = any(s.ref_count is not None for s in samples)
        return cls(
            [s.t for s in samples],
            [s.gyro_dps for s in samples],
            [s.acc_x_mps2 for s in samples],
            [s.acc_y_mps2 for s in samples],
            [s.enc_count for s in samples],
            [0 if s.ref_count is None else s.ref_count for s in samples] if has_ref else None,
            [s.enc_missing for s in samples],
        )


class TruthLog:
    """Column-wise ground-truth trajectory emitted by the simulator."""

    COLUMNS = ("t", "phi_deg", "phi_dot_dps", "phi_ddot_dps2", "x_m", "v_mps", "a_t_mps2")

    def __init__(self, t, phi_deg, phi_dot_dps, phi_ddot_dps2, x_m, v_mps, a_t_mps2):
        self.t = np.asarray(t, dtype=float)
        self.phi_deg = np.asarray(phi_deg, dtype=float)
        self.phi_dot_dps = np.asarray(phi_dot_dps, dtype=float)
        self.phi_ddot_dps2 = np.asarray(phi_ddot_dps2, dtype=float)
        self.x_m = np.asarray(x_m, dtype=float)
        self.v_mps = np.asarray(v_mps, dtype=float)
        self.a_t_mps2 = np.asarray(a_t_mps2, dtype=float)

    def __len__(self):
        return len(self.t)


def _int_field(text, line_no, column):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", line=line_no, column=column) from None


def _float_field(text, line_no, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", line=line_no, column=column) from None
    if not isfinite(value):
        raise ParseError(f"expected a finite number, got {text!r}", line=line_no, column=column)
    return value


def _csv_rows(path):
    """Yield a CSV file's header row, then ``(line_no, fields)`` for each
    non-empty row; raises ParseError for an empty file or a row whose field
    count differs from the header's."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ParseError("empty file", line=1)
        yield header
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line_no)
            yield line_no, row


def parse_log(path):
    """Parse a raw-sample CSV into a :class:`RawLog`.

    Rows are streamed into growable primitive arrays, so memory stays
    proportional to the column data and never to per-row Python objects.
    Raises :class:`ParseError` (line and column) for malformed rows and
    non-finite numbers, :class:`OrderingError` if timestamps do not strictly increase.
    """
    t = array("d")
    gyro = array("d")
    acc_x = array("d")
    acc_y = array("d")
    enc = array("q")
    ref = array("q")
    enc_missing = array("b")
    any_ref = False

    rows = _csv_rows(path)
    header = [h.strip() for h in next(rows)]
    if header not in (CSV_HEADER, CSV_HEADER[:5]):
        raise ParseError(f"unexpected header {header!r}, want {','.join(CSV_HEADER)!r}", line=1)
    has_ref_col = len(header) == 6

    prev_t = None
    for line_no, row in rows:
        tv = _float_field(row[0], line_no, "t")
        if prev_t is not None and tv <= prev_t:
            raise OrderingError(f"t={tv!r} does not increase past {prev_t!r}",
                                line=line_no, column="t")
        prev_t = tv
        t.append(tv)
        gyro.append(_float_field(row[1], line_no, "gyro_dps"))
        acc_x.append(_float_field(row[2], line_no, "acc_x_mps2"))
        acc_y.append(_float_field(row[3], line_no, "acc_y_mps2"))
        enc_text = row[4].strip()
        if enc_text == "":
            enc.append(0)
            enc_missing.append(1)
        else:
            enc.append(_int_field(enc_text, line_no, "enc_count"))
            enc_missing.append(0)
        if has_ref_col:
            ref_text = row[5].strip()
            if ref_text == "":
                ref.append(0)
            else:
                ref.append(_int_field(ref_text, line_no, "ref_count"))
                any_ref = True

    n = len(t)
    return RawLog(
        np.frombuffer(t, dtype=float) if n else np.empty(0),
        np.frombuffer(gyro, dtype=float) if n else np.empty(0),
        np.frombuffer(acc_x, dtype=float) if n else np.empty(0),
        np.frombuffer(acc_y, dtype=float) if n else np.empty(0),
        np.frombuffer(enc, dtype=np.int64) if n else np.empty(0, dtype=np.int64),
        np.frombuffer(ref, dtype=np.int64) if any_ref else None,
        np.frombuffer(enc_missing, dtype=np.int8).astype(bool) if n else None,
    )


# Rows formatted per write.  Formatting a whole column at once would hold a
# string per value; a block bounds that memory to BLOCK_ROWS rows.
BLOCK_ROWS = 4096


def _block_fields(column, start, stop):
    """Fields of rows start..stop of one :func:`write_columns` column."""
    if column is None:
        return repeat("", stop - start)
    if isinstance(column, tuple):
        values, blank = column
        fields = list(map(repr, values[start:stop].tolist()))
        for i in np.flatnonzero(blank[start:stop]).tolist():
            fields[i] = ""
        return fields
    return map(repr, column[start:stop].tolist())


def write_columns(path, header, columns, line_end="\n"):
    """Write equal-length numpy columns as CSV rows ending in ``line_end``.

    A field is the ``repr`` of the column's Python value: floats re-parse
    bit-exactly, ints print as digits.  A ``None`` column is empty on every
    row, and a ``(values, blank)`` pair is empty where the boolean array
    ``blank`` is set.  The first column must be an array; it fixes the
    row count.  Rows are formatted :data:`BLOCK_ROWS` at a time.
    """
    n = len(columns[0])
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + line_end)
        for start in range(0, n, BLOCK_ROWS):
            rows = zip(*(_block_fields(c, start, min(start + BLOCK_ROWS, n)) for c in columns))
            fh.writelines([",".join(row) + line_end for row in rows])


def write_log(path, log):
    """Write a :class:`RawLog` (or iterable of RawSample) as CSV."""
    if not isinstance(log, RawLog):
        log = RawLog.from_samples(log)
    write_columns(path, CSV_HEADER,
                  (log.t, log.gyro_dps, log.acc_x_mps2, log.acc_y_mps2,
                   (log.enc_count, log.enc_missing), log.ref_count), "\r\n")


def write_truth(path, truth):
    """Write a :class:`TruthLog` as CSV."""
    write_columns(path, TruthLog.COLUMNS, [getattr(truth, c) for c in TruthLog.COLUMNS],
                  "\r\n")


def read_columns(path):
    """Read any tiltkit-written CSV back as {column: float ndarray}.

    Empty fields become NaN.  Raises :class:`ParseError` (line and column)
    for a field that is not a number or is a non-finite one.  Used by the
    ``eval`` and ``spectrum`` commands and by round-trip tests.
    """
    rows = _csv_rows(path)
    header = next(rows)
    cols = {name: array("d") for name in header}
    blanks = dict.fromkeys(header, 0)
    try:
        for _, row in rows:
            for name, text in zip(header, row):
                if text.strip() != "":
                    cols[name].append(float(text))
                else:
                    cols[name].append(nan)
                    blanks[name] += 1
    except ValueError:
        _raise_first_bad_field(path)
    out = {name: (np.frombuffer(vals, dtype=float) if len(vals) else np.empty(0))
           for name, vals in cols.items()}
    # Every non-finite value must come from an empty field.
    if any(np.count_nonzero(~np.isfinite(out[name])) != blanks[name] for name in out):
        _raise_first_bad_field(path)
    return out


def _raise_first_bad_field(path):
    """Re-read a CSV and raise ParseError for its first non-empty field
    that is not a finite number."""
    rows = _csv_rows(path)
    header = next(rows)
    for line_no, row in rows:
        for name, text in zip(header, row):
            if text.strip() != "":
                _float_field(text, line_no, name)
    raise ParseError("a field changed to a non-finite number while being read")
