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
"""

from array import array
from dataclasses import dataclass
from math import isfinite
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

    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        header = [h.strip() for h in header]
        if header not in (CSV_HEADER, CSV_HEADER[:5]):
            raise ParseError(f"unexpected header {header!r}, want {','.join(CSV_HEADER)!r}", line=1)
        has_ref_col = len(header) == 6

        prev_t = None
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line_no)
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


def write_log(path, log):
    """Write a :class:`RawLog` (or iterable of RawSample) as CSV."""
    if not isinstance(log, RawLog):
        log = RawLog.from_samples(log)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        ref = log.ref_count
        for k in range(len(log)):
            writer.writerow([
                repr(float(log.t[k])),
                repr(float(log.gyro_dps[k])),
                repr(float(log.acc_x_mps2[k])),
                repr(float(log.acc_y_mps2[k])),
                "" if log.enc_missing[k] else int(log.enc_count[k]),
                int(ref[k]) if ref is not None else "",
            ])


def write_truth(path, truth):
    """Write a :class:`TruthLog` as CSV."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TruthLog.COLUMNS)
        for k in range(len(truth)):
            writer.writerow([repr(float(getattr(truth, c)[k])) for c in TruthLog.COLUMNS])


def read_columns(path):
    """Read any tiltkit-written CSV back as {column: float ndarray}.

    Empty fields become NaN.  Used by the ``eval`` and ``spectrum`` commands
    and by round-trip tests.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        cols = {name: array("d") for name in header}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(row)}", line=line_no)
            for name, text in zip(header, row):
                cols[name].append(float(text) if text.strip() != "" else float("nan"))
    return {name: (np.frombuffer(vals, dtype=float) if len(vals) else np.empty(0))
            for name, vals in cols.items()}
