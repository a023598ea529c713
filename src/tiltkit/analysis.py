"""Evaluation metrics and signal diagnostics.

All operations are pure and safe for concurrent use.

Spectrum normalisation (documented so area figures are comparable across
runs): signals are zero-padded to the next power of two, no window is
applied, and the one-sided magnitude uses 2/N amplitude scaling with the
DC and Nyquist bins unscaled by the 2.  Under this convention
:func:`spectrum_energy` reproduces the signal energy exactly (Parseval).
"""

from dataclasses import dataclass, field
from math import isfinite, log10

import csv
import io
import os

import numpy as np

from .errors import ParameterError
from .filters import PARAMS
from .logio import write_columns


def mse(ref, est):
    """Mean squared error between a reference and an estimate sequence."""
    ref = np.asarray(ref, dtype=float)
    est = np.asarray(est, dtype=float)
    if ref.shape != est.shape or ref.ndim != 1:
        raise ParameterError(f"sequences must be 1-D and equal length, "
                             f"got {ref.shape} and {est.shape}")
    if ref.size == 0:
        raise ParameterError("sequences must be nonempty")
    resid = ref - est
    return float(resid @ resid) / ref.size


@dataclass(frozen=True)
class Spectrum:
    """One-sided magnitude spectrum of a real signal."""

    frequencies: np.ndarray  # Hz, 0 .. 1/(2*dt)
    magnitudes: np.ndarray   # amplitude units of the input signal

    @property
    def n_fft(self):
        return 2 * (len(self.frequencies) - 1)


def noise_spectrum(signal, dt):
    """One-sided FFT magnitude spectrum (``np.fft.rfft``) of a real
    signal, zero-padded to a power of two."""
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1 or signal.size < 2:
        raise ParameterError("signal must be 1-D with at least two samples")
    if not dt > 0:
        raise ParameterError("dt must be positive")
    n = signal.size
    n_fft = 1 << (n - 1).bit_length()
    mags = np.abs(np.fft.rfft(signal, n_fft))  # zero-pads to n_fft
    half = n_fft // 2
    mags[1:half] *= 2.0
    mags /= n_fft
    freqs = np.fft.rfftfreq(n_fft, dt)
    return Spectrum(frequencies=freqs, magnitudes=mags)


def spectrum_energy(sp):
    """Signal energy implied by the spectrum (Parseval identity).

    Equals ``sum(signal**2)`` of the padded input under the documented
    normalisation.
    """
    m = sp.magnitudes
    n_fft = sp.n_fft
    mid = m[1:-1]
    return float(n_fft * (m[0] ** 2 + m[-1] ** 2 + 0.5 * float(mid @ mid)))


def spectrum_area(sp):
    """Trapezoidal integral of magnitude over frequency."""
    return float(np.trapezoid(sp.magnitudes, sp.frequencies))


def snr_db(signal, noise):
    """10*log10 of the signal-to-noise energy ratio.

    Zero noise energy returns the +inf sentinel (and -inf for a zero
    signal over nonzero noise is the natural limit).
    """
    signal = np.asarray(signal, dtype=float)
    noise = np.asarray(noise, dtype=float)
    if signal.shape != noise.shape:
        raise ParameterError("signal and noise must have equal length")
    e_s = float(signal @ signal)
    e_n = float(noise @ noise)
    if e_n == 0.0:
        return float("inf")
    if e_s == 0.0:
        return float("-inf")
    return 10.0 * log10(e_s / e_n)


# every variant's parameters, in order of first appearance in PARAMS
_REPORT_PARAMS = tuple(dict.fromkeys(name for names in PARAMS.values() for name in names))
_TRAJECTORY_COLUMNS = ("t", "phi_true_deg", "phi_bar_deg", "phi_hat_deg", "arctan_raw_deg")


@dataclass
class Report:
    """Tuning report: text table plus machine-readable rows.

    ``rows`` are plain dicts (one per tuning result); ``trajectories``
    optionally maps column names to plot-ready float columns (t, truth,
    corrected, estimate and the raw arctangent tilt).
    """

    text: str
    rows: list
    trajectories: dict = field(default_factory=dict)

    def results_csv(self):
        """Render the result rows as CSV text under the first row's keys
        (repr floats, round-trip exact); empty for no rows."""
        if not self.rows:
            return ""
        fields = list(self.rows[0].keys())
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(fields)
        for row in self.rows:
            writer.writerow([_cell(row.get(f)) for f in fields])
        return buf.getvalue()

    def write(self, outdir):
        """Write report.txt, results.csv and, when it has rows,
        trajectories.csv (CRLF rows, as the ``csv`` module ends them).
        Trajectories that :func:`write_columns` refuses leave no file."""
        os.makedirs(outdir, exist_ok=True)
        if len(next(iter(self.trajectories.values()), ())):
            write_columns(os.path.join(outdir, "trajectories.csv"), list(self.trajectories),
                          list(self.trajectories.values()), "\r\n")
        with open(os.path.join(outdir, "report.txt"), "w") as fh:
            fh.write(self.text)
        with open(os.path.join(outdir, "results.csv"), "w", newline="") as fh:
            fh.write(self.results_csv())


def _cell(value):
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return value


def _fmt(value, spec):
    if value is None:
        return ""
    if isinstance(value, float):
        if isfinite(value):
            return format(value, spec)
        return "nan"
    return str(value)


def make_report(results, logs_metadata=None, trajectories=None):
    """Assemble per-filter, per-sample-time tables from tuning results.

    ``results`` is an iterable of :class:`tiltkit.tuning.TuningResult`;
    ``trajectories`` is an optional (t, phi_true, phi_bar, phi_hat) tuple of
    equal-length columns for plot-ready CSV output, with an optional fifth
    column carrying the uncompensated arctangent tilt; the report keeps
    float copies of them.  Output is deterministic for identical inputs.
    """
    results = list(results)
    if not results:
        raise ParameterError("no tuning results to report")

    rows = []
    for res in results:
        row = {"variant": res.variant, "dt_ms": res.dt * 1000.0}
        for name in _REPORT_PARAMS:
            row[name] = (float(res.parameters[name])
                         if name in res.parameters else None)
        row["mse_training"] = float(res.training_mse)
        row["mse_verification"] = float(res.verification_mse)
        report = res.stability_report
        row["stability"] = report.classification if report is not None else ""
        row["max_eig_magnitude"] = (float(report.max_magnitude)
                                    if report is not None else None)
        row["iterations"] = res.iterations
        row["converged"] = res.converged
        rows.append(row)

    headers = list(rows[0].keys())
    # parameters to five significant digits, so a tiny q1 does not print as 0
    cells = [{h: _fmt(row[h], ".5g" if h in _REPORT_PARAMS else ".5f") for h in headers}
             for row in rows]
    widths = {h: max(len(h), *(len(c[h]) for c in cells)) for h in headers}
    lines = []
    if logs_metadata:
        lines.append(str(logs_metadata))
        lines.append("")
    lines.append("  ".join(h.ljust(widths[h]) for h in headers))
    lines.append("  ".join("-" * widths[h] for h in headers))
    for c in cells:
        lines.append("  ".join(c[h].ljust(widths[h]) for h in headers))
    text = "\n".join(lines) + "\n"

    columns = {}
    if trajectories is not None:
        if len(trajectories) not in (4, 5) or len({len(c) for c in trajectories}) > 1:
            raise ParameterError("trajectories must be 4 or 5 equal-length columns")
        columns = {name: np.array(c, dtype=float)
                   for name, c in zip(_TRAJECTORY_COLUMNS, trajectories)}
    return Report(text=text, rows=rows, trajectories=columns)
