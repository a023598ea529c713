"""Independent reference implementations used as test oracles.

The two-phase functions write out each variant's predict/correct equations
directly; the textbook Kalman filter is a plain matrix-form implementation;
the unrolled fixed-gain loops keep one recurrence per variant, each with
its own term order; the generator-driven Kalman loop draws each step's
gain from ``_kalman_gains``; the looped tilt feedbacks advance the
corrector's and the simulator's tilt one sample at a time over plain
floats, where the package settles it in block sweeps; the looped truth
advances the Euler recurrences one sample at a time, where the package
takes prefix sums; the shadow simulator
writes out its own kinematics and sensor models, generates one sample at a
time and runs the streaming correction step on each; the row-wise CSV writers
format one row at a time, through ``csv.writer`` for the logs; the
row-wise CSV readers parse one field at a time with ``float``/``int``
into growable ``array.array`` columns.  All stay deliberately separate
from the package code paths they check.  ``RawSample`` and the row and
slice helpers give the tests per-sample views of a ``RawLog``, which the
package itself reads only by column.
"""

import csv
from array import array
from dataclasses import dataclass
from math import isfinite, nan
from typing import Optional

import numpy as np

from tiltkit.errors import OrderingError, ParseError
from tiltkit.logio import RawLog


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


def log_row(log, k):
    """Row ``k`` of a :class:`RawLog` as a :class:`RawSample`."""
    return RawSample(
        t=float(log.t[k]),
        gyro_dps=float(log.gyro_dps[k]),
        acc_x_mps2=float(log.acc_x_mps2[k]),
        acc_y_mps2=float(log.acc_y_mps2[k]),
        enc_count=int(log.enc_count[k]),
        ref_count=None if log.ref_count is None else int(log.ref_count[k]),
        enc_missing=bool(log.enc_missing[k]),
    )


def log_rows(log):
    """The rows of a :class:`RawLog`, one :class:`RawSample` at a time."""
    for k in range(len(log)):
        yield log_row(log, k)


def log_slice(log, *bounds):
    """Rows ``slice(*bounds)`` of a :class:`RawLog`, as a RawLog of views."""
    k = slice(*bounds)
    return RawLog(log.t[k], log.gyro_dps[k], log.acc_x_mps2[k], log.acc_y_mps2[k],
                  log.enc_count[k], None if log.ref_count is None else log.ref_count[k],
                  log.enc_missing[k])


def two_phase_wob(x, y_phi, y_rate, dt, alpha, beta):
    phi_p = x[0] + x[1] * dt
    rate_p = x[1]
    return np.array([phi_p + alpha * (y_phi - phi_p),
                     rate_p + beta * (y_rate - rate_p)])


def two_phase_wb(x, u_prev, y_phi, dt, alpha, beta):
    phi_p = x[0] + (u_prev - x[1]) * dt
    b_p = x[1]
    resid = y_phi - phi_p
    return np.array([phi_p + alpha * resid, b_p + beta * resid])


def two_phase_abtg(x, y_phi, y_rate, dt, alpha, beta, theta, gamma):
    phi_p = x[0] + x[1] * dt
    rate_p = x[1]
    r1 = y_phi - phi_p
    r2 = y_rate - rate_p
    return np.array([phi_p + alpha * r1 + theta * dt * r2,
                     rate_p + (beta / dt) * r1 + gamma * r2])


def two_phase_wa(x, y_phi, y_rate, dt, alpha, beta, theta, from_rate):
    phi_p = x[0] + x[1] * dt + 0.5 * x[2] * dt * dt
    rate_p = x[1] + x[2] * dt
    acc_p = x[2]
    r1 = y_phi - phi_p
    r2 = y_rate - rate_p
    acc = acc_p + ((theta / dt) * r2 if from_rate else (theta / (dt * dt)) * r1)
    return np.array([phi_p + alpha * r1, rate_p + beta * r2, acc])


def two_phase_complementary(x, y_phi, y_rate, dt, T_c):
    den = dt + T_c
    return np.array([T_c / den * x[0] + dt / den * y_phi + T_c * dt / den * y_rate])


def textbook_kalman(phi_bar, rate_bar, dt, q1, q2, r, P0, x0):
    """Independent matrix-form reference filter (predict, gain, correct)."""
    A = np.array([[1.0, -dt], [0.0, 1.0]])
    B = np.array([dt, 0.0])
    C = np.array([[1.0, 0.0]])
    Q = np.diag([q1 * dt, q2])
    x = np.array(x0, dtype=float)
    P = np.array(P0, dtype=float)
    out = np.empty(len(phi_bar))
    out[0] = x[0]
    for k in range(1, len(phi_bar)):
        x = A @ x + B * rate_bar[k - 1]
        P = A @ P @ A.T + Q
        S = (C @ P @ C.T)[0, 0] + r
        K = (P @ C.T)[:, 0] / S
        x = x + K * (phi_bar[k] - x[0])
        P = (np.eye(2) - np.outer(K, C[0])) @ P
        P = (P + P.T) / 2.0
        out[k] = x[0]
    return out


def unrolled_run_filter(spec, phi_bar, rate_bar):
    """Per-variant unrolled loops of the fixed-gain filters.

    The complementary, ``wb``, ``wob``/``abtg`` and ``wa_*`` recurrences each
    written out with their own term order, reading the arrays item by item.
    ``run_filter_arrays`` must give the same bytes on every nonzero
    estimate.
    """
    from tiltkit.filters import ABTG, COMPLEMENTARY, WB, WOB, _default_x0

    n = len(phi_bar)
    x0 = _default_x0(spec, float(phi_bar[0]), float(rate_bar[0]))
    out = np.empty(n)
    out[0] = x0[0]

    M = spec.A - spec.K @ spec.C @ spec.A
    if spec.variant == COMPLEMENTARY:
        a = float(M[0, 0])
        b1, b2 = float(spec.B[0, 0]), float(spec.B[0, 1])
        x = float(x0[0])
        for k in range(1, n):
            x = a * x + b1 * phi_bar[k] + b2 * rate_bar[k]
            out[k] = x
        return out

    if spec.variant == WB:
        N = spec.B - spec.K @ spec.C @ spec.B
        m11, m12 = float(M[0, 0]), float(M[0, 1])
        m21, m22 = float(M[1, 0]), float(M[1, 1])
        n1, n2 = float(N[0, 0]), float(N[1, 0])
        k1, k2 = float(spec.K[0, 0]), float(spec.K[1, 0])
        x1, x2 = float(x0[0]), float(x0[1])
        for k in range(1, n):
            u = rate_bar[k - 1]
            y = phi_bar[k]
            x1, x2 = (m11 * x1 + m12 * x2 + n1 * u + k1 * y,
                      m21 * x1 + m22 * x2 + n2 * u + k2 * y)
            out[k] = x1
        return out

    if spec.variant in (WOB, ABTG):
        m11, m12 = float(M[0, 0]), float(M[0, 1])
        m21, m22 = float(M[1, 0]), float(M[1, 1])
        k11, k12 = float(spec.K[0, 0]), float(spec.K[0, 1])
        k21, k22 = float(spec.K[1, 0]), float(spec.K[1, 1])
        x1, x2 = float(x0[0]), float(x0[1])
        for k in range(1, n):
            y1 = phi_bar[k]
            y2 = rate_bar[k]
            x1, x2 = (m11 * x1 + m12 * x2 + k11 * y1 + k12 * y2,
                      m21 * x1 + m22 * x2 + k21 * y1 + k22 * y2)
            out[k] = x1
        return out

    # wa_a / wa_b
    m = [[float(M[i, j]) for j in range(3)] for i in range(3)]
    km = [[float(spec.K[i, j]) for j in range(2)] for i in range(3)]
    x1, x2, x3 = float(x0[0]), float(x0[1]), float(x0[2])
    for k in range(1, n):
        y1 = phi_bar[k]
        y2 = rate_bar[k]
        x1, x2, x3 = (
            m[0][0] * x1 + m[0][1] * x2 + m[0][2] * x3 + km[0][0] * y1 + km[0][1] * y2,
            m[1][0] * x1 + m[1][1] * x2 + m[1][2] * x3 + km[1][0] * y1 + km[1][1] * y2,
            m[2][0] * x1 + m[2][1] * x2 + m[2][2] * x3 + km[2][0] * y1 + km[2][1] * y2,
        )
        out[k] = x1
    return out


def generator_run_kalman(spec, phi_bar, rate_bar):
    """The kalman variants' run loop with each step's gain drawn from the
    ``_kalman_gains`` generator.  ``run_filter_arrays``, which writes the
    recursion into its loop, must give the same bytes."""
    from tiltkit.filters import _default_x0, _initial_P, _kalman_gains

    phi = np.asarray(phi_bar, dtype=float)
    rate = np.asarray(rate_bar, dtype=float)
    x0 = _default_x0(spec, float(phi[0]), float(rate[0]))
    out = np.empty(len(phi))
    out[0] = x0[0]
    dt = spec.dt
    x1, x2 = float(x0[0]), float(x0[1])
    # data first, so that no gain is drawn past the last sample
    samples = zip(range(1, len(phi)), phi[1:].tolist(), rate[:-1].tolist())
    for (k, y, u), (k1, k2) in zip(samples, _kalman_gains(spec, _initial_P(spec))):
        x1p = x1 - dt * x2 + dt * u
        resid = y - x1p
        x1 = x1p + k1 * resid
        x2 = x2 + k2 * resid
        out[k] = x1
    return out


def looped_correct_columns(log, params):
    """``correct_columns`` with its tilt feedback as a sequential loop over
    plain floats, the projection and the tilt rule written inline."""
    from math import cos, degrees, pi, sin

    from tiltkit.correction import (CorrectedColumns, correct_accel, correct_gyro,
                                    motion_columns)

    rate_bar = correct_gyro(log.gyro_dps, params.gyro_bias)
    n = len(rate_bar)
    ax_bar = correct_accel(log.acc_x_mps2, params.accel_bias_x, params.scale_poly_x)
    ay_bar = correct_accel(log.acc_y_mps2, params.accel_bias_y, params.scale_poly_y)
    a_c, a_e, a_t = motion_columns(rate_bar, np.where(log.enc_missing, 0, log.enc_count),
                                   params)
    phi_bar, a_t_x, a_t_y = np.zeros((3, n))
    degenerate = np.zeros(n, dtype=bool)
    phi = 0.0  # the vertical prior
    columns = zip(*(c.tolist() for c in (ax_bar, ay_bar, a_e, a_c, a_t)))
    for k, (ax, ay, e, c, t) in enumerate(columns):
        prev = phi * pi / 180.0
        a_t_x[k] = tx = t * cos(prev)
        a_t_y[k] = ty = t * sin(prev)
        num, den = ax + e + tx, ay + c - ty
        if num == 0.0 and den == 0.0:
            degenerate[k] = True
        else:
            phi = degrees(np.arctan2(num, den))
            phi = phi + 360.0 if phi <= -180.0 else phi
        phi_bar[k] = phi
    return CorrectedColumns(phi_bar, rate_bar, a_c, a_e, a_t, a_t_x, a_t_y, degenerate)


def looped_accel_columns(phi_deg, a_c, a_e, a_t, noise_x, noise_y, accel, params):
    """The simulator's accelerometer columns ``(acc_x, acc_y)`` from the true
    tilt, the motion pre-pass terms and the accelerometer noise, with the
    shadow tilt advanced one sample at a time by ``tilt_or_previous``."""
    from math import cos, pi, radians, sin

    from tiltkit.correction import correct_accel, scale_factor, tilt_or_previous
    from tiltkit.reference import GRAVITY

    def clamp(value):
        return min(max(value, -accel.saturation), accel.saturation)

    acc_x, acc_y = np.empty((2, len(phi_deg)))
    phi_bar = 0.0  # the corrector's vertical prior
    columns = zip(*(c.tolist() for c in (phi_deg, a_c, a_e, a_t, noise_x, noise_y)))
    for k, (phi, c, e, t, nx, ny) in enumerate(columns):
        prev = phi_bar * pi / 180.0
        tx, ty = t * cos(prev), t * sin(prev)
        phi_r = radians(phi)
        ax = GRAVITY * sin(phi_r) - e - tx
        ay = GRAVITY * cos(phi_r) - c + ty
        acc_x[k] = ax = clamp(ax + scale_factor(ax, accel.scale_poly_x) + accel.bias_x + nx)
        acc_y[k] = ay = clamp(ay + scale_factor(ay, accel.scale_poly_y) + accel.bias_y + ny)
        phi_bar = float(tilt_or_previous(
            correct_accel(ax, params.accel_bias_x, params.scale_poly_x) + e + tx,
            correct_accel(ay, params.accel_bias_y, params.scale_poly_y) + c - ty, phi_bar)[0])
    return acc_x, acc_y


def looped_truth(profile, pulses_per_m):
    """The simulator's truth and encoder by the per-sample loop the prefix
    sums replaced: returns the truth columns ``(6, n)`` in TruthLog order
    after t and the encoder column.  Forward Euler advances plain floats,
    the drives are read one sample at a time and the encoder residual is
    carried.  Raises SimulationError at the first sample with a non-finite
    truth value or a residual outside the int64 range."""
    from math import floor

    from tiltkit.errors import SimulationError

    n, dt = profile.n_samples, profile.dt
    t = np.arange(n) * dt
    drives = zip(profile.phi_ddot_fn(t).tolist(), profile.a_t_fn(t).tolist())
    truth = np.empty((6, n))
    enc = np.empty(n, dtype=np.int64)
    phi, phi_dot, x, v = profile.phi0, profile.phi_dot0, 0.0, 0.0
    residual = prev_x = 0.0
    for k, (phi_ddot, a_t) in enumerate(drives):
        residual += (x - prev_x) * pulses_per_m
        state = (phi, phi_dot, phi_ddot, x, v, a_t)
        if not all(map(isfinite, state)) or not -2.0**63 <= residual < 2.0**63:
            raise SimulationError(k)
        truth[:, k] = state
        pulses = floor(residual)
        residual -= pulses
        enc[k], prev_x = pulses, x
        phi, phi_dot = phi + phi_dot * dt + 0.5 * phi_ddot * dt * dt, phi_dot + phi_ddot * dt
        x, v = x + v * dt + 0.5 * a_t * dt * dt, v + a_t * dt
    return truth, enc


def shadow_simulate_run(profile, gyro, accel, params, seed):
    """Per-sample reference simulator with a shadow correction pipeline.

    Writes out its own forward-Euler truth, gyro model (bias, noise, clamp)
    and accelerometer model (gravity projection, scale factor, bias, noise,
    clamp), and imports nothing from :mod:`tiltkit.model`.  Draws each
    sample's noise with ``rng.normal`` (gyro, x', y'), embeds the
    interference from :func:`tiltkit.correction.motion_terms` on the shadow
    state, and advances the shadow by running
    :func:`tiltkit.correction.correction_pipeline_step` on every generated
    sample.  ``simulate_run`` must return the same logs bit for bit.
    """
    from math import cos, floor, pi, radians, sin

    from tiltkit.correction import CorrectionState, correction_pipeline_step, motion_terms
    from tiltkit.errors import SimulationError
    from tiltkit.logio import TruthLog
    from tiltkit.reference import GRAVITY

    def clamp(value, saturation):
        return min(max(value, -saturation), saturation)

    def corrupt(a_true, bias, poly, noise, saturation):
        acc = 0.0
        for c in reversed(poly):
            acc = acc * a_true + c
        return clamp(a_true + acc * a_true + bias + noise, saturation)

    dt = profile.dt
    n = profile.n_samples
    rng = np.random.default_rng(seed)
    phi, phi_dot, x, v = profile.phi0, profile.phi_dot0, 0.0, 0.0
    phi_ddot, a_t = profile.phi_ddot_fn(0.0), profile.a_t_fn(0.0)
    cols = {name: np.empty(n) for name in ("t", "phi", "phi_dot", "phi_ddot", "x", "v",
                                           "a_t", "gyro", "acc_x", "acc_y")}
    enc = np.empty(n, dtype=np.int64)
    pulses_per_m = params.N_drive / (2.0 * pi * params.R_w)
    pulse_residual = 0.0
    prev_x = x
    shadow = CorrectionState()

    for k in range(n):
        if not all(map(isfinite, (phi, phi_dot, phi_ddot, x, v, a_t))):
            raise SimulationError(k)
        t = k * dt
        for name, value in (("t", t), ("phi", phi), ("phi_dot", phi_dot),
                            ("phi_ddot", phi_ddot), ("x", x), ("v", v), ("a_t", a_t)):
            cols[name][k] = value
        if k == 0:
            n_pulses = 0
        else:
            pulse_residual += (x - prev_x) * pulses_per_m
            n_pulses = floor(pulse_residual)
            pulse_residual -= n_pulses
        prev_x = x
        enc[k] = n_pulses

        gyro_meas = phi_dot + gyro.bias
        if gyro.noise_std > 0:
            gyro_meas += rng.normal(0.0, gyro.noise_std)
        gyro_meas = clamp(gyro_meas, gyro.saturation)
        if k == 0:
            a_c = a_e = a_t_x = a_t_y = 0.0
        else:
            a_c, a_e, _a_t, a_t_x, a_t_y, _rf, _vf = motion_terms(
                gyro_meas - params.gyro_bias, n_pulses, shadow, params)
        phi_r = radians(phi)
        ax_true = GRAVITY * sin(phi_r) - a_e - a_t_x
        ay_true = GRAVITY * cos(phi_r) - a_c + a_t_y
        nx = rng.normal(0.0, accel.noise_std) if accel.noise_std > 0 else 0.0
        ny = rng.normal(0.0, accel.noise_std) if accel.noise_std > 0 else 0.0
        ax_meas = corrupt(ax_true, accel.bias_x, accel.scale_poly_x, nx, accel.saturation)
        ay_meas = corrupt(ay_true, accel.bias_y, accel.scale_poly_y, ny, accel.saturation)
        cols["gyro"][k], cols["acc_x"][k], cols["acc_y"][k] = gyro_meas, ax_meas, ay_meas

        raw = RawSample(t=t, gyro_dps=gyro_meas, acc_x_mps2=ax_meas,
                        acc_y_mps2=ay_meas, enc_count=n_pulses)
        _, shadow = correction_pipeline_step(raw, params, shadow)

        # Forward Euler, then the profile drives the next accelerations.
        phi, phi_dot = phi + phi_dot * dt + 0.5 * phi_ddot * dt * dt, phi_dot + phi_ddot * dt
        x, v = x + v * dt + 0.5 * a_t * dt * dt, v + a_t * dt
        t_next = (k + 1) * dt
        phi_ddot, a_t = profile.phi_ddot_fn(t_next), profile.a_t_fn(t_next)

    truth = TruthLog(cols["t"], cols["phi"], cols["phi_dot"], cols["phi_ddot"],
                     cols["x"], cols["v"], cols["a_t"])
    log = RawLog(cols["t"], cols["gyro"], cols["acc_x"], cols["acc_y"], enc)
    return truth, log


def rowwise_write_log(path, log):
    """Row-at-a-time writer of a RawLog; no ref_count column when it has none."""
    from tiltkit.logio import CSV_HEADER

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        ref = log.ref_count
        writer.writerow(CSV_HEADER if ref is not None else CSV_HEADER[:5])
        for k in range(len(log)):
            writer.writerow([
                repr(float(log.t[k])),
                repr(float(log.gyro_dps[k])),
                repr(float(log.acc_x_mps2[k])),
                repr(float(log.acc_y_mps2[k])),
                "" if log.enc_missing[k] else int(log.enc_count[k]),
            ] + ([int(ref[k])] if ref is not None else []))


def rowwise_write_truth(path, truth):
    """Row-at-a-time writer of a TruthLog."""
    from tiltkit.logio import TruthLog

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TruthLog.COLUMNS)
        for k in range(len(truth)):
            writer.writerow([repr(float(getattr(truth, c)[k])) for c in TruthLog.COLUMNS])


def rowwise_trajectories_csv(path, columns):
    """``Report.write``'s trajectories.csv of 4 or 5 columns, one
    ``csv.writer`` row per sample; no file when there are no rows."""
    header = ["t", "phi_true_deg", "phi_bar_deg", "phi_hat_deg", "arctan_raw_deg"]
    if not len(columns[0]):
        return
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header[:len(columns)])
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def rowwise_estimate_csv(path, t, phi_hat, corrected, debug_intermediates=False):
    """``tiltkit run``'s estimate.csv, one CorrectedSample per row."""
    header = ["t", "phi_hat_deg"]
    if debug_intermediates:
        header += ["phi_bar_deg", "rate_bar_dps", "a_c", "a_e", "a_t", "a_t_x", "a_t_y"]
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for k, c in enumerate(corrected):
            row = [repr(float(t[k])), repr(float(phi_hat[k]))]
            if debug_intermediates:
                row += [repr(c.phi_bar), repr(c.rate_bar), repr(c.a_c), repr(c.a_e), repr(c.a_t),
                        repr(c.a_t_x), repr(c.a_t_y)]
            fh.write(",".join(row) + "\n")


def rowwise_spectrum_csv(path, frequencies, magnitudes):
    """``tiltkit spectrum``'s spectrum.csv, one bin per row."""
    with open(path, "w") as fh:
        fh.write("frequency_hz,magnitude\n")
        for f, m in zip(frequencies, magnitudes):
            fh.write(f"{float(f)!r},{float(m)!r}\n")


def _rowwise_int_field(text, line_no, column):
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"expected an integer, got {text!r}", line=line_no, column=column) from None


def _rowwise_float_field(text, line_no, column):
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"expected a number, got {text!r}", line=line_no, column=column) from None
    if not isfinite(value):
        raise ParseError(f"expected a finite number, got {text!r}", line=line_no, column=column)
    return value


def _rowwise_csv_rows(path):
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


def rowwise_parse_log(path):
    """``parse_log`` streaming each field through ``float``/``int`` into
    ``array.array`` columns, one row at a time."""
    from tiltkit.logio import CSV_HEADER, RawLog

    t = array("d")
    gyro = array("d")
    acc_x = array("d")
    acc_y = array("d")
    enc = array("q")
    ref = array("q")
    enc_missing = array("b")
    any_ref = False

    rows = _rowwise_csv_rows(path)
    header = [h.strip() for h in next(rows)]
    if header not in (CSV_HEADER, CSV_HEADER[:5]):
        raise ParseError(f"unexpected header {header!r}, want {','.join(CSV_HEADER)!r}", line=1)
    has_ref_col = len(header) == 6

    prev_t = None
    for line_no, row in rows:
        tv = _rowwise_float_field(row[0], line_no, "t")
        if prev_t is not None and tv <= prev_t:
            raise OrderingError(f"t={tv!r} does not increase past {prev_t!r}",
                                line=line_no, column="t")
        prev_t = tv
        t.append(tv)
        gyro.append(_rowwise_float_field(row[1], line_no, "gyro_dps"))
        acc_x.append(_rowwise_float_field(row[2], line_no, "acc_x_mps2"))
        acc_y.append(_rowwise_float_field(row[3], line_no, "acc_y_mps2"))
        enc_text = row[4].strip()
        if enc_text == "":
            enc.append(0)
            enc_missing.append(1)
        else:
            enc.append(_rowwise_int_field(enc_text, line_no, "enc_count"))
            enc_missing.append(0)
        if has_ref_col:
            ref_text = row[5].strip()
            if ref_text == "":
                ref.append(0)
            else:
                ref.append(_rowwise_int_field(ref_text, line_no, "ref_count"))
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


def rowwise_read_columns(path):
    """``read_columns`` appending each field's ``float`` to an
    ``array.array`` column, one row at a time."""
    rows = _rowwise_csv_rows(path)
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
        _rowwise_raise_first_bad_field(path)
    out = {name: (np.frombuffer(vals, dtype=float) if len(vals) else np.empty(0))
           for name, vals in cols.items()}
    if any(np.count_nonzero(~np.isfinite(out[name])) != blanks[name] for name in out):
        _rowwise_raise_first_bad_field(path)
    return out


def _rowwise_raise_first_bad_field(path):
    rows = _rowwise_csv_rows(path)
    header = next(rows)
    for line_no, row in rows:
        for name, text in zip(header, row):
            if text.strip() != "":
                _rowwise_float_field(text, line_no, name)
    raise ParseError("a field changed to a non-finite number while being read")
