"""Deterministic measurement correction.

Removes the gyro bias, the accelerometer biases and scale-factor
distortion, compensates the motion-induced accelerations sensed by an IMU
mounted off the wheel axis (centrifugal, angular-acceleration and
translational terms, the latter reconstructed from the drive encoder), and
produces the corrected tilt ``phi_bar`` and corrected rate ``rate_bar``.
Every sample, the first included, gets the same tilt rule
(:func:`tilt_or_previous`): the quadrant-aware arctangent of the
compensated components, in (-180, 180], or the previous tilt, flagged
degenerate, where both arguments are zero.  Before sample 0 the previous
tilt is the vertical prior, 0 degrees.

Angle convention: degrees end to end.  Radians appear only inside the
motion terms, converted with pi/180.

Each formula has one helper, on floats or float64 columns alike.
:func:`correct_columns` is the whole-log kernel; its two sequential parts
make no Python call per sample.  The low-pass recurrences, the one
measured exception, are plain-float loops that repeat :func:`lowpass_step`
inline.  The tilt feedback, phi_k = F_k(phi_{k-1}) through the
translational projection on the previous corrected tilt, is settled by
:func:`settle_tilt` in whole-block numpy passes of the tilt rule (waveform
relaxation); a pass that changes no bit is the sequential loop's answer.
The simulator shares the motion pre-pass, :func:`motion_columns`, and the
sweep.  :func:`correction_pipeline_step` is the one-sample streaming
reference, the helpers on floats; the kernel returns its values bit for bit.

The per-sample state machine is strictly causal and single-owner: one
:class:`CorrectionState` belongs to one stream.  Separate streams can be
processed concurrently with independent states.
"""

from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import count
from math import isfinite, pi

import numpy as np

from .errors import ParameterError
from .reference import SENSOR_DISTANCE_M, WHEEL_RADIUS_M, lowpass_tuning


@dataclass(frozen=True)
class CorrectionParams:
    """Everything the correction chain needs to know about the rig.

    ``N_drive`` (drive-encoder pulses per revolution) has no default on
    purpose: it is rig-specific and silently guessing it would corrupt the
    translational-acceleration compensation.
    """

    dt: float                      # sample period, seconds
    N_drive: int                   # drive-encoder pulses per revolution
    gyro_bias: float = 0.0         # deg/s
    accel_bias_x: float = 0.0      # m/s^2
    accel_bias_y: float = 0.0      # m/s^2
    scale_poly_x: tuple = (0.0,) * 5   # coefficients for p^1..p^5, zero intercept
    scale_poly_y: tuple = (0.0,) * 5
    R: float = SENSOR_DISTANCE_M   # sensor distance from the rotation axis, m
    R_w: float = WHEEL_RADIUS_M    # wheel radius, m
    # Low-pass time constants, s, for rate and velocity: the rig's 10 ms tuning.
    T_omega: float = lowpass_tuning(10.0).T_omega
    T_v: float = lowpass_tuning(10.0).T_v

    def __post_init__(self):
        # gyro_bias is left out: it is subtracted from every rate sample, so
        # a non-finite one makes the whole rate_bar column non-finite, which
        # the filters refuse with the sample index.
        for name, value in vars(self).items():
            values = value if isinstance(value, (tuple, list)) else (value,)
            if name != "gyro_bias" and not all(map(isfinite, values)):
                raise ParameterError(f"{name} must be finite, got {value!r}")
        if not self.dt > 0:
            raise ParameterError(f"dt must be positive, got {self.dt}")
        if self.N_drive < 1:
            raise ParameterError(f"N_drive must be >= 1, got {self.N_drive}")
        if not self.R > 0 or not self.R_w > 0:
            raise ParameterError("R and R_w must be positive")
        # Negative time constants occur in tuned results; they are allowed
        # as long as the low-pass recurrence stays contractive.
        check_lowpass_bound(self.T_omega, self.dt, "T_omega")
        check_lowpass_bound(self.T_v, self.dt, "T_v")
        if len(self.scale_poly_x) != 5 or len(self.scale_poly_y) != 5:
            raise ParameterError("scale polynomials take exactly 5 coefficients (degrees 1..5)")


@dataclass(frozen=True)
class CorrectionState:
    """Carry-over values between consecutive pipeline steps."""

    prev_phi_bar: float = 0.0        # degrees; before sample 0, the vertical prior
    prev_rate_filtered: float = 0.0  # rad/s
    prev_v_filtered: float = 0.0     # m/s
    initialized: bool = False


@dataclass(frozen=True)
class CorrectedSample:
    """Output of one pipeline step, intermediates exposed for testing."""

    phi_bar: float        # corrected tilt, degrees, in (-180, 180]
    rate_bar: float       # corrected rate, deg/s
    a_c: float = 0.0      # centrifugal acceleration, m/s^2
    a_e: float = 0.0      # angular-acceleration term, m/s^2
    a_t: float = 0.0      # translational acceleration, m/s^2
    a_t_x: float = 0.0    # its projection on the x' axis, m/s^2
    a_t_y: float = 0.0    # its projection on the y' axis, m/s^2
    degenerate: bool = False     # arctangent was undefined, previous tilt reused
    enc_missing: bool = False    # encoder count was absent, zero assumed


# What correct_columns returns: one ndarray per CorrectedSample field but enc_missing.
CorrectedColumns = namedtuple("CorrectedColumns", [f.name for f in fields(CorrectedSample)][:-1])


def correct_gyro(rate_meas, gyro_bias):
    """Remove the constant gyro bias: measured rate minus bias, deg/s."""
    return rate_meas - gyro_bias


def scale_factor(p, poly):
    """Evaluate the zero-intercept error polynomial sum(c_i * p**i, i=1..5)."""
    # Horner on p * (c1 + p*(c2 + ...)) keeps the zero intercept structural.
    acc = 0.0
    for c in reversed(poly):
        acc = acc * p + c
    return acc * p


def correct_accel(a_meas, bias, poly):
    """Remove bias and scale-factor distortion from one accelerometer axis.

    The polynomial argument is the bias-corrected measurement, matching the
    convention under which the polynomials are calibrated.
    """
    p = a_meas - bias
    return p - scale_factor(p, poly)


def check_lowpass_bound(T, dt, name="T", error=ParameterError):
    """Raise ``error``, naming the time constant ``name``, unless dt + 2*T > 0.

    Negative T is accepted while T > -dt/2: the feedback gain T/(dt+T)
    then lies in (-1, 0] and the recurrence is a contraction.  At or below
    that bound the gain is <= -1 and the output oscillates without decaying.
    """
    if not dt + 2.0 * T > 0:
        raise error(f"dt + 2*{name} must be positive (a low-pass needs dt + 2*T > 0), "
                    f"got dt={dt}, {name}={T}")


def lowpass_step(x, y_prev, T, dt):
    """One step of the first-order discrete low-pass (x*dt + y_prev*T)/(dt + T).

    T = 0 passes the input through; :func:`check_lowpass_bound` holds the
    bound on negative T.
    """
    check_lowpass_bound(T, dt)
    return (x * dt + y_prev * T) / (dt + T)


def discrete_derivative(y, y_prev, dt):
    """Backward-difference derivative (y - y_prev)/dt."""
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    return (y - y_prev) / dt


def encoder_velocity(n, N, R_w, dt):
    """Translational velocity from n pulses in one period: 2*pi*R_w*n/(N*dt)."""
    if N < 1:
        raise ParameterError(f"N must be >= 1, got {N}")
    if not dt > 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    return 2.0 * pi * R_w * n / (N * dt)


def _to_rad(deg):
    return deg * pi / 180.0  # not math.radians, which rounds differently


def angular_terms(rate_r, rate_f, prev_rate_f, params):
    """Centrifugal term of the rate ``rate_r`` (rad/s) and angular-acceleration
    term from its low-pass output ``rate_f`` after ``prev_rate_f``: ``(a_c, a_e)``."""
    return rate_r * rate_r * params.R, discrete_derivative(rate_f, prev_rate_f, params.dt) * params.R


def project_translational(a_t, prev_phi_bar):
    """Projections ``(a_t_x, a_t_y)`` of a_t on the previous corrected tilt
    (degrees), for floats or float64 columns alike."""
    prev_rad = _to_rad(prev_phi_bar)
    return a_t * np.cos(prev_rad), a_t * np.sin(prev_rad)


def tilt_or_previous(num, den, prev_phi_bar):
    """The tilt rule on floats or float64 columns: ``(phi_bar, degenerate)``.

    ``num`` and ``den`` are ax_bar + a_e + a_t_x and ay_bar + a_c - a_t_y.
    The tilt is numpy's quadrant-aware arctangent in degrees, in
    (-180, 180].  Where both are zero it is undefined, and the row takes
    ``prev_phi_bar``, flagged degenerate, so that the stream keeps its
    length.  Floats give 0-d arrays, which callers convert.
    """
    degenerate = (num == 0.0) & (den == 0.0)
    phi = np.degrees(np.arctan2(num, den))
    # A where, not +=, so that -0.0 keeps its sign.
    phi = np.where(phi <= -180.0, phi + 360.0, phi)
    return np.where(degenerate, prev_phi_bar, phi), degenerate


def motion_terms(rate_bar, enc_count, state, params):
    """All motion-interference terms for one initialised step.

    Returns ``(a_c, a_e, a_t, a_t_x, a_t_y, rate_filtered, v_filtered)``.
    """
    v_t = encoder_velocity(enc_count, params.N_drive, params.R_w, params.dt)
    v_f = lowpass_step(v_t, state.prev_v_filtered, params.T_v, params.dt)
    a_t = discrete_derivative(v_f, state.prev_v_filtered, params.dt)
    a_t_x, a_t_y = map(float, project_translational(a_t, state.prev_phi_bar))
    rate_r = _to_rad(rate_bar)
    rate_f = lowpass_step(rate_r, state.prev_rate_filtered, params.T_omega, params.dt)
    a_c, a_e = angular_terms(rate_r, rate_f, state.prev_rate_filtered, params)
    return a_c, a_e, a_t, a_t_x, a_t_y, rate_f, v_f


def correction_pipeline_step(raw, params, state):
    """Run one raw sample through the full correction chain.

    ``raw`` is any object with the attributes ``gyro_dps``, ``acc_x_mps2``,
    ``acc_y_mps2``, ``enc_count`` and ``enc_missing``.  Returns
    ``(CorrectedSample, CorrectionState)``.  Every sample takes its tilt
    from :func:`tilt_or_previous`, the first on the state's vertical prior.
    The first sample holds zero motion terms and seeds the rate low-pass
    from the first corrected rate, the velocity low-pass from zero.
    Like :func:`correct_columns`, it raises ParameterError, without numpy's
    warnings, where a motion term overflows and ``rate_bar`` is finite.
    """
    rate_bar = correct_gyro(raw.gyro_dps, params.gyro_bias)
    ax_bar = correct_accel(raw.acc_x_mps2, params.accel_bias_x, params.scale_poly_x)
    ay_bar = correct_accel(raw.acc_y_mps2, params.accel_bias_y, params.scale_poly_y)
    if state.initialized:
        n = 0 if raw.enc_missing else raw.enc_count
        with np.errstate(all="ignore"):
            a_c, a_e, a_t, a_t_x, a_t_y, rate_f, v_f = motion_terms(rate_bar, n, state, params)
        terms = {"a_c": a_c, "a_e": a_e, "a_t": a_t}
        bad = [name for name, term in terms.items() if not isfinite(term)]
        if bad and isfinite(rate_bar):
            raise ParameterError(f"{bad[0]} is {terms[bad[0]]!r} where rate_bar is finite: "
                                 "the motion term overflowed")
    else:
        a_c, a_e, a_t, a_t_x, a_t_y, rate_f, v_f = 0.0, 0.0, 0.0, 0.0, 0.0, _to_rad(rate_bar), 0.0
    phi, flat = tilt_or_previous(ax_bar + a_e + a_t_x, ay_bar + a_c - a_t_y, state.prev_phi_bar)
    phi_bar, degenerate = float(phi), bool(flat)

    out = CorrectedSample(phi_bar=phi_bar, rate_bar=rate_bar, a_c=a_c, a_e=a_e,
                          a_t=a_t, a_t_x=a_t_x, a_t_y=a_t_y,
                          degenerate=degenerate, enc_missing=raw.enc_missing)
    return out, CorrectionState(prev_phi_bar=phi_bar, prev_rate_filtered=rate_f,
                                prev_v_filtered=v_f, initialized=True)


def _lowpass_column(x, y0, T, dt):
    """:func:`lowpass_step` along float64 column ``x``, ``y0`` at sample 0; checks dt + 2*T once."""
    check_lowpass_bound(T, dt)
    d = dt + T
    out = np.empty(len(x))
    y = out[0] = y0
    ys = memoryview(out)
    for k, xk in zip(count(1), memoryview(x)[1:]):
        y = ys[k] = (xk * dt + y * T) / d
    return out


def motion_columns(rate_bar, pulses, params):
    """The kernel's motion pre-pass: ``(a_c, a_e, a_t)`` float64 columns.

    Takes the corrected rate (deg/s, at least one sample) and the encoder
    counts with missing samples zeroed.  Sample 0 initialises the low-passes
    (rate from the first rate, velocity from zero) and holds zeros.
    """
    dt = params.dt
    a_c, a_e, a_t = np.zeros((3, len(rate_bar)))
    rate_r = _to_rad(rate_bar)
    rate_f = _lowpass_column(rate_r, float(rate_r[0]), params.T_omega, dt)
    a_c[1:], a_e[1:] = angular_terms(rate_r[1:], rate_f[1:], rate_f[:-1], params)
    del rate_r, rate_f  # keeps the peak memory of long logs down
    v_f = _lowpass_column(encoder_velocity(pulses, params.N_drive, params.R_w, dt), 0.0,
                          params.T_v, dt)
    a_t[1:] = discrete_derivative(v_f[1:], v_f[:-1], dt)
    return a_c, a_e, a_t


# Rows per sweep block, and passes per block before the rest of the block
# is finished one row at a time.  Blocks keep the passes' temporaries small.
SWEEP_ROWS = 4096
SWEEP_PASSES = 32


def settle_tilt(step, n):
    """The tilt feedback phi_k = F_k(phi_{k-1}) over n rows, in numpy passes.

    ``step(prev, start, stop)`` returns the arguments ``num``, ``den`` of
    :func:`tilt_or_previous` and two more columns for rows start..stop,
    given their previous tilts ``prev``.
    Returns ``(phi, degenerate, extra)``, ``extra`` of shape (2, n).
    Each block of SWEEP_ROWS rows starts from the last settled tilt (the
    vertical prior before row 0) and repeats phi <- F(shift(phi)).  A pass
    that leaves its first m rows unchanged has its first m + 1 rows exact,
    so one that changes no bit is the sequential loop's answer.  After
    SWEEP_PASSES passes the block is finished row by row with ``step``.
    """
    phi, extra = np.empty(n), np.empty((2, n))
    degenerate = np.empty(n, dtype=bool)
    last = CorrectionState.prev_phi_bar
    for start in range(0, n, SWEEP_ROWS):
        stop = min(start + SWEEP_ROWS, n)
        cur, prev = np.full(stop - start, last), np.empty(stop - start)
        for _ in range(SWEEP_PASSES):
            prev[0], prev[1:] = last, cur[:-1]
            num, den, *cols = step(prev, start, stop)
            new, flat = tilt_or_previous(num, den, prev)
            changed = np.flatnonzero(new.view(np.int64) != cur.view(np.int64))
            cur = new
            if not changed.size:
                break
        phi[start:stop], degenerate[start:stop], extra[:, start:stop] = cur, flat, cols
        # At the pass cap, rows up to the first one the last pass changed
        # are exact.
        for k in range(start + changed[0] + 1 if changed.size else stop, stop):
            num, den, *cols = step(phi[k - 1:k], k, k + 1)
            phi[k:k + 1], degenerate[k:k + 1] = tilt_or_previous(num, den, phi[k - 1:k])
            extra[:, k:k + 1] = cols
        last = phi[stop - 1]
    return phi, degenerate, extra


def correct_columns(log, params):
    """Whole-log correction kernel; returns ``CorrectedColumns``.  ``log``
    needs array attributes like :class:`tiltkit.logio.RawLog`.  The tilt
    feedback is :func:`settle_tilt` over the column forms of
    :func:`project_translational` and :func:`tilt_or_previous`.  A motion
    term that overflows where ``rate_bar`` is finite, which the arctangent
    would absorb, raises ParameterError at its first sample, without numpy's
    warnings; a non-finite ``rate_bar`` is left to the filters to refuse."""
    rate_bar = correct_gyro(log.gyro_dps, params.gyro_bias)
    n = len(rate_bar)
    if n == 0:
        return CorrectedColumns(*np.empty((7, 0)), np.empty(0, dtype=bool))
    with np.errstate(all="ignore"):
        a_c, a_e, a_t = motion_columns(rate_bar, np.where(log.enc_missing, 0, log.enc_count),
                                       params)
    terms = {"a_c": a_c, "a_e": a_e, "a_t": a_t}
    bad = [(int(rows[0]), name) for name, term in terms.items() if not np.isfinite(term).all()
           and (rows := np.flatnonzero(np.isfinite(rate_bar) & ~np.isfinite(term))).size]
    if bad:
        k, name = min(bad)
        raise ParameterError(f"{name}[{k}] is {float(terms[name][k])!r} where rate_bar[{k}] "
                             f"is finite: the motion term overflowed")
    num0 = correct_accel(log.acc_x_mps2, params.accel_bias_x, params.scale_poly_x) + a_e
    den0 = correct_accel(log.acc_y_mps2, params.accel_bias_y, params.scale_poly_y) + a_c

    def step(prev, start, stop):
        tx, ty = project_translational(a_t[start:stop], prev)
        return num0[start:stop] + tx, den0[start:stop] - ty, tx, ty

    phi_bar, degenerate, (a_t_x, a_t_y) = settle_tilt(step, n)
    return CorrectedColumns(phi_bar, rate_bar, a_c, a_e, a_t, a_t_x, a_t_y, degenerate)


def run_correction(log, params):
    """Correct a whole log, returning a list of :class:`CorrectedSample`."""
    columns = [c.tolist() for c in correct_columns(log, params)]
    return [CorrectedSample(*row) for row in zip(*columns, log.enc_missing.tolist())]


def run_correction_arrays(log, params):
    """Whole-log correction; returns the ``(phi_bar, rate_bar)`` columns of
    :func:`correct_columns`, the values of :func:`run_correction`."""
    return correct_columns(log, params)[:2]
