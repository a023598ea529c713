"""Discrete robot kinematics and synthetic sensor generation.

The simulator replaces recorded rig trajectories: it advances the
ground-truth state with the forward-Euler kinematics, as prefix sums over
the drives' columns in the per-sample loop's order of additions, then
corrupts ideal sensor readings with the configured deterministic and
stochastic interference (bias, scale-factor polynomial, white noise,
saturation, encoder quantisation).

Invertibility contract: the accelerometer channels embed exactly the
motion-induced interference that the correction chain will reconstruct.
The shadow chain is the correction kernel's own motion pre-pass
(:func:`tiltkit.correction.motion_columns`) on the generated gyro and
encoder columns, plus a shadow tilt settled by the kernel's own tilt sweep
(:func:`tiltkit.correction.settle_tilt`) from the chain's vertical prior,
sample 0 included: each pass synthesises the accelerometer columns from
the projection on the previous shadow tilts and applies the corrector's
tilt rule (:func:`tiltkit.correction.tilt_or_previous`) to them.
Correcting a noise-free log with matching parameters therefore recovers
the true tilt at every sample to floating-point precision when the scale
polynomials are zero, and up to the small scale-factor inversion residual
otherwise.  The contract assumes no sample hits the clamp.  A run whose
sensor columns are not finite is refused (:class:`SimulationError`).

Randomness comes from ``numpy.random.Generator`` (PCG64 via
``default_rng(seed)``).  Noise is drawn in one ``standard_normal((n, k))``
call, one row per sample in the order gyro, accel x', accel y', where a
channel with zero noise draws nothing; this is the stream of per-sample
``normal(0, std)`` draws in that order.  Identical
(profile, models, seed) inputs reproduce logs bit for bit.  Everything
here is a pure function over value types; one run is single-threaded, and
independent runs (distinct seeds) can execute concurrently.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import floor, inf, isfinite, pi
from typing import Callable

import numpy as np

from .correction import (correct_accel, correct_gyro, motion_columns, project_translational,
                         scale_factor, settle_tilt)
# Unused here; kept importable because per-module tracers patch them on model.
from .correction import correction_pipeline_step, motion_terms  # noqa: F401
from .errors import ParameterError, SimulationError
from .logio import RawLog, TruthLog
from .reference import ACCEL_SATURATION_MPS2, GRAVITY, GYRO_SATURATION_DPS

# The most samples one run may take, refused before anything is allocated.
MAX_SAMPLES = 10**8


@dataclass(frozen=True)
class GyroErrorModel:
    """Additive bias + zero-mean white noise + symmetric full-scale clamp."""

    bias: float = 0.0                        # deg/s
    noise_std: float = 0.0                   # deg/s
    saturation: float = GYRO_SATURATION_DPS  # deg/s

    def __post_init__(self):
        if not isfinite(self.bias):
            raise ParameterError(f"bias must be finite, got {self.bias!r}")
        if not 0 <= self.noise_std < inf:
            raise ParameterError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if not self.saturation > 0:
            raise ParameterError("saturation must be positive")


@dataclass(frozen=True)
class AccelErrorModel:
    """Per-axis bias and degree-5 scale-factor polynomial, shared noise/clamp.

    The polynomials have a structurally absent intercept: coefficient i
    multiplies the (i+1)-th power of the true acceleration.
    """

    bias_x: float = 0.0
    bias_y: float = 0.0
    scale_poly_x: tuple = (0.0,) * 5
    scale_poly_y: tuple = (0.0,) * 5
    noise_std: float = 0.0                     # m/s^2
    saturation: float = ACCEL_SATURATION_MPS2  # m/s^2

    def __post_init__(self):
        values = (self.bias_x, self.bias_y, *self.scale_poly_x, *self.scale_poly_y)
        if not all(map(isfinite, values)):
            raise ParameterError(f"biases and scale coefficients must be finite, got {values}")
        if not 0 <= self.noise_std < inf:
            raise ParameterError(f"noise_std must be finite and >= 0, got {self.noise_std!r}")
        if not self.saturation > 0:
            raise ParameterError("saturation must be positive")
        if len(self.scale_poly_x) != 5 or len(self.scale_poly_y) != 5:
            raise ParameterError("scale polynomials take exactly 5 coefficients")


@dataclass(frozen=True)
class MotionProfile:
    """Closed-form drive signals for a simulation run.

    ``phi_ddot_fn(t)`` returns the angular acceleration in deg/s^2 and
    ``a_t_fn(t)`` the translational acceleration in m/s^2 at the times
    ``t`` in seconds, a float64 column, as a column of the same length.
    """

    duration: float
    dt: float
    phi_ddot_fn: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    a_t_fn: Callable[[np.ndarray], np.ndarray] = np.zeros_like
    phi0: float = 0.0
    phi_dot0: float = 0.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ParameterError("dt must be positive")
        if not (isfinite(self.duration) and self.duration >= self.dt):
            raise ParameterError(f"duration must be finite and at least one sample period, "
                                 f"got {self.duration}")

    @property
    def n_samples(self):
        return int(floor(self.duration / self.dt))


def zero_motion_profile(duration, dt):
    """Robot standing still and vertical."""
    return MotionProfile(duration=duration, dt=dt)


def default_dynamic_profile(duration, dt, tilt_amp_deg=0.15, tilt_freq_hz=0.7,
                            a_t_amp=0.008, a_t_freq_hz=0.25):
    """Gentle rocking plus a translational sway.

    The default amplitudes keep the x'-axis specific force small, so the
    scale-factor inversion residual stays inside the round-trip tolerances,
    while the rate and acceleration terms remain large enough to visibly
    corrupt the raw arctangent tilt.
    """
    w_phi = 2.0 * pi * tilt_freq_hz
    w_a = 2.0 * pi * a_t_freq_hz

    def phi_ddot_fn(t):
        return -tilt_amp_deg * w_phi * w_phi * np.sin(w_phi * t)

    def a_t_fn(t):
        return a_t_amp * np.sin(w_a * t)

    return MotionProfile(duration=duration, dt=dt,
                         phi_ddot_fn=phi_ddot_fn, a_t_fn=a_t_fn,
                         phi0=0.0, phi_dot0=tilt_amp_deg * w_phi)


def true_accel_components(phi_deg, a_e, a_c):
    """Ideal accelerometer readings for a given tilt and rotational terms.

    Inverts the corrected-tilt equation up to the translational projection,
    which the simulator then subtracts from x' and adds to y'.  Takes floats
    or float64 columns; numpy's sine, cosine and degree conversion return
    math's values bit for bit.
    """
    phi_r = np.radians(phi_deg)
    return GRAVITY * np.sin(phi_r) - a_e, GRAVITY * np.cos(phi_r) - a_c


@np.errstate(all="ignore")
def simulate_run(profile, gyro, accel, params, seed):
    """Simulate a full run; returns ``(TruthLog, RawLog)`` of equal length.

    Encoder counts are the integer part of the accumulated fractional pulse
    count implied by wheel travel, with the residual carried to the next
    sample so no pulse is ever lost: the one per-sample loop.  The truth
    comes first, then the encoder and the gyro column; the accelerometer
    columns, which embed the motion pre-pass terms (zero at sample 0) and
    the projection on the shadow tilt, come from the tilt sweep.  A negative
    ``seed``, which ``default_rng`` cannot take, a run of more than
    :data:`MAX_SAMPLES` samples or a drive that does not return one value
    per sample time raises ParameterError.  A non-finite truth, gyro or
    accelerometer value raises SimulationError at its first sample; numpy's
    floating-point warnings are silenced.
    """
    if not seed >= 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    dt = profile.dt
    n = profile.n_samples
    if n > MAX_SAMPLES:
        raise ParameterError(f"duration / dt is {n} samples, more than the cap of {MAX_SAMPLES}")
    rng = np.random.default_rng(seed)

    # Truth columns in TruthLog order after t: phi, phi_dot, phi_ddot, x, v, a_t.
    t_arr = np.arange(n) * dt
    truth_cols = np.empty((6, n))
    for row, name in ((2, "phi_ddot_fn"), (5, "a_t_fn")):
        column = getattr(profile, name)(t_arr)
        if np.shape(column) != (n,):
            raise ParameterError(f"{name} returned shape {np.shape(column)}, want ({n},)")
        truth_cols[row] = column
    # Forward Euler as prefix sums in the per-sample loop's order of additions:
    # p_dot sums [p_dot_0, p_ddot_0*dt, p_ddot_1*dt, ...], and p is every second
    # sum of [p_0, p_dot_0*dt, 0.5*p_ddot_0*dt*dt, p_dot_1*dt, 0.5*p_ddot_1*dt*dt, ...].
    sums = np.empty(2 * n - 1)
    for (p, p_dot, p_ddot), p0, p_dot0 in ((truth_cols[:3], profile.phi0, profile.phi_dot0),
                                          (truth_cols[3:], 0.0, 0.0)):
        p_dot[0], sums[0] = p_dot0, p0
        np.multiply(p_ddot[:-1], dt, out=p_dot[1:])
        np.add.accumulate(p_dot, out=p_dot)
        np.multiply(p_dot[:-1], dt, out=sums[1::2])
        np.multiply(0.5 * p_ddot[:-1] * dt, dt, out=sums[2::2])
        p[:] = np.add.accumulate(sums, out=sums)[::2]
    del sums, column
    finite = np.isfinite(truth_cols).all(axis=0)
    bad = n if finite.all() else int(finite.argmin())

    # Encoder: each period's wheel travel in pulses, the fraction carried on.
    # The range test keeps a non-finite residual from floor() and int64.
    enc_arr = np.empty(n, dtype=np.int64)
    enc_out, pulse_residual = memoryview(enc_arr), 0.0
    pulses_per_m = params.N_drive / (2.0 * pi * params.R_w)
    for k, travel in enumerate(memoryview(np.diff(truth_cols[3, :bad], prepend=0.0))):
        pulse_residual += travel * pulses_per_m
        if not -2.0**63 <= pulse_residual < 2.0**63:
            raise SimulationError(k)
        enc_out[k] = n_pulses = floor(pulse_residual)
        pulse_residual -= n_pulses
    if bad < n:
        raise SimulationError(bad)

    # One bulk draw in the per-sample order gyro, x', y'; a channel with
    # zero noise draws nothing.
    stds = (gyro.noise_std, accel.noise_std, accel.noise_std)
    draws = rng.standard_normal((n, sum(s > 0 for s in stds)))
    draws *= [s for s in stds if s > 0]
    live = iter(draws.T)
    noise_g, noise_x, noise_y = (next(live) if s > 0 else np.zeros(n) for s in stds)

    gyro_arr = truth_cols[1] + gyro.bias
    if gyro.noise_std > 0:
        gyro_arr += noise_g
    np.clip(gyro_arr, -gyro.saturation, gyro.saturation, out=gyro_arr)

    # Interference terms exactly as the corrector will reconstruct them.
    a_c, a_e, a_t = motion_columns(correct_gyro(gyro_arr, params.gyro_bias), enc_arr, params)
    sat = accel.saturation

    # The gravity projection does not depend on the shadow tilt: once per
    # block, not per pass, and no whole-run column.
    @lru_cache(maxsize=1)
    def gravity(start, stop):
        return true_accel_components(truth_cols[0, start:stop], a_e[start:stop], a_c[start:stop])

    def step(prev, start, stop):
        rows = slice(start, stop)
        a_t_x, a_t_y = project_translational(a_t[rows], prev)
        gravity_x, gravity_y = gravity(start, stop)
        ax, ay = gravity_x - a_t_x, gravity_y + a_t_y
        # Forward scale-factor distortion evaluates the polynomial at the true
        # component; the correction side evaluates it at measurement - bias.
        ax = ax + scale_factor(ax, accel.scale_poly_x) + accel.bias_x + noise_x[rows]
        ay = ay + scale_factor(ay, accel.scale_poly_y) + accel.bias_y + noise_y[rows]
        np.clip(ax, -sat, sat, out=ax)
        np.clip(ay, -sat, sat, out=ay)
        # The shadow tilt's arctangent arguments, exactly as the corrector's.
        return (correct_accel(ax, params.accel_bias_x, params.scale_poly_x) + a_e[rows] + a_t_x,
                correct_accel(ay, params.accel_bias_y, params.scale_poly_y) + a_c[rows] - a_t_y,
                ax, ay)

    # The shadow starts from the corrector's vertical prior; a_t is zero at
    # sample 0, so the projection embeds exact zeros there.
    acc_x_arr, acc_y_arr = settle_tilt(step, n)[2]
    # The first non-finite gyro or accelerometer sample, one column's mask
    # at a time, so that no temporary of all three is added.
    bad = [np.isfinite(c).argmin() for c in (gyro_arr, acc_x_arr, acc_y_arr)
           if not np.isfinite(c).all()]
    if bad:
        raise SimulationError(int(min(bad)))

    truth = TruthLog(t_arr, *truth_cols)
    log = RawLog(t_arr, gyro_arr, acc_x_arr, acc_y_arr, enc_arr)
    return truth, log
