#!/usr/bin/env python3
"""Recover the sensor error model from synthetic calibration recordings.

Stage 1 averages a long stationary log to estimate the gyro and
accelerometer biases (with min/max and windowed-mean diagnostics to judge
whether a constant bias is plausible).  Stage 2 sweeps the robot through
known tilt angles and fits the degree-5 scale-factor polynomials by MSE
between the bias-corrected measurements and the gravity projections of the
reference tilt.
"""

import numpy as np

from tiltkit import reference as ref
from tiltkit.correction import scale_factor
from tiltkit.tuning import estimate_static_bias, fit_scale_factor

G = ref.GRAVITY
rng = np.random.default_rng(0)

# --- stage 1: static biases -------------------------------------------------
n = 300_000
gyro_log = ref.GYRO_BIAS_DPS + rng.normal(0.0, ref.GYRO_NOISE_STD_DPS, n)
est = estimate_static_bias(gyro_log)
print("gyro static log:")
print(f"  bias estimate  {est.bias:+.5f} deg/s   (model: {ref.GYRO_BIAS_DPS:+.5f})")
print(f"  min/max        {est.minimum:+.5f} / {est.maximum:+.5f} deg/s")
print(f"  window means   {[round(m, 5) for m in est.window_means]}")

acc_y_log = G + ref.ACCEL_BIAS_Y_MPS2 + rng.normal(0.0, ref.ACCEL_NOISE_STD_MPS2, n)
est_y = estimate_static_bias(acc_y_log)
print("accelerometer y' static log (rests at +g):")
print(f"  bias estimate  {est_y.bias - G:+.5f} m/s^2 (model: {ref.ACCEL_BIAS_Y_MPS2:+.5f})")

# --- stage 2: scale-factor polynomials --------------------------------------
print("\ndeflection sweep, fitting scale-factor polynomials...")
phis = np.radians(np.linspace(-75.0, 75.0, 400))
for axis, poly in (("x'", ref.SCALE_POLY_X), ("y'", ref.SCALE_POLY_Y)):
    a_true = G * (np.sin(phis) if axis == "x'" else np.cos(phis))
    # bias-corrected measurements and the reference they should match
    p = a_true + np.array([scale_factor(v, poly) for v in a_true])
    a_ref = p - np.array([scale_factor(v, poly) for v in p])
    fit = fit_scale_factor(np.column_stack([p, a_ref]))
    print(f"  {axis} axis:")
    print(f"    reference  {tuple(poly)}")
    print(f"    recovered  {tuple(round(c, 5) for c in fit.coefficients)}"
          f"   (fit MSE {fit.mse:.2e})")

print("\ndegree sweep on noisy x' data (training MSE per polynomial degree):")
noisy = np.column_stack([p + rng.normal(0, 0.05, len(p)), a_ref])
for degree in range(1, 6):
    print(f"  degree {degree}: MSE = {fit_scale_factor(noisy, degree=degree).mse:.6f}")
