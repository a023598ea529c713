#!/usr/bin/env python3
"""Tune the processing chain end to end on one synthetic training log.

First the two low-pass time constants of the correction chain, then the
gain parameters of a fixed-gain filter, and finally the covariances of the
time-varying filter (its first gain pinned to the tuned fixed gains, the
same convention the bundled reference tunings used).  All three searches
run the same seeded Nelder-Mead with restarts.  Search times go to stderr,
so stdout is the same on every run.
"""

import os
import sys
import time

from tiltkit import reference as ref
from tiltkit.analysis import make_report
from tiltkit.correction import CorrectionParams, run_correction_arrays
from tiltkit.model import (
    AccelErrorModel,
    GyroErrorModel,
    default_dynamic_profile,
    simulate_run,
)
from tiltkit.tuning import OptimizerConfig, tune_filter, tune_time_constants

OUT = os.path.join(os.path.dirname(__file__), "out")
os.makedirs(OUT, exist_ok=True)

dt = 0.002
lp = ref.lowpass_tuning(2.0)
params = CorrectionParams(
    dt=dt, N_drive=65536,
    gyro_bias=ref.GYRO_BIAS_DPS,
    accel_bias_x=ref.ACCEL_BIAS_X_MPS2, accel_bias_y=ref.ACCEL_BIAS_Y_MPS2,
    scale_poly_x=ref.SCALE_POLY_X, scale_poly_y=ref.SCALE_POLY_Y,
    T_omega=lp.T_omega, T_v=lp.T_v)
gyro = GyroErrorModel(bias=ref.GYRO_BIAS_DPS, noise_std=ref.GYRO_NOISE_STD_DPS)
accel = AccelErrorModel(
    bias_x=ref.ACCEL_BIAS_X_MPS2, bias_y=ref.ACCEL_BIAS_Y_MPS2,
    scale_poly_x=ref.SCALE_POLY_X, scale_poly_y=ref.SCALE_POLY_Y,
    noise_std=ref.ACCEL_NOISE_STD_MPS2)

print("simulating training (20 s) and verification (10 s) logs at 2 ms...")
truth_t, log_t = simulate_run(default_dynamic_profile(20.0, dt), gyro, accel, params, 42)
truth_v, log_v = simulate_run(default_dynamic_profile(10.0, dt), gyro, accel, params, 43)
cfg = OptimizerConfig(max_iterations=250, restarts=2, tol_f=1e-10, tol_x=1e-8)

t0 = time.perf_counter()
tc = tune_time_constants(log_t, truth_t.phi_deg, params, cfg,
                         x0=(lp.T_omega, lp.T_v))
print(f"low-pass constants: T_omega = {tc.T_omega:.5f}, T_v = {tc.T_v:.5f} "
      f"(MSE {tc.mse:.5f} deg^2)")
print(f"low-pass search: {time.perf_counter() - t0:.1f} s", file=sys.stderr)

stream_t = run_correction_arrays(log_t, params)
stream_v = run_correction_arrays(log_v, params)
verification = (stream_v, truth_v.phi_deg)

results = []
t0 = time.perf_counter()
res_wb = tune_filter("wb", stream_t, truth_t.phi_deg, dt, cfg,
                     x0=[0.00185, -0.00018], verification=verification)
results.append(res_wb)
print(f"wb     : {res_wb.parameters}  train {res_wb.training_mse:.5f} "
      f"verify {res_wb.verification_mse:.5f}")
print(f"wb search: {time.perf_counter() - t0:.1f} s", file=sys.stderr)

t0 = time.perf_counter()
res_ks = tune_filter("kalman_star", stream_t, truth_t.phi_deg, dt, cfg,
                     x0=[0.00001, 0.0, 2.30640],
                     kalman_init_gains=(res_wb.parameters["alpha"],
                                        res_wb.parameters["beta"]),
                     verification=verification)
results.append(res_ks)
print(f"kalman*: q1 {res_ks.parameters['q1']:.3g} q2 {res_ks.parameters['q2']:.3g} "
      f"r {res_ks.parameters['r']:.3g}  train {res_ks.training_mse:.5f} "
      f"verify {res_ks.verification_mse:.5f}")
print(f"kalman* search: {time.perf_counter() - t0:.1f} s", file=sys.stderr)

report = make_report(results, logs_metadata="tuned on synthetic 2 ms logs")
report.write(OUT)
print(f"\n{report.text}")
print(f"tables written to {OUT}")
