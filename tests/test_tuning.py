import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rig_params, simulate_rig
from tiltkit import reference as ref
from tiltkit import tuning
from tiltkit.correction import run_correction_arrays, scale_factor
from tiltkit.errors import OptimizationFailure, ParameterError
from tiltkit.filters import (FIXED_GAIN_VARIANTS, PARAMS, convolution_filter, make_filter,
                             run_filter_arrays)
from tiltkit.analysis import mse
from tiltkit.tuning import (
    _DEFAULT_X0,
    OptimizerConfig,
    TuningResult,
    estimate_static_bias,
    fit_scale_factor,
    nelder_mead,
    tune_filter,
    tune_time_constants,
)

G = ref.GRAVITY


class TestNelderMead:
    def test_quadratic(self):
        res = nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.0],
                          OptimizerConfig(restarts=1))
        assert abs(res.x[0] - 3.0) < 1e-6

    def test_rosenbrock(self):
        def rosen(v):
            return (1 - v[0]) ** 2 + 100.0 * (v[1] - v[0] ** 2) ** 2

        res = nelder_mead(rosen, [-1.2, 1.0],
                          OptimizerConfig(max_iterations=5000, restarts=3))
        assert np.max(np.abs(res.x - 1.0)) < 1e-4

    def test_constant_objective_returns_start(self):
        res = nelder_mead(lambda x: 5.0, [1.5, -2.5], OptimizerConfig(restarts=1))
        assert res.x == pytest.approx([1.5, -2.5])
        assert res.converged
        assert res.fun == 5.0

    def test_deterministic(self):
        def bumpy(v):
            return math.sin(3 * v[0]) * 0.1 + v[0] ** 2

        a = nelder_mead(bumpy, [2.0], OptimizerConfig(seed=42))
        b = nelder_mead(bumpy, [2.0], OptimizerConfig(seed=42))
        assert a.x == pytest.approx(b.x, abs=0.0)
        assert a.fun == b.fun

    def test_start_evaluated_once_per_pass(self):
        # vertex 0 of the initial simplex is the start already probed: its
        # value is reused, and the search is scipy's evaluation for evaluation
        def quad(x):
            return (x[0] - 1.0) ** 2 + 2.0 * (x[1] + 0.5) ** 2

        def recording(x):
            calls.append(tuple(x))
            return quad(x)

        calls = []
        nelder_mead(recording, [0.5, 0.5], OptimizerConfig(restarts=2))
        assert calls.count((0.5, 0.5)) == 1
        assert all(a != b for a, b in zip(calls, calls[1:]))  # no pass re-probes

        calls = []
        cfg = OptimizerConfig(restarts=1)
        res = nelder_mead(recording, [0.5, 0.5], cfg)
        direct = _scipy_pass(quad, np.array([0.5, 0.5]), cfg)
        assert len(calls) == direct.nfev
        assert res.x.tolist() == direct.x.tolist() and res.fun == direct.fun

    def test_all_non_finite_fails(self):
        with pytest.raises(OptimizationFailure):
            nelder_mead(lambda x: float("inf"), [0.0], OptimizerConfig(restarts=2))

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            OptimizerConfig(tol_f=0.0)
        with pytest.raises(ParameterError):
            OptimizerConfig(restarts=0)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("inf"), float("nan")])
    def test_initial_scale_positive_and_finite(self, scale):
        with pytest.raises(ParameterError, match="initial_scale"):
            OptimizerConfig(initial_scale=scale)

    @pytest.mark.parametrize("name", ["tol_f", "tol_x"])
    @pytest.mark.parametrize("tol", [0.0, -1.0, float("inf"), float("nan")])
    def test_tolerances_positive_and_finite(self, name, tol):
        # an infinite tolerance stopped each pass at its first simplex
        with pytest.raises(ParameterError, match=f"{name} must be positive and finite"):
            nelder_mead(lambda x: (x[0] - 3.0) ** 2, [0.5], OptimizerConfig(**{name: tol}))


def _scipy_pass(fn, start, cfg):
    """scipy's Nelder-Mead, with the options nelder_mead gave it when it
    called scipy: the reference _simplex_pass is held to."""
    from scipy.optimize import minimize

    return minimize(fn, start, method="Nelder-Mead", options={
        "initial_simplex": tuning._initial_simplex(start, cfg.initial_scale),
        "maxiter": cfg.max_iterations,
        "maxfev": 10 * cfg.max_iterations * max(1, len(start)),
        "xatol": cfg.tol_x,
        "fatol": cfg.tol_f,
        "adaptive": False,
    })


def assert_pass_matches_scipy(fn, start, cfg=OptimizerConfig()):
    """Run _simplex_pass and scipy from one start; both must agree bit for
    bit, and the pass must stay within the evaluations its iterations allow.
    Returns (calls, iterations) of the pass."""
    start = np.asarray(start, dtype=float)
    calls = []

    def counted(x):
        calls.append(x)
        return fn(x)

    x, fun, nit, converged = tuning._simplex_pass(
        counted, tuning._initial_simplex(start, cfg.initial_scale), fn(start),
        cfg.max_iterations, cfg.tol_x, cfg.tol_f)
    ref = _scipy_pass(fn, start, cfg)
    assert x.tobytes() == ref.x.tobytes()
    assert float(fun) == float(ref.fun)
    assert (nit, converged) == (ref.nit, ref.success)
    assert len(calls) + 1 == ref.nfev  # scipy also evaluates vertex 0
    n = len(start)
    assert nit <= cfg.max_iterations
    assert len(calls) <= n + 1 + (cfg.max_iterations - 1) * (n + 2)
    return len(calls), nit


def _quadratic(center, weights):
    center = np.asarray(center, dtype=float)
    weights = np.asarray(weights, dtype=float)

    def f(x):
        return float(np.sum(weights * (x - center) ** 2))
    return f


def _rosenbrock(v):
    return float(np.sum(100.0 * (v[1:] - v[:-1] ** 2) ** 2 + (1.0 - v[:-1]) ** 2))


class TestSimplexPassMatchesScipy:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_quadratic(self, n):
        f = _quadratic(np.linspace(-1.0, 2.0, n), np.arange(1.0, n + 1))
        assert_pass_matches_scipy(f, np.linspace(0.5, -0.3, n) * (np.arange(n) != 1))

    @pytest.mark.parametrize("start", [[-1.2, 1.0], [-1.2, 1.0, -0.5, 0.8]])
    def test_rosenbrock(self, start):
        assert_pass_matches_scipy(_rosenbrock, start, OptimizerConfig(max_iterations=5000))

    @pytest.mark.parametrize("n", [1, 3])
    def test_constant_objective_shrinks_to_tolerance(self, n):
        # every reflection and contraction ties, so every iteration shrinks
        calls, nit = assert_pass_matches_scipy(lambda x: 5.0, np.full(n, 1.5))
        assert calls == n + (nit - 1) * (n + 2)

    def test_infinite_region(self):
        # the tuners' objectives return inf for infeasible candidates
        def walled(x):
            return float("inf") if x[0] < 0.2 else (x[0] - 0.1) ** 2 + (x[1] - 1.0) ** 2
        assert_pass_matches_scipy(walled, [0.3, 0.3])
        assert_pass_matches_scipy(walled, [1.0, 0.0], OptimizerConfig(initial_scale=3.0))

    def test_tied_vertices(self):
        # the start's two neighbours tie, and the plateaus tie everywhere
        assert_pass_matches_scipy(_quadratic([0.0, 0.0], [1.0, 1.0]), [1.0, 1.0])
        assert_pass_matches_scipy(lambda x: float(np.sum(np.floor(2.0 * np.abs(x)))),
                                  [1.3, -0.7, 2.1])

    def test_expansion_ties_reflection(self):
        # from (1, 2) the second expansion, to -5, lands on the floor at -3
        # with its reflection: the reflection is kept
        assert_pass_matches_scipy(lambda x: max(float(x[0]), -3.0), [1.0])

    @pytest.mark.parametrize("tol_x, tol_f", [(1.5 * 2.0 ** -10, 1.0),
                                              (1.0, 1.5 * 2.0 ** -10)])
    def test_stop_test_is_inclusive(self, tol_x, tol_f):
        # each inside contraction halves both spreads exactly (1.5, 0.75,
        # ...), so one of them reaches its tolerance with equality
        cfg = OptimizerConfig(tol_x=tol_x, tol_f=tol_f)
        _, nit = assert_pass_matches_scipy(lambda x: abs(float(x[0]) - 1.5), [1.5], cfg)
        assert nit == 11

    def test_forced_shrinks(self):
        # a ring of minima: contractions across it fail
        def ring(x):
            return float((x[0] ** 2 + x[1] ** 2 - 1.0) ** 2)
        calls, nit = assert_pass_matches_scipy(ring, [1.0, 0.9])
        # other iterations make at most 2 calls, a shrink makes 4
        assert calls > 2 + 2 * (nit - 1)

    @pytest.mark.parametrize("max_iterations", [1, 2])
    def test_tiny_budget(self, max_iterations):
        cfg = OptimizerConfig(max_iterations=max_iterations)
        _, nit = assert_pass_matches_scipy(_rosenbrock, [-1.2, 1.0], cfg)
        assert nit == max_iterations

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=st.integers(1, 4))
    def test_random_quadratics(self, data, n):
        coords = st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False)
        vec = st.lists(coords, min_size=n, max_size=n)
        center, start = data.draw(vec), data.draw(vec)
        weights = data.draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n))
        cfg = OptimizerConfig(max_iterations=data.draw(st.integers(1, 300)),
                              initial_scale=data.draw(st.floats(0.01, 5.0)))
        assert_pass_matches_scipy(_quadratic(center, weights), start, cfg)


class TestEstimateStaticBias:
    def test_constant_channel(self):
        est = estimate_static_bias(np.full(1000, 2.5))
        assert est.bias == 2.5
        assert est.minimum == est.maximum == 2.5

    def test_matches_arithmetic_mean(self):
        rng = np.random.default_rng(0)
        values = rng.normal(-1.9, 0.17, 250_000)
        est = estimate_static_bias(values)
        assert est.bias == pytest.approx(np.mean(values), abs=1e-12)
        assert len(est.window_means) == 2  # two full 1e5 windows

    def test_clt_bound(self):
        rng = np.random.default_rng(5)
        values = -1.91195 + rng.normal(0.0, 0.17, 100_000)
        est = estimate_static_bias(values)
        assert abs(est.bias + 1.91195) < 3 * 0.17 / math.sqrt(100_000)

    def test_extremes_reported(self):
        values = np.full(100, -1.9)
        values[10] = ref.GYRO_STATIC_MAX_DPS
        values[50] = ref.GYRO_STATIC_MIN_DPS
        est = estimate_static_bias(values)
        assert est.minimum == ref.GYRO_STATIC_MIN_DPS
        assert est.maximum == ref.GYRO_STATIC_MAX_DPS

    def test_window_means_detect_drift(self):
        values = np.concatenate([np.full(100_000, -1.8), np.full(100_000, -2.0)])
        est = estimate_static_bias(values)
        assert est.window_means == pytest.approx((-1.8, -2.0))

    def test_rawlog_channel_extraction(self):
        truth, log, params = simulate_rig(duration=1.0, gyro_noise=0.1, seed=3)
        est = estimate_static_bias(log.gyro_dps)
        assert est.bias == pytest.approx(math.fsum(log.gyro_dps) / len(log), abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            estimate_static_bias(np.empty(0))


def make_pairs(poly, phi_max_deg=75.0, n=240, axis="x", noise=0.0, seed=0):
    """(p, a_ref) pairs consistent with the correction convention:
    a_ref = p - S(p) by construction, so `poly` is the exact optimum."""
    rng = np.random.default_rng(seed)
    phis = np.radians(np.linspace(-phi_max_deg, phi_max_deg, n))
    a_true = G * np.sin(phis) if axis == "x" else G * np.cos(phis)
    p = a_true + np.array([scale_factor(v, poly) for v in a_true])
    a_ref = p - np.array([scale_factor(v, poly) for v in p])
    if noise:
        p = p + rng.normal(0.0, noise, n)
    return np.column_stack([p, a_ref])


class TestFitScaleFactor:
    def test_zero_polynomial_recovered(self):
        pairs = make_pairs((0.0,) * 5)
        fit = fit_scale_factor(pairs)
        assert np.max(np.abs(fit.coefficients)) < 1e-6
        assert fit.mse < 1e-12

    @pytest.mark.parametrize("poly,axis", [(ref.SCALE_POLY_X, "x"),
                                           (ref.SCALE_POLY_Y, "y")])
    def test_reference_polynomials_recovered(self, poly, axis):
        pairs = make_pairs(poly, axis=axis)
        fit = fit_scale_factor(pairs)
        assert np.max(np.abs(np.array(fit.coefficients) - np.array(poly))) < 1e-4

    def test_noisy_fit_beats_bias_only(self):
        pairs = make_pairs(ref.SCALE_POLY_X, noise=0.1, n=2000, seed=1)
        fit = fit_scale_factor(pairs)
        p, a_ref = pairs[:, 0], pairs[:, 1]
        mse_bias_only = float(np.mean((p - a_ref) ** 2))
        corrected = p - np.array([scale_factor(v, fit.coefficients) for v in p])
        mse_fit = float(np.mean((corrected - a_ref) ** 2))
        assert mse_fit < 0.7 * mse_bias_only

    def test_noise_free_fit_strictly_beats_bias_only(self):
        # nonzero polynomial in the data: the fitted correction wins outright
        pairs = make_pairs(ref.SCALE_POLY_X)
        fit = fit_scale_factor(pairs)
        p, a_ref = pairs[:, 0], pairs[:, 1]
        mse_bias_only = float(np.mean((p - a_ref) ** 2))
        assert mse_bias_only > 0
        assert fit.mse < mse_bias_only

    def test_degree_monotonicity(self):
        pairs = make_pairs(ref.SCALE_POLY_X, noise=0.05, n=500, seed=2)
        fits = {d: fit_scale_factor(pairs, degree=d) for d in range(1, 6)}
        mses = [fits[d].mse for d in sorted(fits)]
        for lo, hi in zip(mses[1:], mses):
            assert lo <= hi + 1e-12

    def test_degenerate_data_rejected(self):
        pairs = np.column_stack([np.full(10, 1.0), np.full(10, 0.9)])
        with pytest.raises(ParameterError):
            fit_scale_factor(pairs)


class TestTuneTimeConstants:
    def test_flat_objective_zero_motion(self):
        from tiltkit.model import GyroErrorModel, AccelErrorModel, simulate_run, zero_motion_profile
        params = rig_params(with_errors=False)
        truth, log = simulate_run(zero_motion_profile(2.0, 0.01),
                                  GyroErrorModel(), AccelErrorModel(), params, 0)
        res = tune_time_constants(log, truth.phi_deg, params,
                                  OptimizerConfig(restarts=1, max_iterations=200))
        assert res.mse < 1e-20
        assert res.opt.converged

    def test_constraint_and_dominance(self):
        truth, log, params = simulate_rig(duration=6.0, gyro_noise=0.1,
                                          accel_noise=0.05, seed=21)
        baseline = (ref.lowpass_tuning(10.0).T_omega, ref.lowpass_tuning(10.0).T_v)
        res = tune_time_constants(log, truth.phi_deg, params,
                                  OptimizerConfig(restarts=1, max_iterations=150,
                                                  tol_f=1e-10, tol_x=1e-8),
                                  x0=baseline)
        assert params.dt + res.T_omega > 0
        assert params.dt + res.T_v > 0
        # seeded at the baseline, the simplex can only improve on it
        from dataclasses import replace
        trial = replace(params, T_omega=baseline[0], T_v=baseline[1])
        phi_bar, _ = run_correction_arrays(log, trial)
        assert res.mse <= mse(truth.phi_deg, phi_bar) + 1e-15


    @pytest.mark.parametrize("bias", [math.nan, math.inf, -math.inf])
    def test_non_finite_gyro_bias_refused_before_search(self, monkeypatch, bias):
        # every trial would be non-finite; the tuner names the field instead
        # of reporting an optimisation failure
        truth, log, params = simulate_rig(duration=0.5)

        def no_correction(*args, **kwargs):
            raise AssertionError("a correction ran")

        monkeypatch.setattr(tuning, "run_correction_arrays", no_correction)
        from dataclasses import replace
        with pytest.raises(ParameterError, match="^gyro_bias must be finite"):
            tune_time_constants(log, truth.phi_deg, replace(params, gyro_bias=bias),
                                OptimizerConfig())

    def test_feasible_region_ends_at_minus_half_dt(self, monkeypatch):
        # the objective is inf from T = -dt/2 down, where the low-pass stops
        # being contractive; a seed there has no finite trial start
        truth, log, params = simulate_rig(duration=0.5)
        tried = []

        def recording_correction(log, trial):
            tried.append((trial.T_omega, trial.T_v))
            return run_correction_arrays(log, trial)

        monkeypatch.setattr(tuning, "run_correction_arrays", recording_correction)
        cfg = OptimizerConfig(restarts=1, max_iterations=10)
        half = -params.dt / 2
        for x0 in ([half, 0.01], [0.01, half]):
            with pytest.raises(OptimizationFailure):
                tune_time_constants(log, truth.phi_deg, params, cfg, x0=x0)
        assert tried == []
        inside = float(np.nextafter(half, 0.0))
        res = tune_time_constants(log, truth.phi_deg, params, cfg, x0=[inside, inside])
        assert tried[0] == (inside, inside)
        assert min(min(t) for t in tried) > half
        assert min(res.T_omega, res.T_v) > half


@pytest.fixture(scope="module")
def noisy_stream():
    truth, log, params = simulate_rig(duration=8.0, gyro_noise=0.17,
                                      accel_noise=0.1, seed=33)
    phi_bar, rate_bar = run_correction_arrays(log, params)
    return (phi_bar, rate_bar), truth.phi_deg


class TestTuneFilter:
    def test_wb_seeded_dominance(self, noisy_stream):
        stream, ref_phi = noisy_stream
        seed_pt = [0.00185, -0.00018]
        spec = make_filter("wb", {"alpha": seed_pt[0], "beta": seed_pt[1]}, 0.01)
        seed_mse = mse(ref_phi, run_filter_arrays(spec, *stream))
        res = tune_filter("wb", stream, ref_phi, 0.01,
                          OptimizerConfig(max_iterations=150, restarts=1,
                                          tol_f=1e-9, tol_x=1e-7), x0=seed_pt)
        assert res.training_mse <= seed_mse + 1e-15
        assert res.stability_report.max_magnitude <= 1.0 + 1e-9

    def test_passthrough_dominance_wob(self, noisy_stream):
        # alpha=1 makes wob reproduce phi_bar exactly; tuned result can
        # never be worse than the corrected-only signal when seeded there
        stream, ref_phi = noisy_stream
        passthrough_mse = mse(ref_phi, stream[0])
        res = tune_filter("wob", stream, ref_phi, 0.01,
                          OptimizerConfig(max_iterations=150, restarts=1,
                                          tol_f=1e-9, tol_x=1e-7), x0=[1.0, 1.0])
        assert res.training_mse <= passthrough_mse + 1e-15

    def test_passthrough_dominance_complementary(self, noisy_stream):
        stream, ref_phi = noisy_stream
        passthrough_mse = mse(ref_phi, stream[0])
        res = tune_filter("complementary", stream, ref_phi, 0.01,
                          OptimizerConfig(max_iterations=100, restarts=1,
                                          tol_f=1e-9, tol_x=1e-7), x0=[0.0])
        assert res.training_mse <= passthrough_mse + 1e-15

    def test_returned_parameters_stable(self, noisy_stream):
        stream, ref_phi = noisy_stream
        res = tune_filter("wob", stream, ref_phi, 0.01,
                          OptimizerConfig(max_iterations=100, restarts=1,
                                          tol_f=1e-9, tol_x=1e-7), x0=[0.1, 0.5])
        assert res.stability_report.max_magnitude <= 1.0 + 1e-9

    def test_kalman_star_nonnegative(self, noisy_stream):
        stream, ref_phi = noisy_stream
        res = tune_filter("kalman_star", stream, ref_phi, 0.01,
                          OptimizerConfig(max_iterations=120, restarts=1,
                                          tol_f=1e-9, tol_x=1e-7),
                          x0=[1e-5, 0.0, 2.3],
                          kalman_init_gains=(0.00185, -0.00018))
        assert res.parameters["q1"] >= 0
        assert res.parameters["q2"] >= 0
        assert res.parameters["r"] >= 0
        assert res.stability_report is None

    def test_determinism(self, noisy_stream):
        stream, ref_phi = noisy_stream
        cfg = OptimizerConfig(max_iterations=60, restarts=2, seed=5,
                              tol_f=1e-9, tol_x=1e-7)
        a = tune_filter("wb", stream, ref_phi, 0.01, cfg, x0=[0.01, -0.001])
        b = tune_filter("wb", stream, ref_phi, 0.01, cfg, x0=[0.01, -0.001])
        assert a.parameters == b.parameters
        assert a.training_mse == b.training_mse

    def test_verification_evaluation(self, noisy_stream):
        stream, ref_phi = noisy_stream
        truth_v, log_v, params_v = simulate_rig(duration=4.0, gyro_noise=0.17,
                                                accel_noise=0.1, seed=34)
        stream_v = run_correction_arrays(log_v, params_v)
        res = tune_filter("wb", stream, ref_phi, 0.01,
                          OptimizerConfig(max_iterations=60, restarts=1,
                                          tol_f=1e-9, tol_x=1e-7),
                          x0=[0.00185, -0.00018],
                          verification=(stream_v, truth_v.phi_deg))
        assert math.isfinite(res.verification_mse)
        assert res.verification_mse >= 0

    def test_all_unstable_fails(self, noisy_stream):
        stream, ref_phi = noisy_stream
        cfg = OptimizerConfig(max_iterations=10, restarts=1,
                              initial_scale=1e-6, tol_f=1e-9, tol_x=1e-7)
        with pytest.raises(OptimizationFailure):
            tune_filter("wob", stream, ref_phi, 0.01, cfg, x0=[-5.0, -5.0])

    @pytest.mark.parametrize("variant", ["wob", "wb"])
    def test_nan_eigenvalues_rejected_before_filtering(self, noisy_stream, monkeypatch,
                                                       variant):
        # alpha = beta = 1e200 overflow the eigenvalues to nan: check_stability
        # calls that unstable, so the objective must reject it unfiltered
        stream, ref_phi = noisy_stream
        filtered = []

        def recording_run_filter_arrays(spec, *args, **kwargs):
            filtered.append(spec)
            return run_filter_arrays(spec, *args, **kwargs)

        def recording_convolution_filter(*args):
            estimates = convolution_filter(*args)

            def recording_estimates(spec):
                filtered.append(spec)
                return estimates(spec)
            return recording_estimates

        monkeypatch.setattr(tuning, "run_filter_arrays", recording_run_filter_arrays)
        monkeypatch.setattr(tuning, "convolution_filter", recording_convolution_filter)
        cfg = OptimizerConfig(max_iterations=5, restarts=1, tol_f=1e-9, tol_x=1e-7)
        with np.errstate(all="ignore"), pytest.raises(OptimizationFailure):
            tune_filter(variant, stream, ref_phi, 0.01, cfg, x0=[1e200, 1e200])
        assert filtered == []

    @pytest.mark.parametrize("variant", FIXED_GAIN_VARIANTS)
    def test_reported_mse_is_the_loops(self, noisy_stream, variant):
        # the search scores candidates by convolution; the reported MSEs
        # are the filter loop's at the chosen point, as run gives them
        stream, ref_phi = noisy_stream
        v_stream, v_ref = tuple(c[:400] for c in stream), ref_phi[:400]
        res = tune_filter(variant, stream, ref_phi, 0.01,
                          OptimizerConfig(max_iterations=30, restarts=1,
                                          tol_f=1e-9, tol_x=1e-7),
                          verification=(v_stream, v_ref))
        spec = make_filter(variant, res.parameters, 0.01)
        assert res.training_mse == mse(ref_phi, run_filter_arrays(spec, *stream))
        assert res.verification_mse == mse(v_ref, run_filter_arrays(spec, *v_stream))

    @pytest.mark.parametrize("where", ["training", "verification"])
    @pytest.mark.parametrize("defect", ["nan", "short"])
    def test_bad_stream_rejected_before_search(self, noisy_stream, monkeypatch, where,
                                               defect):
        stream, ref_phi = noisy_stream
        phi, rate = stream[0].copy(), stream[1]
        if defect == "nan":
            phi[7] = float("nan")
        else:
            rate = rate[:-1]

        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(tuning, "nelder_mead", no_search)
        if where == "training":
            args, verification = ((phi, rate), ref_phi), None
        else:
            args, verification = (stream, ref_phi), ((phi, rate), ref_phi)
        with pytest.raises(ParameterError):
            tune_filter("wb", *args, 0.01, OptimizerConfig(), x0=[0.00185, -0.00018],
                        verification=verification)

    def test_verification_reference_length_refused_before_search(self, noisy_stream,
                                                                 monkeypatch):
        stream, ref_phi = noisy_stream

        def no_search(*args, **kwargs):
            raise AssertionError("the search ran")

        monkeypatch.setattr(tuning, "nelder_mead", no_search)
        with pytest.raises(ParameterError, match="verification"):
            tune_filter("wb", stream, ref_phi, 0.01, OptimizerConfig(),
                        x0=[0.00185, -0.00018], verification=(stream, ref_phi[:-1]))

    def test_default_seeds_cover_registry(self):
        # the one per-variant table kept outside filters must follow PARAMS
        assert _DEFAULT_X0.keys() == PARAMS.keys()
        for variant, names in PARAMS.items():
            assert len(_DEFAULT_X0[variant]) == len(names), variant

    def test_negative_training_mse_rejected(self):
        with pytest.raises(ParameterError):
            TuningResult("wb", 0.01, {}, training_mse=-1.0)
