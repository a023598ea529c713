import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import RIG_N_DRIVE, rig_models, rig_params, simulate_rig
from oracles import looped_truth, shadow_simulate_run
from test_readers import PROPERTY, _python_calls
from tiltkit import reference as ref
from tiltkit.correction import CorrectionParams, run_correction_arrays
from tiltkit.errors import ParameterError, SimulationError
from tiltkit.logio import TruthLog
from tiltkit.model import (
    MAX_SAMPLES,
    AccelErrorModel,
    GyroErrorModel,
    MotionProfile,
    default_dynamic_profile,
    simulate_run,
    true_accel_components,
    zero_motion_profile,
)

G = ref.GRAVITY


class TestErrorModels:
    def test_invalid_gyro_model(self):
        with pytest.raises(ParameterError):
            GyroErrorModel(noise_std=-1.0)
        with pytest.raises(ParameterError):
            GyroErrorModel(saturation=0.0)

    @pytest.mark.parametrize("model, kwargs, message", [
        (GyroErrorModel, {"bias": float("nan")}, "bias"),
        (GyroErrorModel, {"bias": float("-inf")}, "bias"),
        (GyroErrorModel, {"noise_std": float("nan")}, "noise_std"),
        (AccelErrorModel, {"bias_x": float("nan")}, "finite"),
        (AccelErrorModel, {"bias_y": float("inf")}, "finite"),
        (AccelErrorModel, {"scale_poly_x": (0.0, 0.0, float("nan"), 0.0, 0.0)}, "finite"),
        (AccelErrorModel, {"scale_poly_y": (float("-inf"),) + (0.0,) * 4}, "finite"),
        (AccelErrorModel, {"noise_std": float("nan")}, "noise_std"),
    ], ids=["gyro_bias_nan", "gyro_bias_-inf", "gyro_noise_std_nan", "accel_bias_x",
            "accel_bias_y", "accel_scale_poly_x", "accel_scale_poly_y", "accel_noise_std"])
    def test_non_finite_model_rejected(self, model, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            model(**kwargs)

    @pytest.mark.parametrize("model", [GyroErrorModel, AccelErrorModel], ids=["gyro", "accel"])
    def test_infinite_noise_rejected(self, model):
        with pytest.raises(ParameterError, match="noise_std"):
            model(noise_std=float("inf"))


class TestSimulateRun:
    def test_zero_motion_zero_error(self):
        # standing vertical, standing horizontal, and vertical with the
        # reference accelerometer biases: the channels read gravity plus bias
        params = rig_params(with_errors=False)
        biased = AccelErrorModel(bias_x=-0.02340, bias_y=-0.63629)
        for phi0, accel, ax, ay in ((0.0, AccelErrorModel(), 0.0, G),
                                    (90.0, AccelErrorModel(), G, 0.0),
                                    (0.0, biased, -0.02340, G - 0.63629)):
            truth, log = simulate_run(MotionProfile(2.0, 0.01, phi0=phi0),
                                      GyroErrorModel(), accel, params, 0)
            assert len(truth) == len(log) == 200
            assert np.all(log.gyro_dps == 0.0)
            assert np.all(log.acc_x_mps2 == ax)
            assert np.allclose(log.acc_y_mps2, ay, rtol=0.0, atol=1e-12)
            assert np.all(log.enc_count == 0)
        # an upright robot spinning at 1 rad/s senses less y' acceleration
        assert true_accel_components(0.0, 0.0, params.R) == (0.0, G - params.R)

    def test_determinism(self):
        a = simulate_rig(duration=3.0, gyro_noise=0.2, accel_noise=0.1, seed=11)
        b = simulate_rig(duration=3.0, gyro_noise=0.2, accel_noise=0.1, seed=11)
        for name in ("gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count"):
            assert np.array_equal(getattr(a[1], name), getattr(b[1], name))

    def test_seed_changes_noise(self):
        a = simulate_rig(duration=1.0, gyro_noise=0.2, seed=1)
        b = simulate_rig(duration=1.0, gyro_noise=0.2, seed=2)
        assert not np.array_equal(a[1].gyro_dps, b[1].gyro_dps)

    def test_static_bias_mean_clt(self):
        # zero-motion log with bias and noise: channel mean within the
        # central-limit bound of the bias
        params = rig_params(dt=0.002, with_errors=False)
        gyro = GyroErrorModel(bias=-1.91195, noise_std=0.17)
        truth, log = simulate_run(zero_motion_profile(200.0, 0.002),
                                  gyro, AccelErrorModel(), params, 5)
        n = len(log)
        assert n == 100_000
        bound = 3 * 0.17 / math.sqrt(n)
        assert abs(log.gyro_dps.mean() - (-1.91195)) < bound

    def test_encoder_quantization_consistency(self):
        # cumulative counts track cumulative wheel travel within one pulse,
        # swaying or under constant accelerations, where the forward-Euler
        # truth is the closed form p = p_ddot*t^2/2, p_dot = p_ddot*t
        params = rig_params(with_errors=False, N_drive=512)
        constant = MotionProfile(10.0, 0.01, phi_ddot_fn=lambda t: np.full_like(t, 2.0),
                                 a_t_fn=lambda t: np.full_like(t, 0.3))
        for profile in (default_dynamic_profile(10.0, 0.01, a_t_amp=0.3, a_t_freq_hz=0.4),
                        constant):
            truth, log = simulate_run(profile, GyroErrorModel(), AccelErrorModel(),
                                      params, 0)
            pulse_distance = 2 * math.pi * params.R_w / params.N_drive
            travel = truth.x_m - truth.x_m[0]
            reconstructed = np.cumsum(log.enc_count) * pulse_distance
            assert np.max(np.abs(reconstructed - travel)) <= pulse_distance
        t = truth.t
        for p, p_dot, p_ddot in ((truth.phi_deg, truth.phi_dot_dps, 2.0),
                                 (truth.x_m, truth.v_mps, 0.3)):
            assert np.allclose(p, 0.5 * p_ddot * t * t, rtol=1e-9, atol=0.0)
            assert np.allclose(p_dot, p_ddot * t, rtol=1e-9, atol=0.0)

    def test_roundtrip_exact_zero_error(self, dynamic_run_clean):
        # noise-free synthesis then correction recovers the tilt everywhere
        truth, log, params = dynamic_run_clean
        phi_bar, rate_bar = run_correction_arrays(log, params)
        assert np.max(np.abs(phi_bar - truth.phi_deg)) < 1e-6
        assert np.max(np.abs(rate_bar - truth.phi_dot_dps)) < 1e-9

    def test_gyro_drift_integration(self):
        # integrating the uncorrected gyro accumulates bias*T within noise
        params = rig_params(with_errors=False)
        gyro = GyroErrorModel(bias=0.5, noise_std=0.17)
        truth, log = simulate_run(zero_motion_profile(60.0, 0.01),
                                  gyro, AccelErrorModel(), params, 9)
        T = len(log) * 0.01
        angle = np.sum(log.gyro_dps) * 0.01
        assert abs(angle - 0.5 * T) < 3 * 0.17 * math.sqrt(0.01 * T)

    def test_non_finite_profile_reports_index(self):
        profile = MotionProfile(
            duration=1.0, dt=0.01,
            phi_ddot_fn=lambda t: np.where(t >= 0.5, np.nan, 0.0))
        params = rig_params(with_errors=False)
        with pytest.raises(SimulationError) as exc:
            simulate_run(profile, GyroErrorModel(), AccelErrorModel(), params, 0)
        assert exc.value.sample_index == 50

    @pytest.mark.parametrize("phi_ddot_fn, a_t_fn", [
        (np.zeros_like, lambda t: np.where(t >= 0.3, np.nan, 0.01)),
        (lambda t: np.full_like(t, 1e308), np.zeros_like),  # the Euler step overflows
        (lambda t: np.full_like(t, np.nan), np.zeros_like),  # NaN at sample 0
    ], ids=["nan_a_t", "euler_overflow", "nan_at_0"])
    def test_error_index_matches_shadow_reference(self, phi_ddot_fn, a_t_fn):
        profile = MotionProfile(duration=5.0, dt=0.1, phi_ddot_fn=phi_ddot_fn, a_t_fn=a_t_fn)
        params = rig_params(with_errors=False)
        gyro, accel = rig_models(False, 0.17, 0.1)
        # The shadow calls the drives on float times, which give numpy
        # scalars: their overflow would warn where a float's does not.
        with np.errstate(over="ignore"), pytest.raises(SimulationError) as ref_exc:
            shadow_simulate_run(profile, gyro, accel, params, 3)
        with pytest.raises(SimulationError) as exc:
            simulate_run(profile, gyro, accel, params, 3)
        assert exc.value.sample_index == ref_exc.value.sample_index
        assert 0 <= exc.value.sample_index < profile.n_samples

    # The drive that makes sample 1's pulse count 1.5 * 2**63, past int64
    # though a float64 holds it: x_1 = 0.5*a_t*dt*dt at dt = 10 ms.
    PAST_INT64 = 1.5 * 2.0**63 * (2.0 * math.pi * ref.WHEEL_RADIUS_M / RIG_N_DRIVE) / 5e-5

    @pytest.mark.parametrize("a_t", [1e308, 1e290, pytest.param(PAST_INT64, id="past_int64")])
    def test_encoder_overflow_raises_simulation_error(self, a_t):
        # The wheel travel stays finite while its pulse count overflows to
        # inf (1e308) or leaves the int64 range (1e290, PAST_INT64); the
        # first period with travel is sample 1.  Neither floor() nor the
        # int64 column may raise ValueError or OverflowError.
        profile = MotionProfile(duration=1.0, dt=0.01, a_t_fn=lambda t: np.full_like(t, a_t))
        params = rig_params(with_errors=False)
        with pytest.raises(SimulationError) as exc:
            simulate_run(profile, GyroErrorModel(), AccelErrorModel(), params, 0)
        assert exc.value.sample_index == 1

    @pytest.mark.parametrize("N_drive", [RIG_N_DRIVE, 512])
    @pytest.mark.parametrize("accel_noise", [0.0, 0.1])
    @pytest.mark.parametrize("gyro_noise", [0.0, 0.17])
    @pytest.mark.parametrize("with_errors", [True, False])
    def test_matches_per_sample_shadow_reference(self, with_errors, gyro_noise,
                                                 accel_noise, N_drive):
        params = rig_params(with_errors=with_errors, N_drive=N_drive)
        gyro, accel = rig_models(with_errors, gyro_noise, accel_noise)
        profile = default_dynamic_profile(1.5, 0.01, a_t_amp=0.3, a_t_freq_hz=0.4)
        self._assert_bit_identical(profile, gyro, accel, params, seed=21)

    def test_matches_shadow_reference_when_clamped(self):
        # both channels hit their clamp; the tilt swing makes the shadow work
        params = rig_params(with_errors=True, N_drive=512)
        gyro = GyroErrorModel(bias=0.3, noise_std=0.4, saturation=0.5)
        accel = AccelErrorModel(bias_x=0.1, noise_std=0.3, saturation=9.7,
                                scale_poly_x=(0.01, 0.0, 0.0, 0.0, 0.001))
        profile = default_dynamic_profile(1.5, 0.01, tilt_amp_deg=30.0)
        self._assert_bit_identical(profile, gyro, accel, params, seed=11)

    def test_python_calls_per_sample(self):
        # The drives and the Euler prefix sums take whole columns, and the
        # encoder loop calls no Python function: 0 per sample.  The
        # accelerometer columns come from the tilt sweep, whose Python calls
        # are per pass and per block, a few dozen per pass and a handful of
        # passes per block, so the two run lengths may differ by some
        # passes but not by a call per sample.
        params = rig_params(with_errors=True)
        gyro, accel = rig_models(True, 0.17, 0.1)

        def simulate(n):
            profile = default_dynamic_profile(n * params.dt, params.dt)
            return simulate_run(profile, gyro, accel, params, 3)

        n = 1000
        assert abs(_python_calls(simulate, 2 * n) - _python_calls(simulate, n)) < n / 4

    def test_sample_cap_refused_before_allocating(self):
        dt = 0.01
        profile = MotionProfile((MAX_SAMPLES + 1.5) * dt, dt)
        assert profile.n_samples == MAX_SAMPLES + 1
        params = rig_params(with_errors=False)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"more than the cap of {MAX_SAMPLES}"):
                simulate_run(profile, GyroErrorModel(), AccelErrorModel(), params, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @staticmethod
    def _assert_bit_identical(profile, gyro, accel, params, seed):
        truth, log = simulate_run(profile, gyro, accel, params, seed)
        ref_truth, ref_log = shadow_simulate_run(profile, gyro, accel, params, seed)
        for name in TruthLog.COLUMNS:
            assert getattr(truth, name).tobytes() == getattr(ref_truth, name).tobytes(), name
        for name in ("t", "gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count", "enc_missing"):
            assert getattr(log, name).tobytes() == getattr(ref_log, name).tobytes(), name
        assert log.ref_count is None

    @pytest.mark.parametrize("name, drive, shape", [
        ("a_t_fn", lambda t: 0.3, "()"),  # a float, as a per-sample drive returns
        ("a_t_fn", lambda t: t[:3], "(3,)"),
        ("phi_ddot_fn", lambda t: np.zeros((len(t), 2)), "(10, 2)"),
    ], ids=["float", "short", "two_columns"])
    def test_drive_column_of_another_shape_refused(self, name, drive, shape):
        profile = MotionProfile(duration=0.1, dt=0.01, **{name: drive})
        with pytest.raises(ParameterError) as exc:
            simulate_run(profile, GyroErrorModel(), AccelErrorModel(),
                         rig_params(with_errors=False), 0)
        assert str(exc.value) == f"{name} returned shape {shape}, want (10,)"

    def test_profile_validation(self):
        with pytest.raises(ParameterError):
            MotionProfile(duration=1.0, dt=0.0)
        with pytest.raises(ParameterError):
            MotionProfile(duration=0.001, dt=0.01)


class TestTruthColumns:
    """The truth as prefix sums, held to the per-sample Euler loop."""

    @np.errstate(over="ignore", invalid="ignore")
    def test_numpy_accumulate_is_sequential(self):
        # The truth columns are np.add.accumulate prefix sums: numpy's 1-D
        # accumulate must add in order, s_k = s_{k-1} + a_k, in place too.
        # Terms of mixed magnitude make any other order show in the bits.
        # Each special run makes at most one NaN: which of two NaN operands
        # a sum keeps is the compiler's choice, not an order of additions.
        rng = np.random.default_rng(20230921)
        mixed = rng.standard_normal(100_000) * 10.0 ** rng.integers(-12, 13, 100_000)
        specials = ([-0.0, 5e-324, 1e308, 1e308, -1e308, 2.5],  # overflow to inf
                    [-0.0, -0.0], [1.0, np.inf, 3.0, -np.inf, 4.0], [2.0, np.nan, 1.0])
        for terms in (mixed, *map(np.array, specials), np.concatenate([mixed[:999], specials[2]])):
            sums = [float(terms[0])]
            for term in terms[1:].tolist():
                sums.append(sums[-1] + term)
            want = np.array(sums).tobytes()
            assert np.add.accumulate(terms).tobytes() == want
            in_place = terms.copy()
            np.add.accumulate(in_place, out=in_place)
            assert in_place.tobytes() == want

    @staticmethod
    @st.composite
    def profiles(draw):
        """A short run of moderate drives, each of which may take one odd
        value: NaN, infinite, large enough for the Euler sums or the
        encoder to overflow, -0.0 or subnormal."""
        n = draw(st.integers(1, 40))
        dt = draw(st.sampled_from([0.002, 0.01, 0.37]))
        moderate = st.floats(-1e3, 1e3)
        odd = st.sampled_from([np.nan, np.inf, -np.inf, 1e308, -1e308, 1e290, -0.0, 5e-324])

        def drive():
            values = draw(st.lists(moderate, min_size=n, max_size=n))
            if draw(st.booleans()):
                values[draw(st.integers(0, n - 1))] = draw(odd)
            return np.array(values)

        phi_ddot, a_t = drive(), drive()
        profile = MotionProfile((n + 0.5) * dt, dt, phi_ddot_fn=lambda t: phi_ddot,
                                a_t_fn=lambda t: a_t, phi0=draw(moderate),
                                phi_dot0=draw(moderate))
        return profile, draw(st.sampled_from([1, 512, RIG_N_DRIVE]))

    @PROPERTY
    @given(case=profiles())
    @example(case=(MotionProfile(1.0, 0.1, phi_ddot_fn=lambda t: np.where(t > 0.45, np.nan, 1.0)),
                   512))
    @example(case=(MotionProfile(1.0, 0.1, phi_ddot_fn=lambda t: np.full_like(t, 1e308)), 512))
    @example(case=(MotionProfile(1.0, 0.1, a_t_fn=lambda t: np.full_like(t, 1e290)), 512))
    def test_truth_matches_the_euler_loop(self, case):
        # The same bytes, or SimulationError at the same first sample; with
        # error-free sensors a finite truth gives finite sensor columns.
        profile, N_drive = case
        params = CorrectionParams(dt=profile.dt, N_drive=N_drive)
        try:
            want, enc = looped_truth(profile, N_drive / (2.0 * math.pi * params.R_w))
        except SimulationError as ref_exc:
            with pytest.raises(SimulationError) as exc:
                simulate_run(profile, GyroErrorModel(), AccelErrorModel(), params, 0)
            assert exc.value.sample_index == ref_exc.sample_index
            return
        truth, log = simulate_run(profile, GyroErrorModel(), AccelErrorModel(), params, 0)
        got = np.array([getattr(truth, name) for name in TruthLog.COLUMNS[1:]])
        assert got.tobytes() == want.tobytes()
        assert log.enc_count.tobytes() == enc.tobytes()
