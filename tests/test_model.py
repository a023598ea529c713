import math

import numpy as np
import pytest

from conftest import RIG_N_DRIVE, rig_models, rig_params, simulate_rig
from oracles import shadow_simulate_run
from tiltkit import reference as ref
from tiltkit.correction import run_correction_arrays
from tiltkit.errors import ParameterError, SimulationError
from tiltkit.logio import TruthLog
from tiltkit.model import (
    AccelErrorModel,
    GyroErrorModel,
    MotionProfile,
    RobotState,
    default_dynamic_profile,
    simulate_run,
    step_kinematics,
    synthesize_accel,
    synthesize_gyro,
    zero_motion_profile,
)

G = ref.GRAVITY


class TestStepKinematics:
    def test_zero_fixed_point(self):
        out = step_kinematics(RobotState(), 0.01)
        assert out == RobotState()

    def test_constant_rate(self):
        out = step_kinematics(RobotState(phi_dot=10.0), 0.01)
        assert out.phi == pytest.approx(0.1, abs=1e-15)
        assert out.phi_dot == 10.0

    def test_constant_acceleration(self):
        out = step_kinematics(RobotState(phi_ddot=100.0), 0.1)
        assert out.phi == pytest.approx(0.5, abs=1e-15)
        assert out.phi_dot == pytest.approx(10.0, abs=1e-15)
        assert out.phi_ddot == 100.0

    def test_translational_analogue(self):
        out = step_kinematics(RobotState(v_t=2.0, a_t=1.0), 0.1)
        assert out.x_pos == pytest.approx(2.0 * 0.1 + 0.5 * 1.0 * 0.01)
        assert out.v_t == pytest.approx(2.1)

    def test_non_finite_state_rejected(self):
        with pytest.raises(ParameterError):
            step_kinematics(RobotState(phi=float("nan")), 0.01)

    def test_bad_dt_rejected(self):
        with pytest.raises(ParameterError):
            step_kinematics(RobotState(), 0.0)


class TestSynthesizeGyro:
    def test_identity_with_no_interference(self):
        rng = np.random.default_rng(0)
        assert synthesize_gyro(5.0, GyroErrorModel(), rng) == 5.0

    def test_reference_bias(self):
        rng = np.random.default_rng(0)
        model = GyroErrorModel(bias=ref.GYRO_BIAS_DPS)
        assert synthesize_gyro(0.0, model, rng) == pytest.approx(-1.91195, abs=1e-15)

    def test_saturation_clamp(self):
        rng = np.random.default_rng(0)
        model = GyroErrorModel(saturation=250.0)
        assert synthesize_gyro(300.0, model, rng) == 250.0
        assert synthesize_gyro(-300.0, model, rng) == -250.0

    def test_batch_matches_stats(self):
        model = GyroErrorModel(bias=-1.91195, noise_std=0.17)
        vals = synthesize_gyro(0.0, model, np.random.default_rng(3), size=100_000)
        assert abs(vals.mean() + 1.91195) < 3 * 0.17 / math.sqrt(100_000)

    def test_invalid_model(self):
        with pytest.raises(ParameterError):
            GyroErrorModel(noise_std=-1.0)
        with pytest.raises(ParameterError):
            GyroErrorModel(saturation=0.0)


    @pytest.mark.parametrize("kwargs", [{"bias": float("nan")}, {"bias": float("-inf")},
                                        {"noise_std": float("nan")}],
                             ids=["bias_nan", "bias_-inf", "noise_std_nan"])
    def test_non_finite_model_rejected(self, kwargs):
        with pytest.raises(ParameterError, match=next(iter(kwargs))):
            GyroErrorModel(**kwargs)

    def test_infinite_noise_rejected(self):
        with pytest.raises(ParameterError, match="noise_std"):
            GyroErrorModel(noise_std=float("inf"))


class TestSynthesizeAccel:
    def test_vertical_stationary(self):
        params = rig_params(with_errors=False)
        ax, ay = synthesize_accel(RobotState(), AccelErrorModel(),
                                  params, np.random.default_rng(0))
        assert ax == pytest.approx(0.0, abs=1e-15)
        assert ay == pytest.approx(G, abs=1e-12)

    def test_horizontal_stationary(self):
        params = rig_params(with_errors=False)
        ax, ay = synthesize_accel(RobotState(phi=90.0), AccelErrorModel(),
                                  params, np.random.default_rng(0))
        assert ax == pytest.approx(G, abs=1e-12)
        assert ay == pytest.approx(0.0, abs=1e-12)

    def test_reference_biases(self):
        params = rig_params(with_errors=False)
        model = AccelErrorModel(bias_x=-0.02340, bias_y=-0.63629)
        ax, ay = synthesize_accel(RobotState(), model, params, np.random.default_rng(0))
        assert ax == pytest.approx(-0.02340, abs=1e-15)
        assert ay == pytest.approx(G - 0.63629, abs=1e-12)

    def test_centrifugal_term_direction(self):
        # spinning upright robot senses less y acceleration
        params = rig_params(with_errors=False)
        ax, ay = synthesize_accel(RobotState(phi_dot=57.29577951308232),  # 1 rad/s
                                  AccelErrorModel(), params, np.random.default_rng(0))
        assert ay == pytest.approx(G - params.R, rel=1e-9)

    @pytest.mark.parametrize("kwargs, message", [
        ({"bias_x": float("nan")}, "finite"),
        ({"bias_y": float("inf")}, "finite"),
        ({"scale_poly_x": (0.0, 0.0, float("nan"), 0.0, 0.0)}, "finite"),
        ({"scale_poly_y": (float("-inf"),) + (0.0,) * 4}, "finite"),
        ({"noise_std": float("nan")}, "noise_std"),
    ], ids=["bias_x", "bias_y", "scale_poly_x", "scale_poly_y", "noise_std"])
    def test_non_finite_model_rejected(self, kwargs, message):
        with pytest.raises(ParameterError, match=message):
            AccelErrorModel(**kwargs)

    def test_infinite_noise_rejected(self):
        with pytest.raises(ParameterError, match="noise_std"):
            AccelErrorModel(noise_std=float("inf"))


class TestSimulateRun:
    def test_zero_motion_zero_error(self):
        params = rig_params(with_errors=False)
        truth, log = simulate_run(zero_motion_profile(2.0, 0.01),
                                  GyroErrorModel(), AccelErrorModel(), params, 0)
        assert len(truth) == len(log) == 200
        assert np.all(log.gyro_dps == 0.0)
        assert np.all(log.acc_x_mps2 == 0.0)
        assert np.allclose(log.acc_y_mps2, G, atol=1e-12)
        assert np.all(log.enc_count == 0)

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
        # cumulative counts track cumulative wheel travel within one pulse
        params = rig_params(with_errors=False, N_drive=512)
        profile = default_dynamic_profile(10.0, 0.01, a_t_amp=0.3, a_t_freq_hz=0.4)
        truth, log = simulate_run(profile, GyroErrorModel(), AccelErrorModel(),
                                  params, 0)
        pulse_distance = 2 * math.pi * params.R_w / params.N_drive
        travel = truth.x_m - truth.x_m[0]
        reconstructed = np.cumsum(log.enc_count) * pulse_distance
        assert np.max(np.abs(reconstructed - travel)) <= pulse_distance

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
            phi_ddot_fn=lambda t: float("nan") if t >= 0.5 else 0.0)
        params = rig_params(with_errors=False)
        with pytest.raises(SimulationError) as exc:
            simulate_run(profile, GyroErrorModel(), AccelErrorModel(), params, 0)
        assert exc.value.sample_index == 50

    @pytest.mark.parametrize("phi_ddot_fn, a_t_fn", [
        (lambda t: 0.0, lambda t: float("nan") if t >= 0.3 else 0.01),
        (lambda t: 1e308, lambda t: 0.0),       # finite drive, the Euler step overflows
        (lambda t: float("nan"), lambda t: 0.0),  # NaN at sample 0
    ], ids=["nan_a_t", "euler_overflow", "nan_at_0"])
    def test_error_index_matches_shadow_reference(self, phi_ddot_fn, a_t_fn):
        profile = MotionProfile(duration=5.0, dt=0.1, phi_ddot_fn=phi_ddot_fn, a_t_fn=a_t_fn)
        params = rig_params(with_errors=False)
        gyro, accel = rig_models(False, 0.17, 0.1)
        with pytest.raises(SimulationError) as ref_exc:
            shadow_simulate_run(profile, gyro, accel, params, 3)
        with pytest.raises(SimulationError) as exc:
            simulate_run(profile, gyro, accel, params, 3)
        assert exc.value.sample_index == ref_exc.value.sample_index
        assert 0 <= exc.value.sample_index < profile.n_samples

    @pytest.mark.parametrize("a_t", [1e308, 1e290])
    def test_encoder_overflow_raises_simulation_error(self, a_t):
        # The wheel travel stays finite while its pulse count overflows to
        # inf (1e308) or leaves the int64 range (1e290); the first period
        # with travel is sample 1.  Neither floor() nor the int64 column may
        # raise ValueError or OverflowError.
        profile = MotionProfile(duration=1.0, dt=0.01, a_t_fn=lambda t: a_t)
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

    @staticmethod
    def _assert_bit_identical(profile, gyro, accel, params, seed):
        truth, log = simulate_run(profile, gyro, accel, params, seed)
        ref_truth, ref_log = shadow_simulate_run(profile, gyro, accel, params, seed)
        for name in TruthLog.COLUMNS:
            assert getattr(truth, name).tobytes() == getattr(ref_truth, name).tobytes(), name
        for name in ("t", "gyro_dps", "acc_x_mps2", "acc_y_mps2", "enc_count", "enc_missing"):
            assert getattr(log, name).tobytes() == getattr(ref_log, name).tobytes(), name
        assert log.ref_count is None

    def test_profile_validation(self):
        with pytest.raises(ParameterError):
            MotionProfile(duration=1.0, dt=0.0)
        with pytest.raises(ParameterError):
            MotionProfile(duration=0.001, dt=0.01)
