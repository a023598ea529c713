import dataclasses
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rig_params, simulate_rig
from oracles import RawSample, log_rows, log_slice
from test_readers import PROPERTY, _python_calls
from tiltkit import reference as ref
from tiltkit.config import RunConfig
from tiltkit.correction import (
    _lowpass_column,
    CorrectedSample,
    CorrectionParams,
    CorrectionState,
    correct_accel,
    correct_columns,
    correct_gyro,
    correction_pipeline_step,
    discrete_derivative,
    encoder_velocity,
    lowpass_step,
    motion_terms,
    run_correction,
    run_correction_arrays,
    scale_factor,
    tilt_or_previous,
)
from tiltkit.errors import ParameterError
from tiltkit.filters import make_filter, run_filter_arrays
from tiltkit.logio import RawLog
from tiltkit.model import (AccelErrorModel, GyroErrorModel, default_dynamic_profile, simulate_run,
                           zero_motion_profile)

G = ref.GRAVITY


class TestCorrectGyro:
    def test_zero(self):
        assert correct_gyro(0.0, 0.0) == 0.0

    def test_reference_bias_cancels(self):
        assert correct_gyro(-1.91195, -1.91195) == 0.0

    def test_direct(self):
        assert correct_gyro(10.0, -1.91195) == pytest.approx(11.91195, abs=1e-12)


class TestCorrectAccel:
    def test_bias_only(self):
        assert correct_accel(5.0, 1.0, (0.0,) * 5) == 4.0

    def test_reference_poly_at_unit(self):
        # S(1) is the plain coefficient sum
        s = sum(ref.SCALE_POLY_X)
        assert s == pytest.approx(0.03824, abs=1e-12)
        out = correct_accel(1.0 + ref.ACCEL_BIAS_X_MPS2, ref.ACCEL_BIAS_X_MPS2,
                            ref.SCALE_POLY_X)
        assert out == pytest.approx(1.0 - 0.03824, abs=1e-12)

    def test_zero_intercept(self):
        # measurement equal to the bias corrects to exactly zero
        assert correct_accel(-0.63629, -0.63629, ref.SCALE_POLY_Y) == 0.0

    def test_scale_factor_horner_matches_polyval(self):
        rng = np.random.default_rng(0)
        for p in rng.uniform(-12, 12, 50):
            via_polyval = np.polyval(list(reversed(ref.SCALE_POLY_Y)) + [0.0], p)
            assert scale_factor(p, ref.SCALE_POLY_Y) == pytest.approx(via_polyval, rel=1e-12)


class TestLowpass:
    def test_passthrough_at_zero_T(self):
        assert lowpass_step(7.5, -3.0, 0.0, 0.01) == 7.5

    def test_halfway(self):
        assert lowpass_step(1.0, 0.0, 0.01, 0.01) == 0.5

    def test_monotone_convergence(self):
        y = 0.0
        prev_gap = 5.0
        for _ in range(50):
            y = lowpass_step(5.0, y, 0.05, 0.01)
            gap = 5.0 - y
            assert 0 <= gap < prev_gap
            prev_gap = gap

    def test_negative_T_contractive(self):
        # the tuned 20 ms row carries T_v = -0.00065; still a contraction
        T, dt = -0.00065, 0.02
        assert abs(T / (dt + T)) < 1
        y = 10.0
        for _ in range(200):
            y = lowpass_step(0.0, y, T, dt)
        assert abs(y) < 1e-12

    def test_invalid(self):
        with pytest.raises(ParameterError):
            lowpass_step(1.0, 0.0, -0.02, 0.01)

    # The feedback gain T/(dt+T) reaches -1 at T = -dt/2: from there down to
    # T = -dt the recurrence oscillates without decaying.
    @pytest.mark.parametrize("dt", [0.002, 0.01, 0.02])
    @pytest.mark.parametrize("T", ["half", "below_half", "diverging"])
    def test_refused_from_minus_half_dt(self, dt, T):
        T = {"half": -dt / 2, "below_half": np.nextafter(-dt / 2, -1.0),
             "diverging": -0.8 * dt}[T]
        assert -dt < T <= -dt / 2 and T / (dt + T) <= -1
        with pytest.raises(ParameterError, match=r"dt \+ 2\*T > 0"):
            lowpass_step(1.0, 0.0, T, dt)
        with pytest.raises(ParameterError, match=r"dt \+ 2\*T > 0"):
            _lowpass_column(np.ones(3), 0.0, T, dt)

    @pytest.mark.parametrize("dt", [0.002, 0.01, 0.02])
    def test_accepted_just_above_minus_half_dt(self, dt):
        T = np.nextafter(-dt / 2, 0.0)
        assert -1 < T / (dt + T) < 0
        x = np.array([0.0, 1.0, -2.0, 3.0])
        y = [0.0]
        for xk in x[1:]:
            y.append(lowpass_step(xk, y[-1], T, dt))
        assert _lowpass_column(x, 0.0, T, dt).tolist() == y


class TestDerivativeAndEncoder:
    def test_derivative_constant(self):
        assert discrete_derivative(3.3, 3.3, 0.004) == 0.0

    def test_derivative_direct(self):
        assert discrete_derivative(1.0, 0.0, 0.01) == pytest.approx(100.0)

    def test_derivative_exact_on_ramp(self):
        r, dt = 2.5, 0.01
        ys = [r * k * dt for k in range(10)]
        for a, b in zip(ys[1:], ys):
            assert discrete_derivative(a, b, dt) == pytest.approx(r, rel=1e-12)

    def test_encoder_zero(self):
        assert encoder_velocity(0, 2000, 0.0375, 0.01) == 0.0

    def test_encoder_full_revolution(self):
        dt = 0.01
        v = encoder_velocity(2000, 2000, 0.0375, dt)
        assert v == pytest.approx(2 * math.pi * 0.0375 / dt, rel=1e-12)

    def test_encoder_direct(self):
        v = encoder_velocity(10, 2000, 0.0375, 0.01)
        assert v == pytest.approx(0.117810, abs=5e-7)


class TestMotionAccelerations:
    def test_zero_history(self):
        params = rig_params(with_errors=False)
        state = CorrectionState(initialized=True)
        a_c, a_e, *_ = motion_terms(0.0, 0, state, params)
        assert a_c == 0.0 and a_e == 0.0

    def test_steady_rate_centrifugal(self):
        # 1 rad/s steady: a_c = R exactly, a_e tends to zero
        params = rig_params(with_errors=False)
        rate_dps = math.degrees(1.0)
        state = CorrectionState(initialized=True)
        a_c = a_e = None
        for _ in range(500):
            a_c, a_e, _, _, _, rf, _ = motion_terms(rate_dps, 0, state, params)
            state = CorrectionState(prev_rate_filtered=rf, initialized=True)
        assert a_c == pytest.approx(0.135, rel=1e-12)
        assert abs(a_e) < 1e-10

    def test_ramp_rate_angular_acceleration(self):
        # rate ramping at 2 rad/s^2: a_e converges to 2*R = 0.27
        params = rig_params(with_errors=False)
        state = CorrectionState(initialized=True)
        a_e = None
        for k in range(1, 2000):
            rate_dps = math.degrees(2.0 * k * params.dt)
            a_c, a_e, _, _, _, rf, _ = motion_terms(rate_dps, 0, state, params)
            state = CorrectionState(prev_rate_filtered=rf, initialized=True)
        assert a_e == pytest.approx(0.27, rel=1e-6)


def corrected_tilt(*args):
    """The tilt of :func:`tilt_or_previous` where it is defined."""
    ax_bar, ay_bar, a_e, a_c, a_t_x, a_t_y = args
    phi, degenerate = tilt_or_previous(ax_bar + a_e + a_t_x, ay_bar + a_c - a_t_y, 7.0)
    assert not degenerate
    return phi


class TestCorrectedTilt:
    def test_vertical(self):
        assert corrected_tilt(0.0, G, 0.0, 0.0, 0.0, 0.0) == 0.0

    def test_diagonal(self):
        assert corrected_tilt(3.3, 3.3, 0.0, 0.0, 0.0, 0.0) == pytest.approx(45.0)

    def test_direct_value(self):
        # arctan(0.65 / 9.17) with all six contributions
        expected = math.degrees(math.atan2(0.65, 9.17))
        out = corrected_tilt(0.5, 9.0, 0.1, 0.2, 0.05, 0.03)
        assert out == pytest.approx(expected, abs=1e-12)
        assert out == pytest.approx(4.05453, abs=1e-5)

    def test_degenerate(self):
        # both arguments zero: the previous tilt, flagged
        assert tilt_or_previous(0.0, 0.0, 12.5) == (12.5, True)
        assert tilt_or_previous(1.0 + -1.0 + 0.0, 2.0 + -2.0 - 0.0, 12.5) == (12.5, True)

    def test_positive_scaling_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            args = rng.uniform(-5, 5, 6)
            if args[0] + args[2] + args[4] == 0 and args[1] + args[3] - args[5] == 0:
                continue
            c = rng.uniform(0.01, 100.0)
            a = corrected_tilt(*args)
            b = corrected_tilt(*(args * c))
            assert b == pytest.approx(a, abs=1e-9)

    def test_output_range(self):
        assert corrected_tilt(0.0, -1.0, 0.0, 0.0, 0.0, 0.0) == 180.0
        assert -180.0 < corrected_tilt(-1e-12, -1.0, 0.0, 0.0, 0.0, 0.0) <= 180.0


class TestPipeline:
    def test_static_vertical_all_zero(self):
        params = rig_params(with_errors=False)
        truth, log = simulate_run(zero_motion_profile(1.0, 0.01),
                                  GyroErrorModel(), AccelErrorModel(), params, 0)
        out = run_correction(log, params)
        assert all(c.phi_bar == 0.0 for c in out)
        assert all(c.rate_bar == 0.0 for c in out)

    def test_gyro_bias_cancellation_is_exact(self):
        truth, log, params = simulate_rig(duration=3.0, with_errors=True)
        _, rate_bar = run_correction_arrays(log, params)
        assert np.max(np.abs(rate_bar - truth.phi_dot_dps)) < 1e-12

    def test_zero_motion_intermediates_zero(self):
        params = rig_params(with_errors=True)
        gyro = GyroErrorModel(bias=ref.GYRO_BIAS_DPS)
        accel = AccelErrorModel(bias_x=ref.ACCEL_BIAS_X_MPS2,
                                bias_y=ref.ACCEL_BIAS_Y_MPS2)
        params = CorrectionParams(dt=params.dt, N_drive=params.N_drive,
                                  gyro_bias=ref.GYRO_BIAS_DPS,
                                  accel_bias_x=ref.ACCEL_BIAS_X_MPS2,
                                  accel_bias_y=ref.ACCEL_BIAS_Y_MPS2,
                                  T_omega=params.T_omega, T_v=params.T_v)
        truth, log = simulate_run(zero_motion_profile(1.0, 0.01), gyro, accel, params, 0)
        out = run_correction(log, params)
        for c in out[1:]:
            assert c.a_c == 0.0 and c.a_e == 0.0 and c.a_t == 0.0

    def test_causality(self):
        truth, log, params = simulate_rig(duration=2.0)
        base = run_correction(log, params)
        mutated = log_slice(log, None)
        mutated.gyro_dps[150] += 25.0
        mutated.acc_x_mps2[150] += 1.0
        out = run_correction(mutated, params)
        for k in range(150):
            assert out[k] == base[k]
        assert out[150] != base[150]

    def test_first_sample_initialisation(self):
        params = rig_params(with_errors=False)
        raw = RawSample(t=0.0, gyro_dps=3.0, acc_x_mps2=1.0, acc_y_mps2=9.0,
                        enc_count=5)
        out, state = correction_pipeline_step(raw, params, CorrectionState())
        assert out.phi_bar == pytest.approx(math.degrees(math.atan2(1.0, 9.0)))
        assert out.rate_bar == 3.0
        assert state.initialized
        assert state.prev_v_filtered == 0.0
        assert state.prev_rate_filtered == pytest.approx(math.radians(3.0))

    def test_missing_encoder_flagged(self):
        params = rig_params(with_errors=False)
        state = CorrectionState()
        s0 = RawSample(t=0.0, gyro_dps=0.0, acc_x_mps2=0.0, acc_y_mps2=G, enc_count=0)
        _, state = correction_pipeline_step(s0, params, state)
        s1 = RawSample(t=0.01, gyro_dps=0.0, acc_x_mps2=0.0, acc_y_mps2=G,
                       enc_count=0, enc_missing=True)
        out, _ = correction_pipeline_step(s1, params, state)
        assert out.enc_missing
        assert out.a_t == 0.0

    def test_degenerate_sample_reuses_previous_tilt(self):
        params = rig_params(with_errors=False)
        state = CorrectionState()
        s0 = RawSample(t=0.0, gyro_dps=0.0, acc_x_mps2=1.0, acc_y_mps2=9.0, enc_count=0)
        out0, state = correction_pipeline_step(s0, params, state)
        s1 = RawSample(t=0.01, gyro_dps=0.0, acc_x_mps2=0.0, acc_y_mps2=0.0, enc_count=0)
        out1, _ = correction_pipeline_step(s1, params, state)
        assert out1.degenerate
        assert out1.phi_bar == out0.phi_bar


def _fold_pipeline(log, params):
    """The streaming reference: correction_pipeline_step folded over a log."""
    state = CorrectionState()
    out = []
    for raw in log_rows(log):
        sample, state = correction_pipeline_step(raw, params, state)
        out.append(sample)
    return out


def _dynamic_log_with_missing_encoder():
    truth, log, params = simulate_rig(duration=3.0, gyro_noise=0.1, accel_noise=0.05)
    missing = [0, 17, 18, 120]
    log.enc_missing[missing] = True
    log.enc_count[missing] = 9          # stored counts must be ignored
    log.acc_x_mps2[[60, 61]] = 0.0     # zero readings, corrected by the biases
    log.acc_y_mps2[[60, 61]] = 0.0
    return log, params


def _static_log_with_degenerate_samples():
    # zero-error rig standing still: no motion terms, so zeroing both
    # accelerometer channels leaves both arctangent arguments at zero
    params = rig_params(with_errors=False)
    truth, log = simulate_run(zero_motion_profile(3.0, 0.01), GyroErrorModel(),
                              AccelErrorModel(noise_std=0.05), params, 4)
    degenerate = [40, 41, 150]
    log.acc_x_mps2[degenerate] = 0.0
    log.acc_y_mps2[degenerate] = 0.0
    log.enc_missing[[41, 200]] = True
    log.enc_count[[41, 200]] = 7
    return log, params


class TestKernelMatchesStreamingReference:
    @pytest.fixture(params=["dynamic", "static"])
    def case(self, request):
        if request.param == "dynamic":
            return _dynamic_log_with_missing_encoder()
        return _static_log_with_degenerate_samples()

    def test_every_field_of_run_correction(self, case):
        log, params = case
        expected = _fold_pipeline(log, params)
        got = run_correction(log, params)
        assert len(got) == len(expected) == len(log)
        for f in dataclasses.fields(CorrectedSample):
            # repr tells float from numpy scalar and 0.0 from -0.0
            assert ([repr(getattr(c, f.name)) for c in got]
                    == [repr(getattr(c, f.name)) for c in expected]), f.name
        assert sum(c.enc_missing for c in got) == int(log.enc_missing.sum()) > 0

    def test_both_arrays_of_run_correction_arrays(self, case):
        log, params = case
        expected = _fold_pipeline(log, params)
        phi_bar, rate_bar = run_correction_arrays(log, params)
        assert phi_bar.tobytes() == np.array([c.phi_bar for c in expected]).tobytes()
        assert rate_bar.tobytes() == np.array([c.rate_bar for c in expected]).tobytes()

    def test_degenerate_samples_present(self):
        log, params = _static_log_with_degenerate_samples()
        flags = [k for k, c in enumerate(run_correction(log, params)) if c.degenerate]
        assert flags == [40, 41, 150]

    @pytest.mark.parametrize("name, k", [("a_c", 1), ("a_t", 5)])
    def test_overflowing_motion_term_refused_by_both(self, name, k, dynamic_run_clean):
        # TestParamsValidation's overflows, a 1e300 deg/s gyro bias on 3
        # samples and 2**62 pulses in one 1e-300 s period: the reference
        # names the term at the sample of the fold where the kernel does.
        _, log, params = dynamic_run_clean
        if name == "a_c":
            log, params = log_slice(log, 3), dataclasses.replace(params, gyro_bias=1e300)
        else:
            n = 10
            log = RawLog(t=np.arange(n) * 0.01, gyro_dps=np.zeros(n), acc_x_mps2=np.zeros(n),
                         acc_y_mps2=np.full(n, G), enc_count=np.where(np.arange(n) == k, 2**62, 0))
            params = dataclasses.replace(params, dt=1e-300)
        state, folded = CorrectionState(), 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as kernel_exc:
                correct_columns(log, params)
            with pytest.raises(ParameterError) as ref_exc:
                for raw in log_rows(log):
                    state = correction_pipeline_step(raw, params, state)[1]
                    folded += 1
        assert str(kernel_exc.value) == (f"{name}[{k}] is inf where rate_bar[{k}] is finite: "
                                         "the motion term overflowed")
        assert str(ref_exc.value) == (f"{name} is inf where rate_bar is finite: "
                                      "the motion term overflowed")
        assert folded == k

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rate_is_no_overflow_to_either(self, value, dynamic_run_clean):
        # the motion terms of a non-finite corrected rate are not finite
        # either; both pass them on for the filters to refuse
        _, log, params = dynamic_run_clean
        log, params = log_slice(log, 20), dataclasses.replace(params, gyro_bias=value)
        got = correct_columns(log, params)
        expected = _fold_pipeline(log, params)
        for name, column in zip(got._fields, got):
            want = np.array([getattr(c, name) for c in expected], dtype=column.dtype)
            assert column.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_short_logs(self, n):
        truth, log, params = simulate_rig(duration=0.05, gyro_noise=0.1, accel_noise=0.05)
        log = log_slice(log, n)
        assert run_correction(log, params) == _fold_pipeline(log, params)
        phi_bar, rate_bar = run_correction_arrays(log, params)
        assert len(phi_bar) == len(rate_bar) == n


class TestSampleZero:
    """Sample 0 gets the tilt rule of every later sample, from the vertical prior."""

    @pytest.mark.parametrize("dt", [0.002, 0.01])
    def test_zero_noise_round_trip_exact_at_every_sample(self, dt):
        # reference biases, zero polynomials, no noise: the corrected tilt
        # is the true tilt at every sample, sample 0 included
        params = dataclasses.replace(rig_params(dt), scale_poly_x=(0.0,) * 5,
                                     scale_poly_y=(0.0,) * 5)
        gyro = GyroErrorModel(bias=ref.GYRO_BIAS_DPS)
        accel = AccelErrorModel(bias_x=ref.ACCEL_BIAS_X_MPS2, bias_y=ref.ACCEL_BIAS_Y_MPS2)
        truth, log = simulate_run(default_dynamic_profile(2.0, dt), gyro, accel, params, 1)
        corrected = correct_columns(log, params)
        err = np.abs(corrected.phi_bar - truth.phi_deg)
        assert err[0] <= 1e-12
        assert err.max() <= 1e-12
        assert not corrected.degenerate.any()

    def test_sample_zero_at_the_biases_is_degenerate(self):
        # sample 0 reads exactly the accelerometer biases, so both corrected
        # components are zero: the tilt keeps the vertical prior, flagged
        _, log, params = simulate_rig(duration=0.5, gyro_noise=0.1, accel_noise=0.05)
        log.acc_x_mps2[0] = params.accel_bias_x
        log.acc_y_mps2[0] = params.accel_bias_y
        corrected = correct_columns(log, params)
        assert corrected.phi_bar[0] == 0.0
        assert corrected.degenerate[0]
        folded = _fold_pipeline(log, params)
        assert folded[0].phi_bar == 0.0
        assert folded[0].degenerate
        assert corrected.phi_bar.tobytes() == np.array([c.phi_bar for c in folded]).tobytes()


class TestParamsValidation:
    def test_requires_positive_dt(self):
        with pytest.raises(ParameterError):
            CorrectionParams(dt=0.0, N_drive=100)

    def test_requires_contractive_lowpass(self):
        with pytest.raises(ParameterError):
            CorrectionParams(dt=0.01, N_drive=100, T_v=-0.02)

    def test_accepts_tuned_negative_T_v(self):
        p = CorrectionParams(dt=0.02, N_drive=100, T_v=-0.00065)
        assert p.T_v == -0.00065

    @pytest.mark.parametrize("field", ["T_omega", "T_v"])
    @pytest.mark.parametrize("dt", [0.002, 0.01, 0.02])
    def test_contractive_bound_is_minus_half_dt(self, field, dt):
        for T in (-dt / 2, np.nextafter(-dt / 2, -1.0), -0.8 * dt):
            with pytest.raises(ParameterError, match=rf"^dt \+ 2\*{field} must be positive"):
                CorrectionParams(dt=dt, N_drive=100, **{field: T})
        T = np.nextafter(-dt / 2, 0.0)
        assert getattr(CorrectionParams(dt=dt, N_drive=100, **{field: T}), field) == T

    def test_rig_defaults_from_reference(self):
        # one source for the rig's geometry and its 10 ms low-pass tuning
        params = CorrectionParams(dt=0.01, N_drive=1)
        lp = ref.lowpass_tuning(10.0)
        assert (params.R, params.R_w, params.T_omega, params.T_v) == (
            ref.SENSOR_DISTANCE_M, ref.WHEEL_RADIUS_M, lp.T_omega, lp.T_v)
        assert RunConfig(dt_ms=10, N_drive=1).correction_params() == params

    def test_bundled_tunings_inside_contractive_bound(self):
        for row in ref.LOWPASS_TUNINGS:
            dt = row.dt_ms / 1000.0
            assert min(row.T_omega, row.T_v) > -dt / 2
            CorrectionParams(dt=dt, N_drive=100, T_omega=row.T_omega, T_v=row.T_v)

    def test_poly_length(self):
        with pytest.raises(ParameterError):
            CorrectionParams(dt=0.01, N_drive=100, scale_poly_x=(1.0,))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", ["dt", "N_drive", "accel_bias_x", "accel_bias_y", "R",
                                       "R_w", "T_omega", "T_v"]
                             + [f"scale_poly_{axis}[{i}]" for axis in "xy" for i in range(5)])
    def test_non_finite_value_refused(self, field, value):
        name, _, index = field.partition("[")
        kwargs = dict(dt=0.01, N_drive=100)
        if index:
            kwargs[name] = tuple(value if i == int(index[0]) else 0.0 for i in range(5))
        else:
            kwargs[name] = value
        with pytest.raises(ParameterError, match=f"^{name} must be finite"):
            CorrectionParams(**kwargs)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_gyro_bias_left_to_the_filters(self, value, dynamic_run_clean):
        # a non-finite gyro bias makes every corrected rate non-finite, and
        # the filters refuse that stream, naming the sample
        _, log, params = dynamic_run_clean
        with np.errstate(invalid="ignore"):
            corrected = correct_columns(log, dataclasses.replace(params, gyro_bias=value))
        assert not np.isfinite(corrected.rate_bar).any()
        spec = make_filter("wb", {"alpha": 0.00185, "beta": -0.00018}, params.dt)
        with pytest.raises(ParameterError, match=r"\[1\] is"):
            run_filter_arrays(spec, corrected.phi_bar, corrected.rate_bar)

    @pytest.mark.parametrize("name, k", [("a_c", 1), ("a_t", 5)])
    def test_overflowing_motion_term_refused(self, name, k, dynamic_run_clean):
        # A finite corrected rate whose centrifugal term overflows (a 1e300
        # deg/s bias), or 2**62 pulses in one 1e-300 s period, whose velocity
        # overflows: the kernel names the term and its first sample.
        _, log, params = dynamic_run_clean
        if name == "a_c":
            params = dataclasses.replace(params, gyro_bias=1e300)
        else:
            n = 10
            log = RawLog(t=np.arange(n) * 0.01, gyro_dps=np.zeros(n), acc_x_mps2=np.zeros(n),
                         acc_y_mps2=np.full(n, ref.GRAVITY),
                         enc_count=np.where(np.arange(n) == k, 2**62, 0))
            params = dataclasses.replace(params, dt=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError) as exc:
                correct_columns(log, params)
        assert str(exc.value) == (f"{name}[{k}] is inf where rate_bar[{k}] is finite: "
                                  "the motion term overflowed")


def test_kernel_makes_no_python_call_per_sample(dynamic_run_clean):
    # The low-passes loop over plain floats and the tilt feedback is
    # settled in whole-column passes: a whole-log correction makes a fixed
    # number of Python calls (numpy's own, the elementwise helpers and the
    # sweep's step once per pass), the same for 20 or 2,000 samples, which
    # both settle in one block of the same number of passes.
    _, log, params = dynamic_run_clean
    n, fixed = 2000, 100
    kernel = partial(correct_columns, params=params)
    assert _python_calls(kernel, log_slice(log, n)) < fixed
    assert _python_calls(kernel, log_slice(log, n)) == _python_calls(kernel, log_slice(log, 20))


# --- kernel == streaming reference, on generated logs ------------------------

@st.composite
def correction_cases(draw):
    """A raw log and its CorrectionParams.  Missing encoder samples, zeroed
    accelerometer pairs (degenerate on a still, error-free rig), readings
    at the +-180 deg wrap and negative time constants down to the
    contractive bound T > -dt/2."""
    n = draw(st.integers(1, 40))
    dt = draw(st.sampled_from([0.002, 0.01]))
    lag = st.floats(-0.5 * dt, 0.05, exclude_min=True)
    still = draw(st.booleans())
    errors = {} if still else dict(
        gyro_bias=draw(st.floats(-3.0, 3.0)), accel_bias_x=draw(st.floats(-1.0, 1.0)),
        accel_bias_y=draw(st.floats(-1.0, 1.0)), scale_poly_x=ref.SCALE_POLY_X,
        scale_poly_y=ref.SCALE_POLY_Y)
    params = CorrectionParams(dt=dt, N_drive=draw(st.sampled_from([1, 2000, 65536])),
                              T_omega=draw(lag), T_v=draw(lag), **errors)
    gyro = [0.0] * n if still else draw(st.lists(st.floats(-300.0, 300.0), min_size=n, max_size=n))
    enc = [0] * n if still else draw(st.lists(st.integers(-500, 500), min_size=n, max_size=n))
    wrap = st.tuples(st.sampled_from([-1.0, 1.0]),
                     st.sampled_from([0.0, 5e-324, 1e-300, 1e-17, 1e-3])).map(lambda p: p[0] * p[1])
    acc = draw(st.lists(st.one_of(
        st.just((0.0, 0.0)),
        st.tuples(wrap, st.floats(-20.0, -1.0)),
        st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0))), min_size=n, max_size=n))
    log = RawLog(np.arange(n) * dt, gyro, [a[0] for a in acc], [a[1] for a in acc], enc,
                 enc_missing=draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return log, params


@PROPERTY
@given(case=correction_cases())
def test_kernel_matches_streaming_reference(case):
    log, params = case
    got = correct_columns(log, params)
    expected = _fold_pipeline(log, params)
    for name, column in zip(got._fields, got):
        want = np.array([getattr(c, name) for c in expected], dtype=column.dtype)
        assert column.tobytes() == want.tobytes(), name


def test_correction_cases_reach_every_branch():
    seen = set()

    @PROPERTY
    @given(case=correction_cases())
    def collect(case):
        log, params = case
        got = correct_columns(log, params)
        seen.update(name for name, hit in [
            ("degenerate", got.degenerate.any()), ("missing", log.enc_missing[1:].any()),
            ("tilt_180", (got.phi_bar[1:] == 180.0).any()),
            ("negative_T", min(params.T_omega, params.T_v) < 0)] if hit)

    collect()
    assert seen == {"degenerate", "missing", "tilt_180", "negative_T"}
