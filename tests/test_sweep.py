"""The tilt feedback sweeps: ``correction.settle_tilt`` as used by
``correct_columns`` and ``simulate_run``, held byte for byte to the
sequential loops of ``oracles``, and the numpy results the sweeps rely on."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import rig_models, rig_params
from oracles import log_slice, looped_accel_columns, looped_correct_columns
from test_correction import _fold_pipeline, correction_cases
from test_readers import PROPERTY
from tiltkit import correction, model
from tiltkit.correction import (SWEEP_PASSES, SWEEP_ROWS, CorrectionParams, correct_columns,
                                correct_gyro, motion_columns, tilt_or_previous)
from tiltkit.logio import RawLog
from tiltkit.model import (AccelErrorModel, GyroErrorModel, MotionProfile,
                           default_dynamic_profile, simulate_run)

# --- numpy's scalar and column results ---------------------------------------
# The sweeps take whole columns where the streaming reference and the loops
# take one float at a time: both must give the same bits.

_rng = np.random.default_rng(20230921)
ARGS = np.concatenate([
    _rng.uniform(-400.0, 400.0, 40_000),             # tilts, degrees
    _rng.uniform(-2 * math.pi, 2 * math.pi, 40_000),  # angles, radians
    _rng.standard_normal(20_000) * 1e-3,              # near zero
    np.arange(-720.0, 720.5, 0.5),                    # exact half degrees
    [0.0, -0.0, 5e-324, -5e-324, 1e-300, math.pi, -math.pi, 180.0, -180.0],
])
DENS = np.concatenate([_rng.uniform(-20.0, 20.0, len(ARGS) - 4), [0.0, -0.0, 9.81, -9.81]])


@pytest.mark.parametrize("name", ["sin", "cos", "degrees", "radians"])
def test_numpy_columns_match_math(name):
    want = np.array([getattr(math, name)(x) for x in ARGS.tolist()])
    assert getattr(np, name)(ARGS).tobytes() == want.tobytes()


@pytest.mark.parametrize("name", ["arctan2", "sin", "cos", "degrees", "radians"])
def test_numpy_scalars_match_columns(name):
    ufunc = getattr(np, name)
    args = (ARGS, DENS) if name == "arctan2" else (ARGS,)
    scalars = np.array([ufunc(*xs) for xs in zip(*(a.tolist() for a in args))])
    assert ufunc(*args).tobytes() == scalars.tobytes()


def test_tilt_rule_columns_match_floats():
    # The streaming reference calls tilt_or_previous on floats, the sweeps
    # on columns.  The last rows: both-zero arguments of each sign, which
    # keep the previous tilt (-0.0 among them); -0.0 over a positive
    # argument, which keeps its sign; and three arctangents of +-180
    # degrees, which the wrap makes 180.
    num = np.concatenate([ARGS, [0.0, -0.0, 0.0, -0.0, -0.0, -0.0, 0.0, -1e-300]])
    den = np.concatenate([DENS, [0.0, 0.0, -0.0, -0.0, 9.81, -9.81, -9.81, -1.0]])
    prev = np.concatenate([np.random.default_rng(1).uniform(-180.0, 180.0, len(ARGS)),
                           [-0.0, 12.5, -179.5, 180.0, 1.0, 1.0, 1.0, 1.0]])
    phi, degenerate = tilt_or_previous(num, den, prev)
    rows = [tilt_or_previous(*xs) for xs in zip(num.tolist(), den.tolist(), prev.tolist())]
    assert phi.tobytes() == np.array([float(p) for p, _ in rows]).tobytes()
    assert degenerate.tolist() == [bool(d) for _, d in rows]
    assert phi[-8:].tobytes() == np.array([-0.0, 12.5, -179.5, 180.0, -0.0, 180.0, 180.0,
                                           180.0]).tobytes()
    assert degenerate[-8:].tolist() == [True] * 4 + [False] * 4


# --- correct_columns == the sequential loop ----------------------------------

def _assert_same_columns(got, want):
    for name, column, expected in zip(got._fields, got, want):
        assert column.tobytes() == expected.tobytes(), name


def _still_log(acc_x, acc_y, gyro=None, enc=None):
    """A raw log at 10 ms: the accelerometer pairs, a still gyro and encoder
    unless given."""
    n = len(acc_x)
    return RawLog(np.arange(n) * 0.01, np.zeros(n) if gyro is None else gyro, acc_x, acc_y,
                  np.zeros(n, dtype=np.int64) if enc is None else enc)


@pytest.fixture
def row_steps(monkeypatch):
    """Row counts of every ``step`` call the sweeps make."""
    rows = []
    settle = correction.settle_tilt

    def spy(step, n):
        def counted(prev, start, stop):
            rows.append(stop - start)
            return step(prev, start, stop)
        return settle(counted, n)

    monkeypatch.setattr(correction, "settle_tilt", spy)
    monkeypatch.setattr(model, "settle_tilt", spy)
    return rows


@pytest.fixture(scope="module")
def long_run():
    """A noisy 2 ms run two blocks and a row long."""
    params = rig_params(dt=0.002)
    gyro, accel = rig_models(True, 0.17, 0.1)
    n = 2 * SWEEP_ROWS + 1
    profile = default_dynamic_profile((n + 0.5) * params.dt, params.dt)
    return simulate_run(profile, gyro, accel, params, 1), gyro, accel, params


@pytest.mark.parametrize("rows", [1, SWEEP_ROWS - 1, SWEEP_ROWS, SWEEP_ROWS + 1,
                                  2 * SWEEP_ROWS + 1])
def test_kernel_matches_loop_across_blocks(long_run, rows):
    (_, log), _, _, params = long_run
    _assert_same_columns(correct_columns(log_slice(log, rows), params),
                         looped_correct_columns(log_slice(log, rows), params))


def test_degenerate_rows_across_a_block_boundary():
    # a still, error-free rig reading zeros on both axes around the block
    # boundary: the tilt before the stretch holds through it
    rng = np.random.default_rng(5)
    n = SWEEP_ROWS + 20
    acc_x, acc_y = rng.uniform(-3.0, 3.0, n), rng.uniform(5.0, 10.0, n)
    acc_x[SWEEP_ROWS - 5:SWEEP_ROWS + 5] = acc_y[SWEEP_ROWS - 5:SWEEP_ROWS + 5] = 0.0
    log, params = _still_log(acc_x, acc_y), CorrectionParams(dt=0.01, N_drive=2000)
    got = correct_columns(log, params)
    _assert_same_columns(got, looped_correct_columns(log, params))
    assert (got.phi_bar[SWEEP_ROWS - 5:SWEEP_ROWS + 5] == got.phi_bar[SWEEP_ROWS - 6]).all()
    assert got.degenerate.sum() == 10


def test_degenerate_run_longer_than_the_pass_cap(row_steps):
    # One tilted sample, then a degenerate run: each pass carries the held
    # tilt one row further, so the pass cap is reached and the rest of the
    # block is finished one row at a time.
    n = 3 * SWEEP_PASSES
    acc_x, acc_y = np.zeros(n), np.zeros(n)
    acc_x[0], acc_y[0] = 1.0, 9.0
    acc_x[-1], acc_y[-1] = -1.0, 9.0
    log, params = _still_log(acc_x, acc_y), CorrectionParams(dt=0.01, N_drive=2000)
    got = correct_columns(log, params)
    assert row_steps.count(n) == SWEEP_PASSES and row_steps.count(1) > 0
    _assert_same_columns(got, looped_correct_columns(log, params))
    assert (got.phi_bar[:-1] == np.degrees(np.arctan2(1.0, 9.0))).all()
    assert got.degenerate[1:-1].all() and not got.degenerate[[0, -1]].any()
    assert got.phi_bar.tobytes() == np.array([c.phi_bar for c in _fold_pipeline(log, params)]
                                             ).tobytes()


def test_large_encoder_counts_force_the_finish(row_steps):
    # With N_drive = 1 the reconstructed translational acceleration dwarfs
    # gravity, so the previous tilt steers every tilt and the passes do not
    # settle within the cap.
    rng = np.random.default_rng(3)
    n = 200
    log = _still_log(rng.uniform(-3.0, 3.0, n), rng.uniform(5.0, 10.0, n),
                     gyro=rng.uniform(-50.0, 50.0, n), enc=rng.integers(-5000, 5000, n))
    params = CorrectionParams(dt=0.01, N_drive=1)
    got = correct_columns(log, params)
    assert row_steps.count(n) == SWEEP_PASSES and row_steps.count(1) > 0
    _assert_same_columns(got, looped_correct_columns(log, params))
    assert np.median(np.abs(got.a_t[1:])) > 1e3 * 9.81


def test_negative_zero_tilt_keeps_its_sign():
    # atan2(-5e-324, 9.8) rounds to -0.0, and the wrap must not turn it into 0.0
    log = _still_log(np.full(8, -5e-324), np.full(8, 9.8))
    params = CorrectionParams(dt=0.01, N_drive=2000)
    got = correct_columns(log, params)
    assert np.signbit(got.phi_bar).all() and (got.phi_bar == 0.0).all()
    _assert_same_columns(got, looped_correct_columns(log, params))
    assert got.phi_bar.tobytes() == np.array([c.phi_bar for c in _fold_pipeline(log, params)]
                                             ).tobytes()


@PROPERTY
@given(case=correction_cases())
def test_kernel_matches_loop(case):
    log, params = case
    _assert_same_columns(correct_columns(log, params), looped_correct_columns(log, params))


# --- simulate_run == the sequential loop ---------------------------------------

def _assert_accel_matches_loop(truth, log, gyro, accel, params, seed):
    """simulate_run's accelerometer columns against the loop, fed the inputs
    simulate_run derives them from: its truth tilt, the motion pre-pass on
    its gyro and encoder columns and its documented noise stream."""
    n = len(log)
    stds = [s for s in (gyro.noise_std, accel.noise_std, accel.noise_std) if s > 0]
    draws = np.random.default_rng(seed).standard_normal((n, len(stds))) * stds
    noise_x, noise_y = draws.T[-2:] if accel.noise_std > 0 else np.zeros((2, n))
    a_c, a_e, a_t = motion_columns(correct_gyro(log.gyro_dps, params.gyro_bias),
                                   log.enc_count, params)
    acc_x, acc_y = looped_accel_columns(truth.phi_deg, a_c, a_e, a_t, noise_x, noise_y,
                                        accel, params)
    assert log.acc_x_mps2.tobytes() == acc_x.tobytes()
    assert log.acc_y_mps2.tobytes() == acc_y.tobytes()


def test_simulate_matches_loop_across_blocks(long_run):
    (truth, log), gyro, accel, params = long_run
    _assert_accel_matches_loop(truth, log, gyro, accel, params, 1)
    for rows in (SWEEP_ROWS - 1, SWEEP_ROWS, SWEEP_ROWS + 1):
        profile = default_dynamic_profile((rows + 0.5) * params.dt, params.dt)
        short = simulate_run(profile, gyro, accel, params, 1)
        assert short[1].acc_x_mps2.tobytes() == log.acc_x_mps2[:rows].tobytes()
        assert short[1].acc_y_mps2.tobytes() == log.acc_y_mps2[:rows].tobytes()


def test_simulate_matches_loop_when_clamped():
    params = rig_params(with_errors=True, N_drive=512)
    gyro = GyroErrorModel(bias=0.3, noise_std=0.4, saturation=0.5)
    accel = AccelErrorModel(bias_x=0.1, noise_std=0.3, saturation=9.7,
                            scale_poly_x=(0.01, 0.0, 0.0, 0.0, 0.001))
    profile = default_dynamic_profile(3.0, 0.01, tilt_amp_deg=30.0)
    truth, log = simulate_run(profile, gyro, accel, params, 11)
    assert (np.abs(log.acc_y_mps2) == 9.7).any()
    _assert_accel_matches_loop(truth, log, gyro, accel, params, 11)


@st.composite
def simulation_cases(draw):
    """A short run on the rig: error models with and without noise, a
    coarse or fine encoder and a translational sway up to 2 m/s^2."""
    with_errors = draw(st.booleans())
    dt = draw(st.sampled_from([0.002, 0.01]))
    params = rig_params(dt=dt, with_errors=with_errors,
                        N_drive=draw(st.sampled_from([1, 512, 65536])))
    gyro, accel = rig_models(with_errors, draw(st.sampled_from([0.0, 0.17])),
                             draw(st.sampled_from([0.0, 0.1])))
    n = draw(st.integers(1, 300))
    profile = default_dynamic_profile((n + 0.5) * dt, dt,
                                      tilt_amp_deg=draw(st.floats(0.0, 40.0)),
                                      a_t_amp=draw(st.floats(0.0, 2.0)))
    return profile, gyro, accel, params, draw(st.integers(0, 2**32 - 1))


@PROPERTY
@given(case=simulation_cases())
def test_simulate_matches_loop(case):
    profile, gyro, accel, params, seed = case
    truth, log = simulate_run(profile, gyro, accel, params, seed)
    _assert_accel_matches_loop(truth, log, gyro, accel, params, seed)


def test_still_profile_settles_in_two_passes(row_steps):
    # no motion: the projection adds exact zeros whatever the previous
    # tilt, so the second pass of each block changes nothing
    params = rig_params(with_errors=False)
    simulate_run(MotionProfile(2.0, 0.01, phi0=3.0), GyroErrorModel(), AccelErrorModel(),
                 params, 0)
    assert row_steps == [200, 200]
