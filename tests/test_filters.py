from dataclasses import replace
from functools import partial
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from conftest import simulate_rig
from test_readers import PROPERTY, _python_calls
from tiltkit import filters as F
from tiltkit import reference as ref
from tiltkit.correction import run_correction_arrays
from tiltkit.errors import FilterConfigError, FilterDesignError, ParameterError
from oracles import (
    generator_run_kalman,
    textbook_kalman,
    two_phase_abtg,
    two_phase_complementary,
    two_phase_wa,
    two_phase_wb,
    two_phase_wob,
    unrolled_run_filter,
)

def random_streams(n, seed):
    rng = np.random.default_rng(seed)
    phi = np.cumsum(rng.normal(0, 0.1, n)) + rng.normal(0, 0.5, n)
    rate = rng.normal(0, 5.0, n)
    return phi, rate


FIXED_GAIN_ROWS = [row for row in ref.FILTER_TUNINGS if row.variant in F.FIXED_GAIN_VARIANTS]
KALMAN_ROWS = [row for row in ref.FILTER_TUNINGS if row.variant in F.KALMAN_VARIANTS]


def row_id(row):
    return f"{row.variant}@{row.dt_ms:g}"


def published_spec(variant, dt_ms=2.0):
    row = next(r for r in ref.FILTER_TUNINGS if r.variant == variant and r.dt_ms == dt_ms)
    return F.make_filter(variant, row.params, dt_ms / 1000.0)


class TestMakeFilter:
    def test_wb_reference_matrices(self):
        spec = F.make_filter("wb", {"alpha": 0.00185, "beta": -0.00018}, 0.002)
        assert np.array_equal(spec.A, [[1.0, -0.002], [0.0, 1.0]])
        assert np.array_equal(spec.B, [[0.002], [0.0]])
        assert np.array_equal(spec.C, [[1.0, 0.0]])
        assert np.array_equal(spec.K, [[0.00185], [-0.00018]])

    def test_complementary_coefficients(self):
        T_c, dt = 1.06895, 0.002
        spec = F.make_filter("complementary", {"T_c": T_c}, dt)
        den = dt + T_c
        assert spec.A[0, 0] == pytest.approx(T_c / den, rel=1e-15)
        assert spec.B[0, 0] == pytest.approx(dt / den, rel=1e-15)
        assert spec.B[0, 1] == pytest.approx(T_c * dt / den, rel=1e-15)
        assert np.all(spec.C == 0.0) and np.all(spec.K == 0.0)

    def test_wob_zero_gains(self):
        spec = F.make_filter("wob", {"alpha": 0.0, "beta": 0.0}, 0.01)
        assert np.all(spec.K == 0.0)

    def test_parameter_set_validation(self):
        with pytest.raises(FilterConfigError) as exc:
            F.make_filter("wb", {"alpha": 0.1}, 0.01)
        assert "alpha" in str(exc.value) and "beta" in str(exc.value)
        with pytest.raises(FilterConfigError):
            F.make_filter("wb", {"alpha": 0.1, "beta": 0.0, "theta": 1.0}, 0.01)

    def test_variant_name_normalisation(self):
        assert F.canonical_variant("WA-a") == "wa_a"
        assert F.canonical_variant("kalman*") == "kalman_star"
        assert F.canonical_variant("Complementary") == "complementary"
        with pytest.raises(FilterConfigError):
            F.canonical_variant("bogus")

    def test_complementary_requires_contractive(self):
        with pytest.raises(FilterConfigError):
            F.make_filter("complementary", {"T_c": -0.01}, 0.002)

    @pytest.mark.parametrize("dt", [0.002, 0.01, 0.02])
    def test_complementary_bound_is_minus_half_dt(self, dt):
        # the gain T_c/(dt + T_c) reaches -1 at T_c = -dt/2, as the low-pass's
        for T_c in (-dt / 2, np.nextafter(-dt / 2, -1.0), -0.8 * dt):
            with pytest.raises(FilterConfigError, match=r"^dt \+ 2\*T_c must be positive"):
                F.make_filter("complementary", {"T_c": T_c}, dt)
        T_c = np.nextafter(-dt / 2, 0.0)
        assert -1 < F.make_filter("complementary", {"T_c": T_c}, dt).A[0, 0] < 0

    @pytest.mark.parametrize("variant", F.ALL_VARIANTS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_parameters_rejected(self, variant, bad):
        valid = {row.variant: row.params for row in ref.FILTER_TUNINGS
                 if row.dt_ms == 2.0}[variant]
        names = F.PARAMS[variant]
        if variant in F.KALMAN_VARIANTS:
            valid = {**valid, "alpha0": 0.00185, "beta0": -0.00018}
            names += ("alpha0", "beta0")
        F.make_filter(variant, valid, 0.002)
        for name in names:
            with pytest.raises(FilterConfigError) as exc:
                F.make_filter(variant, {**valid, name: bad}, 0.002)
            assert f"{name}={bad!r}" in str(exc.value)


class TestFilterStep:
    def test_wob_pure_prediction(self):
        spec = F.make_filter("wob", {"alpha": 0.0, "beta": 0.0}, 0.01)
        st = F.filter_step(spec, F.FilterState(np.array([0.0, 10.0])),
                           y_bar=[0.0, 0.0])
        assert st.x_hat == pytest.approx([0.1, 10.0], abs=1e-15)

    def test_complementary_zero_T_c_passthrough(self):
        spec = F.make_filter("complementary", {"T_c": 0.0}, 0.002)
        st = F.filter_step(spec, F.FilterState(np.array([123.0])), u=[0.5, 99.0])
        assert st.x_hat[0] == 0.5

    def test_wb_single_step_hand_value(self):
        spec = F.make_filter("wb", {"alpha": 0.00185, "beta": -0.00018}, 0.002)
        st = F.filter_step(spec, F.FilterState(np.zeros(2)), u=10.0, y_bar=[0.02])
        assert st.x_hat == pytest.approx([0.02, 0.0], abs=1e-15)

    def test_dimension_mismatch(self):
        spec = F.make_filter("wb", {"alpha": 0.1, "beta": 0.0}, 0.01)
        with pytest.raises(ParameterError):
            F.filter_step(spec, F.FilterState(np.zeros(3)), u=1.0, y_bar=[0.0])
        with pytest.raises(ParameterError):
            F.filter_step(spec, F.FilterState(np.zeros(2)), u=1.0, y_bar=[0.0, 1.0])

    def test_kalman_spec_rejected(self):
        spec = F.make_filter("kalman", {"q1": 0.1, "q2": 0.0, "r": 1.0}, 0.01)
        with pytest.raises(FilterConfigError):
            F.filter_step(spec, F.FilterState(np.zeros(2)))


class TestTwoPhaseEquivalence:
    """The unified [A-KCA] form must reproduce the predict/correct equations."""

    N = 1000

    def test_wob(self):
        phi, rate = random_streams(self.N, 1)
        dt, alpha, beta = 0.01, 0.00227, 1.58242
        spec = F.make_filter("wob", {"alpha": alpha, "beta": beta}, dt)
        x = np.array([phi[0], rate[0]])
        st = F.FilterState(x.copy())
        for k in range(1, self.N):
            x = two_phase_wob(x, phi[k], rate[k], dt, alpha, beta)
            st = F.filter_step(spec, st, y_bar=[phi[k], rate[k]])
            assert st.x_hat == pytest.approx(x, abs=1e-12)

    def test_wb(self):
        phi, rate = random_streams(self.N, 2)
        dt, alpha, beta = 0.002, 0.00185, -0.00018
        spec = F.make_filter("wb", {"alpha": alpha, "beta": beta}, dt)
        x = np.array([phi[0], 0.0])
        st = F.FilterState(x.copy())
        for k in range(1, self.N):
            x = two_phase_wb(x, rate[k - 1], phi[k], dt, alpha, beta)
            st = F.filter_step(spec, st, u=rate[k - 1], y_bar=[phi[k]])
            assert st.x_hat == pytest.approx(x, abs=1e-12)

    def test_abtg(self):
        phi, rate = random_streams(self.N, 3)
        dt = 0.002
        p = {"alpha": 0.00204, "beta": -0.00001, "theta": 1.07026, "gamma": -0.00013}
        spec = F.make_filter("abtg", p, dt)
        x = np.array([phi[0], rate[0]])
        st = F.FilterState(x.copy())
        for k in range(1, self.N):
            x = two_phase_abtg(x, phi[k], rate[k], dt, **p)
            st = F.filter_step(spec, st, y_bar=[phi[k], rate[k]])
            assert st.x_hat == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("variant,from_rate,params", [
        # published rows: wa_a tunes theta to zero, wa_b keeps it positive
        ("wa_a", False, {"alpha": 0.00850, "beta": 1.12964, "theta": 0.0}),
        ("wa_b", True, {"alpha": 0.00911, "beta": 0.32710, "theta": 0.01188}),
    ])
    def test_wa_trajectory(self, variant, from_rate, params):
        phi, rate = random_streams(self.N, 4)
        dt = 0.005
        spec = F.make_filter(variant, params, dt)
        x = np.array([phi[0], rate[0], 0.0])
        st = F.FilterState(x.copy())
        for k in range(1, self.N):
            x = two_phase_wa(x, phi[k], rate[k], dt, params["alpha"],
                             params["beta"], params["theta"], from_rate)
            st = F.filter_step(spec, st, y_bar=[phi[k], rate[k]])
            assert st.x_hat == pytest.approx(x, abs=1e-12)

    @pytest.mark.parametrize("variant,from_rate", [("wa_a", False), ("wa_b", True)])
    def test_wa_single_step_algebra(self, variant, from_rate):
        # one step from many random states exercises nonzero theta on both
        # gain placements without accumulating divergence
        rng = np.random.default_rng(40)
        dt = 0.005
        p = {"alpha": 0.00911, "beta": 0.32710, "theta": 0.01188}
        spec = F.make_filter(variant, p, dt)
        for _ in range(200):
            x = rng.normal(0, 5, 3)
            y_phi, y_rate = rng.normal(0, 5, 2)
            expected = two_phase_wa(x, y_phi, y_rate, dt, p["alpha"], p["beta"],
                                    p["theta"], from_rate)
            st = F.filter_step(spec, F.FilterState(x.copy()),
                               y_bar=[y_phi, y_rate])
            assert st.x_hat == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_complementary(self):
        phi, rate = random_streams(self.N, 5)
        dt, T_c = 0.002, 1.06895
        spec = F.make_filter("complementary", {"T_c": T_c}, dt)
        x = np.array([phi[0]])
        st = F.FilterState(x.copy())
        for k in range(1, self.N):
            x = two_phase_complementary(x, phi[k], rate[k], dt, T_c)
            st = F.filter_step(spec, st, u=[phi[k], rate[k]])
            assert st.x_hat == pytest.approx(x, abs=1e-12)


class TestKalman:
    def test_init_P_first_gain_matches(self):
        dt, r = 0.002, 0.02792
        Q = np.diag([0.01076 * dt, 0.0])
        P0 = F.kalman_init_P(0.00185, -0.00018, Q, r, dt)
        ks = F.KalmanState(x_hat=np.zeros(2), P=P0, Q=Q, r=r)
        ks = F.kalman_step(ks, 0.0, 0.0, dt)
        assert ks.K_current == pytest.approx([0.00185, -0.00018], abs=1e-12)

    def test_init_P_zero_case(self):
        P0 = F.kalman_init_P(0.0, 0.0, np.zeros((2, 2)), 1.0, 0.01)
        assert np.abs(P0).max() < 1e-8

    def test_init_P_is_psd(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            alpha = rng.uniform(1e-4, 0.5)
            r = rng.uniform(0.01, 5.0)
            q1 = rng.uniform(0.0, r * alpha / (1 - alpha) * 20.0)
            dt = rng.choice([0.002, 0.005, 0.01, 0.02])
            beta = rng.uniform(-alpha, alpha)
            Q = np.diag([q1, rng.uniform(0, 0.1)])
            try:
                P0 = F.kalman_init_P(alpha, beta, Q, r, dt)
            except FilterDesignError:
                continue
            assert np.linalg.eigvalsh(P0)[0] >= -1e-12
            assert P0[0, 1] == P0[1, 0]

    def test_init_P_infeasible(self):
        # q1*dt above the implied predicted variance cannot be realised
        with pytest.raises(FilterDesignError):
            F.kalman_init_P(0.001, 0.1, np.diag([1.0, 0.0]), 0.01, 0.01)

    def test_huge_r_freezes_estimate(self):
        dt = 0.01
        ks = F.KalmanState(x_hat=np.array([1.0, 0.0]), P=np.eye(2) * 1e-6,
                           Q=np.zeros((2, 2)), r=1e12)
        ks2 = F.kalman_step(ks, 0.0, 50.0, dt)
        assert abs(ks2.K_current[0]) < 1e-15
        assert ks2.x_hat[0] == pytest.approx(1.0, abs=1e-9)

    def test_P_stays_psd_and_k1_bounded(self):
        rng = np.random.default_rng(7)
        dt = 0.002
        Q = np.diag([0.01076 * dt, 0.0])
        ks = F.KalmanState(x_hat=np.zeros(2), P=np.eye(2), Q=Q, r=0.02792)
        for k in range(2000):
            ks = F.kalman_step(ks, rng.normal(0, 5), rng.normal(0, 1), dt)
            assert 0.0 <= ks.K_current[0] <= 1.0
            assert np.array_equal(ks.P, ks.P.T)
            assert np.linalg.eigvalsh(ks.P)[0] >= -1e-12 * ks.P.trace()

    def test_matches_textbook_oracle(self):
        phi, rate = random_streams(1000, 8)
        dt, q1, q2, r = 0.002, 0.01076, 0.0, 0.02792
        Q = np.diag([q1 * dt, q2])
        P0 = F.kalman_init_P(0.00185, -0.00018, Q, r, dt)
        expected = textbook_kalman(phi, rate, dt, q1, q2, r, P0, [phi[0], 0.0])
        ks = F.KalmanState(x_hat=np.array([phi[0], 0.0]), P=P0.copy(), Q=Q, r=r)
        got = [phi[0]]
        for k in range(1, len(phi)):
            ks = F.kalman_step(ks, rate[k - 1], phi[k], dt)
            got.append(ks.x_hat[0])
        assert np.max(np.abs(np.array(got) - expected)) < 1e-9

    def test_singular_innovation(self):
        ks = F.KalmanState(x_hat=np.zeros(2), P=np.zeros((2, 2)),
                           Q=np.zeros((2, 2)), r=0.0)
        with pytest.raises(FilterDesignError):
            F.kalman_step(ks, 0.0, 0.0, 0.01)


class TestStability:
    def test_full_deadbeat(self):
        # C = I, K = I zeroes the dynamics entirely
        spec = F.make_filter("wob", {"alpha": 1.0, "beta": 1.0}, 0.01)
        rep = F.check_stability(spec)
        assert rep.stable
        assert max(rep.magnitudes) < 1e-12

    def test_wb_reference_row_stable(self):
        spec = F.make_filter("wb", {"alpha": 0.00185, "beta": -0.00018}, 0.002)
        rep = F.check_stability(spec)
        assert rep.stable and rep.max_magnitude < 1.0

    def test_wb_zero_beta_marginal(self):
        spec = F.make_filter("wb", {"alpha": 0.0008, "beta": 0.0}, 0.01)
        rep = F.check_stability(spec)
        assert rep.marginal and not rep.stable
        assert rep.max_magnitude == pytest.approx(1.0, abs=1e-12)

    def test_non_finite_gain_classified_unstable(self):
        # built by hand: make_filter refuses the NaN gain itself
        good = F.make_filter("wb", {"alpha": 0.00185, "beta": -0.00018}, 0.002)
        spec = F.FilterSpec("wb", good.A, good.B, good.C,
                            np.array([[float("nan")], [-0.00018]]), 0.002)
        rep = F.check_stability(spec)
        assert rep.classification == "unstable"
        assert not rep.stable and not rep.marginal

    def test_eigenvalues_exact(self):
        # the published rows that print a zero gain leave an eigenvalue at
        # exactly 1 (abtg at 10 ms: exactly 1 - gamma), with no rounding drift
        marginal = 0
        for row in ref.FILTER_TUNINGS:
            if row.variant in F.KALMAN_VARIANTS:
                continue
            spec = F.make_filter(row.variant, row.params, row.dt_ms / 1000.0)
            rep = F.check_stability(spec)
            assert all(type(m) is float for m in rep.magnitudes), row
            assert all(type(z) is complex for z in rep.eigenvalues), row
            if rep.marginal:
                marginal += 1
                assert rep.max_magnitude == 1.0, row
            if (row.variant, row.dt_ms) == ("abtg", 10.0):
                M = spec.A - spec.K @ spec.C @ spec.A
                assert rep.max_magnitude == M[1, 1]
        assert marginal == 6

    def test_triangular_error_matrix_reads_its_diagonal(self):
        # a wa_b candidate of a tuning search: [A - KCA] is upper triangular
        # with eigenvalues 1 - 2**-52 and 1, which a closed-form cubic solver
        # misread as 1 - 1.7e-7 and 1 + 1.4e-7 and so called unstable
        spec = F.make_filter("wa_b", {"alpha": 0.00875, "beta": 2.0 ** -52,
                                      "theta": 0.0}, 0.002)
        rep = F.check_stability(spec)
        M = spec.A - spec.K @ spec.C @ spec.A
        assert sorted(z.real for z in rep.eigenvalues) == sorted(np.diag(M))
        assert rep.marginal and rep.max_magnitude == 1.0

    def test_kalman_variant_converged_gain(self):
        spec = F.make_filter("kalman", dict(ref.KALMAN_NOISE_ANALYSIS), 0.002)
        rep = F.check_stability(spec)
        assert rep.stable
        assert rep.gain is not None
        k1, k2 = rep.gain
        assert 0 < k1 < 1 and k2 <= 0


class TestRunFilter:
    def test_constant_truth_convergence(self):
        # stable spec, constant corrected stream after a start at zero:
        # estimate converges to it
        n = 5000
        phi = np.full(n, 3.0)
        phi[0] = 0.0
        rate = np.zeros(n)
        for variant, params in [
            ("wob", {"alpha": 0.01, "beta": 0.5}),
            ("wb", {"alpha": 0.01, "beta": -0.01}),
            ("complementary", {"T_c": 0.5}),
        ]:
            spec = F.make_filter(variant, params, 0.01)
            est = F.run_filter_arrays(spec, phi, rate)
            assert abs(est[-1] - 3.0) < 1e-3, variant

    def test_wob_is_special_case_of_abtg(self):
        # wob(alpha, beta) corrects the rate from the rate residual with the
        # plain gain, which is abtg with beta=0, theta=0, gamma=beta
        phi, rate = random_streams(1000, 10)
        alpha, beta, dt = 0.00227, 1.58242, 0.01
        wob = F.make_filter("wob", {"alpha": alpha, "beta": beta}, dt)
        abtg = F.make_filter("abtg", {"alpha": alpha, "beta": 0.0,
                                      "theta": 0.0, "gamma": beta}, dt)
        assert np.array_equal(wob.K, abtg.K)
        a = F.run_filter_arrays(wob, phi, rate)
        b = F.run_filter_arrays(abtg, phi, rate)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_complementary_attenuates_measurement_noise(self):
        rng = np.random.default_rng(11)
        n = 20_000
        phi = rng.normal(0.0, 1.0, n)   # pure measurement noise around zero
        rate = np.zeros(n)              # exact rate
        spec = F.make_filter("complementary", {"T_c": 1.0}, 0.01)
        est = F.run_filter_arrays(spec, phi, rate)
        assert est[2000:].var() < 0.1 * phi.var()

    def test_bibo_bounded(self):
        rng = np.random.default_rng(12)
        phi = rng.uniform(-10, 10, 5000)
        rate = rng.uniform(-50, 50, 5000)
        for row in ref.FILTER_TUNINGS:
            if row.variant in ("wb", "wa_b", "complementary") and row.dt_ms == 2.0:
                spec = F.make_filter(row.variant, row.params, 0.002)
                est = F.run_filter_arrays(spec, phi, rate)
                assert np.all(np.isfinite(est))
                assert np.max(np.abs(est)) < 1e4

    def test_fast_paths_match_generic_step(self):
        phi, rate = random_streams(400, 13)
        cases = [
            ("wob", {"alpha": 0.01, "beta": 0.9}, None),
            ("wb", {"alpha": 0.002, "beta": -0.0002}, "wb"),
            ("abtg", {"alpha": 0.002, "beta": -1e-5, "theta": 1.07, "gamma": -1e-4}, None),
            ("wa_a", {"alpha": 0.002, "beta": 1.2, "theta": 0.0}, None),
            ("wa_b", {"alpha": 0.003, "beta": 0.29, "theta": 0.007}, None),
            ("complementary", {"T_c": 1.07}, "comp"),
        ]
        dt = 0.002
        for variant, params, kind in cases:
            spec = F.make_filter(variant, params, dt)
            fast = F.run_filter_arrays(spec, phi, rate)
            st = F.FilterState(F._default_x0(spec, phi[0], rate[0]))
            slow = [st.x_hat[0]]
            for k in range(1, len(phi)):
                if kind == "wb":
                    st = F.filter_step(spec, st, u=rate[k - 1], y_bar=[phi[k]])
                elif kind == "comp":
                    st = F.filter_step(spec, st, u=[phi[k], rate[k]])
                else:
                    st = F.filter_step(spec, st, y_bar=[phi[k], rate[k]])
                slow.append(st.x_hat[0])
            assert np.max(np.abs(fast - np.array(slow))) < 1e-12, variant

    def test_kalman_fast_path_matches_kalman_step(self):
        phi, rate = random_streams(500, 14)
        dt = 0.002
        params = {"q1": 0.00001, "q2": 0.0, "r": 2.3064,
                  "alpha0": 0.00185, "beta0": -0.00018}
        spec = F.make_filter("kalman_star", params, dt)
        fast = F.run_filter_arrays(spec, phi, rate)
        ks = F.make_kalman_state(spec, phi0=phi[0])
        slow = [phi[0]]
        for k in range(1, len(phi)):
            ks = F.kalman_step(ks, rate[k - 1], phi[k], dt)
            slow.append(ks.x_hat[0])
        assert np.max(np.abs(fast - np.array(slow))) < 1e-10

    def test_empty_stream_rejected(self):
        spec = F.make_filter("wb", {"alpha": 0.1, "beta": 0.0}, 0.01)
        with pytest.raises(ParameterError):
            F.run_filter(spec, ([], []))

    @pytest.mark.parametrize("variant", F.ALL_VARIANTS)
    def test_unequal_lengths_rejected(self, variant):
        spec = published_spec(variant)
        phi, rate = random_streams(6, 15)
        for p, r in ((phi, rate[:-1]), (phi, np.append(rate, 1.0)), (phi[:-1], rate)):
            with pytest.raises(ParameterError, match="unequal"):
                F.run_filter_arrays(spec, p, r)

    @pytest.mark.parametrize("variant", F.ALL_VARIANTS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_stream_rejected(self, variant, bad):
        spec = published_spec(variant)
        for column, name in ((0, "phi_bar"), (1, "rate_bar")):
            for k in (0, 4):
                stream = [a.copy() for a in random_streams(6, 16)]
                stream[column][k] = bad
                with pytest.raises(ParameterError, match=rf"{name}\[{k}\]"):
                    F.run_filter_arrays(spec, *stream)
                with pytest.raises(ParameterError, match=rf"{name}\[{k}\]"):
                    F.run_filter(spec, tuple(stream))


def assert_same_bytes(spec, phi, rate):
    new = F.run_filter_arrays(spec, phi, rate)
    old = unrolled_run_filter(spec, phi, rate)
    assert new.tobytes() == old.tobytes(), (spec.variant, spec.dt, spec.params, len(phi))


class TestSharedLoopMatchesUnrolled:
    """The one fixed-gain loop gives the unrolled per-variant loops' bytes."""

    @pytest.mark.parametrize("row", FIXED_GAIN_ROWS, ids=row_id)
    def test_published_and_perturbed_gains(self, row):
        dt = row.dt_ms / 1000.0
        rng = np.random.default_rng(int(row.dt_ms) * 100 + len(row.variant))
        specs = [F.make_filter(row.variant, row.params, dt)]
        while len(specs) < 4:  # perturbed gains that do not overflow
            params = {name: value * (1.0 + 0.2 * rng.standard_normal())
                      + 1e-4 * rng.standard_normal() for name, value in row.params.items()}
            spec = F.make_filter(row.variant, params, dt)
            if F.check_stability(spec).max_magnitude < 1.0:
                specs.append(spec)
        for spec in specs:
            for n in (1, 2, 3, 400, 5000):
                assert_same_bytes(spec, *random_streams(n, n))

    def test_simulated_corrected_log(self):
        _, log, params = simulate_rig(duration=10.0, dt=0.005, gyro_noise=0.17,
                                      accel_noise=0.1, seed=21)
        phi, rate = run_correction_arrays(log, params)
        for row in FIXED_GAIN_ROWS:
            if row.dt_ms == 5.0:
                assert_same_bytes(F.make_filter(row.variant, row.params, 0.005), phi, rate)

    def test_signed_zero_stream(self):
        # The padded state adds +0.0 terms, so an exact -0.0 estimate can
        # come out as +0.0 (e.g. wb on an all -0.0 stream); equal as values.
        rng = np.random.default_rng(18)
        for variant in F.FIXED_GAIN_VARIANTS:
            spec = published_spec(variant)
            for _ in range(5):
                phi, rate = np.copysign(0.0, rng.standard_normal((2, 50)))
                new = F.run_filter_arrays(spec, phi, rate)
                old = unrolled_run_filter(spec, phi, rate)
                assert np.array_equal(new, old) and not np.any(new)

    @pytest.mark.parametrize("variant, params", [
        ("wb", {"alpha": -0.5, "beta": 0.0001}),    # unrolled: inf held to the end
        ("complementary", {"T_c": -0.0019}),        # unrolled: +-inf held to the end
        ("wob", {"alpha": 0.0035, "beta": -9.03}),  # unrolled: one more inf, then nan
        ("wa_b", {"alpha": -0.5, "beta": 0.3, "theta": 0.007}),  # no difference
    ])
    def test_overflow(self, variant, params):
        # After an estimate overflows, a padded zero times inf gives nan
        # where the unrolled loops could still hold +-inf; the estimates
        # are non-finite at the same samples and the finite ones identical.
        if variant == "complementary":
            # make_filter refuses dt + 2*T_c <= 0: write out the spec it
            # would build, with the gain T_c/(dt + T_c) = -19
            dt, T_c = 0.002, params["T_c"]
            spec = replace(F.make_filter(variant, {"T_c": 0.0}, dt), params=params,
                           A=np.array([[T_c / (dt + T_c)]]),
                           B=np.array([[dt / (dt + T_c), T_c * dt / (dt + T_c)]]))
        else:
            spec = F.make_filter(variant, params, 0.002)
        phi, rate = random_streams(5000, 19)
        with np.errstate(all="ignore"):
            new = F.run_filter_arrays(spec, phi, rate)
            old = unrolled_run_filter(spec, phi, rate)
        finite = np.isfinite(old)
        assert not finite.all()
        assert np.array_equal(np.isfinite(new), finite)
        assert new[finite].tobytes() == old[finite].tobytes()
        differ = new.view(np.uint64) != old.view(np.uint64)
        assert np.all(np.isnan(new[differ])) and np.all(np.isinf(old[differ]))


def kalman_outcome(spec, phi, rate):
    """Estimate bytes of the fused Kalman loop and of the generator oracle,
    or the error each raised."""
    outcomes = []
    for run in (F.run_filter_arrays, generator_run_kalman):
        try:
            outcomes.append(run(spec, phi, rate).tobytes())
        except FilterDesignError as exc:
            outcomes.append((type(exc), str(exc)))
    return outcomes


class TestKalmanLoopMatchesGenerator:
    """The Kalman loop with the covariance recursion written in gives the
    generator-driven loop's bytes."""

    @pytest.mark.parametrize("row", KALMAN_ROWS, ids=row_id)
    def test_published_rows(self, row):
        dt = row.dt_ms / 1000.0
        for params in (row.params, {**row.params, "q2": 1e-6},
                       {**row.params, "alpha0": 0.05, "beta0": -0.001}):
            spec = F.make_filter(row.variant, params, dt)
            for n in (1, 2, 3, 400, 5000):
                new, old = kalman_outcome(spec, *random_streams(n, n))
                assert isinstance(new, bytes) and new == old

    @PROPERTY
    @given(variant=st.sampled_from(F.KALMAN_VARIANTS),
           q1=st.floats(0.0, 1e-2), q2=st.one_of(st.just(0.0), st.floats(0.0, 1e-3)),
           r=st.floats(0.0, 20.0), init=st.booleans(), dt=st.sampled_from([0.002, 0.01]),
           n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
    def test_generated(self, variant, q1, q2, r, init, dt, n, seed):
        params = {"q1": q1, "q2": q2, "r": r}
        if init:
            params.update(alpha0=0.00185, beta0=-0.00018)
        spec = F.make_filter(variant, params, dt)
        new, old = kalman_outcome(spec, *random_streams(n, seed))
        assert new == old

    def test_singular_innovation_raised_at_the_same_step(self, monkeypatch):
        # zero covariances everywhere: the first innovation variance is 0
        spec = F.make_filter("kalman", {"q1": 0.0, "q2": 0.0, "r": 0.0}, 0.01)
        monkeypatch.setattr(F, "_initial_P", lambda spec: np.zeros((2, 2)))
        new, old = kalman_outcome(spec, *random_streams(5, 1))
        assert new == old == (FilterDesignError, "singular innovation covariance at step 1")

    def test_loop_makes_no_python_call_per_sample(self):
        # the generator made one Python call per sample
        spec = published_spec(F.KALMAN_STAR)
        phi, rate = random_streams(2000, 20)
        run = partial(F.run_filter, spec)
        assert _python_calls(run, (phi, rate)) < 30
        assert _python_calls(run, (phi, rate)) == _python_calls(run, (phi[:20], rate[:20]))


# Largest |convolution - loop| allowed, as a share of the stream's largest
# magnitude; about 1e-14 is typical (module notes).
CONVOLUTION_TOL = 1e-11


def ref_params(variant, dt_ms):
    return dict(next(r for r in ref.FILTER_TUNINGS
                     if r.variant == variant and r.dt_ms == dt_ms).params)


@st.composite
def fixed_gain_cases(draw):
    """A published fixed-gain row with each gain scaled by a factor in
    [0, 2] (0 gives wb's beta = 0 and wa_a's theta = 0 rows)."""
    row = draw(st.sampled_from(FIXED_GAIN_ROWS))
    params = {name: value * draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0))
              for name, value in row.params.items()}
    return row.variant, params, row.dt_ms / 1000.0


class TestConvolutionMatchesLoop:
    """The FFT convolution gives the loop's estimates to rounding."""

    @PROPERTY
    @given(case=fixed_gain_cases(), n=st.integers(1, 1100), seed=st.integers(0, 2**32 - 1),
           magnitude=st.sampled_from([1e-3, 1.0, 1e3]))
    @example(case=("wb", ref_params("wb", 10.0), 0.01), n=1000, seed=0, magnitude=1.0)
    @example(case=("wb", {"alpha": 0.0, "beta": 0.0}, 0.002), n=1025, seed=1, magnitude=1.0)
    @example(case=("wa_a", ref_params("wa_a", 2.0), 0.002), n=1000, seed=2, magnitude=1.0)
    def test_property(self, case, n, seed, magnitude):
        spec = F.make_filter(*case)
        assume(F.check_stability(spec).classification != "unstable")
        phi, rate = (magnitude * column for column in random_streams(n, seed))
        loop = F.run_filter_arrays(spec, phi, rate)
        fft = F.convolution_filter(spec.variant, phi, rate)(spec)
        assert fft[0] == loop[0] == phi[0]
        scale = max(np.max(np.abs(phi)), np.max(np.abs(rate)))
        assert np.max(np.abs(fft - loop)) <= CONVOLUTION_TOL * scale

    def test_edge_specs_are_marginal(self):
        # the property's examples include the defective and marginal rows
        for case in (("wb", ref_params("wb", 10.0), 0.01),
                     ("wb", {"alpha": 0.0, "beta": 0.0}, 0.002),
                     ("wa_a", ref_params("wa_a", 2.0), 0.002)):
            assert F.check_stability(F.make_filter(*case)).marginal, case

    def test_refusals(self):
        phi, rate = random_streams(10, 21)
        with pytest.raises(FilterConfigError, match="no fixed gain"):
            F.convolution_filter("kalman", phi, rate)
        with pytest.raises(ParameterError, match=r"rate_bar\[3\]"):
            F.convolution_filter("wb", phi, np.where(np.arange(10) == 3, np.nan, rate))
        estimates = F.convolution_filter("wob", phi, rate)
        with pytest.raises(FilterConfigError, match="prepared for wob"):
            estimates(published_spec("abtg"))


class TestSteadyKalmanGainCap:
    """With q2 = 0 the gain search never meets its tolerance: the published
    Kalman rows' stability verdict is set by the iteration cap."""

    @pytest.mark.parametrize("row", KALMAN_ROWS, ids=row_id)
    def test_published_rows_stop_at_the_cap(self, row):
        spec = F.make_filter(row.variant, row.params, row.dt_ms / 1000.0)
        assert spec.params["q2"] == 0.0
        gains = np.array(list(islice(F._kalman_gains(spec, F._initial_P(spec)),
                                     F._RICCATI_MAX_ITER)))
        change = np.abs(np.diff(gains, axis=0))
        met = (change[:, 0] < F._RICCATI_TOL) & (change[:, 1] < F._RICCATI_TOL)
        assert not met.any()
        assert F.steady_kalman_gain(spec) == tuple(gains[-1])
        # |k * k2| never grows: the bias gain decays at least like 1/k; it is
        # flat for kalman, whose k1 has settled, while the kalman_star rows'
        # k1 is still falling at the cap and k2 falls faster.
        k = np.array([1000, 2000, 4000, 8000, 16000, 32000, F._RICCATI_MAX_ITER])
        k_k2 = np.abs(k * gains[k - 1, 1])
        assert np.all(np.diff(k_k2) <= 0.0)
        if row.variant == F.KALMAN:
            assert k_k2[1] / k_k2[-1] < 1.05

    @pytest.mark.parametrize("row", KALMAN_ROWS, ids=row_id)
    def test_verdict_is_one_minus_order_one_over_cap(self, row):
        spec = F.make_filter(row.variant, row.params, row.dt_ms / 1000.0)
        caps = (12_500, 25_000, 50_000)
        margins = []
        for cap in caps:
            k1, k2 = F.steady_kalman_gain(spec, max_iter=cap)
            fixed = replace(spec, variant=F.WB, K=np.array([[k1], [k2]]))
            margins.append(1.0 - F.check_stability(fixed).max_magnitude)
        assert margins[-1] == 1.0 - F.check_stability(spec).max_magnitude
        for cap, margin in zip(caps, margins):
            assert 1.0 <= margin * cap < 3.0
        if row.variant == F.KALMAN:
            # settled k1: the margin halves each time the cap doubles
            for ratio in np.divide(margins[:-1], margins[1:]):
                assert abs(ratio - 2.0) < 0.02
