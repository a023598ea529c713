import math
import re
from fractions import Fraction

import numpy as np
import pytest

from oracles import rowwise_trajectories_csv
from test_logio import FINITE_SPECIAL_FLOATS

from tiltkit.analysis import (
    Report,
    Spectrum,
    make_report,
    mse,
    noise_spectrum,
    snr_db,
    spectrum_area,
    spectrum_energy,
)
from tiltkit.errors import ParameterError
from tiltkit.filters import check_stability, make_filter
from tiltkit.logio import BLOCK_ROWS
from tiltkit.tuning import TuningResult
from tiltkit import reference as ref


class TestMse:
    def test_identical(self):
        assert mse([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_unit_offset(self):
        assert mse([0.0, 0.0], [1.0, 1.0]) == 1.0

    def test_direct(self):
        assert mse([0.0, 2.0], [1.0, 0.0]) == 2.5

    def test_sign_symmetry(self):
        a = np.array([1.0, -2.0, 0.5])
        b = np.zeros(3)
        assert mse(a, b) == mse(b, a) == mse(-a, b)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        r = rng.normal(size=100)
        base = mse(r, np.zeros(100))
        assert mse(3.0 * r, np.zeros(100)) == pytest.approx(9.0 * base, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            mse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(ParameterError):
            mse([], [])


class TestNoiseSpectrum:
    def test_zero_signal(self):
        sp = noise_spectrum(np.zeros(256), 0.01)
        assert np.all(sp.magnitudes == 0.0)

    def test_frequency_span(self):
        dt = 0.004
        sp = noise_spectrum(np.ones(300), dt)
        assert sp.frequencies[0] == 0.0
        assert sp.frequencies[-1] == pytest.approx(1.0 / (2 * dt))
        assert len(sp.frequencies) == len(sp.magnitudes)

    def test_pure_tone_single_bin(self):
        n, dt = 1024, 0.001
        k0 = 37
        f0 = k0 / (n * dt)
        t = np.arange(n) * dt
        sig = np.sin(2 * math.pi * f0 * t)
        sp = noise_spectrum(sig, dt)
        peak = sp.magnitudes[k0]
        assert peak == pytest.approx(1.0, rel=1e-9)
        others = np.delete(sp.magnitudes, k0)
        assert np.max(others) < 1e-9 * peak

    def test_parseval(self):
        rng = np.random.default_rng(1)
        sig = rng.normal(size=1000)  # padded to 1024
        sp = noise_spectrum(sig, 0.01)
        energy = float(sig @ sig)
        assert spectrum_energy(sp) == pytest.approx(energy, rel=1e-9)

    def test_too_short(self):
        with pytest.raises(ParameterError):
            noise_spectrum([1.0], 0.01)


class TestSpectrumArea:
    def test_zero(self):
        sp = Spectrum(np.linspace(0, 50, 65), np.zeros(65))
        assert spectrum_area(sp) == 0.0

    def test_flat_rectangle(self):
        F = 50.0
        sp = Spectrum(np.linspace(0.0, F, 201), np.ones(201))
        assert spectrum_area(sp) == pytest.approx(F, rel=1e-12)


class TestSnr:
    def test_equal_energy(self):
        sig = np.array([1.0, -1.0, 2.0])
        assert snr_db(sig, sig) == 0.0

    def test_amplitude_ratio_ten(self):
        rng = np.random.default_rng(2)
        noise = rng.normal(size=1000)
        assert snr_db(10.0 * noise, noise) == pytest.approx(20.0, abs=1e-12)

    def test_constructed_6p3_db(self):
        rng = np.random.default_rng(3)
        noise = rng.normal(size=4096)
        shape = rng.normal(size=4096)
        target = 6.3
        scale = math.sqrt(10 ** (target / 10.0) * float(noise @ noise)
                          / float(shape @ shape))
        signal = shape * scale
        assert snr_db(signal, noise) == pytest.approx(6.3, abs=1e-9)

    def test_zero_noise_sentinel(self):
        assert snr_db(np.ones(4), np.zeros(4)) == float("inf")

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            snr_db(np.ones(3), np.ones(4))


class TestComplementaryIdentityExact:
    def test_continuous_transfer_functions_sum_to_one(self):
        # 1/(1+Ts) + Ts/(1+Ts) == 1 as rational functions: exact rational
        # arithmetic at more distinct points than the degree proves identity
        rng = np.random.default_rng(4)
        for _ in range(25):
            T = Fraction(int(rng.integers(1, 10**6)), int(rng.integers(1, 10**6)))
            s = Fraction(int(rng.integers(-10**6, 10**6)), int(rng.integers(1, 10**6)))
            if 1 + T * s == 0:
                continue
            lp = Fraction(1, 1) / (1 + T * s)
            hp = (T * s) / (1 + T * s)
            assert lp + hp == 1


def _result_rows():
    rows = []
    for tun in ref.FILTER_TUNINGS:
        spec = None
        report = None
        if tun.variant not in ("kalman", "kalman_star"):
            spec = make_filter(tun.variant, tun.params, tun.dt_ms / 1000.0)
            report = check_stability(spec)
        rows.append(TuningResult(
            variant=tun.variant, dt=tun.dt_ms / 1000.0, parameters=dict(tun.params),
            training_mse=tun.mse_training, verification_mse=tun.mse_verification,
            iterations=0, converged=True, stability_report=report))
    return rows


class TestMakeReport:
    def test_single_row(self):
        res = TuningResult("wb", 0.002, {"alpha": 0.00185, "beta": -0.00018},
                           training_mse=1.93816, verification_mse=0.78603,
                           iterations=10, converged=True,
                           stability_report=check_stability(
                               make_filter("wb", {"alpha": 0.00185, "beta": -0.00018}, 0.002)))
        report = make_report([res])
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["alpha"] == 0.00185 and row["beta"] == -0.00018
        assert row["mse_training"] == 1.93816
        assert row["mse_verification"] == 0.78603
        assert row["stability"] == "stable"
        assert "wb" in report.text

    def test_parameters_print_to_five_significant_digits(self):
        # the tune workload's tuned kalman_star: its q1 and q2 printed as
        # 0.00000 at five decimals; the MSEs keep five decimals
        params = {"q1": 3.909745162636557e-09, "q2": 3.5e-12, "r": 0.25}
        res = TuningResult("kalman_star", 0.01, params, training_mse=1.2345678,
                           verification_mse=float("nan"), iterations=7, converged=False,
                           stability_report=None)
        report = make_report([res])
        header, rule, row = report.text.splitlines()
        cells = {header[a:b].strip(): row[a:b].strip()
                 for a, b in (m.span() for m in re.finditer("-+", rule))}
        assert (cells["q1"], cells["q2"], cells["r"]) == ("3.9097e-09", "3.5e-12", "0.25")
        assert (cells["dt_ms"], cells["mse_training"]) == ("10.00000", "1.23457")
        assert "3.909745162636557e-09" in report.results_csv()

    def test_full_sweep_shape(self):
        report = make_report(_result_rows())
        assert len(report.rows) == 32
        variants = {r["variant"] for r in report.rows}
        assert len(variants) == 8

    def test_deterministic(self):
        a = make_report(_result_rows())
        b = make_report(_result_rows())
        assert a.text == b.text
        assert a.results_csv() == b.results_csv()

    def test_csv_roundtrip_full_precision(self, tmp_path):
        report = make_report(_result_rows())
        report.write(tmp_path)
        import csv
        with open(tmp_path / "results.csv", newline="") as fh:
            reader = csv.DictReader(fh)
            back = list(reader)
        assert reader.fieldnames == [
            "variant", "dt_ms", "alpha", "beta", "theta", "gamma", "T_c", "q1", "q2",
            "r", "mse_training", "mse_verification", "stability", "max_eig_magnitude",
            "iterations", "converged"]
        assert len(back) == len(report.rows)
        for orig, parsed in zip(report.rows, back):
            for key, value in orig.items():
                if isinstance(value, float):
                    if math.isnan(value):
                        assert math.isnan(float(parsed[key]))
                    else:
                        assert float(parsed[key]) == value
                elif value is None:
                    assert parsed[key] == ""

    def test_trajectory_rows(self, tmp_path):
        t = np.arange(5) * 0.01
        report = make_report(_result_rows()[:1],
                             trajectories=(t, t * 2, t * 2 + 0.1, t * 2 + 0.05))
        assert list(report.trajectories) == ["t", "phi_true_deg", "phi_bar_deg", "phi_hat_deg"]
        assert all(len(c) == 5 and c.dtype == float for c in report.trajectories.values())
        report.write(tmp_path)
        header = (tmp_path / "trajectories.csv").read_text().splitlines()[0]
        assert header == "t,phi_true_deg,phi_bar_deg,phi_hat_deg"

    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS + 1])
    @pytest.mark.parametrize("k", [4, 5])
    def test_trajectories_csv_matches_rowwise_writer(self, tmp_path, n, k):
        columns = [np.roll(np.resize(FINITE_SPECIAL_FLOATS, n), c) for c in range(k)]
        make_report(_result_rows()[:1], trajectories=columns).write(tmp_path)
        rowwise_trajectories_csv(tmp_path / "old.csv", columns)
        new, old = tmp_path / "trajectories.csv", tmp_path / "old.csv"
        assert new.exists() == old.exists() == (n > 0)
        if n:
            assert new.read_bytes() == old.read_bytes()

    @pytest.mark.parametrize("trajectories", [
        [np.zeros(3)] * 3, [np.zeros(3)] * 6, [np.zeros(3)] * 3 + [np.zeros(2)]])
    def test_trajectories_refused_unless_4_or_5_equal_columns(self, trajectories):
        with pytest.raises(ParameterError, match="trajectories"):
            make_report(_result_rows()[:1], trajectories=trajectories)

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            make_report([])
