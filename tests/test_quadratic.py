"""Weighted quadratic coefficient tests and the weight-profile diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import check_regularity, half_mass_index
from seqtest.errors import ConfigError
from seqtest.quadratic import (
    a_n_value,
    drift,
    example_coefficients,
    noncentrality,
    null_sd,
    predicted_type2_quadratic,
    quadratic_statistic,
    quadratic_test,
    scale_to_drift,
)
from seqtest.report import normal_cdf, upper_quantile
from seqtest.sampling import draw_sequence_observation, rng_for_replication
from seqtest.spectra import Spectrum

# A_n for the rational weight family at n = 1000, gamma = 2, j_max = 4096;
# frozen from a direct evaluation of n^2 sum kappa^4.
A_N_REF = 0.7695866217730798
A_N_RTOL = 1e-12

ROUNDTRIP_RTOL = 1e-12


class TestExampleCoefficients:
    def test_frozen_a_n(self):
        kq = example_coefficients(1000, 2.0, 4096)
        assert a_n_value(kq, 1000, 1.0) == pytest.approx(A_N_REF, rel=A_N_RTOL)

    def test_closed_form_entries(self):
        kq = example_coefficients(100, 1.5, 8)
        j = 3.0
        want = 100.0 ** (-1.0 / 3.0) * (j**-1.5 / 100.0) / (j**-1.5 + 1.0 / 100.0)
        assert kq[2] == pytest.approx(want, rel=1e-15)

    def test_profile_nonincreasing(self):
        kq = example_coefficients(500, 2.5, 256)
        assert np.all(np.diff(kq) <= 0)

    def test_validation(self):
        with pytest.raises(ConfigError):
            example_coefficients(0, 2.0, 16)
        with pytest.raises(ConfigError):
            example_coefficients(100, 0.5, 16)


class TestStatistic:
    def test_handcrafted_value(self):
        # kappa^2 = (1, 1), y = (1, 2), n = 4: T = 5 - (1/4) * 2
        t = quadratic_statistic(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 4, 1.0)
        assert t == pytest.approx(4.5, rel=1e-15)

    def test_accepts_cosine_spectrum(self):
        y = Spectrum(basis="cosine", coeffs=np.array([1.0, 2.0]))
        t = quadratic_statistic(y, np.array([1.0, 1.0]), 4, 1.0)
        assert t == pytest.approx(4.5, rel=1e-15)

    def test_rejects_complex_spectrum(self):
        y = Spectrum(basis="complex-exponential", coeffs=np.array([1.0 + 0j]))
        with pytest.raises(ConfigError):
            quadratic_statistic(y, np.array([1.0]), 4, 1.0)

    def test_length_mismatch(self):
        with pytest.raises(ConfigError):
            quadratic_statistic(np.ones(3), np.ones(4), 10, 1.0)

    def test_null_mean_and_sd(self):
        kq = example_coefficients(200, 2.0, 128)
        vals = np.array(
            [
                quadratic_statistic(
                    draw_sequence_observation(
                        Spectrum(basis="cosine", coeffs=np.zeros(128)), 200, 1.0, rng_for_replication(51, r)
                    ).y,
                    kq,
                    200,
                    1.0,
                )
                for r in range(3000)
            ]
        )
        sd = null_sd(kq, 200, 1.0)
        assert abs(np.mean(vals)) < 4 * sd / math.sqrt(3000)
        assert np.std(vals) == pytest.approx(sd, rel=0.1)


class TestDrift:
    def test_standardization_identity(self):
        # mean shift over null sd equals A_n(theta) / sqrt(2 A_n) exactly
        kq = example_coefficients(300, 2.0, 64)
        theta = np.full(64, 0.01)
        shift = 300.0**2 * np.sum(kq * theta**2)
        assert drift(theta, kq, 300, 1.0) == pytest.approx(
            shift / (300.0**2 * null_sd(kq, 300, 1.0)), rel=1e-12
        )
        assert noncentrality(theta, kq, 300, 1.0) == pytest.approx(shift, rel=1e-14)

    @given(target=st.floats(min_value=0.05, max_value=6.0))
    def test_scale_roundtrip(self, target):
        kq = example_coefficients(150, 2.0, 32)
        shape = Spectrum(basis="cosine", coeffs=np.linspace(0.2, 0.01, 32))
        scaled = scale_to_drift(shape, kq, 150, 1.0, target)
        assert drift(scaled, kq, 150, 1.0) == pytest.approx(target, rel=ROUNDTRIP_RTOL)

    def test_scale_requires_overlap(self):
        kq = np.array([1.0, 1.0])
        shape = Spectrum(basis="cosine", coeffs=np.zeros(2))
        with pytest.raises(ConfigError):
            scale_to_drift(shape, kq, 10, 1.0, 1.0)

    def test_predicted_type2_endpoints(self):
        kq = example_coefficients(100, 2.0, 32)
        # no signal: predicted type II error is 1 - alpha
        assert predicted_type2_quadratic(np.zeros(32), kq, 100, 1.0, 0.05) == pytest.approx(0.95, rel=1e-12)
        big = scale_to_drift(Spectrum(basis="cosine", coeffs=np.ones(32)), kq, 100, 1.0, 40.0)
        assert predicted_type2_quadratic(big, kq, 100, 1.0, 0.05) < 1e-12

    def test_report_fields(self):
        kq = example_coefficients(100, 2.0, 16)
        y = np.zeros(16)
        rep = quadratic_test(y, kq, 100, 1.0, 0.05, theta=np.zeros(16))
        assert rep.family == "quadratic"
        assert rep.threshold == pytest.approx(upper_quantile(0.05))
        assert rep.standardized < 0  # all-zero observation sits below the null mean
        assert not rep.reject
        assert rep.predicted_type2 == pytest.approx(normal_cdf(upper_quantile(0.05)))


class TestRegularity:
    def test_example_family_passes(self):
        kq = example_coefficients(2000, 2.0, 1024)
        rep = check_regularity(kq, 2000, 1.0)
        assert rep.all_ok
        assert rep.a1_monotone
        assert rep.a2_value == pytest.approx(a_n_value(kq, 2000, 1.0), rel=1e-15)
        assert 0.0 < rep.a4_ratio < 1.0

    def test_half_mass_index_flat_profile(self):
        # flat profile of length 8: first k with head mass above half is 5
        assert half_mass_index(np.ones(8)) == 5

    def test_spike_profile_fails_step_condition(self):
        kq = np.ones(64)
        kq[10] = 100.0  # one violent step inside the window
        rep = check_regularity(kq, 1000, 1.0)
        assert not rep.a3_ok
        assert not rep.all_ok

    def test_split_mass_fails_window_condition(self):
        # half the mass in a 4-frequency head, the rest far beyond the window
        kq = np.ones(4096)
        kq[:4] = 1000.0
        rep = check_regularity(kq, 1000, 1.0)
        assert not rep.a5_ok
        assert not rep.all_ok

    def test_validation(self):
        with pytest.raises(ConfigError):
            check_regularity(np.array([1.0, -1.0, 1.0, 1.0]), 100, 1.0)
        with pytest.raises(ConfigError):
            check_regularity(np.ones(3), 100, 1.0)
