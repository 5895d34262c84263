"""Observation models: replication streams, sequence draws, density sampling."""

import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from seqtest.errors import ConfigError
from seqtest.sampling import (
    cdf_grid,
    cumulative_perturbation,
    density_grid,
    draw_sequence_observation,
    evaluate_perturbation,
    iid_sampler,
    min_density,
    rng_for_replication,
    sample_iid,
)
from seqtest.spectra import Spectrum

IDENTITY_ATOL = 1e-12  # inverse-CDF of the uniform must return the raw draws
DERIVATIVE_ATOL = 1e-6  # central difference of the antiderivative
KS_PVALUE_FLOOR = 1e-3


class TestReplicationStreams:
    def test_same_pair_same_stream(self):
        a = rng_for_replication(123, 5).standard_normal(8)
        b = rng_for_replication(123, 5).standard_normal(8)
        np.testing.assert_array_equal(a, b)

    def test_stream_is_seed_sequence_spawn(self):
        want = np.random.Generator(np.random.PCG64(np.random.SeedSequence([9, 2]))).random(4)
        got = rng_for_replication(9, 2).random(4)
        np.testing.assert_array_equal(got, want)

    def test_distinct_replications_distinct_streams(self):
        a = rng_for_replication(123, 0).standard_normal(8)
        b = rng_for_replication(123, 1).standard_normal(8)
        assert not np.allclose(a, b)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ConfigError):
            rng_for_replication(-1, 0)
        with pytest.raises(ConfigError):
            rng_for_replication(0, -3)


class TestSequenceModel:
    def test_cosine_draw_stream(self):
        theta = Spectrum(basis="cosine", coeffs=np.array([0.5, -0.25, 0.0]))
        obs = draw_sequence_observation(theta, n=100, sigma=2.0, rng=rng_for_replication(3, 1))
        want = theta.coeffs + 2.0 / math.sqrt(100) * rng_for_replication(3, 1).standard_normal(3)
        np.testing.assert_array_equal(obs.y.coeffs, want)
        assert obs.n == 100 and obs.sigma == 2.0

    def test_complex_draw_stream(self):
        """Real block first, imaginary block second, j = 0 kept real."""
        theta = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.1 + 0.2j, 0.0]))
        obs = draw_sequence_observation(theta, n=50, sigma=1.0, rng=rng_for_replication(8, 0))
        rng = rng_for_replication(8, 0)
        re = rng.standard_normal(3)
        im = rng.standard_normal(3)
        noise = (re + 1j * im) / math.sqrt(2.0)
        noise[0] = re[0]
        np.testing.assert_array_equal(obs.y.coeffs, theta.coeffs + noise / math.sqrt(50))
        assert obs.y.coeffs[0].imag == 0.0

    def test_unit_variance_per_coordinate(self):
        # complex coordinates must satisfy E |xi_j|^2 = 1
        theta = Spectrum(basis="complex-exponential", coeffs=np.zeros(4, dtype=complex))
        draws = np.array(
            [
                draw_sequence_observation(theta, 1, 1.0, rng_for_replication(77, r)).y.coeffs
                for r in range(4000)
            ]
        )
        second_moment = np.mean(np.abs(draws) ** 2, axis=0)
        np.testing.assert_allclose(second_moment, 1.0, atol=0.08)

    def test_input_validation(self):
        theta = Spectrum(basis="cosine", coeffs=np.array([0.0]))
        with pytest.raises(ConfigError):
            draw_sequence_observation(theta, 0, 1.0, rng_for_replication(0))
        with pytest.raises(ConfigError):
            draw_sequence_observation(theta, 10, 0.0, rng_for_replication(0))


class TestPerturbations:
    @pytest.mark.parametrize(
        "spec",
        [
            Spectrum(basis="cosine", coeffs=np.array([0.3, -0.1, 0.05])),
            Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.1 - 0.05j, 0.02j])),
            Spectrum(basis="haar", coeffs=np.array([0.2, -0.1, 0.15, 0.0, 0.05, 0.0, 0.1])),
        ],
        ids=["cosine", "complex", "haar"],
    )
    def test_antiderivative_matches_central_difference(self, spec):
        # offset keeps every probe away from the dyadic jumps of the step basis
        x = np.linspace(0.05, 0.95, 41) + 1e-3
        h = 1e-6
        numeric = (cumulative_perturbation(spec, x + h) - cumulative_perturbation(spec, x - h)) / (2 * h)
        np.testing.assert_allclose(numeric, evaluate_perturbation(spec, x), atol=DERIVATIVE_ATOL)

    @pytest.mark.parametrize(
        "spec",
        [
            Spectrum(basis="cosine", coeffs=np.array([0.3, -0.1, 0.05])),
            Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.1 - 0.05j])),
            Spectrum(basis="haar", coeffs=np.array([0.2, -0.1, 0.15])),
        ],
        ids=["cosine", "complex", "haar"],
    )
    def test_mass_is_zero(self, spec):
        # mean-zero perturbations: int_0^1 f = 0, so F(1) = 1
        total = cumulative_perturbation(spec, np.array([1.0]))[0]
        assert total == pytest.approx(0.0, abs=1e-14)

    def test_haar_tent_shape(self):
        # single level-1 bump at q = 1: primitive is a tent on (1/2, 1)
        spec = Spectrum(basis="haar", coeffs=np.array([0.0, 0.0, 1.0]))
        x = np.array([0.0, 0.5, 0.625, 0.75, 0.875, 1.0])
        want = np.array([0.0, 0.0, 0.25, 0.5, 0.25, 0.0]) * 2.0 ** (-0.5)
        np.testing.assert_allclose(cumulative_perturbation(spec, x), want, atol=1e-14)

    def test_complex_j0_gives_constant_shift(self):
        spec = Spectrum(basis="complex-exponential", coeffs=np.array([0.25 + 0j]))
        x = np.linspace(0, 1, 9)
        np.testing.assert_allclose(evaluate_perturbation(spec, x), 0.25)
        np.testing.assert_allclose(cumulative_perturbation(spec, x), 0.25 * x)


class TestDensitySampling:
    def test_cdf_grid_monotone(self):
        spec = Spectrum(basis="cosine", coeffs=np.array([0.3, 0.1]))
        assert min_density(spec) > 0
        _, cdf = cdf_grid(spec)
        assert np.all(np.diff(cdf) > 0)
        assert cdf[0] == 0.0 and cdf[-1] == pytest.approx(1.0, abs=1e-12)

    def test_uniform_sampling_is_identity(self):
        spec = Spectrum(basis="cosine", coeffs=np.array([0.0]))
        xs = sample_iid(spec, 256, rng_for_replication(5, 0))
        np.testing.assert_allclose(xs, rng_for_replication(5, 0).random(256), atol=IDENTITY_ATOL)

    def test_draw_order_is_pinned(self):
        """sample_iid returns the points in the order of its uniforms, unsorted."""
        spec = Spectrum(basis="cosine", coeffs=np.array([0.3, -0.1, 0.05]))
        xs = sample_iid(spec, 1000, rng_for_replication(7, 0))
        assert np.any(np.diff(xs) < 0)
        assert hashlib.sha256(xs.tobytes()).hexdigest() == (
            "8241b9f16484300331d203e7f9d9ed3ec73689ee0f1c789f18226282044725a6"
        )

    def test_cdf_grid_must_increase(self):
        # frequency 7 aliases to frequency 1 on the 5-point floor grid, so f
        # vanishes at every node there, yet F(1/2) > F(1) on the 3-point CDF grid
        spec = Spectrum(basis="cosine", coeffs=np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]))
        assert min_density(spec, points=5) == pytest.approx(1.0)
        with pytest.raises(ConfigError, match="increase"):
            iid_sampler(spec, grid_points=3)

    def test_sample_matches_target_cdf(self):
        spec = Spectrum(basis="cosine", coeffs=np.array([0.35, -0.15, 0.1]))
        xs = sample_iid(spec, 4000, rng_for_replication(31, 0))
        result = stats.kstest(xs, lambda t: t + cumulative_perturbation(spec, t))
        assert result.pvalue > KS_PVALUE_FLOOR

    def test_density_floor_enforced(self):
        # 1 + sqrt(2) cos(pi x) dips below zero near x = 1
        spec = Spectrum(basis="cosine", coeffs=np.array([1.0]))
        assert min_density(spec) < 0
        with pytest.raises(ConfigError):
            sample_iid(spec, 10, rng_for_replication(0))

    def test_negative_size_rejected(self):
        spec = Spectrum(basis="cosine", coeffs=np.array([0.0]))
        with pytest.raises(ConfigError):
            sample_iid(spec, -1, rng_for_replication(0))

    def test_density_grid_shape(self):
        spec = Spectrum(basis="cosine", coeffs=np.array([0.2]))
        x, dens = density_grid(spec, points=129)
        assert x.shape == dens.shape == (129,)
        np.testing.assert_allclose(dens, 1.0 + evaluate_perturbation(spec, x))
