"""Equal-cell chi-square tests, the Haar identity, and the aliasing expansion."""

import math

import numpy as np
import pytest
from scipy import integrate

from helpers import aliasing_sum, cross_frequency_sum
from seqtest.chisq import (
    block_statistic,
    cell_counts,
    cell_integrals,
    cell_thresholds,
    chisq_statistic,
    chisq_test,
    haar_statistic,
    population_chisq_functional,
    predicted_type2_chisq,
    standardized_chisq,
)
from seqtest.errors import ConfigError
from seqtest.report import upper_quantile
from seqtest.sampling import (
    evaluate_perturbation,
    iid_sampler,
    replication_blocks,
    rng_for_replication,
    sample_iid,
)
from seqtest.spectra import Spectrum

HAAR_IDENTITY_ATOL = 1e-9
ALIASING_ATOL = 1e-8
CELL_QUADRATURE_ATOL = 1e-10
CANCELLATION_ATOL = 1e-10


def _random_complex_spectrum(rng, j_max=6, scale=0.1):
    coeffs = np.zeros(j_max + 1, dtype=complex)
    coeffs[1:] = scale * (rng.normal(size=j_max) + 1j * rng.normal(size=j_max))
    return Spectrum(basis="complex-exponential", coeffs=coeffs)


class TestStatistic:
    def test_all_mass_in_one_cell(self):
        # degenerate sample: T_n = n (k - 1) exactly
        sample = np.full(50, 0.01)
        assert chisq_statistic(sample, 4) == pytest.approx(150.0, abs=1e-10)

    def test_single_observation(self):
        # n = 1 always gives T = k - 1, whatever the point
        for x in (0.0, 0.37, 0.999):
            assert chisq_statistic(np.array([x]), 8) == pytest.approx(7.0, abs=1e-12)

    def test_counts_partition_the_sample(self):
        rng = rng_for_replication(4, 0)
        x = rng.random(257)
        counts = cell_counts(x, 16)
        assert counts.sum() == 257
        assert counts.size == 16
        # cell membership by direct comparison
        want = np.histogram(x, bins=np.linspace(0.0, 1.0, 17))[0]
        np.testing.assert_array_equal(counts, want)

    def test_sample_validation(self):
        # the last cell is closed: a point at 1 counts there
        np.testing.assert_array_equal(cell_counts(np.array([0.5, 1.0]), 4), [0, 0, 1, 1])
        with pytest.raises(ConfigError):
            cell_counts(np.array([-0.1]), 4)
        with pytest.raises(ConfigError):
            cell_counts(np.array([0.5]), 1)

    def test_null_mean_matches_k_minus_one(self):
        k, n, reps = 8, 200, 2000
        vals = np.array(
            [chisq_statistic(rng_for_replication(92, r).random(n), k) for r in range(reps)]
        )
        # E[T] = k - 1 exactly under the null, se ~ sqrt(2(k-1)/reps)
        assert np.mean(vals) == pytest.approx(k - 1.0, abs=4 * math.sqrt(2.0 * (k - 1) / reps))

    def test_standardization(self):
        assert standardized_chisq(11.0, 8) == pytest.approx((11.0 - 7.0) / 4.0)


class TestBlockStatistic:
    @pytest.mark.parametrize("n,k,theta", [
        (300, 8, None),
        (300, 8, Spectrum("complex-exponential", np.array([0.0, 0.1 + 0.05j]))),
        (5000, 50, Spectrum("complex-exponential", np.array([0.0, 0.0, 0.0, 0.08]))),
    ], ids=["null", "alternative", "density workload"])
    def test_rows_have_the_bytes_of_chisq_test(self, n, k, theta):
        """``block_statistic`` on drawn blocks of uniforms, each row sorted for
        an alternative as the engine sorts it, gives row by row and byte for
        byte ``chisq_test``'s standardized statistic of that replication's
        sample drawn alone (``sample_iid`` for an alternative)."""
        seed, lo, hi = 23, 3, 3 + 2 * max(1, 2**17 // (8 * n)) + 1
        score = block_statistic(n, k, None if theta is None else iid_sampler(theta))
        rows = []
        for block in replication_blocks(seed, lo, hi, n, np.random.Generator.random):
            if theta is not None:
                block.sort(axis=1)
            rows.append(score(block))
        rows = np.concatenate(rows)
        assert rows.size == hi - lo
        for rep, row in zip(range(lo, hi), rows):
            rng = rng_for_replication(seed, rep)
            sample = rng.random(n) if theta is None else sample_iid(theta, n, rng)
            assert row.tobytes() == np.float64(chisq_test(sample, k, 0.05).standardized).tobytes(), rep


class TestSampledEndpoint:
    def test_a_sampled_one_counts_in_the_last_cell(self):
        """1 + f is 2.41 at x = 1, so the last uniform below 1 maps to 1.0:
        the functions that read a sample count it in the last cell, as the
        engine does by counting its uniform below the threshold t_k = 1."""
        inverse = iid_sampler(Spectrum(basis="cosine", coeffs=np.array([-0.7, 0.3])))
        u = np.array([0.25, 0.5, 1.0 - 2.0**-53])
        x = inverse(u)
        assert x[-1] == 1.0
        for k in (2, 7, 16):
            engine = np.diff(np.searchsorted(u, cell_thresholds(inverse, k)))
            np.testing.assert_array_equal(cell_counts(x, k), engine)
            np.testing.assert_array_equal(cell_counts(x[-1:], k), np.eye(k, dtype=int)[-1])
            assert chisq_test(x, k, 0.05).statistic == chisq_statistic(x, k)
        assert haar_statistic(x, 4) == pytest.approx(chisq_statistic(x, 16), abs=HAAR_IDENTITY_ATOL)


class TestHaarIdentity:
    @pytest.mark.parametrize("level", [1, 2, 3, 4])
    def test_matches_cell_statistic(self, level):
        rng = rng_for_replication(17, level)
        x = rng.random(300)
        assert haar_statistic(x, level) == pytest.approx(
            chisq_statistic(x, 2**level), abs=HAAR_IDENTITY_ATOL
        )

    def test_nonuniform_sample_too(self):
        spec = Spectrum(basis="cosine", coeffs=np.array([0.4, -0.2]))
        x = sample_iid(spec, 500, rng_for_replication(18, 0))
        assert haar_statistic(x, 3) == pytest.approx(chisq_statistic(x, 8), abs=HAAR_IDENTITY_ATOL)

    def test_level_validation(self):
        with pytest.raises(ConfigError):
            haar_statistic(np.array([0.5]), 0)


class TestCellIntegrals:
    def test_matches_direct_quadrature(self):
        theta = _random_complex_spectrum(rng_for_replication(21, 0))
        k = 5
        p = cell_integrals(theta, k)
        for cell in range(k):
            direct, _ = integrate.quad(
                lambda x: evaluate_perturbation(theta, np.array([x]))[0], cell / k, (cell + 1) / k
            )
            assert p[cell] == pytest.approx(direct, abs=CELL_QUADRATURE_ATOL)

    def test_cells_sum_to_zero_mass(self):
        theta = _random_complex_spectrum(rng_for_replication(22, 0))
        assert cell_integrals(theta, 7).sum() == pytest.approx(0.0, abs=1e-12)

    def test_cosine_basis_rejected(self):
        """So are fewer than two cells, and a sample size below one."""
        theta = Spectrum("complex-exponential", np.array([0.0, 0.1]))
        for refused in (lambda: cell_integrals(Spectrum(basis="cosine", coeffs=np.ones(3)), 4),
                        lambda: cell_integrals(theta, 1), lambda: population_chisq_functional(theta, 8, 0)):
            with pytest.raises(ConfigError):
                refused()

    def test_nonzero_mean_is_not_a_density(self):
        """A j = 0 coefficient other than 0 makes 1 + f integrate to
        1 + coeffs[0]: the prediction helpers refuse it as the sampler
        does, with its message, instead of scoring it (44.05 at k = 8,
        n = 1000 against 4.05 with coeffs[0] = 0)."""
        theta = Spectrum("complex-exponential", np.array([0.2, 0.0, 0.05]))
        with pytest.raises(ConfigError) as sampler:
            iid_sampler(theta)
        for helper in (lambda: cell_integrals(theta, 8), lambda: population_chisq_functional(theta, 8, 1000),
                       lambda: predicted_type2_chisq(theta, 8, 1000, 0.05)):
            with pytest.raises(ConfigError) as refused:
                helper()
            assert str(refused.value) == str(sampler.value) == "not a density: the j = 0 coefficient must be 0, got 0.2"
        mean_zero = Spectrum("complex-exponential", np.array([0.0, 0.0, 0.05]))
        assert population_chisq_functional(mean_zero, 8, 1000) == pytest.approx(4.05, abs=0.005)


class TestAliasing:
    def test_two_paths_agree(self):
        rng = rng_for_replication(23, 0)
        for k in (3, 4, 8):
            theta = _random_complex_spectrum(rng, j_max=9)
            cells = population_chisq_functional(theta, k, 1000)
            aliased = 1000 * aliasing_sum(theta, k)
            assert aliased == pytest.approx(cells, abs=ALIASING_ATOL)

    def test_aliased_requires_mean_zero(self):
        theta = Spectrum(basis="complex-exponential", coeffs=np.array([0.2, 0.1 + 0.1j]))
        with pytest.raises(ConfigError):
            aliasing_sum(theta, 4)

    def test_cross_frequency_terms_cancel(self):
        """The discarded off-lattice pairs sum to zero by phase averaging."""
        rng = rng_for_replication(25, 0)
        for k in (3, 5, 8):
            theta = _random_complex_spectrum(rng, j_max=7)
            assert cross_frequency_sum(theta, k) < CANCELLATION_ATOL


class TestPrediction:
    def test_report_fields(self):
        x = rng_for_replication(26, 0).random(500)
        rep = chisq_test(x, 16, 0.05)
        assert rep.family == "chisq"
        assert rep.threshold == pytest.approx(upper_quantile(0.05))
        assert rep.standardized == pytest.approx(standardized_chisq(rep.statistic, 16))

    def test_out_of_window_functional_warns(self):
        tiny = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 1e-6 + 0j]))
        with pytest.warns(UserWarning, match="outside"):
            predicted_type2_chisq(tiny, 8, 100, 0.05)

    def test_in_window_functional_is_silent(self):
        theta = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.05 + 0j]))
        import warnings

        t_f = population_chisq_functional(theta, 8, 2000)
        assert 0.1 * math.sqrt(8) <= t_f <= 10.0 * math.sqrt(8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            beta = predicted_type2_chisq(theta, 8, 2000, 0.05)
        assert 0.0 < beta < 1.0
