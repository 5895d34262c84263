"""Observation models: replication streams, sequence draws, density sampling."""

import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy import stats

from helpers import valid_spectra
from seqtest import sampling
from seqtest.chisq import cell_counts, chisq_test, haar_statistic
from seqtest.cvm import calibrate_cvm, cvm_statistic, cvm_test
from seqtest.errors import ConfigError
from seqtest.sampling import (
    BLOCK_BYTES,
    MAX_GUIDE_BUCKETS,
    MIN_DENSITY,
    _inverse_cdf,
    cdf_grid,
    complex_pairs,
    cumulative_perturbation,
    draw_sequence_observation,
    evaluate_perturbation,
    iid_sampler,
    min_density,
    replication_blocks,
    replication_rngs,
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


class TestReplicationBlocks:
    """``replication_rngs`` yields the generators of ``rng_for_replication``,
    word for word, inside a block, across block edges and past 2**32, 2**64
    and 2**96: a seed and an index of five or more 32-bit words in all reach
    the SeedSequence mix past its pool of four."""

    @staticmethod
    def _assert_same(seed, lo, rngs):
        for rep, rng in zip(itertools.count(lo), rngs):
            want = np.random.SeedSequence([seed, rep]).generate_state(4, np.uint64)
            np.testing.assert_array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), want)
            np.testing.assert_array_equal(
                rng.standard_normal(16), rng_for_replication(seed, rep).standard_normal(16)
            )

    @given(
        seed=st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64, 2**96 + 5, 2**200 + 3]), st.integers(0, 2**34)),
        lo=st.one_of(st.integers(0, 5000), st.integers(2**32 - 300, 2**32 + 3), st.integers(2**64 - 2, 2**64 + 300)),
        span=st.sampled_from([1, 255, 256, 257]),
    )
    @example(seed=0, lo=3, span=255)
    @example(seed=0, lo=100, span=257)
    @example(seed=2**32 - 1, lo=511, span=256)
    @example(seed=2**32 - 1, lo=1, span=1)
    @example(seed=2**32, lo=5, span=257)
    @example(seed=7, lo=2**32 - 200, span=257)
    @example(seed=2**64, lo=2**64 - 2, span=257)
    @example(seed=2**96 + 5, lo=2**32 - 2, span=256)
    @example(seed=2**200 + 3, lo=2**64 - 2, span=255)
    def test_block_matches_scalar_reference(self, seed, lo, span):
        rngs = list(replication_rngs(seed, lo, lo + span))
        assert len(rngs) == span
        self._assert_same(seed, lo, rngs)

    def test_one_path_for_every_seed(self, monkeypatch):
        """A seed or index past 2**32 is hashed a block at a time like any
        other, with no call to the scalar reference."""
        def scalar(seed, replication=0):
            raise AssertionError("replication_rngs fell back to rng_for_replication")

        monkeypatch.setattr(sampling, "rng_for_replication", scalar)
        for seed, lo, hi in [(5 * 10**9, 0, 300), (7, 2**32 - 2, 2**32 + 300)]:
            rngs = list(replication_rngs(seed, lo, hi))
            assert len(rngs) == hi - lo
            for rep, rng in zip(itertools.count(lo), rngs):
                want = np.random.SeedSequence([seed, rep]).generate_state(4, np.uint64)
                np.testing.assert_array_equal(rng.bit_generator.seed_seq.generate_state(4, np.uint64), want)

    @pytest.mark.parametrize("seed", [0, 2**32 - 1, 2**32])
    def test_past_two_to_the_32_is_lazy(self, seed):
        # a range reaching far past 2**32 builds only the generators taken
        lo = 2**32 - 2
        self._assert_same(seed, lo, itertools.islice(replication_rngs(seed, lo, 2**40), 5))

    def test_empty_range(self):
        assert list(replication_rngs(3, 10, 10)) == []
        assert list(replication_rngs(3, 10, 4)) == []

    def test_negative_inputs_rejected_at_the_call(self):
        with pytest.raises(ConfigError):
            replication_rngs(-1, 0, 5)
        with pytest.raises(ConfigError):
            replication_rngs(0, -3, 5)


ROWS_AT_100 = BLOCK_BYTES // (8 * 100)  # rows of a block of 100 draws

DRAW_BLOCK_CASES = {
    "from lo > 0": (5, 7, 7 + ROWS_AT_100, 100),
    "partial last block": (5, 3, 3 + 2 * ROWS_AT_100 + 5, 100),
    "one-row blocks": (5, 2, 6, BLOCK_BYTES // 8 + 3),
    "seed past 2**32": (2**32 + 9, 4, 4 + ROWS_AT_100 + 2, 100),
}


class TestReplicationDrawBlocks:
    """``replication_blocks`` draws replication r into its row of one reused
    buffer, with the values of ``rng_for_replication(seed, r)`` drawn alone."""

    @pytest.mark.parametrize("seed, lo, hi, width", DRAW_BLOCK_CASES.values(), ids=DRAW_BLOCK_CASES.keys())
    @pytest.mark.parametrize("draw", [np.random.Generator.random, np.random.Generator.standard_normal],
                             ids=["random", "standard_normal"])
    def test_rows_match_the_scalar_reference(self, seed, lo, hi, width, draw):
        rows = max(1, BLOCK_BYTES // (8 * width))
        blocks = replication_blocks(seed, lo, hi, width, draw)
        first = None
        starts = range(lo, hi, rows)
        for start, block in zip(starts, blocks, strict=True):
            first = block if first is None else first
            assert np.shares_memory(block, first)
            assert block.shape == (min(rows, hi - start), width)
            for rep, row in zip(range(start, hi), block):
                np.testing.assert_array_equal(row, draw(rng_for_replication(seed, rep), width))

    def test_empty_range(self):
        assert list(replication_blocks(3, 10, 10, 8, np.random.Generator.random)) == []


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

    @pytest.mark.parametrize("complex_", [False, True])
    def test_reused_buffer_matches_fresh_draws(self, complex_):
        # the engine's sequence draws: the normals of a replication in a row of
        # a reused block, paired (re, im) for complex coordinates with the bits
        # of the complex quotient (re + i im) / sqrt(2)
        size = 513
        width = 2 * size if complex_ else size
        rep = 0
        for block in replication_blocks(21, 0, 50, width, np.random.Generator.standard_normal):
            got = complex_pairs(block).view(complex) if complex_ else block
            for row in got:
                rng = rng_for_replication(21, rep)
                if complex_:
                    re = rng.standard_normal(size)
                    im = rng.standard_normal(size)
                    want = (re + 1j * im) / math.sqrt(2.0)
                    want[0] = re[0]
                else:
                    want = rng.standard_normal(size)
                np.testing.assert_array_equal(row, want)
                rep += 1
        assert rep == 50

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
        ],
        ids=["cosine", "complex"],
    )
    def test_antiderivative_matches_central_difference(self, spec):
        x = np.linspace(0.05, 0.95, 41) + 1e-3
        h = 1e-6
        numeric = (cumulative_perturbation(spec, x + h) - cumulative_perturbation(spec, x - h)) / (2 * h)
        np.testing.assert_allclose(numeric, evaluate_perturbation(spec, x), atol=DERIVATIVE_ATOL)

    @pytest.mark.parametrize(
        "spec",
        [
            Spectrum(basis="cosine", coeffs=np.array([0.3, -0.1, 0.05])),
            Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.1 - 0.05j])),
        ],
        ids=["cosine", "complex"],
    )
    def test_mass_is_zero(self, spec):
        # mean-zero perturbations: int_0^1 f = 0, so F(1) = 1
        total = cumulative_perturbation(spec, np.array([1.0]))[0]
        assert total == pytest.approx(0.0, abs=1e-14)

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

    def test_cdf_grid_must_increase(self, monkeypatch):
        # frequency 7 aliases to frequency 1 on the 5-point floor grid, so f
        # vanishes at every node there, yet F(1/2) > F(1) on the 3-point CDF grid
        monkeypatch.setattr(sampling, "GRID_POINTS", 3)
        spec = Spectrum(basis="cosine", coeffs=np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0, -1.0]))
        assert cdf_grid(spec)[0].size == 3
        assert min_density(spec) == pytest.approx(1.0)
        with pytest.raises(ConfigError, match="increase"):
            iid_sampler(spec)

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

    @pytest.mark.parametrize("mean", [-0.1, 0.2])
    def test_nonzero_mean_is_not_a_density(self, mean):
        # 1 + f integrates to 1 + mean, so its CDF grid ends at 1 + mean
        spec = Spectrum("complex-exponential", np.array([mean, 0.0, 0.05]))
        with pytest.raises(ConfigError, match="j = 0 coefficient must be 0"):
            sample_iid(spec, 10, rng_for_replication(0))

    def test_negative_size_rejected(self):
        spec = Spectrum(basis="cosine", coeffs=np.array([0.0]))
        with pytest.raises(ConfigError):
            sample_iid(spec, -1, rng_for_replication(0))

    @pytest.mark.parametrize("frequency", [1, 16384])
    @pytest.mark.parametrize("gap", [0.0, 0.5, 0.99, 1.01, 2.0])
    def test_min_density_is_the_floor_check(self, frequency, gap):
        """1 + (1 - gap MIN_DENSITY) cos(pi j x) has least value gap
        MIN_DENSITY, at x = 1 and, for j = 16384, at every odd node m/16384
        of the floor grid, none of which lies on a coarser grid: the sampler
        refuses it exactly when ``min_density`` reads it below the floor."""
        coeffs = np.zeros(frequency)
        coeffs[-1] = (1.0 - gap * MIN_DENSITY) / math.sqrt(2.0)
        spec = Spectrum("cosine", coeffs)
        below = min_density(spec) < MIN_DENSITY
        assert below == (gap < 1.0)
        if below:
            with pytest.raises(ConfigError, match="bounded away from zero"):
                iid_sampler(spec)
        else:
            iid_sampler(spec)

    @pytest.mark.parametrize("least,accepted", [(1e-7, True), (1e-10, False)])
    def test_floor_is_1e_9(self, least, accepted):
        # 1 + (1 - least) cos(pi x) has least value `least`, at x = 1
        spec = Spectrum("cosine", np.array([(1.0 - least) / math.sqrt(2.0)]))
        assert min_density(spec) == pytest.approx(least, abs=1e-12)
        if accepted:
            iid_sampler(spec)
        else:
            with pytest.raises(ConfigError, match="bounded away from zero"):
                iid_sampler(spec)

    def test_haar_target_is_refused(self):
        # a Haar bump at index 2^14 - 1 with coefficient 1/128 makes 1 + f
        # reach 0 on (2^-15, 2^-14), between the points of the floor grid
        coeffs = np.zeros(2**14)
        coeffs[-1] = 1.0 / 128.0
        with pytest.raises(ConfigError, match="unknown basis"):
            iid_sampler(Spectrum("haar", coeffs))


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _probes(cdf: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """The uniforms, both ends of [0, 1], the largest double below 1, and
    every CDF node with the doubles just either side of it, kept in [0, 1]."""
    u = np.concatenate([
        uniforms, [0.0, 1.0, np.nextafter(1.0, 0.0)],
        cdf, np.nextafter(cdf, -np.inf), np.nextafter(cdf, np.inf),
    ])
    return u[(u >= 0.0) & (u <= 1.0)]


class TestSampleValidation:
    """Both density families read a sample through ``validate_sample``."""

    READERS = {
        "cell_counts": lambda x: cell_counts(x, 4),
        "chisq_test": lambda x: chisq_test(x, 4, 0.05),
        "haar_statistic": lambda x: haar_statistic(x, 2),
        "cvm_statistic": cvm_statistic,
        "cvm_test": lambda x: cvm_test(x, 0.05, calibrate_cvm(x.size, reps=100, seed=5)),
    }

    @pytest.mark.parametrize("reader", READERS)
    @pytest.mark.parametrize("where", [0, 2, 4])
    def test_nan_is_a_config_error(self, reader, where):
        x = np.linspace(0.0, 1.0, 5)
        x[where] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigError, match="finite points of"):
                self.READERS[reader](x)

    @pytest.mark.parametrize("reader", READERS)
    def test_range_is_the_closed_unit_interval(self, reader):
        self.READERS[reader](np.array([0.0, 0.5, 1.0, 1.0, 0.25]))
        for bad in (-0.1, 1.0 + 2.0**-52, np.inf):
            with pytest.raises(ConfigError):
                self.READERS[reader](np.array([0.5, bad, 0.25, 0.75, 0.1]))


class TestInverseCdf:
    """iid_sampler's map is np.interp(u, cdf, x), bit for bit, on [0, 1]."""

    @given(spec=valid_spectra, seed=st.integers(0, 2**32 - 1))
    def test_bits_of_np_interp(self, spec, seed):
        x, cdf = cdf_grid(spec)
        u = _probes(cdf, rng_for_replication(seed, 0).random(2000))
        assert _bits(iid_sampler(spec)(u)) == _bits(np.interp(u, cdf, x))

    @pytest.mark.parametrize("mean", [0.01, -0.01], ids=["above", "below"])
    def test_last_node_either_side_of_one(self, mean):
        # a complex spectrum's j = 0 coefficient is the mean of f, so F(1) = 1 + mean
        # (iid_sampler refuses such a spectrum, so the map is built from its grid)
        spec = Spectrum("complex-exponential", np.array([mean, 0.02 - 0.01j]))
        x, cdf = cdf_grid(spec)
        assert (cdf[-1] > 1.0) if mean > 0 else (cdf[-1] < 1.0)
        u = _probes(cdf, np.linspace(0.95, 1.0, 4001))
        assert _bits(_inverse_cdf(x, cdf, np.diff(cdf))(u)) == _bits(np.interp(u, cdf, x))

    def test_rows_map_as_one_array(self):
        spec = Spectrum("cosine", np.array([0.2, -0.1]))
        x, cdf = cdf_grid(spec)
        u = np.sort(rng_for_replication(4, 0).random((5, 300)), axis=1)
        got = iid_sampler(spec)(u)
        assert got.shape == u.shape
        assert _bits(got) == b"".join(_bits(np.interp(row, cdf, x)) for row in u)

    def test_density_near_the_floor_uses_np_interp(self, monkeypatch):
        # 1 + 0.7 sqrt(2) cos(pi x) dips to 0.0101 at x = 1: its least CDF
        # step asks for more than MAX_GUIDE_BUCKETS buckets
        spec = Spectrum("cosine", np.array([0.7]))
        x, cdf = cdf_grid(spec)
        assert 1.0 / np.diff(cdf).min() > MAX_GUIDE_BUCKETS
        inverse = iid_sampler(spec)
        calls = []
        interp = np.interp
        monkeypatch.setattr(sampling.np, "interp", lambda *a, **k: calls.append(1) or interp(*a, **k))
        u = _probes(cdf, rng_for_replication(2, 0).random(2000))
        assert _bits(inverse(u)) == _bits(interp(u, cdf, x))
        assert calls
        calls.clear()
        iid_sampler(Spectrum("cosine", np.array([0.3])))(u)
        assert not calls  # a density above 1/8 takes the table
