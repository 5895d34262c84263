"""Weighted quadratic coefficient tests and the weight-profile diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import check_regularity, half_mass_index
from seqtest import design as design_mod
from seqtest import kernels as kernels_mod
from seqtest.errors import ConfigError
from seqtest.kernels import box_kernel, kernel_test
from seqtest.montecarlo import ExperimentConfig, build_plan
from seqtest.quadratic import (
    EnergyForm,
    drift,
    energy_form,
    example_coefficients,
    predicted_type2_quadratic,
    quadratic_statistic,
    quadratic_test,
    scale_to_drift,
)
from seqtest.report import upper_quantile
from seqtest.sampling import SequenceObservation, draw_sequence_observation, replication_blocks, rng_for_replication
from seqtest.spectra import Spectrum

# A_n for the rational weight family at n = 1000, gamma = 2, j_max = 4096;
# frozen from a direct evaluation of n^2 sum kappa^4.
A_N_REF = 0.7695866217730798
A_N_RTOL = 1e-12

ROUNDTRIP_RTOL = 1e-12

# observation sizes for the block-against-row bits: the edges of numpy's
# pairwise blocks (8 and 128) and of its 8192-element buffer, and the kernel
# plan at j_max = 8192 (16 386 weights, past OpenBLAS's threaded-dot cutoff)
BLOCK_SIZES = [1, 2, 7, 8, 9, 127, 128, 129, 1025, 4097, 8191, 8192, 8193, 16386]


class TestExampleCoefficients:
    def test_frozen_a_n(self):
        kq = example_coefficients(1000, 2.0, 4096)
        assert 1000.0**2 * np.sum(kq**2) == pytest.approx(A_N_REF, rel=A_N_RTOL)

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
        sd = energy_form(kq, 200, 1.0).sd
        assert abs(np.mean(vals)) < 4 * sd / math.sqrt(3000)
        assert np.std(vals) == pytest.approx(sd, rel=0.1)

    @pytest.mark.parametrize("size", BLOCK_SIZES)
    @pytest.mark.parametrize("complex_", [False, True], ids=["real", "complex"])
    def test_block_energy_has_the_bits_of_each_row(self, size, complex_):
        """The energy of a block, each row an observation as the Monte Carlo
        scorer holds it, equals each row's energy taken alone, bit for bit."""
        rng = np.random.default_rng(size)
        width = 2 * size if complex_ else size
        form = EnergyForm(rng.random(width), 0.5, 2.0)
        block = rng.standard_normal((3, width))
        if complex_:
            block = block.view(complex)
        alone = np.array([form.standardize(form.energy(row)) for row in block])
        np.testing.assert_array_equal(form.standardize(form.energy(block)), alone)


# each sequence-model family's form on (n, sigma), its signal, and its *_test
BLOCK_CASES = {
    "quadratic": lambda: (
        energy_form(example_coefficients(500, 2.0, 64), 500, 1.3), Spectrum("cosine", np.r_[0.08, 0.05, np.zeros(62)]),
        500, 1.3, lambda obs: quadratic_test(obs.y, example_coefficients(500, 2.0, 64), 500, 1.3, 0.05),
    ),
    "kernel": lambda: (
        kernels_mod.energy_form(kernels_mod.triangle_kernel(), 0.11, 48, 800, 0.7),
        Spectrum("complex-exponential", np.r_[0.0, 0.02 + 0.01j, np.zeros(47)]),
        800, 0.7, lambda obs: kernel_test(obs, kernels_mod.triangle_kernel(), 0.11, 0.05),
    ),
    "minimax": lambda: (
        design_mod.energy_form(design_mod.solve(1.0, 1.0, 2e-3, 2000)),
        design_mod.least_favorable(design_mod.solve(1.0, 1.0, 2e-3, 2000)),
        2000, 1.0, lambda obs: design_mod.minimax_test(obs, design_mod.solve(1.0, 1.0, 2e-3, 2000), 0.05),
    ),
}


class TestBlockStatistic:
    @pytest.mark.parametrize("name", sorted(BLOCK_CASES))
    def test_rows_have_the_bytes_of_each_test(self, name):
        """``EnergyForm.block_statistic`` on drawn blocks of normals gives,
        row by row and byte for byte, the standardized statistic of the
        family's ``*_test`` on that replication's observation drawn alone."""
        form, theta, n, sigma, test = BLOCK_CASES[name]()
        seed, lo, hi = 17, 5, 45
        score = form.block_statistic(theta.coeffs, n, sigma)
        blocks = replication_blocks(seed, lo, hi, form.weights.size, np.random.Generator.standard_normal)
        rows = np.concatenate([score(block) for block in blocks])
        assert rows.size == hi - lo
        for rep, row in zip(range(lo, hi), rows):
            obs = draw_sequence_observation(theta, n, sigma, rng_for_replication(seed, rep))
            assert row.tobytes() == np.float64(test(obs).standardized).tobytes(), rep


# *_test calls whose null sd leaves the float range; the engine refuses the
# same configs, and neither may return an infinite or zero standardized value
DEGENERATE_NULL_SD = {
    # n h^(1/2) sigma^-2 overflows, so the null sd is 0
    "kernel tiny sigma": lambda: kernel_test(
        SequenceObservation(Spectrum("complex-exponential", np.array([0.0, 0.1 + 0j])), 100, 1e-160),
        box_kernel(), 0.2, 0.05,
    ),
    # sum kappa^4 overflows, so the null sd is infinite
    "quadratic huge weight": lambda: quadratic_test(np.array([0.1, 0.2]), np.array([1e200, 1.0]), 100, 1.0, 0.05),
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_NULL_SD))
def test_degenerate_null_sd_refused(name):
    with pytest.raises(ConfigError, match="null sd"):
        DEGENERATE_NULL_SD[name]()


class TestDrift:
    def test_standardization_identity(self):
        # mean shift over null sd equals A_n(theta) / sqrt(2 A_n) exactly
        kq = example_coefficients(300, 2.0, 64)
        theta = np.full(64, 0.01)
        shift = 300.0**2 * np.sum(kq * theta**2)
        assert drift(theta, kq, 300, 1.0) == pytest.approx(
            shift / (300.0**2 * energy_form(kq, 300, 1.0).sd), rel=1e-12
        )

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

    def test_longer_signal_is_refused_as_a_plan_refuses_it(self):
        # 0.5 at j = 22 against 16 weights: a drift of its first 16 entries
        # would describe another signal
        kq = example_coefficients(1000, 2.0, 16)
        theta = Spectrum("cosine", np.r_[np.zeros(21), 0.5])
        message = "signal support 22 exceeds the run's truncation 16"
        with pytest.raises(ConfigError, match=message):
            drift(theta, kq, 1000, 1.0)
        with pytest.raises(ConfigError, match=message):
            predicted_type2_quadratic(theta, kq, 1000, 1.0, 0.05)
        with pytest.raises(ConfigError, match=message):
            scale_to_drift(theta, kq, 1000, 1.0, 2.0)
        with pytest.raises(ConfigError, match=message):
            build_plan(ExperimentConfig("quadratic", 1000, 10, 1, theta=theta, params={"kappa_sq": kq}))

    def test_shorter_signal_reads_zero_padded(self):
        kq = example_coefficients(1000, 2.0, 16)
        theta = np.linspace(0.1, 0.02, 5)
        assert drift(theta, kq, 1000, 1.0) == pytest.approx(drift(np.r_[theta, np.zeros(11)], kq, 1000, 1.0))

    def test_predicted_type2_endpoints(self):
        kq = example_coefficients(100, 2.0, 32)
        # no signal: predicted type II error is 1 - alpha
        assert predicted_type2_quadratic(np.zeros(32), kq, 100, 1.0, 0.05) == pytest.approx(0.95, rel=1e-12)
        big = scale_to_drift(Spectrum(basis="cosine", coeffs=np.ones(32)), kq, 100, 1.0, 40.0)
        assert predicted_type2_quadratic(big, kq, 100, 1.0, 0.05) < 1e-12

    def test_report_fields(self):
        kq = example_coefficients(100, 2.0, 16)
        y = np.zeros(16)
        rep = quadratic_test(y, kq, 100, 1.0, 0.05)
        assert rep.family == "quadratic"
        assert rep.threshold == pytest.approx(upper_quantile(0.05))
        assert rep.standardized < 0  # all-zero observation sits below the null mean
        assert not rep.reject


class TestRegularity:
    def test_example_family_passes(self):
        kq = example_coefficients(2000, 2.0, 1024)
        rep = check_regularity(kq, 2000, 1.0)
        assert rep.all_ok
        assert rep.a1_monotone
        assert rep.a2_value == pytest.approx(2000.0**2 * np.sum(kq**2), rel=1e-15)
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
