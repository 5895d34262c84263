"""Coefficient sequences, smoothness balls, metric projection, rate table."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import direct_seminorm, kkt_residual, slsqp_tail_projection
from seqtest.errors import ConfigError
from seqtest.spectra import (
    BesovBall,
    Spectrum,
    besov_seminorm,
    calibration_rates,
    first_violated_tail,
    make_tail_alternative,
    project_besov,
    tail_energy_profile,
)

# theta_j = j^{-1.6}, J = 512, s = 1; frozen from a direct tail-sum evaluation.
SEMINORM_REF = 1.1667728741058347
SEMINORM_RTOL = 1e-12

PROJECTION_ORACLE_ATOL = 1e-6  # SLSQP agreement on small instances
IDEMPOTENCE_ATOL = 1e-9
KKT_ATOL = 1e-9  # large-J gates, where SLSQP is out of reach
FEASIBLE_RTOL = 1e-12
PEAK_BYTES_J4096 = 16 * 2**20  # a J x J float matrix alone would take 128 MiB

finite_coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)


def power_law(exponent: float = -1.6, j: int = 512) -> Spectrum:
    return Spectrum(basis="cosine", coeffs=np.arange(1, j + 1, dtype=float) ** exponent)


def ordinary_magnitudes(j: int, seed: int, energy: float | None = None) -> np.ndarray:
    """|N(0,1)| j^-0.6, optionally rescaled to a given total energy.

    Unscaled, every tail is far beyond the s = 1, p0 = 0.05 budget.  At a
    hundredth of p0 the first ten or so tails keep slack, so the projection
    has a head to preserve.
    """
    w = np.abs(np.random.default_rng(seed).standard_normal(j)) * np.arange(1, j + 1) ** -0.6
    return w if energy is None else w * math.sqrt(energy / float(np.sum(w**2)))


class TestSpectrum:
    def test_basis_whitelist(self):
        with pytest.raises(ConfigError):
            Spectrum(basis="fourier", coeffs=np.ones(3))

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ConfigError):
            Spectrum(basis="cosine", coeffs=np.array([]))
        with pytest.raises(ConfigError):
            Spectrum(basis="cosine", coeffs=np.array([1.0, np.nan]))

    def test_complex_j0_must_be_real(self):
        with pytest.raises(ConfigError):
            Spectrum(basis="complex-exponential", coeffs=np.array([1j, 0.5]))

    def test_norm_counts_both_signs(self):
        spec = Spectrum(basis="complex-exponential", coeffs=np.array([0.5, 0.3 + 0.4j]))
        # |c_0|^2 + 2 |c_1|^2
        assert spec.norm_sq() == pytest.approx(0.25 + 2 * 0.25, rel=1e-15)

    def test_signed_pairs_symmetry(self):
        spec = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.3 + 0.4j, 0.1 - 0.2j]))
        js, vals = spec.signed_pairs()
        assert list(js) == [-2, -1, 0, 1, 2]
        np.testing.assert_allclose(vals[js < 0], np.conj(vals[js > 0][::-1]))

    def test_json_round_trip_real(self):
        spec = power_law(j=7)
        again = Spectrum.from_json_dict(spec.to_json_dict())
        assert again.basis == spec.basis
        np.testing.assert_array_equal(again.coeffs, spec.coeffs)

    def test_json_round_trip_complex(self):
        spec = Spectrum(basis="complex-exponential", coeffs=np.array([0.25, 0.3 - 0.7j]))
        again = Spectrum.from_json_dict(spec.to_json_dict())
        np.testing.assert_array_equal(again.coeffs, spec.coeffs)

    def test_json_rejects_malformed(self):
        with pytest.raises(ConfigError):
            Spectrum.from_json_dict({"coeffs": [1.0]})
        with pytest.raises(ConfigError):
            Spectrum.from_json_dict({"basis": "complex-exponential", "coeffs": [1.0, 2.0]})


class TestSeminorm:
    def test_power_law_reference(self):
        assert besov_seminorm(power_law(), 1.0) == pytest.approx(SEMINORM_REF, rel=SEMINORM_RTOL)

    def test_tail_profile_starts_at_total_energy(self):
        spec = power_law(j=32)
        tails = tail_energy_profile(spec)
        assert tails[0] == pytest.approx(spec.norm_sq(), rel=1e-15)
        assert np.all(np.diff(tails) <= 0)

    def test_single_frequency(self):
        # one coefficient at frequency k: seminorm is k^{2s} theta^2
        coeffs = np.zeros(16)
        coeffs[9] = 0.3
        spec = Spectrum(basis="cosine", coeffs=coeffs)
        assert besov_seminorm(spec, 1.5) == pytest.approx(10.0**3.0 * 0.09, rel=1e-14)

    def test_complex_tail_counts_both_signs(self):
        spec = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.0, 0.1 + 0.2j]))
        assert besov_seminorm(spec, 1.0) == pytest.approx(4.0 * 2.0 * 0.05, rel=1e-14)

    def test_requires_positive_s(self):
        with pytest.raises(ConfigError):
            besov_seminorm(power_law(j=4), 0.0)

    @pytest.mark.filterwarnings("error")
    def test_large_s_zero_tail_and_overflow(self):
        # at s = 400, k^{2s} is inf from k = 3 on: a zero tail there adds 0,
        # and a nonzero one makes the seminorm overflow, an invalid config
        head = Spectrum(basis="cosine", coeffs=np.array([1.0, 1e-100, 0.0, 0.0]))
        assert besov_seminorm(head, 400.0) == 2.0**800 * 1e-200
        assert first_violated_tail(head, BesovBall(s=400.0, p0=0.5)) == 1
        wide = Spectrum(basis="cosine", coeffs=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ConfigError, match="overflows"):
            besov_seminorm(wide, 400.0)
        assert first_violated_tail(wide, BesovBall(s=400.0, p0=5.0)) == 2

    @given(
        coeffs=st.lists(finite_coeff, min_size=1, max_size=24),
        scale=st.floats(min_value=0.01, max_value=50.0),
        s=st.floats(min_value=0.2, max_value=3.0),
    )
    def test_homogeneity_of_degree_two(self, coeffs, scale, s):
        spec = Spectrum(basis="cosine", coeffs=np.asarray(coeffs))
        base = besov_seminorm(spec, s)
        scaled = besov_seminorm(Spectrum(basis="cosine", coeffs=spec.coeffs * scale), s)
        assert scaled == pytest.approx(scale**2 * base, rel=1e-10, abs=1e-300)

    @given(coeffs=st.lists(finite_coeff, min_size=1, max_size=24), s=st.floats(min_value=0.2, max_value=3.0))
    def test_matches_direct_definition(self, coeffs, s):
        spec = Spectrum(basis="cosine", coeffs=np.asarray(coeffs))
        assert besov_seminorm(spec, s) == pytest.approx(
            direct_seminorm(spec.frequency_energies(), s), rel=1e-12, abs=1e-300
        )


class TestBall:
    def test_boundary_membership(self):
        spec = power_law(j=64)
        semi = besov_seminorm(spec, 1.0)
        assert BesovBall(s=1.0, p0=semi).contains(spec)
        assert not BesovBall(s=1.0, p0=semi * (1 - 1e-6)).contains(spec)

    def test_first_violated_tail_location(self):
        # all mass at frequency 5; tails at k <= 5 all equal the same energy,
        # the constraint tightens with k, so k = 1 only fails once p0 < energy
        coeffs = np.zeros(8)
        coeffs[4] = 1.0
        spec = Spectrum(basis="cosine", coeffs=coeffs)
        assert first_violated_tail(spec, BesovBall(s=1.0, p0=26.0)) is None
        assert first_violated_tail(spec, BesovBall(s=1.0, p0=24.0)) == 5
        assert first_violated_tail(spec, BesovBall(s=1.0, p0=8.0)) == 3
        assert first_violated_tail(spec, BesovBall(s=1.0, p0=0.5)) == 1

    def test_tail_budget_profile(self):
        ball = BesovBall(s=0.75, p0=2.0)
        np.testing.assert_allclose(ball.tail_budget(np.array([1, 4])), [2.0, 2.0 * 4.0**-1.5])

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            BesovBall(s=-1.0, p0=1.0)
        with pytest.raises(ConfigError):
            BesovBall(s=1.0, p0=0.0)


class TestProjection:
    def test_inside_ball_is_identity(self):
        spec = power_law(j=32)
        ball = BesovBall(s=1.0, p0=2.0 * besov_seminorm(spec, 1.0))
        assert project_besov(spec, ball) is spec

    @pytest.mark.parametrize("excess", [1e-14, 1e-13, 5e-13])
    def test_contained_point_within_slack_is_identity(self, excess):
        # the ball admits a seminorm up to p0 (1 + CONTAINS_REL_TOL); the
        # projection must not move such a point
        spec = Spectrum("cosine", np.array([0.3, 0.2, 0.1, 0.05]))
        ball = BesovBall(s=1.0, p0=besov_seminorm(spec, 1.0) / (1.0 + excess))
        assert ball.contains(spec)
        assert first_violated_tail(spec, ball) is None
        assert project_besov(spec, ball) is spec

    def test_feasible_and_idempotent(self):
        rng = np.random.default_rng(2024)
        for _ in range(10):
            spec = Spectrum(basis="cosine", coeffs=rng.normal(size=20))
            ball = BesovBall(s=1.0, p0=0.3 * besov_seminorm(spec, 1.0))
            proj = project_besov(spec, ball)
            assert ball.contains(proj)
            again = project_besov(proj, ball)
            np.testing.assert_allclose(again.coeffs, proj.coeffs, atol=IDEMPOTENCE_ATOL)

    def test_head_preserved_bitwise(self):
        rng = np.random.default_rng(7)
        coeffs = np.abs(rng.normal(size=16)) + 0.05
        spec = Spectrum(basis="cosine", coeffs=coeffs)
        ball = BesovBall(s=1.0, p0=0.25 * besov_seminorm(spec, 1.0))
        k_star = first_violated_tail(spec, ball)
        assert k_star is not None and k_star > 1
        proj = project_besov(spec, ball)
        np.testing.assert_array_equal(proj.coeffs[: k_star - 1], spec.coeffs[: k_star - 1])

    def test_head_preserved_bitwise_on_tight_constraints(self):
        # tails from k = 1..4 sit on their budgets to within the ball's slack,
        # k = 5 is just past it: head slopes of the minorant come within an
        # ulp of 1 here
        w = np.array([0.8660254037844386, 0.3726779962499648, 0.22047927592204936,
                      0.1499999999999998, 0.11055415967873976, 0.16666666666666674])
        spec, ball = Spectrum(basis="cosine", coeffs=w), BesovBall(s=1.0, p0=1.0)
        assert first_violated_tail(spec, ball) == 5
        np.testing.assert_array_equal(project_besov(spec, ball).coeffs[:4], w[:4])

    def test_matches_slsqp_oracle(self):
        # small instances; the acceptance suite runs the 200-instance sweep
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = np.abs(rng.normal(size=8)) + 0.01
            s = float(rng.uniform(0.5, 2.0))
            spec = Spectrum(basis="cosine", coeffs=w)
            p0 = float(rng.uniform(0.1, 0.8)) * besov_seminorm(spec, s)
            proj = project_besov(spec, BesovBall(s=s, p0=p0))
            oracle = slsqp_tail_projection(w, s, p0)
            np.testing.assert_allclose(proj.coeffs, oracle, atol=PROJECTION_ORACLE_ATOL)

    def test_complex_basis_keeps_j0(self):
        coeffs = np.array([0.7 + 0j, 2.0 + 1.0j, 1.0 - 3.0j])
        spec = Spectrum(basis="complex-exponential", coeffs=coeffs)
        ball = BesovBall(s=1.0, p0=0.1 * besov_seminorm(spec, 1.0))
        proj = project_besov(spec, ball)
        assert proj.coeffs[0] == coeffs[0]  # j = 0 carries no tail constraint
        assert ball.contains(proj)


class TestLargeProjection:
    """Feasibility, exact head, KKT optimality and idempotence at large J."""

    BALL = BesovBall(s=1.0, p0=0.05)
    HEAD_ENERGY = 0.01 * BALL.p0

    def assert_exact_projection(self, spec: Spectrum) -> Spectrum:
        ball = self.BALL
        proj = project_besov(spec, ball)
        energies = proj.frequency_energies()
        assert direct_seminorm(energies, ball.s) <= ball.p0 * (1.0 + FEASIBLE_RTOL)
        assert ball.contains(proj)
        k_star = first_violated_tail(spec, ball)
        head = k_star if spec.basis == "complex-exponential" else k_star - 1  # coeffs[0] is j = 0 there
        np.testing.assert_array_equal(proj.coeffs[:head], spec.coeffs[:head])
        # each coefficient keeps its sign or phase: proj * conj(spec) is real and >= 0
        cross = proj.coeffs * np.conj(spec.coeffs)
        assert np.all(cross.real >= 0.0)
        assert np.all(np.abs(cross.imag) <= 1e-14 * np.abs(proj.coeffs) * np.abs(spec.coeffs))
        magnitudes = np.sqrt(spec.frequency_energies())
        assert kkt_residual(np.sqrt(energies), magnitudes, ball.s, ball.p0) <= KKT_ATOL
        again = project_besov(proj, ball)
        np.testing.assert_allclose(again.coeffs, proj.coeffs, rtol=0.0, atol=IDEMPOTENCE_ATOL)
        return proj

    def test_ordinary_j128(self):
        self.assert_exact_projection(Spectrum("cosine", ordinary_magnitudes(128, 1000)))

    @pytest.mark.parametrize("with_head", [False, True])
    @pytest.mark.parametrize("j", [4096, 100_000])
    def test_ordinary_signed_large_j(self, j, with_head):
        signs = np.where(np.random.default_rng(j).random(j) < 0.5, -1.0, 1.0)
        energy = self.HEAD_ENERGY if with_head else None
        spec = Spectrum("cosine", signs * ordinary_magnitudes(j, 7, energy))
        assert (first_violated_tail(spec, self.BALL) > 1) == with_head
        self.assert_exact_projection(spec)

    @pytest.mark.filterwarnings("error")  # two tail points on one W must not divide by zero
    def test_zero_coefficients(self):
        # zeros at the first and last frequencies, in a run, and every third one
        w = ordinary_magnitudes(4096, 3, self.HEAD_ENERGY)
        w[::3] = 0.0
        w[100:140] = 0.0
        w[-5:] = 0.0
        spec = Spectrum("cosine", w)
        assert first_violated_tail(spec, self.BALL) > 4  # zeros inside the head too
        proj = self.assert_exact_projection(spec)
        assert np.all(proj.coeffs[w == 0.0] == 0.0)

    def test_complex_basis_large_j(self):
        j = 4096
        rng = np.random.default_rng(44)
        coeffs = np.empty(j + 1, dtype=complex)
        coeffs[0] = 0.3
        coeffs[1:] = ordinary_magnitudes(j, 44, self.HEAD_ENERGY / 2.0) * np.exp(2j * np.pi * rng.random(j))
        spec = Spectrum("complex-exponential", coeffs)
        assert first_violated_tail(spec, self.BALL) > 1
        proj = self.assert_exact_projection(spec)
        assert proj.coeffs[0] == coeffs[0]

    def test_memory_stays_linear_in_j(self):
        spec = Spectrum("cosine", ordinary_magnitudes(4096, 1000))
        tracemalloc.start()
        try:
            project_besov(spec, self.BALL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < PEAK_BYTES_J4096

    def test_kkt_oracle_rejects_feasible_non_optimal_points(self):
        # one uniform shrink into the ball is feasible but not the projection
        w = ordinary_magnitudes(128, 1000)
        semi = direct_seminorm(w**2, 1.0)
        shrunk = w * math.sqrt(0.05 / semi)
        assert kkt_residual(shrunk, w, 1.0, 0.05) > 1e-3
        proj = project_besov(Spectrum("cosine", w), self.BALL).coeffs
        assert kkt_residual(proj * 1.001, w, 1.0, 0.05) > 1e-3


class TestTailAlternative:
    def test_energy_identity_exact(self):
        for m, s in [(1, 0.75), (4, 1.0), (16, 1.5)]:
            spec = make_tail_alternative(m, 0.37, s)
            assert float(m) ** (2 * s) * spec.norm_sq() == pytest.approx(0.37, rel=1e-12)

    def test_seminorm_binds_inside_the_block(self):
        # k = m costs exactly c, but k^2 (2m+1-k) / ((m+1) m^2) peaks at
        # k = 11 for m = 8, so the seminorm overshoots c by 726/576
        spec = make_tail_alternative(8, 1.3, 1.0)
        assert besov_seminorm(spec, 1.0) == pytest.approx(1.3 * 726 / 576, rel=1e-12)

    def test_tiny_block_seminorm_equals_the_budget(self):
        # m = 1: the only competitor is k = 2 at 2^{2s} c / 2, below c for s < 1/2
        spec = make_tail_alternative(1, 0.9, 0.4)
        assert besov_seminorm(spec, 0.4) == pytest.approx(0.9, rel=1e-12)

    def test_complex_variant_same_energy(self):
        cos = make_tail_alternative(5, 0.9, 1.0, basis="cosine")
        cpx = make_tail_alternative(5, 0.9, 1.0, basis="complex-exponential")
        assert cpx.norm_sq() == pytest.approx(cos.norm_sq(), rel=1e-12)

    def test_truncation_must_hold_block(self):
        with pytest.raises(ConfigError):
            make_tail_alternative(0, 1.0, 1.0)


class TestCalibrationRates:
    def test_quadratic_family_values(self):
        rates = calibration_rates(1.0, "quadratic")
        assert rates.r == pytest.approx(0.4)
        assert rates.tuning_exponent == pytest.approx(0.4)
        rates = calibration_rates(2.0, "kernel")
        assert rates.r == pytest.approx(4.0 / 9.0)
        assert rates.tuning_exponent == pytest.approx(2.0 / 9.0)

    def test_cvm_has_no_tuning(self):
        rates = calibration_rates(1.0, "cvm")
        assert rates.r == pytest.approx(0.25)
        assert rates.tuning_exponent is None

    def test_rejections(self):
        with pytest.raises(ConfigError):
            calibration_rates(1.0, "anderson")
        with pytest.raises(ConfigError):
            calibration_rates(-0.5, "quadratic")
