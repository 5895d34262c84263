"""Detection-boundary designs: direct/inverse solvers, test, Bayes prior."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from seqtest import design as design_mod
from seqtest.design import (
    DEFAULT_MIN_TRUNCATION,
    least_favorable,
    minimax_statistic,
    minimax_test,
    predicted_type2_minimax,
    prior_profile,
    sample_bayes_prior,
    solve_design,
    solve_inverse_design,
)
from seqtest.errors import ConfigError, InfeasibleDesignError, NumericError
from seqtest.experiments import bayes_membership_rate
from seqtest.report import normal_cdf, upper_quantile
from seqtest.sampling import SequenceObservation, draw_sequence_observation, rng_for_replication
from seqtest.spectra import Spectrum, besov_seminorm

# s = 1, P0 = 1, rho = 3e-4 solves in closed form: k = 100, kappa^2 = 2e-6.
ORACLE = dict(s=1.0, p0=1.0, rho_n=3e-4, n=10_000)
ORACLE_K = 100
ORACLE_KAPPA2 = 2e-6
ORACLE_A_N = 0.04780199731649675  # n^2 sum kappa_j^4 over the default truncation

BOUNDARY_RTOL = 0.05  # least-favorable signal sits on both boundaries
POWER_LAW_K_RTOL = 0.02  # closed-form breakpoint for lambda_j = j^-gamma


def _null_mean(d) -> float:
    """Exact null E[T_n] = sigma^-2 n sum_j kappa_j^2 over the stored truncation."""
    return float(d.n / d.sigma**2 * np.sum(d.kappa_j2))


class TestDirectSolver:
    def test_closed_form_oracle(self):
        d = solve_design(**ORACLE)
        assert d.k_n == ORACLE_K
        assert d.kappa_n2 == pytest.approx(ORACLE_KAPPA2, rel=1e-12)
        assert d.c_n == pytest.approx(3.0, rel=1e-12)
        assert d.a_n == pytest.approx(ORACLE_A_N, rel=1e-12)
        assert d.j_max == max(20 * ORACLE_K, DEFAULT_MIN_TRUNCATION)

    def test_profile_shape(self):
        d = solve_design(**ORACLE)
        np.testing.assert_allclose(d.kappa_j2[: d.k_n], d.kappa_n2)
        j = np.arange(d.k_n + 1, d.j_max + 1, dtype=float)
        np.testing.assert_allclose(d.kappa_j2[d.k_n :], 2.0 * j**-3.0, rtol=1e-13)
        assert np.all(np.diff(d.kappa_j2) <= 0)

    def test_design_equation_residuals(self):
        d = solve_design(0.8, 1.7, 2e-4, 4000)
        assert d.eq_budget_residual <= 1e-12  # kappa^2 is defined from k_n
        assert d.eq_radius_residual <= d.residual_bound

    @pytest.mark.parametrize("excess,refused", [(1e-10, False), (1e-8, True)])
    def test_radius_residual_slack_is_1e_9(self, excess, refused):
        d = solve_design(**ORACLE)
        args = (d.s, d.p0, d.rho_n, d.n, d.sigma, d.k_n, d.kappa_j2, d.c_n, d.eq_budget_residual)
        radius_res = d.residual_bound + excess
        if refused:
            with pytest.raises(NumericError, match="exceeds the rounding bound"):
                design_mod._build(*args, radius_res)
        else:
            assert design_mod._build(*args, radius_res).eq_radius_residual == radius_res

    @given(
        s=st.floats(min_value=0.5, max_value=2.5),
        p0=st.floats(min_value=0.2, max_value=5.0),
        log_rho=st.floats(min_value=-6.0, max_value=-2.0),  # keeps k_n (and memory) modest
    )
    def test_rounding_never_exceeds_bound(self, s, p0, log_rho):
        rho = p0 * math.exp(log_rho)
        d = solve_design(s, p0, rho, 1000)
        assert d.k_n >= 1
        assert d.eq_radius_residual <= d.residual_bound + 1e-9
        assert np.all(np.diff(d.kappa_j2) <= 1e-18)

    def test_null_mean_close_to_centering(self):
        # c_n = n rho / sigma^2 vs the exact weight sum: discretization only
        for args in (ORACLE, dict(s=0.7, p0=2.0, rho_n=1e-3, n=5000)):
            d = solve_design(**args)
            assert abs(_null_mean(d) - d.c_n) <= d.c_n * 2.0 * d.residual_bound

    def test_infeasible_radius(self):
        with pytest.raises(InfeasibleDesignError):
            solve_design(1.0, 1.0, 4.0, 100)  # rho > (2s+1) P0

    def test_truncation_too_short(self):
        with pytest.raises(InfeasibleDesignError):
            solve_design(1.0, 1.0, 3e-4, 10_000, j_max=50)

    def test_parameter_validation(self):
        with pytest.raises(ConfigError):
            solve_design(0.0, 1.0, 1e-3, 100)
        with pytest.raises(ConfigError):
            solve_design(1.0, 1.0, 1e-3, 0)


class TestInverseSolver:
    def test_unit_eigenvalues_recover_direct_design(self):
        d = solve_design(**ORACLE)
        di = solve_inverse_design(
            ORACLE["s"], ORACLE["p0"], ORACLE["rho_n"], ORACLE["n"], 1.0, np.ones(d.j_max)
        )
        assert di.k_n == d.k_n
        np.testing.assert_allclose(di.kappa_j2, d.kappa_j2, rtol=1e-12)
        # the inverse variant centers on the exact weight sum, not n rho
        assert di.c_n == pytest.approx(_null_mean(di), rel=1e-12)
        assert abs(di.c_n - d.c_n) <= d.c_n * d.residual_bound

    def test_power_law_eigenvalues_closed_form_breakpoint(self):
        s, p0, rho, gamma = 1.0, 1.0, 2e-4, 0.5
        lam = np.arange(1, 20_001, dtype=float) ** -gamma
        d = solve_inverse_design(s, p0, rho, 10_000, 1.0, lam)
        k_closed = (p0 * (1.0 + 2.0 * s / (4.0 * gamma + 1.0)) / rho) ** (1.0 / (2.0 * s))
        assert d.k_n == pytest.approx(k_closed, rel=POWER_LAW_K_RTOL)
        # breakpoint continuity: the head profile meets the tail profile at k_n
        head_end = d.kappa_j2[d.k_n - 1]
        tail_start = 2.0 * s * p0 * float(d.k_n) ** (-1.0 - 2.0 * s) * lam[d.k_n - 1] ** 2
        assert head_end == pytest.approx(tail_start, rel=1e-12)

    def test_infeasible_eigenvalues(self):
        with pytest.raises(InfeasibleDesignError):
            solve_inverse_design(1.0, 1.0, 1e-12, 100, 1.0, np.ones(50))

    def test_json_keys(self):
        """Every field in order, arrays as float lists, lambdas only when inverse."""
        keys = ["s", "p0", "rho_n", "n", "sigma", "k_n", "kappa_n2", "kappa_j2", "a_n", "c_n",
                "j_max", "eq_budget_residual", "eq_radius_residual"]
        d = solve_design(**ORACLE)
        di = solve_inverse_design(ORACLE["s"], ORACLE["p0"], ORACLE["rho_n"], ORACLE["n"], 1.0, np.ones(d.j_max))
        assert list(d.to_json_dict()) == keys
        assert list(di.to_json_dict()) == keys + ["lambdas"]
        assert di.to_json_dict()["lambdas"] == [1.0] * d.j_max
        assert d.to_json_dict()["kappa_j2"] == [float(v) for v in d.kappa_j2]

    @pytest.mark.parametrize("args,kwargs,direct", [
        ((1.0, 1.0, 3e-4, 10_000), {}, lambda: solve_design(**ORACLE)),
        ((1.0, 1.0, 2e-3, 200, 1.5), {"j_max": 512}, lambda: solve_design(1.0, 1.0, 2e-3, 200, 1.5, j_max=512)),
        ((1.0, 1.0, 0.1, 200, 1.0, [1.0, 0.5, 0.25, 0.125]), {}, lambda: solve_inverse_design(
            1.0, 1.0, 0.1, 200, 1.0, np.array([1.0, 0.5, 0.25, 0.125]))),
        ((1.0, 1.0, 2e-4, 10_000), {"sigma": 0.8, "lambdas": np.arange(1, 2001.0) ** -0.5, "j_max": 1500},
         lambda: solve_inverse_design(1.0, 1.0, 2e-4, 10_000, 0.8, np.arange(1, 2001.0) ** -0.5, j_max=1500)),
    ], ids=["direct", "direct j_max", "inverse", "inverse j_max"])
    def test_solve_dispatches_on_lambdas(self, args, kwargs, direct):
        """``design.solve`` is ``solve_inverse_design`` when lambdas are
        given and ``solve_design`` otherwise: its ``to_json_dict`` is theirs."""
        assert design_mod.solve(*args, **kwargs).to_json_dict() == direct().to_json_dict()

    def test_eigenvalue_validation(self):
        with pytest.raises(ConfigError):
            solve_inverse_design(1.0, 1.0, 1e-3, 100, 1.0, np.array([1.0, 0.0]))
        with pytest.raises(ConfigError):
            solve_inverse_design(1.0, 1.0, 1e-3, 100, 1.0, np.ones(10), j_max=20)


class TestMinimaxTest:
    def test_statistic_formula(self):
        d = solve_design(**ORACLE)
        y = Spectrum(basis="cosine", coeffs=np.full(d.j_max, 1e-3))
        obs = SequenceObservation(y=y, n=d.n, sigma=1.0)
        want = d.n**2 * float(np.sum(d.kappa_j2 * 1e-6))
        assert minimax_statistic(obs, d) == pytest.approx(want, rel=1e-12)

    def test_observation_contract(self):
        d = solve_design(**ORACLE)
        good = Spectrum(basis="cosine", coeffs=np.zeros(d.j_max))
        with pytest.raises(ConfigError):
            minimax_statistic(SequenceObservation(y=good, n=d.n + 1, sigma=1.0), d)
        short = Spectrum(basis="cosine", coeffs=np.zeros(d.j_max - 1))
        with pytest.raises(ConfigError):
            minimax_statistic(SequenceObservation(y=short, n=d.n, sigma=1.0), d)
        cplx = Spectrum(basis="complex-exponential", coeffs=np.zeros(d.j_max, dtype=complex))
        with pytest.raises(ConfigError):
            minimax_statistic(SequenceObservation(y=cplx, n=d.n, sigma=1.0), d)

    def test_predicted_type2_formula(self):
        d = solve_design(**ORACLE)
        want = normal_cdf(upper_quantile(0.05) - math.sqrt(d.a_n / 2.0))
        assert predicted_type2_minimax(d, 0.05) == pytest.approx(want, rel=1e-14)

    def test_report_details(self):
        d = solve_design(**ORACLE)
        obs = draw_sequence_observation(
            Spectrum(basis="cosine", coeffs=np.zeros(d.j_max)), d.n, 1.0, rng_for_replication(61, 0)
        )
        rep = minimax_test(obs, d, 0.05)
        assert rep.family == "minimax"
        assert rep.details == {"k_n": d.k_n, "a_n": d.a_n, "c_n": d.c_n}
        assert rep.standardized == pytest.approx((rep.statistic - d.c_n) / math.sqrt(2.0 * d.a_n))


class TestLeastFavorable:
    def test_sits_on_both_boundaries(self):
        for args in (ORACLE, dict(s=0.7, p0=2.0, rho_n=1e-3, n=5000)):
            d = solve_design(**args)
            theta = least_favorable(d)
            assert besov_seminorm(theta, d.s) == pytest.approx(d.p0, rel=BOUNDARY_RTOL)
            assert theta.norm_sq() == pytest.approx(d.rho_n, rel=BOUNDARY_RTOL)

    def test_profile_is_root_of_weights(self):
        d = solve_design(**ORACLE)
        np.testing.assert_allclose(least_favorable(d).coeffs ** 2, d.kappa_j2, rtol=1e-14)


class TestBayesPrior:
    def test_profile_truncated_at_delta_window(self):
        d = solve_design(**ORACLE)
        profile = prior_profile(d, 0.2)
        cut = int(d.k_n / 0.2)
        assert np.all(profile[cut:] == 0.0)
        assert np.all(profile[: d.k_n] > 0.0)

    def test_inverse_prior_is_the_least_favorable_signal(self):
        # an inverse design's weights are lambda_j^2 theta*_j^2; its prior
        # variances are theta*_j^2 of the shrunken-ball design, whose energy
        # sits near rho_n, so the draws reach V_n
        lam = 1.0 / np.arange(1, 501)
        d = solve_inverse_design(1.0, 1.0, 3e-4, 1000, 1.0, lam)
        shifted = solve_inverse_design(1.0, 1.0 - 0.2, 3e-4 * (1.0 + 0.2), 1000, 1.0, lam)
        cut = int(d.k_n / 0.2)
        profile = prior_profile(d, 0.2)
        np.testing.assert_array_equal(profile[:cut], shifted.kappa_j2[:cut] / lam[:cut] ** 2)
        assert np.all(profile[cut:] == 0.0)
        assert profile.sum() == pytest.approx(1.17 * d.rho_n, rel=0.01)
        assert 0.55 < bayes_membership_rate(d, 0.2, 400, 7)["rate"] < 0.7

    def test_draw_determinism_and_scaling(self):
        d = solve_design(**ORACLE)
        a = sample_bayes_prior(d, 0.2, seed=99, rep=3)
        b = sample_bayes_prior(d, 0.2, seed=99, rep=3)
        np.testing.assert_array_equal(a.eta.coeffs, b.eta.coeffs)
        profile = prior_profile(d, 0.2)
        z = rng_for_replication(99, 3).standard_normal(profile.size)
        np.testing.assert_array_equal(a.eta.coeffs, np.sqrt(profile) * z)

    def test_mean_energy_matches_profile_sum(self):
        d = solve_design(**ORACLE)
        profile = prior_profile(d, 0.2)
        draws = [sample_bayes_prior(d, 0.2, seed=555, rep=r) for r in range(300)]
        mean_energy = np.mean([dr.norm_sq for dr in draws])
        assert mean_energy == pytest.approx(float(profile.sum()), rel=0.1)

    def test_membership_flag_consistency(self):
        d = solve_design(**ORACLE)
        for seed, rep in [(7, 0)] + [(31, rep) for rep in range(12)]:
            draw = sample_bayes_prior(d, 0.2, seed=seed, rep=rep)
            norm_sq, seminorm = draw.eta.norm_sq(), besov_seminorm(draw.eta, d.s)
            # the draw's scores may sum in another order than the Spectrum's
            assert draw.norm_sq == pytest.approx(norm_sq, rel=1e-12)
            assert draw.seminorm == pytest.approx(seminorm, rel=1e-12)
            in_ball = seminorm <= d.p0 * (1 + 1e-12)
            assert draw.in_alternative == (in_ball and norm_sq >= d.rho_n)

    @pytest.mark.parametrize("seed", [0, 7, 77_001])
    @pytest.mark.parametrize("m, size", [(1, 2), (56, 1024), (1370, 5480)])
    def test_normals_fill_a_prefix_of_the_full_draw(self, seed, m, size):
        # prior draws read only the support's m normals of each stream
        full = rng_for_replication(seed, 3).standard_normal(size)
        row = np.zeros((2, size))[1]
        rng_for_replication(seed, 3).standard_normal(out=row[:m])
        np.testing.assert_array_equal(row[:m], full[:m])

    def test_delta_validation(self):
        d = solve_design(**ORACLE)
        with pytest.raises(ConfigError):
            prior_profile(d, 0.0)
        with pytest.raises(ConfigError):
            sample_bayes_prior(d, 1.0, seed=0)
