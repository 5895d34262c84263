"""Acceptance gate: twelve end-to-end checks at full replication counts.

Each test prints one ``criterion NN PASS/FAIL`` line with the measured
quantities (through ``capsys.disabled`` so it survives capture) before
asserting.  This is the slow part of the suite; everything is seeded, so
the measured numbers quoted in comments are exact reruns, not estimates.
Criterion 1 is timed on a single thread on purpose — everywhere else a
small thread pool is fine because results are thread-invariant, which is
itself criterion 12.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from helpers import (
    KERNEL_DENSITIES,
    cross_frequency_sum,
    cvm_population_quadrature,
    direct_seminorm,
    slsqp_tail_projection,
)
from seqtest.chisq import (
    chisq_statistic,
    haar_statistic,
    population_chisq_functional,
)
from seqtest.cli import main as cli_main
from seqtest.cvm import cvm_population, cvm_statistic
from seqtest.design import predicted_type2_minimax, solve_design, solve_inverse_design
from seqtest.experiments import (
    bayes_membership_rate,
    consistency_experiment,
    maxiset_decomposition_experiment,
)
from seqtest.kernels import box_kernel
from seqtest.montecarlo import ExperimentConfig, build_plan, run_monte_carlo
from seqtest.quadratic import example_coefficients, scale_to_drift
from seqtest.report import normal_cdf, upper_quantile
from seqtest.sampling import rng_for_replication
from seqtest.spectra import (
    BesovBall,
    Spectrum,
    besov_seminorm,
    first_violated_tail,
    project_besov,
)

THREADS = 4  # speed only; outputs do not depend on it

SIZE_BAND = (0.04, 0.06)
RUNTIME_BUDGET_S = 120.0
MINIMAX_POWER_ATOL = 0.03
CLOSED_FORM_RTOL = 0.02       # measured 0.0092 at n = 1e4
DOUBLING_RTOL = 0.05          # a_n(2 rho)/a_n(rho) against 2^{5/2}
INVERSE_RATIO_BAND = (1.0 / 3.0, 3.0)
QUADRATIC_POWER_ATOL = 0.03
KERNEL_POWER_ATOL = 0.04
KAPPA_QUAD_ATOL = 1e-6
CHISQ_POWER_ATOL = 0.04
HAAR_ATOL = 1e-9
CROSS_TERM_ATOL = 1e-10
CVM_QUAD_ATOL = 1e-8
NULL_MEAN_RTOL = 0.05
CVM_SIZE_ATOL = 0.01
PROJECTION_ATOL = 1e-6        # worst observed 6.9e-7 over the 200 instances
MEMBERSHIP_FLOOR = 0.95


def _line(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def boundary_design():
    # s = 1, P0 = 1, sigma = 1, rho_n = n^{-4/5}: the rate-boundary design
    # shared by criteria 1-3 (k_n = 69, j_max = 1380).
    n = 10_000
    return solve_design(1.0, 1.0, float(n) ** -0.8, n)


def test_criterion_01_minimax_size(capsys):
    n = 10_000
    cfg = ExperimentConfig(
        family="minimax",
        n=n,
        reps=20_000,
        seed=20_260_818,
        params={"s": 1.0, "p0": 1.0, "rho_n": float(n) ** -0.8},
    )
    start = time.perf_counter()
    summary = run_monte_carlo(cfg, threads=1)
    elapsed = time.perf_counter() - start
    ok = SIZE_BAND[0] <= summary.rate <= SIZE_BAND[1] and elapsed < RUNTIME_BUDGET_S
    _line(
        capsys, 1, ok,
        f"size={summary.rate:.4f} in [{SIZE_BAND[0]}, {SIZE_BAND[1]}], "
        f"{elapsed:.1f}s single-threaded (budget {RUNTIME_BUDGET_S:.0f}s)",
    )
    assert SIZE_BAND[0] <= summary.rate <= SIZE_BAND[1]
    assert elapsed < RUNTIME_BUDGET_S


def test_criterion_02_minimax_power_least_favorable(capsys, boundary_design):
    n = 10_000
    cfg = ExperimentConfig(
        family="minimax",
        n=n,
        reps=20_000,
        seed=20_260_819,
        params={"s": 1.0, "p0": 1.0, "rho_n": float(n) ** -0.8, "least_favorable": True},
    )
    summary = run_monte_carlo(cfg, threads=THREADS)
    beta_emp = 1.0 - summary.rate
    beta_pred = predicted_type2_minimax(boundary_design, 0.05)
    gap = beta_emp - beta_pred
    ok = abs(gap) <= MINIMAX_POWER_ATOL
    _line(
        capsys, 2, ok,
        f"type II at the least-favorable signal: emp={beta_emp:.4f} "
        f"pred={beta_pred:.4f} gap={gap:+.4f} (tol {MINIMAX_POWER_ATOL})",
    )
    assert abs(gap) <= MINIMAX_POWER_ATOL


def test_criterion_03_detection_constant_closed_form(capsys, boundary_design):
    n = 10_000
    rho = float(n) ** -0.8
    # s = 1 closed form: 4.8 * 3^{-5/2} * n^2 * rho^{5/2}
    closed = 4.8 * 3.0**-2.5 * n**2 * rho**2.5
    rel = abs(boundary_design.a_n - closed) / closed

    # doubling the radius scales a_n by 2^{(1+4s)/(4s)} = 2^{5/2}, not by 4:
    # the squared-radius reading of the worked rate is off by that margin.
    doubled = solve_design(1.0, 1.0, 2.0 * rho, n)
    ratio = doubled.a_n / boundary_design.a_n
    rel_ratio = abs(ratio - 2.0**2.5) / 2.0**2.5
    off_squared = abs(ratio - 4.0) / 4.0

    # inverse weights lambda_j = j^{-1} (gamma = 1): closed form
    # n^2 rho^{9/2} * (40/63) * (5/7)^{5/2}, order-of-magnitude agreement.
    lam = np.arange(1, 4001, dtype=float) ** -1.0
    rho_inv = float(n) ** (-4.0 / 9.0)
    inverse = solve_inverse_design(1.0, 1.0, rho_inv, n, 1.0, lam)
    expected = n**2 * rho_inv**4.5 * (40.0 / 63.0) * (5.0 / 7.0) ** 2.5
    inv_ratio = inverse.a_n / expected

    ok = (
        rel <= CLOSED_FORM_RTOL
        and rel_ratio <= DOUBLING_RTOL
        and off_squared > 0.3
        and INVERSE_RATIO_BAND[0] <= inv_ratio <= INVERSE_RATIO_BAND[1]
    )
    _line(
        capsys, 3, ok,
        f"a_n rel err={rel:.4f} (tol {CLOSED_FORM_RTOL}); radius-doubling "
        f"ratio={ratio:.3f} tracks 2^2.5={2.0**2.5:.3f}, not 4; "
        f"inverse a_n ratio={inv_ratio:.3f} in [1/3, 3]",
    )
    assert rel <= CLOSED_FORM_RTOL
    assert rel_ratio <= DOUBLING_RTOL
    assert off_squared > 0.3
    assert INVERSE_RATIO_BAND[0] <= inv_ratio <= INVERSE_RATIO_BAND[1]


def test_criterion_04_quadratic_power(capsys):
    n = 2000
    kq = example_coefficients(n, 2.0, 1024)
    jstar = round(6.0 * math.sqrt(n))  # spike well inside the weight window
    shape = Spectrum("cosine", np.concatenate([np.zeros(jstar - 1), [1.0]]))
    gaps = []
    for d in (1.0, 2.0, 3.0):
        theta = scale_to_drift(shape, kq, n, 1.0, d)
        cfg = ExperimentConfig(
            family="quadratic",
            n=n,
            reps=10_000,
            seed=42_000 + int(d),
            theta=theta,
            params={"gamma": 2.0, "j_max": 1024},
        )
        plan = build_plan(cfg)
        summary = run_monte_carlo(cfg, threads=THREADS, plan=plan)
        gaps.append(abs((1.0 - summary.rate) - plan.predicted_type2))
    ok = max(gaps) <= QUADRATIC_POWER_ATOL
    _line(
        capsys, 4, ok,
        "type II gaps at drift 1/2/3: "
        + "/".join(f"{g:.4f}" for g in gaps)
        + f" (tol {QUADRATIC_POWER_ATOL})",
    )
    assert max(gaps) <= QUADRATIC_POWER_ATOL


def test_criterion_05_kernel_power_and_constant(capsys):
    n = 2000
    h = float(n) ** -0.4
    box = box_kernel()
    kappa = math.sqrt(box.kappa_sq)
    drift = 1.0
    l2_sq = drift * kappa / (n * math.sqrt(h))  # ||f||_2^2 giving unit drift
    theta = Spectrum(
        "complex-exponential", np.array([0.0, math.sqrt(l2_sq / 2.0)], dtype=complex)
    )
    cfg = ExperimentConfig(
        family="kernel",
        n=n,
        reps=10_000,
        seed=55_010,
        theta=theta,
        params={"kernel": "box", "h": h, "j_max": 512},
    )
    summary = run_monte_carlo(cfg, threads=THREADS)
    beta_limit = normal_cdf(upper_quantile(0.05) - drift)
    gap = (1.0 - summary.rate) - beta_limit

    # kappa^2 = 2 ||K * K||_2^2 by independent nested quadrature, against 2/3
    box_fn = KERNEL_DENSITIES[box.name]

    def conv(y: float) -> float:
        lo = max(-box.halfwidth, y - box.halfwidth)
        hi = min(box.halfwidth, y + box.halfwidth)
        if hi <= lo:
            return 0.0
        val, _ = quad(
            lambda t: float(box_fn(np.array([t]))[0] * box_fn(np.array([y - t]))[0]),
            lo,
            hi,
            limit=100,
        )
        return val

    outer, _ = quad(
        lambda y: conv(y) ** 2,
        -2.0 * box.halfwidth,
        2.0 * box.halfwidth,
        points=[0.0],
        limit=200,
    )
    quad_err = abs(2.0 * outer - 2.0 / 3.0)

    ok = abs(gap) <= KERNEL_POWER_ATOL and quad_err <= KAPPA_QUAD_ATOL
    _line(
        capsys, 5, ok,
        f"type II gap={gap:+.4f} (tol {KERNEL_POWER_ATOL}); "
        f"kappa^2 quadrature err={quad_err:.1e} (tol {KAPPA_QUAD_ATOL})",
    )
    assert abs(gap) <= KERNEL_POWER_ATOL
    assert quad_err <= KAPPA_QUAD_ATOL


def test_criterion_06_chisq_power_and_identities(capsys):
    n, k, alpha = 5000, 50, 0.01
    target = 2.0 * math.sqrt(2.0 * k)  # drift 2 on the sqrt(2k) null scale
    shape = Spectrum(
        "complex-exponential", np.array([0.0, 0.0, 0.0, 0.5], dtype=complex)
    )
    scale = math.sqrt(target / population_chisq_functional(shape, k, n))
    theta = Spectrum(shape.basis, shape.coeffs * scale)
    cfg = ExperimentConfig(
        family="chisq",
        n=n,
        reps=10_000,
        seed=66_200,
        alpha=alpha,
        theta=theta,
        params={"k": k},
    )
    summary = run_monte_carlo(cfg, threads=THREADS)
    beta_pred = normal_cdf(upper_quantile(alpha) - 2.0)
    gap = (1.0 - summary.rate) - beta_pred

    # dyadic cells: the Haar recombination must equal the k = 2^l statistic
    rng = rng_for_replication(661, 0)
    worst_haar = 0.0
    for _ in range(1000):
        sample = rng.random(int(rng.integers(50, 400)))
        for level in (2, 3, 4):
            worst_haar = max(
                worst_haar, abs(haar_statistic(sample, level) - chisq_statistic(sample, 2**level))
            )

    # the cross-frequency block of the population functional vanishes
    rng = rng_for_replication(662, 0)
    worst_cross = 0.0
    for _ in range(100):
        coeffs = (rng.normal(size=9) + 1j * rng.normal(size=9)) * 0.1
        coeffs[0] = 0.0
        spec = Spectrum("complex-exponential", coeffs)
        worst_cross = max(
            worst_cross, abs(cross_frequency_sum(spec, int(rng.integers(2, 10))))
        )

    ok = (
        abs(gap) <= CHISQ_POWER_ATOL
        and worst_haar <= HAAR_ATOL
        and worst_cross <= CROSS_TERM_ATOL
    )
    _line(
        capsys, 6, ok,
        f"type II gap={gap:+.4f} (tol {CHISQ_POWER_ATOL}); haar identity "
        f"worst={worst_haar:.1e}; cross-frequency worst={worst_cross:.1e}",
    )
    assert abs(gap) <= CHISQ_POWER_ATOL
    assert worst_haar <= HAAR_ATOL
    assert worst_cross <= CROSS_TERM_ATOL


def test_criterion_07_cvm_population_null_mean_size(capsys, tmp_path):
    # closed-form population distance vs direct quadrature, 100 spectra J = 32
    rng = rng_for_replication(771, 0)
    worst_quad = 0.0
    for _ in range(100):
        spec = Spectrum("cosine", rng.normal(size=32) * 0.25)
        worst_quad = max(
            worst_quad, abs(cvm_population(spec) - cvm_population_quadrature(spec, grid=8192))
        )

    # E[n T^2] under the null is (1/6)(1 - 1/n) + 1/(12 n) -> 1/6
    n, reps = 1000, 100_000
    total = 0.0
    for rep in range(reps):
        total += cvm_statistic(rng_for_replication(424242, rep).random(n))
    null_mean = n * total / reps
    mean_rel = abs(null_mean - 1.0 / 6.0) * 6.0

    # size at calibrated critical value; calibration seed is independent of
    # the replication seeds by construction
    cfg = ExperimentConfig(
        family="cvm",
        n=n,
        reps=10_000,
        seed=515_151,
        params={"cache_dir": str(tmp_path)},
    )
    summary = run_monte_carlo(cfg, threads=THREADS)
    size_err = abs(summary.rate - 0.05)

    ok = (
        worst_quad <= CVM_QUAD_ATOL
        and mean_rel <= NULL_MEAN_RTOL
        and size_err <= CVM_SIZE_ATOL
    )
    _line(
        capsys, 7, ok,
        f"population vs quadrature worst={worst_quad:.1e}; null mean "
        f"nT^2={null_mean:.6f} (rel {mean_rel:.4f}, tol {NULL_MEAN_RTOL}); "
        f"size={summary.rate:.4f} (tol ±{CVM_SIZE_ATOL})",
    )
    assert worst_quad <= CVM_QUAD_ATOL
    assert mean_rel <= NULL_MEAN_RTOL
    assert size_err <= CVM_SIZE_ATOL


def test_criterion_08_projection_oracle(capsys):
    rng = rng_for_replication(888, 0)
    worst_l2, head_ok = 0.0, True
    for _ in range(200):
        w = rng.normal(size=8) * rng.uniform(0.4, 1.5)
        s = float(rng.uniform(0.5, 2.0))
        p0 = direct_seminorm(w**2, s) * float(rng.uniform(0.2, 0.9))
        spec, ball = Spectrum("cosine", w), BesovBall(s, p0)
        projected = project_besov(spec, ball).coeffs
        oracle = slsqp_tail_projection(w, s, p0)
        worst_l2 = max(worst_l2, float(np.linalg.norm(projected - oracle)))
        kv = first_violated_tail(spec, ball)
        head_ok = head_ok and bool(np.all(projected[: kv - 1] == w[: kv - 1]))
    ok = worst_l2 <= PROJECTION_ATOL and head_ok
    _line(
        capsys, 8, ok,
        f"worst l2 vs SLSQP={worst_l2:.2e} over 200 instances "
        f"(tol {PROJECTION_ATOL}); heads bitwise-preserved={head_ok}",
    )
    assert worst_l2 <= PROJECTION_ATOL
    assert head_ok


def test_criterion_09_consistency_boundary(capsys):
    # ||f|| pinned at 2 n^{-r}; growing C pushes the block out of the weights
    rows = consistency_experiment(
        "quadratic",
        s=1.0,
        c_schedule=[1.0, 4.0, 16.0, 64.0],
        n_schedule=2000,
        reps=4000,
        seed=90_001,
        norm_scale=2.0,
        threads=THREADS,
    )
    powers = [row["power"] for row in rows]
    errs = [row["std_err"] for row in rows]
    mono = all(
        powers[i + 1] <= powers[i] + 2.0 * (errs[i] + errs[i + 1]) for i in range(3)
    )
    ok = mono and powers[-1] <= 0.10 and powers[0] >= 0.5
    _line(
        capsys, 9, ok,
        "power along C=1/4/16/64: " + "/".join(f"{p:.3f}" for p in powers)
        + " (endpoint <= 0.10, start >= 0.5)",
    )
    assert mono
    assert powers[-1] <= 0.10  # alpha + 0.05
    assert powers[0] >= 0.5    # the feasible end is genuinely powered


def test_criterion_10_decomposition_gaps(capsys):
    n = 2000
    kq = example_coefficients(n, 2.5, 1024)
    f_n = scale_to_drift(Spectrum("cosine", np.ones(8)), kq, n, 1.0, 2.5)
    g_star = math.sqrt(besov_seminorm(f_n, 1.0))  # radius that just admits f_n
    cfg = ExperimentConfig(
        family="quadratic",
        n=n,
        reps=4000,
        seed=91_001,
        theta=f_n,
        params={"gamma": 2.5, "j_max": 1024},
    )
    rows = maxiset_decomposition_experiment(
        cfg, s=1.0, gammas=[x * g_star for x in (0.4, 0.6, 0.8, 1.0)], threads=THREADS
    )
    gaps = [row["gap"] for row in rows]
    residuals = [row["power_residual"] for row in rows]
    gaps_shrink = all(
        gaps[i + 1]
        <= gaps[i]
        + 2.0
        * (
            rows[i]["std_err_f"]
            + rows[i]["std_err_projected"]
            + rows[i + 1]["std_err_f"]
            + rows[i + 1]["std_err_projected"]
        )
        for i in range(3)
    )
    res_shrink = all(
        residuals[i + 1]
        <= residuals[i]
        + 2.0 * (rows[i]["std_err_residual"] + rows[i + 1]["std_err_residual"])
        for i in range(3)
    )
    ok = (
        gaps_shrink
        and res_shrink
        and gaps[-1] == 0.0
        and abs(residuals[-1] - cfg.alpha) <= 0.05
    )
    _line(
        capsys, 10, ok,
        "projection gaps " + "/".join(f"{g:.4f}" for g in gaps)
        + "; residual rejection " + "/".join(f"{r:.4f}" for r in residuals),
    )
    assert gaps_shrink
    assert res_shrink
    assert gaps[-1] == 0.0  # inside the ball the projection is f itself
    assert abs(residuals[-1] - cfg.alpha) <= 0.05


def test_criterion_11_bayes_prior_membership(capsys):
    design = solve_design(1.0, 1.0, 4e-5, 10_000)
    report = bayes_membership_rate(design, delta=0.2, draws=1000, seed=77_001)
    ok = report["rate"] >= MEMBERSHIP_FLOOR
    _line(
        capsys, 11, ok,
        f"prior membership rate={report['rate']:.3f} over {report['draws']} "
        f"draws (floor {MEMBERSHIP_FLOOR}, k_n={design.k_n})",
    )
    assert report["rate"] >= MEMBERSHIP_FLOOR


def test_criterion_12_cli_thread_invariance(capsys, tmp_path):
    curve_cfg = {
        "family": "quadratic",
        "n": 1000,
        "reps": 2000,
        "seed": 17,
        "theta": {"basis": "cosine", "coeffs": [0.2, 0.1, 0.05]},
        "params": {"gamma": 2.0, "j_max": 256},
        "scales": [0.0, 0.5, 1.0, 1.5],
    }
    cons_cfg = {
        "family": "quadratic",
        "s": 1.0,
        "c_schedule": [1.0, 4.0],
        "n": 500,
        "reps": 500,
        "seed": 23,
    }
    outputs = {}
    for name, payload, argv in (
        ("curve", curve_cfg, ["power-curve"]),
        ("consistency", cons_cfg, ["experiment", "consistency"]),
    ):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(payload))
        pair = []
        for threads in (1, 8):
            out = tmp_path / f"{name}-{threads}.csv"
            rc = cli_main(
                argv
                + ["--config", str(cfg_path), "--threads", str(threads), "--out", str(out)]
            )
            assert rc == 0
            pair.append(out.read_bytes())
        outputs[name] = pair
    same = all(a == b for a, b in outputs.values())
    header_ok = outputs["curve"][0].decode().splitlines()[0] == "# schema=v1"
    ok = same and header_ok
    _line(
        capsys, 12, ok,
        "power-curve and consistency CSVs byte-identical across 1 vs 8 threads "
        f"({len(outputs['curve'][0])} and {len(outputs['consistency'][0])} bytes)",
    )
    assert same
    assert header_ok
