"""Reference values computed apart from seqtest.

Every function here works from a defining formula with numpy and scipy
alone, so a check that compares seqtest's output with one of them compares
two computations, not a program with a copy of its own output.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, optimize, stats
from scipy.special import ndtr, ndtri


def upper_quantile(alpha: float) -> float:
    return float(ndtri(1.0 - alpha))


def normal_type2(alpha: float, drift: float) -> float:
    """Phi(z_alpha - drift): the normal-tail type II error at a given drift."""
    return float(ndtr(upper_quantile(alpha) - drift))


def weighted_chi2_sf(lam, x: float) -> float:
    """P(sum_i lam_i xi_i^2 > x) for i.i.d. standard normal xi_i.

    Imhof's (1961) inversion of the characteristic function, integrated with
    scipy's adaptive quadrature after scaling the largest weight to one.
    """
    lam = np.asarray(lam, dtype=float)
    top = float(lam.max())
    lam, x = lam / top, x / top

    def integrand(u: float) -> float:
        lu = lam * u
        angle = 0.5 * float(np.sum(np.arctan(lu))) - 0.5 * x * u
        log_rho = 0.25 * float(np.sum(np.log1p(lu * lu)))
        return math.sin(angle) * math.exp(-log_rho) / u

    val, _ = integrate.quad(integrand, 0.0, np.inf, limit=2000, epsabs=1e-11)
    return 0.5 + val / math.pi


def tails(energies) -> np.ndarray:
    """tail[k-1] = sum_{j >= k} e_j."""
    e = np.asarray(energies, dtype=float)
    return np.cumsum(e[::-1])[::-1]


def seminorm(energies, s: float) -> float:
    """max_k k^{2s} sum_{j >= k} e_j, straight off the definition."""
    t = tails(energies)
    k = np.arange(1, t.size + 1, dtype=float)
    return float(np.max(k ** (2.0 * s) * t))


def first_violated(energies, s: float, p0: float) -> int | None:
    t = tails(energies)
    k = np.arange(1, t.size + 1, dtype=float)
    bad = np.flatnonzero(k ** (2.0 * s) * t > p0)
    return int(bad[0]) + 1 if bad.size else None


def slsqp_projection(w, s: float, p0: float) -> np.ndarray:
    """Closest point to w under sum_{j>=k} x_j^2 <= p0 k^{-2s} for every k.

    SLSQP with exact gradients; several feasible starts, first converged wins
    (the problem is convex).
    """
    w = np.asarray(w, dtype=float)
    j = w.size
    budgets = p0 * np.arange(1, j + 1, dtype=float) ** (-2.0 * s)
    upper = np.triu(np.ones((j, j)))  # row k-1 selects the tail from k

    def cons(x):
        return budgets - upper @ (x * x)

    def cons_jac(x):
        return -2.0 * upper * x

    semi = seminorm(w**2, s)
    shrink = 1.0 if semi <= p0 else 0.999 * math.sqrt(p0 / semi)
    for start in (w * shrink, w * (0.9 * shrink), w * (0.5 * shrink), np.zeros(j)):
        res = optimize.minimize(
            lambda x: float(np.sum((x - w) ** 2)),
            x0=start,
            jac=lambda x: 2.0 * (x - w),
            method="SLSQP",
            constraints=[{"type": "ineq", "fun": cons, "jac": cons_jac}],
            options={"ftol": 1e-14, "maxiter": 2000},
        )
        if res.success:
            return np.asarray(res.x, dtype=float)
    raise RuntimeError("SLSQP failed from every start")


def kkt_residual(x, w, s: float, p0: float) -> float:
    """Largest violation of the projection's KKT conditions by x.

    The projection of w has x_j = w_j / (1 + M_j) with M_j = sum_{k<=j} mu_k,
    multipliers mu_k >= 0, and mu_k > 0 only where the tail constraint at k
    is tight.  The residual is the worst of: relative infeasibility, negative
    multiplier, multiplier times relative slack, and a sign or magnitude
    change that no multiplier explains.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    budgets = p0 * np.arange(1, w.size + 1, dtype=float) ** (-2.0 * s)
    rel_slack = (budgets - tails(x * x)) / budgets
    ratio = x / w
    if np.any(ratio <= 0.0):
        return math.inf
    cumulative = 1.0 / ratio - 1.0
    mu = np.diff(cumulative, prepend=0.0)
    return float(max(
        np.max(-rel_slack, initial=0.0),
        np.max(-mu, initial=0.0),
        np.max(np.abs(mu * rel_slack)),
        np.max(-cumulative, initial=0.0),
    ))


def minimax_design_s1(p0: float, rho: float, n: int, j_max: int | None = None) -> dict:
    """Closed-form s = 1 direct design: k = sqrt(3 P0 / rho), kappa_j^2 = 2 P0 min(j, k)^-3."""
    k_n = max(1, int(round(math.sqrt(3.0 * p0 / rho))))
    if j_max is None:
        j_max = max(20 * k_n, 1024)
    j = np.arange(1, j_max + 1, dtype=float)
    kappa_n2 = 2.0 * p0 * k_n ** -3.0
    kappa_j2 = np.where(j <= k_n, kappa_n2, 2.0 * p0 * np.power(j, -3.0))
    return {
        "k_n": k_n,
        "kappa_j2": kappa_j2,
        "a_n": n**2 * float(np.sum(kappa_j2**2)),
        "c_n": n * rho,
    }


def a_n_closed_s1(rho: float, n: int) -> float:
    """Asymptotic A_n at s = 1: 4.8 * 3^{-5/2} n^2 rho^{5/2}."""
    return 4.8 * 3.0**-2.5 * n**2 * rho**2.5


def inverse_design_s1(p0: float, rho: float, n: int, lam) -> dict:
    """s = 1 inverse design: the breakpoint k whose radius gap is nearest zero
    at the first sign change, with theta_j^2 = a lambda_j^-4 below it."""
    lam = np.abs(np.asarray(lam, dtype=float))
    k = np.arange(1, lam.size + 1, dtype=float)
    a = 2.0 * p0 * k**-3.0 * lam**4
    gap = a * np.cumsum(lam**-4.0) + p0 * k**-2.0 - rho
    k_hi = int(np.flatnonzero(gap <= 0.0)[0]) + 1
    cands = [c for c in (k_hi - 1, k_hi) if c >= 1]
    k_n = min(cands, key=lambda c: abs(gap[c - 1]))
    a_k = a[k_n - 1]
    kappa_j2 = np.where(k <= k_n, a_k * lam**-2.0, 2.0 * p0 * k**-3.0 * lam**2)
    return {"k_n": k_n, "a_n": n**2 * float(np.sum(kappa_j2**2))}


def quadratic_weights(n: int, gamma: float, j_max: int) -> np.ndarray:
    """kappa_j^2 = n^{-1/(2 gamma)} (j^-gamma / n) / (j^-gamma + 1/n)."""
    jg = np.arange(1, j_max + 1, dtype=float) ** -gamma
    return n ** (-1.0 / (2.0 * gamma)) * (jg / n) / (jg + 1.0 / n)


def quadratic_drift(theta, kq, n: int) -> float:
    """A_n(theta) / sqrt(2 A_n) at sigma = 1."""
    theta = np.asarray(theta, dtype=float)
    return n**2 * float(np.sum(kq[: theta.size] * theta**2)) / math.sqrt(2.0 * n**2 * float(np.sum(kq**2)))


BOX_KAPPA_SQ = 2.0 / 3.0  # 2 ||K * K||_2^2 for the box kernel 1/2 on [-1, 1]


def cosine_cell_integrals(j: int, amplitude: float, k: int) -> np.ndarray:
    """int over each of k equal cells of 2 a cos(2 pi j x)."""
    edges = np.arange(k + 1) / k
    prim = 2.0 * amplitude * np.sin(2.0 * math.pi * j * edges) / (2.0 * math.pi * j)
    return np.diff(prim)


def chisq_null_size(k: int, alpha: float) -> float:
    """P(chi2_{k-1} > k - 1 + z_alpha sqrt(2k)): the size Pearson's statistic
    attains under the normal threshold, to O(1/n)."""
    return float(stats.chi2.sf(k - 1 + upper_quantile(alpha) * math.sqrt(2.0 * k), k - 1))


def omega2_sf(x: float) -> float:
    """P(omega^2 > x) for the limiting Cramer-von Mises law sum xi_j^2 / (pi j)^2.

    Terms past j = 4000 enter through their mean, which is exact to far
    below the Monte Carlo error of any run here.
    """
    lam = 1.0 / (math.pi * np.arange(1, 4001, dtype=float)) ** 2
    rest = 1.0 / 6.0 - float(np.sum(lam))
    return weighted_chi2_sf(lam, x - rest)
