"""Independent oracles and diagnostics shared across test modules.

Everything here recomputes a quantity from its defining formula with tools
outside the package (scipy optimizers, direct summation), so agreement is
evidence and not circularity.  The weight-profile regularity report, the
primitive mean and the CvM consistency margin are diagnostics that only the
tests read.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.optimize import minimize

from seqtest.cvm import cvm_population
from seqtest.errors import ConfigError
from seqtest.sampling import density_grid

# Regularity thresholds: neighbor-step bound a3 <= A3_STEP_OVER_KN / k_n in the
# resolution window, window mass fractions for a5 below A5_MASS_FRACTION.
A3_STEP_OVER_KN = 8.0
A5_MASS_FRACTION = 0.5

# limiting distribution of omega^2 = n T^2: classical upper 5% point
ASYMPTOTIC_Q95 = 0.46136


def direct_seminorm(energies: np.ndarray, s: float) -> float:
    """max_k k^{2s} sum_{j>=k} e_j, straight off the definition."""
    e = np.asarray(energies, dtype=float)
    tails = np.cumsum(e[::-1])[::-1]
    k = np.arange(1, e.size + 1, dtype=float)
    return float(np.max(k ** (2.0 * s) * tails))


def slsqp_tail_projection(w: np.ndarray, s: float, p0: float) -> np.ndarray:
    """Metric projection of w onto the nested tail-energy constraints.

    Solves min ||x - w||^2 s.t. sum_{j>=k} x_j^2 <= p0 k^{-2s} for every k,
    with scipy's SLSQP.  Small instances only.  SLSQP's linesearch can stall
    near the boundary, so several feasible starts are tried and the best
    converged solution wins.
    """
    w = np.asarray(w, dtype=float)
    j = w.size
    semi = direct_seminorm(w**2, s)
    shrink = 1.0 if semi <= p0 else 0.999 * math.sqrt(p0 / semi)
    constraints = [
        {
            "type": "ineq",
            "fun": (lambda x, k=k: p0 * float(k) ** (-2.0 * s) - float(np.sum(x[k - 1 :] ** 2))),
        }
        for k in range(1, j + 1)
    ]
    # the problem is convex, so the first converged start is the projection
    for start in (w * shrink, w * (0.9 * shrink), w * (0.5 * shrink), np.zeros(j)):
        res = minimize(
            lambda x: float(np.sum((x - w) ** 2)),
            x0=start,
            method="SLSQP",
            constraints=constraints,
            options={"ftol": 1e-12, "maxiter": 1000},
        )
        if res.success:
            return np.asarray(res.x, dtype=float)
    raise RuntimeError("SLSQP failed from every start")


def kkt_residual(x: np.ndarray, w: np.ndarray, s: float, p0: float) -> float:
    """Largest violation of the KKT conditions of the tail-ball projection of w.

    The projection has x_j = w_j / (1 + M_j), where M_j sums multipliers
    mu_k >= 0 over k <= j, and mu_k > 0 only where the tail constraint at k
    is tight.  A zero w_j must map to a zero x_j and says nothing about M, so
    the multipliers are read off the nonzero coordinates: between two of
    them the tails are equal and the budget shrinks, so the increment of M
    belongs to the constraint at the later one.  The residual is the worst of
    relative infeasibility, a negative multiplier, multiplier times relative
    slack, and a sign flip or growth no multiplier explains.
    """
    x = np.asarray(x, dtype=float)
    w = np.asarray(w, dtype=float)
    nonzero = w != 0.0
    if np.any(x[~nonzero] != 0.0):
        return math.inf
    budgets = p0 * np.arange(1, w.size + 1, dtype=float) ** (-2.0 * s)
    tails = np.cumsum((x * x)[::-1])[::-1]
    rel_slack = (budgets - tails) / budgets
    ratio = x[nonzero] / w[nonzero]
    if np.any(ratio <= 0.0):
        return math.inf
    cumulative = 1.0 / ratio - 1.0
    mu = np.diff(cumulative, prepend=0.0)
    return float(max(
        np.max(-rel_slack, initial=0.0),
        np.max(-mu, initial=0.0),
        np.max(np.abs(mu * rel_slack[nonzero])),
        np.max(-cumulative, initial=0.0),
    ))


def _cosine_terms(theta, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(x) = sqrt(2) sum_j theta_j cos(pi j x) and its primitive U(x)."""
    coeffs = np.asarray(theta.coeffs, dtype=float)
    w = math.pi * np.arange(1, coeffs.size + 1)
    f = math.sqrt(2.0) * np.cos(np.outer(x, w)) @ coeffs
    u = math.sqrt(2.0) * np.sin(np.outer(x, w)) @ (coeffs / w)
    return f, u


def primitive_mean(theta) -> float:
    """int_0^1 U(x) dx = 2 sqrt(2) sum_{odd j} theta_j / (pi^2 j^2) for the cosine basis."""
    if theta.basis != "cosine":
        raise ConfigError("the primitive mean is defined for the cosine basis")
    coeffs = np.asarray(theta.coeffs, dtype=float)
    j = np.arange(1, coeffs.size + 1)
    odd = j % 2 == 1
    return float(2.0 * math.sqrt(2.0) * np.sum(coeffs[odd] / (math.pi**2 * j[odd] ** 2)))


@dataclass(frozen=True)
class MarginReport:
    """n T^2(F - F_0) together with the density-floor check 1 + f > delta."""

    margin: float
    min_density: float
    delta: float

    @property
    def b1_ok(self) -> bool:
        return self.min_density > self.delta


def consistency_margin(theta, n: int, delta: float = 0.0, grid: int = 4096) -> MarginReport:
    if n < 1:
        raise ConfigError("n must be positive")
    margin = n * cvm_population(theta)
    _, dens = density_grid(theta, grid + 1)
    return MarginReport(margin=float(margin), min_density=float(dens.min()), delta=delta)


def cvm_statistic_quadrature(sample: np.ndarray) -> float:
    """int_0^1 (Fhat_n(x) - x)^2 dx summed segment by segment.

    Between consecutive order statistics Fhat_n is flat, so each segment
    contributes an exact cubic difference.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    knots = np.concatenate([[0.0], x, [1.0]])
    total = 0.0
    for i in range(n + 1):
        level = i / n
        a, b = knots[i], knots[i + 1]
        total += ((level - a) ** 3 - (level - b) ** 3) / 3.0
    return total


def cvm_population_quadrature(theta, grid: int = 8192) -> float:
    """T^2(F - F_0) = int_0^1 U(x)^2 dx by Simpson quadrature of the primitive
    of a cosine-basis perturbation."""
    x = np.linspace(0.0, 1.0, grid + 1)
    _, u = _cosine_terms(theta, x)
    return float(integrate.simpson(u**2, x=x))


def bridge_kernel_quadrature(theta, order: int = 256) -> float:
    """int int (min{s,t} - st) f(s) f(t) ds dt by tensor Gauss-Legendre.

    Differs from int U^2 by the rank-one term (int U)^2.
    """
    nodes, weights = leggauss(order)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    f, _ = _cosine_terms(theta, x)
    kern = np.minimum.outer(x, x) - np.outer(x, x)
    return float((w * f) @ kern @ (w * f))


def space_domain_energy(y, kernel, h: float, grid: int = 2048) -> float:
    """||smoothed field||^2 by direct periodic convolution on a grid.

    Reconstructs the band-limited field from the stored complex-exponential
    coefficients, wraps the scaled kernel around the circle, convolves by
    direct summation, and integrates the square; O(grid^2).
    """
    t = np.arange(grid) / grid
    js, vals = y.signed_pairs()
    field = np.real(np.exp(2j * math.pi * np.outer(t, js)) @ vals)
    # wrapped kernel (t - u mod 1), scaled by 1/h
    d = t[:, None] - t[None, :]
    d = (d + 0.5) % 1.0 - 0.5
    wrapped = np.zeros_like(d)
    width = kernel.halfwidth * h
    for shift in (-1.0, 0.0, 1.0):  # h < 1/2 keeps at most one wrap relevant
        sel = np.abs(d + shift) <= width
        if np.any(sel):
            wrapped[sel] += kernel.fn((d[sel] + shift) / h) / h
    smoothed = wrapped @ field / grid
    return float(np.mean(smoothed**2))


def kernel_transform_quadrature(kernel, omega: np.ndarray) -> np.ndarray:
    """Khat(omega) = 2 int_0^b K(t) cos(2 pi omega t) dt of a symmetric kernel,
    by scipy's oscillatory quadrature, ignoring its closed-form transform."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty_like(omega)
    for i, w in enumerate(omega):
        val, _ = integrate.quad(kernel.fn, 0.0, kernel.halfwidth, weight="cos", wvar=2.0 * math.pi * abs(w), limit=200)
        out[i] = 2.0 * val
    return out


def aliasing_sum(theta, k: int) -> float:
    """J1 = k^2 sum_m sum_{j != 0, j != m k} theta_j conj(theta_{j - m k})
    (2 - 2 cos(2 pi j / k)) / (4 pi^2 j (j - m k)), term by term; n J1 is the
    chi-square population functional of a mean-zero perturbation."""
    js, vals = theta.signed_pairs()
    if abs(vals[js == 0][0]) > 1e-12:
        raise ConfigError("the aliasing sum requires a mean-zero perturbation (zero frequency-0 coefficient)")
    j_max = int(js.max())
    m_max = (2 * j_max) // k + 1  # index differences reach 2 j_max
    coeff = dict(zip(js.tolist(), vals.tolist()))
    total = 0.0
    for m in range(-m_max, m_max + 1):
        for j in range(-j_max, j_max + 1):
            if j == 0 or j == m * k:
                continue
            other = coeff.get(j - m * k)
            first = coeff.get(j)
            if other is None or first is None or first == 0 or other == 0:
                continue
            weight = (2.0 - 2.0 * math.cos(2.0 * math.pi * j / k)) / (4.0 * math.pi**2 * j * (j - m * k))
            total += float(np.real(first * np.conj(other))) * weight
    return k * k * total


def cross_frequency_sum(theta, k: int) -> float:
    """|sum over pairs with k not dividing (j - j')| of the cell-energy
    expansion of a complex-exponential spectrum: identically zero.

    Keeps the explicit phase average sum_l e^{2 pi i (j - j') l / k} instead
    of using its known value; c_j = int_0^{1/k} e^{2 pi i j x} dx.
    """
    js, vals = theta.signed_pairs()
    nz = js != 0
    js, vals = js[nz], vals[nz]
    c = (np.exp(2.0j * math.pi * js / k) - 1.0) / (2.0j * math.pi * js)
    l = np.arange(k)
    total = 0.0 + 0.0j
    for a in range(js.size):
        for b in range(js.size):
            diff = js[a] - js[b]
            if diff % k == 0:
                continue
            phase_avg = np.sum(np.exp(2.0j * math.pi * diff * l / k))
            total += vals[a] * np.conj(vals[b]) * c[a] * np.conj(c[b]) * phase_avg
    return float(abs(k * total))


def half_mass_index(kappa_sq: np.ndarray) -> int:
    """Largest k with sum_{j < k} kappa^2_j <= (1/2) sum_j kappa^2_j."""
    kappa_sq = np.asarray(kappa_sq, dtype=float)
    if kappa_sq.size == 0 or np.any(kappa_sq < 0):
        raise ConfigError("kappa_sq must be a non-empty non-negative array")
    csum = np.cumsum(kappa_sq)
    half = 0.5 * csum[-1]
    return int(np.searchsorted(csum, half, side="right")) + 1


@dataclass(frozen=True)
class RegularityReport:
    """Finite-n surrogates for the weight-profile regularity conditions.

    a1: profile is nonincreasing.
    a2: A_n value (finite by construction; reported for rate checks).
    a3: largest relative neighbor step inside the resolution window
        (delta k_n, k_n / delta), compared with A3_STEP_OVER_KN / k_n.
    a4: weight ratio across the window edges, must sit strictly in (0, 1).
    a5: share of sum kappa^2 and of sum kappa^4 outside the window; small
        values mean the window carries the statistic.
    """

    k_n: int
    a1_monotone: bool
    a2_value: float
    a3_max_step: float
    a3_bound: float
    a3_ok: bool
    a4_ratio: float
    a4_ok: bool
    a5_outside_mass: float
    a5_outside_fourth: float
    a5_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.a1_monotone and self.a3_ok and self.a4_ok and self.a5_ok


def check_regularity(
    kappa_sq: np.ndarray,
    n: int,
    sigma: float = 1.0,
    delta: float = 0.25,
) -> RegularityReport:
    kq = np.asarray(kappa_sq, dtype=float)
    if np.any(kq < 0) or kq.size < 4:
        raise ConfigError("need a non-negative profile with at least 4 weights")
    k_n = half_mass_index(kq)
    a1 = bool(np.all(np.diff(kq) <= 1e-15))
    a2 = float(n**2 * sigma**-4 * np.sum(kq**2))  # A_n

    lo = max(1, int(math.floor(delta * k_n)))
    hi = min(kq.size - 1, int(math.ceil(k_n / delta)))
    window = slice(lo - 1, hi)  # frequencies lo..hi
    ratios = kq[lo : hi + 1] / np.where(kq[lo - 1 : hi] > 0, kq[lo - 1 : hi], np.inf)
    a3_max = float(np.max(np.abs(ratios - 1.0))) if ratios.size else 0.0
    a3_bound = A3_STEP_OVER_KN / k_n
    a4_hi = min(kq.size, int(math.ceil((1.0 + delta) * k_n)))
    a4_lo = max(1, int(math.floor((1.0 - delta) * k_n)))
    a4_ratio = float(kq[a4_hi - 1] / kq[a4_lo - 1]) if kq[a4_lo - 1] > 0 else 0.0

    total2 = float(np.sum(kq))
    total4 = float(np.sum(kq**2))
    inside2 = float(np.sum(kq[window]))
    inside4 = float(np.sum(kq[window] ** 2))
    out2 = 1.0 - inside2 / total2 if total2 > 0 else 1.0
    out4 = 1.0 - inside4 / total4 if total4 > 0 else 1.0

    return RegularityReport(
        k_n=k_n,
        a1_monotone=a1,
        a2_value=a2,
        a3_max_step=a3_max,
        a3_bound=a3_bound,
        a3_ok=a3_max <= a3_bound,
        a4_ratio=a4_ratio,
        a4_ok=0.0 < a4_ratio < 1.0,
        a5_outside_mass=out2,
        a5_outside_fourth=out4,
        a5_ok=max(out2, out4) <= A5_MASS_FRACTION,
    )
