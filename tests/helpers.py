"""Independent oracles shared across test modules.

Everything here recomputes a quantity from its defining formula with tools
outside the package (scipy optimizers, direct summation), so agreement is
evidence and not circularity.
"""

import math

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.optimize import minimize


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
