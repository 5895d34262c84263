"""Independent oracles shared across test modules.

Everything here recomputes a quantity from its defining formula with tools
outside the package (scipy optimizers, direct summation), so agreement is
evidence and not circularity.
"""

import math

import numpy as np
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
