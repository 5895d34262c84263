"""Chi-square goodness-of-fit tests on equal cells of [0, 1).

The statistic is T_n = k n sum_i (phat_i - 1/k)^2 over k equal cells, with
null mean k - 1; the test rejects when (T_n - k + 1) / sqrt(2 k) exceeds
x_alpha.  The population counterpart T_n(F) = n k sum_l (int_cell f)^2
drives the normal type II approximation Phi(x_alpha - T_n(F) / sqrt(2 k)).

T_n(F) is evaluated one way, from the cell integrals of the perturbation:
each is the increment over its cell of the exact antiderivative
``sampling.cumulative_perturbation``.  Expanding the same sum in frequency
gives the aliasing sum

    J1 = k^2 sum_m sum_{j != 0, j != m k} theta_j conj(theta_{j - m k})
         (2 - 2 cos(2 pi j / k)) / (4 pi^2 j (j - m k)),

with T_n(F) = n J1: the cross-frequency pairs (index difference not a
multiple of k) vanish identically because the cell phases average to zero.
The test suite evaluates both the aliasing sum and the cross-frequency sum
on its own and compares them with the cell path, so the identity and the
cancellation are checked rather than assumed.

When k = 2^l the statistic coincides with the quadratic form of empirical
Haar coefficients through level l - 1:

    T_n = n sum_{i=0}^{l-1} sum_{q=0}^{2^i - 1} bhat_{iq}^2,
    bhat_{iq} = (1/n) sum_m psi_iq(X_m),   psi_iq = 2^{i/2} psi(2^i x - q),

with psi the step wavelet (+1 on [0, 1/2), -1 on [1/2, 1)).  The mean-zero
step function of cell deviations is exactly resolved by those levels, which
is the whole identity; ``haar_statistic`` evaluates the right-hand side
level by level from the sample's half-cell counts, so the equality is a
genuine cross-check.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .errors import ConfigError
from .report import TestReport, normal_type2, upper_quantile
from .sampling import cumulative_perturbation
from .spectra import Spectrum

# validity window for the normal type II approximation, as multiples of sqrt(k)
DRIFT_WINDOW = (0.1, 10.0)


def _validate_sample(sample: np.ndarray) -> np.ndarray:
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("sample must be a non-empty 1-d array")
    if np.any(x < 0.0) or np.any(x >= 1.0):
        raise ConfigError("observations must lie in [0, 1)")
    return x


def cell_index(x: np.ndarray, k: int) -> np.ndarray:
    """The equal cell of [0, 1] that each point falls in, 0..k-1, unchecked."""
    return np.minimum((x * k).astype(np.int64), k - 1)  # guard x*k rounding up to k


def binned(x: np.ndarray, k: int) -> np.ndarray:
    """Counts of the points of [0, 1) in k equal cells, unchecked."""
    return np.bincount(cell_index(x, k), minlength=k)


def cell_thresholds(inverse, k: int) -> np.ndarray:
    """t_0 = 0, t_k = 1 and, for i = 1..k-1, t_i = the least double u in
    [0, 1] whose point ``inverse(u)`` lies in cell i or above, for a
    nondecreasing map ``inverse`` of [0, 1] into [0, 1].  A uniform u in
    [0, 1) then falls in cell i of ``binned(inverse(u), k)`` exactly when
    t_i <= u < t_{i+1}, so ``np.diff(np.searchsorted(np.sort(u), t))`` gives
    the cell counts.
    """
    # Bisection over the bit patterns of the doubles in [0, 1], which order
    # them as their values do; lo never reaches a target cell, hi does (1.0
    # stands in for any cell left unreached, since uniforms stay below 1).
    #
    # This is exact for ``sampling.iid_sampler``'s map only if the composite
    # u -> cell_index(inverse(u), k) is nondecreasing.  ``np.interp`` is
    # monotone within a grid segment, since each of its float operations is;
    # it can step back, by a few ulps, only where u reaches a CDF grid node
    # m/8192 (the default grid) and the value snaps to the node exactly.  A
    # cell boundary i/k either equals such a node (then the values on both
    # sides of the step lie in cell i or above) or lies at least 1/(8192 k)
    # away from every node, far beyond those ulps for any k whose counts fit
    # in memory.  So no boundary falls inside a step, and the cell never
    # steps back.
    targets = np.arange(1, k)
    lo = np.zeros(k - 1, dtype=np.int64)  # 0.0 maps to 0.0, in cell 0
    hi = np.full(k - 1, 1.0).view(np.int64)
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        above = cell_index(inverse(mid.view(np.float64)), k) >= targets
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return np.concatenate(([0.0], hi.view(np.float64), [1.0]))


def statistic_from_counts(counts: np.ndarray, n: int, k: int) -> float:
    """T_n = k n sum_i (counts_i / n - 1/k)^2, unchecked."""
    return float(k * n * np.sum((counts / n - 1.0 / k) ** 2))


def cell_counts(sample: np.ndarray, k: int) -> np.ndarray:
    if k < 2:
        raise ConfigError("need at least k = 2 cells")
    return binned(_validate_sample(sample), k)


def chisq_statistic(sample: np.ndarray, k: int) -> float:
    counts = cell_counts(sample, k)
    return statistic_from_counts(counts, counts.sum(), k)


def standardized_chisq(t_n: float, k: int) -> float:
    return (t_n - (k - 1)) / math.sqrt(2.0 * k)


def chisq_test(sample: np.ndarray, k: int, alpha: float) -> TestReport:
    t_n = chisq_statistic(sample, k)
    z = standardized_chisq(t_n, k)
    x_alpha = upper_quantile(alpha)
    n = int(np.asarray(sample).size)
    return TestReport(
        family="chisq",
        statistic=t_n,
        standardized=z,
        threshold=x_alpha,
        alpha=alpha,
        reject=bool(z > x_alpha),
        n=n,
    )


def haar_statistic(sample: np.ndarray, level: int) -> float:
    """n * sum of squared empirical Haar coefficients through ``level`` levels.

    Equals chisq_statistic(sample, 2**level) exactly (see module docstring).
    """
    if level < 1:
        raise ConfigError("level must be a positive integer")
    x = _validate_sample(sample)
    n = x.size
    total = 0.0
    for i in range(level):
        # psi_iq is +1 on the left and -1 on the right half of its support,
        # which are cells 2q and 2q + 1 of the 2^{i+1} equal cells
        halves = binned(x, 2 ** (i + 1))
        bhat = (2.0 ** (i / 2.0)) * (halves[0::2] - halves[1::2]) / n
        total += float(np.sum(bhat**2))
    return n * total


def cell_integrals(theta: Spectrum, k: int) -> np.ndarray:
    """p_l = int_{l/k}^{(l+1)/k} f for the perturbation f with spectrum theta."""
    if theta.basis != "complex-exponential":
        raise ConfigError("cell integrals are computed from the complex-exponential basis")
    if k < 2:
        raise ConfigError("need at least k = 2 cells")
    return np.diff(cumulative_perturbation(theta, np.arange(k + 1) / k))


def population_chisq_functional(theta: Spectrum, k: int, n: int) -> float:
    """T_n(F) = n k sum_l (int_cell f)^2 from the cell integrals."""
    if n < 1:
        raise ConfigError("n must be positive")
    p = cell_integrals(theta, k)
    return float(n * k * np.sum(p**2))


def chisq_drift(theta: Spectrum, k: int, n: int) -> float:
    """Standardized mean shift T_n(F) / sqrt(2 k); warns when T_n(F) leaves
    the window where the normal type II approximation holds."""
    t_f = population_chisq_functional(theta, k, n)
    lo, hi = DRIFT_WINDOW
    if not lo * math.sqrt(k) <= t_f <= hi * math.sqrt(k):
        warnings.warn(
            f"population functional {t_f:.4g} outside [{lo}*sqrt(k), {hi}*sqrt(k)]; "
            "the normal type II approximation may be unreliable",
            stacklevel=3,
        )
    return t_f / math.sqrt(2.0 * k)


def predicted_type2_chisq(theta: Spectrum, k: int, n: int, alpha: float) -> float:
    return normal_type2(chisq_drift(theta, k, n), alpha)
