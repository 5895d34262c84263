"""Quadratic coefficient tests: weighted energy statistics in the sequence model.

A weight profile kappa_sq (kappa^2_{j,n}, j = 1..J, aligned with the cosine
Spectrum layout) defines the statistic

    T_n = sum_j kappa^2_j y_j^2  -  (sigma^2 / n) sum_j kappa^2_j,

which is centered under the null.  Its exact null standard deviation is
sd0 = (sigma^2 / n) sqrt(2 sum kappa^4), and the test rejects when
T_n / sd0 exceeds the one-sided normal quantile.  The asymptotic type II
error against a signal theta is Phi(x_alpha - A_n(theta) / sqrt(2 A_n)) with

    A_n        = n^2 sigma^-4 sum_j kappa^4_j,
    A_n(theta) = n^2 sigma^-4 sum_j kappa^2_j theta_j^2.

Since sd0 = sigma^4 n^-2 sqrt(2 A_n) and E_theta[T_n] = sigma^4 n^-2 A_n(theta),
the standardized mean shift is exactly A_n(theta) / sqrt(2 A_n): the error
formula and the finite-truncation standardization agree with no extra factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .report import TestReport, normal_cdf, upper_quantile
from .spectra import Spectrum

# Regularity thresholds: neighbor-step bound a3 <= A3_STEP_OVER_KN / k_n in the
# resolution window, window mass fractions for a5 below A5_MASS_FRACTION.
A3_STEP_OVER_KN = 8.0
A5_MASS_FRACTION = 0.5


def example_coefficients(n: int, gamma: float, j_max: int) -> np.ndarray:
    """The rational weight family kappa^2_j = n^{-1/(2 gamma)} n^{-1} j^-g / (j^-g + n^-1).

    The profile is flat up to j ~ n^{1/gamma} and decays like j^-gamma beyond,
    which tunes the test to smoothness s = (2 gamma - 1) / 4.
    """
    if n < 1 or gamma <= 0.5 or j_max < 1:
        raise ConfigError("example coefficients need n >= 1, gamma > 1/2, j_max >= 1")
    j = np.arange(1, j_max + 1, dtype=float)
    jg = j**-gamma
    return n ** (-1.0 / (2.0 * gamma)) * (jg / n) / (jg + 1.0 / n)


def _as_coeff_array(y) -> np.ndarray:
    if isinstance(y, Spectrum):
        if y.basis != "cosine":
            raise ConfigError("quadratic tests operate on cosine-basis observations")
        return np.asarray(y.coeffs, dtype=float)
    return np.asarray(y, dtype=float)


def half_mass_index(kappa_sq: np.ndarray) -> int:
    """Largest k with sum_{j < k} kappa^2_j <= (1/2) sum_j kappa^2_j."""
    kappa_sq = np.asarray(kappa_sq, dtype=float)
    if kappa_sq.size == 0 or np.any(kappa_sq < 0):
        raise ConfigError("kappa_sq must be a non-empty non-negative array")
    csum = np.cumsum(kappa_sq)
    half = 0.5 * csum[-1]
    return int(np.searchsorted(csum, half, side="right")) + 1


def a_n_value(kappa_sq: np.ndarray, n: int, sigma: float) -> float:
    kappa_sq = np.asarray(kappa_sq, dtype=float)
    return float(n**2 * sigma**-4 * np.sum(kappa_sq**2))


def noncentrality(theta, kappa_sq: np.ndarray, n: int, sigma: float) -> float:
    """A_n(theta) over the overlapping index range of weights and signal."""
    th = _as_coeff_array(theta)
    kq = np.asarray(kappa_sq, dtype=float)
    m = min(th.size, kq.size)
    return float(n**2 * sigma**-4 * np.sum(kq[:m] * th[:m] ** 2))


def null_sd(kappa_sq: np.ndarray, n: int, sigma: float) -> float:
    """Exact null standard deviation of T_n at the stored truncation."""
    kappa_sq = np.asarray(kappa_sq, dtype=float)
    return float(sigma**2 / n * math.sqrt(2.0 * np.sum(kappa_sq**2)))


def null_center(kappa_sq: np.ndarray, n: int, sigma: float) -> float:
    """E T_n's offset under the null: (sigma^2 / n) sum_j kappa^2_j."""
    return sigma**2 / n * float(np.sum(kappa_sq))


def centered_energy(y: np.ndarray, kappa_sq: np.ndarray, center: float) -> float:
    """T_n = sum_j kappa^2_j y_j^2 - center, unchecked (the one formula both
    ``quadratic_statistic`` and the Monte Carlo engine evaluate)."""
    return float(np.dot(kappa_sq, y**2) - center)


def quadratic_statistic(y, kappa_sq: np.ndarray, n: int, sigma: float) -> float:
    yv = _as_coeff_array(y)
    kq = np.asarray(kappa_sq, dtype=float)
    if yv.size != kq.size:
        raise ConfigError(f"observation length {yv.size} != weight length {kq.size}")
    return centered_energy(yv, kq, null_center(kq, n, sigma))


def drift(theta, kappa_sq: np.ndarray, n: int, sigma: float) -> float:
    """Standardized mean shift A_n(theta) / sqrt(2 A_n)."""
    a_n = a_n_value(kappa_sq, n, sigma)
    if a_n <= 0:
        raise ConfigError("weights are identically zero")
    return noncentrality(theta, kappa_sq, n, sigma) / math.sqrt(2.0 * a_n)


def predicted_type2_quadratic(theta, kappa_sq, n: int, sigma: float, alpha: float) -> float:
    return normal_cdf(upper_quantile(alpha) - drift(theta, kappa_sq, n, sigma))


def scale_to_drift(shape, kappa_sq, n: int, sigma: float, target: float) -> Spectrum:
    """Rescale a signal shape so its standardized drift equals ``target``."""
    base = drift(shape, kappa_sq, n, sigma)
    if base <= 0:
        raise ConfigError("shape has no weight overlap; cannot scale to a positive drift")
    factor = math.sqrt(target / base)
    arr = _as_coeff_array(shape) * factor
    return Spectrum("cosine", arr)


def quadratic_test(
    y,
    kappa_sq: np.ndarray,
    n: int,
    sigma: float,
    alpha: float,
    theta=None,
) -> TestReport:
    t_n = quadratic_statistic(y, kappa_sq, n, sigma)
    sd0 = null_sd(kappa_sq, n, sigma)
    if sd0 <= 0:
        raise ConfigError("null standard deviation is zero; weights are degenerate")
    standardized = t_n / sd0
    x_alpha = upper_quantile(alpha)
    beta = None
    if theta is not None:
        beta = predicted_type2_quadratic(theta, kappa_sq, n, sigma, alpha)
    return TestReport(
        family="quadratic",
        statistic=t_n,
        standardized=standardized,
        threshold=x_alpha,
        alpha=alpha,
        reject=bool(standardized > x_alpha),
        n=n,
        predicted_type2=beta,
    )


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
    a2 = a_n_value(kq, n, sigma)

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
