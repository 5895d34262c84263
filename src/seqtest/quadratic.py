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

import numpy as np

from .errors import ConfigError
from .report import TestReport, normal_type2, upper_quantile
from .spectra import Spectrum


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
    return normal_type2(drift(theta, kappa_sq, n, sigma), alpha)


def scale_to_drift(shape, kappa_sq, n: int, sigma: float, target: float) -> Spectrum:
    """Rescale a signal shape so its standardized drift equals ``target``."""
    base = drift(shape, kappa_sq, n, sigma)
    if base <= 0:
        raise ConfigError("shape has no weight overlap; cannot scale to a positive drift")
    factor = math.sqrt(target / base)
    arr = _as_coeff_array(shape) * factor
    return Spectrum("cosine", arr)


def quadratic_test(y, kappa_sq: np.ndarray, n: int, sigma: float, alpha: float) -> TestReport:
    t_n = quadratic_statistic(y, kappa_sq, n, sigma)
    sd0 = null_sd(kappa_sq, n, sigma)
    if sd0 <= 0:
        raise ConfigError("null standard deviation is zero; weights are degenerate")
    standardized = t_n / sd0
    x_alpha = upper_quantile(alpha)
    return TestReport(
        family="quadratic",
        statistic=t_n,
        standardized=standardized,
        threshold=x_alpha,
        alpha=alpha,
        reject=bool(standardized > x_alpha),
        n=n,
    )
