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

``EnergyForm`` is the statistic core of this family, the kernel and the
minimax one, and ``EnergyForm.drift`` is the one drift of all three: the
energy of the signal over the null sd, sum_j kappa^2_j theta_j^2 / sd0 here.
Its energy is numpy's pairwise sum along the last axis, not a BLAS call, so
a row that ``EnergyForm.block_statistic`` scores in a Monte Carlo block has
the bits of that observation alone, on any BLAS at any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .report import TestReport, normal_type2, upper_quantile
from .sampling import complex_pairs
from .spectra import Spectrum


@dataclass(frozen=True)
class EnergyForm:
    """z = (sum_i w_i v_i^2 - offset) / sd, with v = y, or for a complex y
    its float view of (re, im) pairs (one weight per part).  ``sd`` is the
    null standard deviation; one that left the float range would make every
    z 0 or infinite, so the form refuses it."""

    weights: np.ndarray
    offset: float
    sd: float

    def __post_init__(self):
        if not 0.0 < self.sd < math.inf:
            raise ConfigError(f"null sd {self.sd!r} is not a positive finite float; weights, n or sigma out of range")

    def energy(self, y: np.ndarray):
        """sum_i w_i v_i^2 along the last axis of y (one observation, or a
        block of them a row each), unchecked."""
        v = y.view(float) if y.dtype.kind == "c" else y
        squares = v * v
        squares *= self.weights
        return np.sum(squares, axis=-1)

    def standardize(self, energy):
        return (energy - self.offset) / self.sd

    def drift(self, mean: np.ndarray) -> float:
        """energy(mean) / sd, the shift of the standardized statistic from its
        null law when y = mean + noise: the paper's type II error is
        Phi(x_alpha - drift) (``report.normal_type2``)."""
        return float(self.energy(mean) / self.sd)

    def block_statistic(self, mean: np.ndarray, n: int, sigma: float):
        """The map from a block of standard normals, a row drawn as
        ``draw_sequence_observation`` draws one observation (through
        ``complex_pairs`` for a complex mean), to the standardized statistic
        of each row's y = mean + (sigma / sqrt(n)) xi, formed in a new array."""
        noise_scale = sigma / math.sqrt(n)
        complex_ = np.iscomplexobj(mean)
        base = mean.view(float)

        def score(block: np.ndarray) -> np.ndarray:
            if complex_:
                v = complex_pairs(block)
                v *= noise_scale
            else:
                v = block * noise_scale
            v += base
            return self.standardize(self.energy(v))

        return score


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


def energy_form(kappa_sq: np.ndarray, n: int, sigma: float) -> EnergyForm:
    """T_n / sd0: offset the null mean (sigma^2 / n) sum_j kappa^2_j, sd0 the exact null sd."""
    kq = np.asarray(kappa_sq, dtype=float)
    with np.errstate(over="ignore"):
        sd0 = float(sigma**2 / n * math.sqrt(2.0 * np.sum(kq**2)))
    return EnergyForm(kq, sigma**2 / n * float(np.sum(kq)), sd0)


def _energy(y, form: EnergyForm) -> float:
    """sum_j kappa^2_j y_j^2, after checking y."""
    yv = _as_coeff_array(y)
    if yv.size != form.weights.size:
        raise ConfigError(f"observation length {yv.size} != weight length {form.weights.size}")
    return float(form.energy(yv))


def quadratic_statistic(y, kappa_sq: np.ndarray, n: int, sigma: float) -> float:
    """T_n, centered by the null mean."""
    form = energy_form(kappa_sq, n, sigma)
    return _energy(y, form) - form.offset


def check_support(coeffs: np.ndarray, size: int) -> None:
    """Refuse a signal longer than a run's ``size`` weights, whose tail they
    would drop; a shorter signal reads as zero-padded."""
    if coeffs.size > size:
        raise ConfigError(f"signal support {coeffs.size} exceeds the run's truncation {size}")


def drift(theta, kappa_sq: np.ndarray, n: int, sigma: float) -> float:
    """Standardized mean shift A_n(theta) / sqrt(2 A_n) of a signal read as a
    Monte Carlo plan reads it (``check_support``), over its own indices."""
    form = energy_form(kappa_sq, n, sigma)
    th = _as_coeff_array(theta)
    check_support(th, form.weights.size)
    return EnergyForm(form.weights[: th.size], form.offset, form.sd).drift(th)


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
    form = energy_form(kappa_sq, n, sigma)
    energy = _energy(y, form)
    standardized = form.standardize(energy)
    x_alpha = upper_quantile(alpha)
    return TestReport(
        family="quadratic",
        statistic=energy - form.offset,
        standardized=standardized,
        threshold=x_alpha,
        alpha=alpha,
        n=n,
    )
