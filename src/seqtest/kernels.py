"""Kernel-smoothed L2 tests, computed in the Fourier domain.

For a symmetric kernel K supported on [-b, b] with unit integral, bandwidth
h, and a complex-exponential observation y, the smoothed-density energy is

    S = sum_{j in Z} |Khat(j h)|^2 |y_j|^2,      Khat(w) = int K(t) e^{2 pi i w t} dt,

and the studentized statistic is

    T_n = n h^{1/2} sigma^{-2} kappa^{-1} ( S - sigma^2 (n h)^{-1} ||K||^2 ),

with ||K||^2 = int K^2 and kappa^2 = 2 int (K * K)^2.  On the circle the
spectral form is exact: for 0 < h <= 1 / (4b) the Poisson summation identities

    sum_j Khat(j h)^2 = ||K||^2 / h,     sum_j Khat(j h)^4 = kappa^2 / (2 h)

hold exactly (the quartic sum folds K*K*K*K, of support 4b, at +-1/h), so
T_n has mean 0 and variance 1 under the null up to the truncation of the
stored frequencies.  A wider bandwidth inflates the null variance, so every
function that standardizes refuses it.  The type II error against theta is
Phi(x_alpha - kappa^{-1} sigma^{-2} n h^{1/2} T1n(theta)) with
T1n(theta) = sum_j |Khat(j h) theta_j|^2.

Every function here has one path: the transform table Khat(j h) is built
from the kernel's closed-form ``transform`` at the length of the spectrum it
weights, and ||K||^2 and kappa^2 come from ``kernel_constants``, which
computes them once per kernel by Gauss-Legendre quadrature and keeps them.
T_n is the ``EnergyForm`` that ``energy_form`` builds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError
from .quadratic import EnergyForm
from .report import TestReport, normal_type2, upper_quantile
from .sampling import SequenceObservation
from .spectra import Spectrum

_GL_NODES, _GL_WEIGHTS = leggauss(64)

# how far the quadrature mass of a kernel may sit from 1
MASS_TOL = 1e-8


@dataclass(frozen=True)
class Kernel:
    """Symmetric density kernel on [-halfwidth, halfwidth].

    ``kinks`` lists points where K or its derivative jumps; quadrature is
    split there so that polynomial pieces integrate exactly.  ``transform``
    is the closed form of Khat(omega).
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    transform: Callable[[np.ndarray], np.ndarray]
    halfwidth: float = 1.0
    kinks: tuple[float, ...] = (0.0,)


def _box(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 0.5, 0.0)


def _box_transform(w: np.ndarray) -> np.ndarray:
    """sin(2 pi w) / (2 pi w), with np.sinc(x) = sin(pi x) / (pi x)."""
    return np.sinc(2.0 * np.asarray(w, dtype=float))


def _triangle(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.maximum(0.0, 1.0 - np.abs(t))


def _triangle_transform(w: np.ndarray) -> np.ndarray:
    """(sin(pi w) / (pi w))^2."""
    return np.sinc(np.asarray(w, dtype=float)) ** 2


def _epanechnikov(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - t**2), 0.0)


def _epanechnikov_transform(w: np.ndarray) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    a = 2.0 * math.pi * w
    small = np.abs(a) < 1e-4
    a_safe = np.where(small, 1.0, a)
    exact = 3.0 * (np.sin(a_safe) - a_safe * np.cos(a_safe)) / a_safe**3
    return np.where(small, 1.0 - a**2 / 10.0, exact)


def box_kernel() -> Kernel:
    return Kernel("box", _box, _box_transform)


def triangle_kernel() -> Kernel:
    return Kernel("triangle", _triangle, _triangle_transform)


def epanechnikov_kernel() -> Kernel:
    return Kernel("epanechnikov", _epanechnikov, _epanechnikov_transform)


def _piecewise_gl(fn: Callable[[np.ndarray], np.ndarray], breaks: np.ndarray) -> float:
    """Gauss-Legendre integral of fn over consecutive [breaks] pieces."""
    total = 0.0
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi <= lo:
            continue
        x = 0.5 * (hi - lo) * _GL_NODES + 0.5 * (hi + lo)
        total += 0.5 * (hi - lo) * float(np.dot(_GL_WEIGHTS, fn(x)))
    return total


@dataclass(frozen=True)
class KernelConstants:
    l2_norm_sq: float  # int K^2
    kappa_sq: float  # 2 int (K * K)^2


@functools.lru_cache(maxsize=None)
def kernel_constants(kernel: Kernel) -> KernelConstants:
    """||K||^2 and kappa^2 of ``kernel``, computed once per kernel (a
    ``Kernel`` is frozen and hashable); a ConfigError is raised anew on
    every call, since lru_cache keeps only results."""
    b = kernel.halfwidth
    inner_breaks = np.unique(np.concatenate([[-b, b], np.asarray(kernel.kinks, dtype=float)]))
    mass = _piecewise_gl(kernel.fn, inner_breaks)
    if abs(mass - 1.0) > MASS_TOL:
        raise ConfigError(f"kernel {kernel.name!r} does not integrate to 1 (got {mass!r})")
    l2 = _piecewise_gl(lambda t: kernel.fn(t) ** 2, inner_breaks)

    def conv(u_vals: np.ndarray) -> np.ndarray:
        out = np.empty_like(u_vals)
        for i, u in enumerate(u_vals):
            lo, hi = max(-b, u - b), min(b, u + b)
            if hi <= lo:
                out[i] = 0.0
                continue
            # kinks of K(v) and of K(u - v) both break the integrand
            pts = [lo, hi]
            for q in inner_breaks:
                if lo < q < hi:
                    pts.append(float(q))
                if lo < u - q < hi:
                    pts.append(float(u - q))
            pts = np.unique(np.asarray(pts))
            out[i] = _piecewise_gl(lambda v: kernel.fn(u - v) * kernel.fn(v), pts)
        return out

    # (K*K)^2 is piecewise smooth with breaks on the kink lattice {q1 + q2}
    kk = np.unique(np.concatenate([inner_breaks, [-b, b]]))
    outer_breaks = np.unique(np.add.outer(kk, kk).ravel())
    kappa_sq = 2.0 * _piecewise_gl(lambda u: conv(u) ** 2, outer_breaks)
    return KernelConstants(l2_norm_sq=l2, kappa_sq=kappa_sq)


def _require_complex(spec: Spectrum) -> Spectrum:
    if spec.basis != "complex-exponential":
        raise ConfigError("kernel tests operate on complex-exponential spectra")
    return spec


def transform_values(kernel: Kernel, h: float, j_max: int) -> np.ndarray:
    """Khat(j h) for j = 0..j_max; precompute once per (kernel, h) in loops."""
    return kernel.transform(np.arange(j_max + 1, dtype=float) * h)


def check_bandwidth(kernel: Kernel, h: float) -> None:
    """Refuse a bandwidth outside (0, 1 / (4b)], where the quartic Poisson
    identity, and with it the null variance of T_n, fails."""
    bound = 1.0 / (4.0 * kernel.halfwidth)
    if not 0.0 < h <= bound:
        raise ConfigError(f"bandwidth h={h!r} must lie in (0, {bound:g}] for the {kernel.name} kernel")


def studentization_scale(kernel: Kernel, h: float, n: int, sigma: float) -> float:
    """n h^{1/2} sigma^{-2} kappa^{-1}, the factor T_n puts on S - center."""
    check_bandwidth(kernel, h)
    return n * math.sqrt(h) / sigma**2 / math.sqrt(kernel_constants(kernel).kappa_sq)


def energy_form(kernel: Kernel, h: float, j_max: int, n: int, sigma: float) -> EnergyForm:
    """T_n over frequencies 0..j_max: each |y_j|^2 is the (re, im) pair of a
    complex y, weighted |Khat(j h)|^2 at j = 0 and twice that at j >= 1 (the
    conjugate frequency -j)."""
    scale = studentization_scale(kernel, h, n, sigma)
    w = transform_values(kernel, h, j_max) ** 2
    w[1:] *= 2.0
    center = sigma**2 / (n * h) * kernel_constants(kernel).l2_norm_sq
    return EnergyForm(np.repeat(w, 2), center, 1.0 / scale)


def bias_functional(theta: Spectrum, kernel: Kernel, h: float) -> float:
    """T1n(theta) = sum over j in Z of |Khat(j h) theta_j|^2 from the stored j = 0..J."""
    w = transform_values(kernel, h, _require_complex(theta).coeffs.size - 1) ** 2
    mags = np.abs(theta.coeffs) ** 2
    return float(w[0] * mags[0] + 2.0 * np.sum(w[1:] * mags[1:]))


def kernel_statistic(obs: SequenceObservation, kernel: Kernel, h: float) -> float:
    y = np.ascontiguousarray(_require_complex(obs.y).coeffs)
    return energy_form(kernel, h, y.size - 1, obs.n, obs.sigma).standardized(y)


def predicted_type2_kernel(
    theta: Spectrum,
    kernel: Kernel,
    h: float,
    n: int,
    sigma: float,
    alpha: float,
) -> float:
    scale = studentization_scale(kernel, h, n, sigma)
    return normal_type2(scale * bias_functional(theta, kernel, h), alpha)


def kernel_test(obs: SequenceObservation, kernel: Kernel, h: float, alpha: float) -> TestReport:
    t_n = kernel_statistic(obs, kernel, h)
    x_alpha = upper_quantile(alpha)
    return TestReport(
        family="kernel",
        statistic=t_n,
        standardized=t_n,  # the statistic is already studentized
        threshold=x_alpha,
        alpha=alpha,
        reject=bool(t_n > x_alpha),
        n=obs.n,
    )
