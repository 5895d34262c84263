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
stored frequencies.  ``null_shifts`` gives that truncation's shift of the
null mean, in null sd; ``truncated_form``, a plan's form, bounds it by
``MAX_NULL_SHIFT``, and a tuned consistency run takes ``least_j_max``, the
least truncation within it.  A wider bandwidth inflates the null variance,
so every function that standardizes refuses it.  The type II error against
theta is Phi(x_alpha - kappa^{-1} sigma^{-2} n h^{1/2} T1n(theta)) with
T1n(theta) = sum_j |Khat(j h) theta_j|^2, the energy S of theta.

Every function here has one path: the transform table Khat(j h) is built
from the kernel's closed-form ``transform`` at the length of the spectrum it
weights, and ||K||^2 and kappa^2 are closed-form constants each ``Kernel``
carries (rationals for the three stock kernels).  The Epanechnikov
transform 3 (sin a - a cos a) / a^3, a = 2 pi omega, cancels as a falls, so
below |a| = 1 it is its Taylor series to a^18 in Horner form, within 5e-16
relative of the exact value on (0, 3].  T_n is the ``EnergyForm``
that ``energy_form`` builds, T1n(theta) its ``energy`` and the drift above
its ``drift``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError
from .quadratic import EnergyForm
from .report import TestReport, normal_type2, upper_quantile
from .sampling import SequenceObservation
from .spectra import Spectrum

# how far the mass Khat(0) of a kernel may sit from 1
MASS_TOL = 1e-8
# how far, in null sd, a Monte Carlo plan's truncation may shift T_n's null mean
MAX_NULL_SHIFT = 0.1
# the largest j_max that ``least_j_max`` searches: 2^21 normals a replication
MAX_SEARCHED_J_MAX = 2**20


@dataclass(frozen=True)
class Kernel:
    """Symmetric density kernel K on [-halfwidth, halfwidth], held as the
    closed forms the library evaluates: ``transform`` is Khat(omega), and
    ``l2_norm_sq`` = int K^2 and ``kappa_sq`` = 2 int (K * K)^2 are its exact
    constants.  A kernel whose mass Khat(0) is not 1 is refused.
    """

    name: str
    transform: Callable[[np.ndarray], np.ndarray]
    l2_norm_sq: float
    kappa_sq: float
    halfwidth: float = 1.0

    def __post_init__(self):
        mass = float(self.transform(np.zeros(1))[0])
        if abs(mass - 1.0) > MASS_TOL:
            raise ConfigError(f"kernel {self.name!r} does not integrate to 1 (got {mass!r})")


def _box_transform(w: np.ndarray) -> np.ndarray:
    """sin(2 pi w) / (2 pi w), with np.sinc(x) = sin(pi x) / (pi x)."""
    return np.sinc(2.0 * np.asarray(w, dtype=float))


def _triangle_transform(w: np.ndarray) -> np.ndarray:
    """(sin(pi w) / (pi w))^2."""
    return np.sinc(np.asarray(w, dtype=float)) ** 2


def _epanechnikov_transform(w: np.ndarray) -> np.ndarray:
    """3 (sin a - a cos a) / a^3 at a = 2 pi w.  The closed form cancels as a
    falls (4e-8 relative at a = 1e-4), so below |a| = 1 it is the Taylor
    series sum_{k=1..10} (-1)^(k+1) 6k / (2k+1)! a^(2k-2) in Horner form,
    whose first omitted term is below 3e-21."""
    w = np.asarray(w, dtype=float)
    a = 2.0 * math.pi * w
    small = np.abs(a) < 1.0
    a_safe = np.where(small, 1.0, a)
    closed = 3.0 * (np.sin(a_safe) - a_safe * np.cos(a_safe)) / a_safe**3
    x = np.where(small, a * a, 0.0)
    series = np.zeros_like(x)
    for k in range(10, 0, -1):
        series = series * x + (-1) ** (k + 1) * 6 * k / math.factorial(2 * k + 1)
    return np.where(small, series, closed)


# K * K is a piecewise polynomial of degree 1, 3 and 5 for the box, triangle
# and Epanechnikov kernels, so both constants are rationals.
def box_kernel() -> Kernel:
    return Kernel("box", _box_transform, 1.0 / 2.0, 2.0 / 3.0)


def triangle_kernel() -> Kernel:
    return Kernel("triangle", _triangle_transform, 2.0 / 3.0, 302.0 / 315.0)


def epanechnikov_kernel() -> Kernel:
    return Kernel("epanechnikov", _epanechnikov_transform, 3.0 / 5.0, 334.0 / 385.0)


# the stock kernels by name, as a config names them
KERNELS = {k.name: k for k in (box_kernel(), triangle_kernel(), epanechnikov_kernel())}


def _require_complex(spec: Spectrum) -> Spectrum:
    if spec.basis != "complex-exponential":
        raise ConfigError("kernel tests operate on complex-exponential spectra")
    return spec


def energy_form(kernel: Kernel, h: float, j_max: int, n: int, sigma: float) -> EnergyForm:
    """T_n over frequencies 0..j_max: each |y_j|^2 is the (re, im) pair of a
    complex y, weighted |Khat(j h)|^2 at j = 0 and twice that at j >= 1 (the
    conjugate frequency -j).  The sd is 1 / (n h^{1/2} sigma^{-2} kappa^{-1}).
    An h outside (0, 1 / (4b)], where the quartic Poisson identity fails, is refused first."""
    bound = 1.0 / (4.0 * kernel.halfwidth)
    if not 0.0 < h <= bound:
        raise ConfigError(f"bandwidth h={h!r} must lie in (0, {bound:g}] for the {kernel.name} kernel")
    w = kernel.transform(np.arange(j_max + 1, dtype=float) * h) ** 2
    w[1:] *= 2.0
    return _scaled(kernel, h, np.repeat(w, 2), n, sigma)


def _scaled(kernel: Kernel, h: float, weights: np.ndarray, n: int, sigma: float) -> EnergyForm:
    """The form of ``energy_form`` at (n, sigma) on its ``weights``, which n and sigma leave as they are."""
    scale = n * math.sqrt(h) / sigma**2 / math.sqrt(kernel.kappa_sq)
    center = sigma**2 / (n * h) * kernel.l2_norm_sq
    return EnergyForm(weights, center, 1.0 / scale)


def _shifts(kernel: Kernel, h: float, weights: np.ndarray) -> np.ndarray:
    unit = _scaled(kernel, h, weights, 1, 1.0)
    return (np.cumsum(unit.weights[0::2]) - unit.offset) / unit.sd


def null_shifts(kernel: Kernel, h: float, j_max: int) -> np.ndarray:
    """T_n's null mean, in null sd, at truncation J = 0..j_max: (sum_{|j| <= J}
    Khat(j h)^2 - ||K||^2 / h) (h / kappa^2)^{1/2}, free of n and sigma.  It
    rises to 0 as J grows; entry J has the same bits at any j_max >= J."""
    return _shifts(kernel, h, energy_form(kernel, h, j_max, 1, 1.0).weights)


def truncated_form(kernel: Kernel, h: float, j_max: int, n: int, sigma: float) -> EnergyForm:
    """``energy_form``, the form of a Monte Carlo plan, refused where its
    truncation shifts the null mean past ``MAX_NULL_SHIFT``: the shift is
    ``null_shifts``' last entry, read from the form's own weights."""
    form = energy_form(kernel, h, j_max, n, sigma)
    shift = _shifts(kernel, h, form.weights)[-1]
    if not abs(shift) <= MAX_NULL_SHIFT:
        raise ConfigError(f"kernel plan: at h={h!r} the truncation j_max={j_max} shifts the null mean of T_n "
                          f"by {shift:+.3g} sd, past +-{MAX_NULL_SHIFT}; raise j_max")
    return form


def least_j_max(kernel: Kernel, h: float, floor: int) -> int:
    """The least j_max >= floor whose null shift lies within ``MAX_NULL_SHIFT``,
    searched over a doubling range that stops at ``MAX_SEARCHED_J_MAX``."""
    top = floor
    while True:
        within = np.abs(null_shifts(kernel, h, top)[floor:]) <= MAX_NULL_SHIFT
        if within[-1]:
            return floor + int(np.argmax(within))
        if top >= MAX_SEARCHED_J_MAX:
            raise ConfigError(f"at h={h!r} the {kernel.name} kernel needs j_max > {top} to keep the null mean "
                              f"of T_n within +-{MAX_NULL_SHIFT} sd; take a larger s or a smaller n")
        top = min(2 * top, MAX_SEARCHED_J_MAX)


def kernel_statistic(obs: SequenceObservation, kernel: Kernel, h: float) -> float:
    y = np.ascontiguousarray(_require_complex(obs.y).coeffs)
    form = energy_form(kernel, h, y.size - 1, obs.n, obs.sigma)
    return float(form.standardize(form.energy(y)))


def predicted_type2_kernel(
    theta: Spectrum,
    kernel: Kernel,
    h: float,
    n: int,
    sigma: float,
    alpha: float,
) -> float:
    coeffs = np.ascontiguousarray(_require_complex(theta).coeffs)
    return normal_type2(energy_form(kernel, h, coeffs.size - 1, n, sigma).drift(coeffs), alpha)


def kernel_test(obs: SequenceObservation, kernel: Kernel, h: float, alpha: float) -> TestReport:
    t_n = kernel_statistic(obs, kernel, h)
    x_alpha = upper_quantile(alpha)
    return TestReport(
        family="kernel",
        statistic=t_n,
        standardized=t_n,  # the statistic is already studentized
        threshold=x_alpha,
        alpha=alpha,
        n=obs.n,
    )
