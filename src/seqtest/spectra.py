"""Coefficient sequences, smoothness balls, and the metric projection onto them.

A Spectrum holds the coefficients of a mean-zero perturbation f of the uniform
density (or of a signal in the Gaussian sequence model) in one of three
orthonormal systems on (0, 1):

* ``cosine``:  phi_j(x) = sqrt(2) cos(pi j x), j = 1..J; real coefficients,
  ``coeffs[p]`` belongs to frequency j = p + 1.
* ``complex-exponential``:  e_j(x) = exp(2 pi i j x), j in Z; only j = 0..J is
  stored (``coeffs[p]`` belongs to j = p) and the negative half is implied by
  conjugate symmetry theta_{-j} = conj(theta_j).  ``coeffs[0]`` must be real
  and is zero for density perturbations.
* ``haar``:  psi_{i,q}(x) = 2^{i/2} psi(2^i x - q) with psi = 1 on (0, 1/2)
  and -1 on (1/2, 1); level-major order, ``coeffs[2^i - 1 + q]`` belongs to
  (i, q).

The smoothness ball with index s > 0 and budget p0 > 0 is the set of
sequences whose tail energy decays like k^{-2s}:

    max_k  k^{2s} * sum_{frequency >= k} |theta_j|^2  <=  p0.

For the complex basis the tail at k sums both signs, |j| >= k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import ConfigError, finite_real

BASES = ("cosine", "complex-exponential", "haar")

# Families whose optimal tuning follows the k_n ~ n^{2-4r} schedule.
FAMILIES_QUADRATIC_RATE = ("quadratic", "kernel", "chisq")

# Relative slack on the budget when testing ball membership.
CONTAINS_REL_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """A coefficient sequence in a named orthonormal system."""

    basis: str
    coeffs: np.ndarray

    def __post_init__(self):
        if self.basis not in BASES:
            raise ConfigError(f"unknown basis {self.basis!r}; expected one of {BASES}")
        want_complex = self.basis == "complex-exponential"
        arr = np.asarray(self.coeffs, dtype=complex if want_complex else float)
        if arr.ndim != 1 or arr.size == 0:
            raise ConfigError("coeffs must be a non-empty 1-d array")
        if want_complex and abs(arr[0].imag) > 0:
            raise ConfigError("complex-exponential coeffs[0] (the j=0 term) must be real")
        # the energy norm_sq() sums; a NaN or infinite coefficient makes it non-finite too
        with np.errstate(over="ignore", invalid="ignore"):
            energy = 2.0 * np.vdot(arr[1:], arr[1:]).real + arr[0].real ** 2 if want_complex else np.dot(arr, arr)
        if not math.isfinite(energy):
            raise ConfigError("coeffs must be finite and their energy sum |theta_j|^2 must not overflow")
        object.__setattr__(self, "coeffs", arr)

    @property
    def max_frequency(self) -> int:
        if self.basis == "complex-exponential":
            return self.coeffs.size - 1
        return self.coeffs.size

    def frequency_energies(self) -> np.ndarray:
        """Energy attached to frequency k = 1..J (index 0 of the result is k=1).

        For the complex basis the entry at k counts both signs, 2|theta_k|^2;
        the j = 0 component belongs to no positive frequency and is excluded.
        """
        if self.basis == "complex-exponential":
            return 2.0 * np.abs(self.coeffs[1:]) ** 2
        return np.asarray(self.coeffs, dtype=float) ** 2

    def norm_sq(self) -> float:
        """Squared L2 norm of the expansion, including the j = 0 term."""
        total = float(np.sum(self.frequency_energies()))
        if self.basis == "complex-exponential":
            total += float(np.real(self.coeffs[0]) ** 2)
        return total

    def signed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Full signed index set (-J..J) and coefficients for the complex basis."""
        if self.basis != "complex-exponential":
            raise ConfigError("signed_pairs is only defined for the complex-exponential basis")
        j_max = self.max_frequency
        js = np.arange(-j_max, j_max + 1)
        vals = np.concatenate([np.conj(self.coeffs[:0:-1]), self.coeffs])
        return js, vals

    def to_json_dict(self) -> dict:
        if self.basis == "complex-exponential":
            coeffs = [[float(c.real), float(c.imag)] for c in self.coeffs]
        else:
            coeffs = [float(c) for c in self.coeffs]
        return {"basis": self.basis, "coeffs": coeffs}

    @staticmethod
    def from_json_dict(data: dict) -> "Spectrum":
        try:
            basis = data["basis"]
            raw = data["coeffs"]
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"spectrum JSON needs 'basis' and 'coeffs': {exc}") from exc
        try:
            if basis == "complex-exponential":
                arr = np.array([complex(finite_real(re, "coeffs"), finite_real(im, "coeffs")) for re, im in raw])
            else:
                arr = np.array([finite_real(c, "coeffs") for c in raw])
        except (TypeError, ValueError) as exc:
            raise ConfigError("coeffs must be numbers ([re, im] pairs in the complex basis)") from exc
        return Spectrum(basis=basis, coeffs=arr)


def tail_energy_profile(spec: Spectrum) -> np.ndarray:
    """tail[k-1] = sum of |theta_j|^2 over frequencies >= k, for k = 1..J."""
    energies = spec.frequency_energies()
    return np.cumsum(energies[::-1])[::-1]


def besov_seminorm(spec: Spectrum, s: float) -> float:
    """max over integer k >= 1 of k^{2s} * tail energy at k.

    The supremum over real thresholds lambda > 0 of lambda^{2s} * tail(lambda)
    is attained by letting lambda increase toward an integer k, so the integer
    maximum equals the supremum.
    """
    if s <= 0:
        raise ConfigError("smoothness index s must be positive")
    seminorm = float(np.max(_weighted_tails(spec, s), initial=0.0))
    if not math.isfinite(seminorm):
        raise ConfigError(f"the s={s:g} seminorm of this input overflows a float")
    return seminorm


def _weighted_tails(spec: Spectrum, s: float) -> np.ndarray:
    """k^{2s} tail(k) for the k = 1..m whose tail is nonzero.

    Tails only fall, so the zero ones are those past m; each would add 0 to
    the seminorm, and leaving them out keeps a k^{2s} that overflows to inf
    (large s) from turning them into NaN.  A nonzero tail there gives inf.
    """
    tails = tail_energy_profile(spec)
    m = int(np.count_nonzero(tails))
    k = np.arange(1, m + 1, dtype=float)
    with np.errstate(over="ignore"):
        return k ** (2.0 * s) * tails[:m]


@dataclass(frozen=True)
class BesovBall:
    """Smoothness ball {theta : besov_seminorm(theta, s)^ <= p0}."""

    s: float
    p0: float  # budget for the squared tail profile, not a radius

    def __post_init__(self):
        if self.s <= 0 or self.p0 <= 0:
            raise ConfigError("BesovBall requires s > 0 and p0 > 0")

    def tail_budget(self, k: np.ndarray | int) -> np.ndarray | float:
        return self.p0 * np.asarray(k, dtype=float) ** (-2.0 * self.s)

    def admits(self, seminorm: float) -> bool:
        """Whether a point with this ``besov_seminorm`` lies in the ball."""
        return seminorm <= self.p0 * (1.0 + CONTAINS_REL_TOL)

    def contains(self, spec: Spectrum) -> bool:
        return self.admits(besov_seminorm(spec, self.s))


def first_violated_tail(spec: Spectrum, ball: BesovBall) -> int | None:
    """Smallest k whose tail constraint k^{2s} tail(k) <= p0 fails, or None.

    A constraint fails past the same slack ``BesovBall.admits`` allows, so a
    point the ball contains has no violated tail."""
    bad = _weighted_tails(spec, ball.s) > ball.p0 * (1.0 + CONTAINS_REL_TOL)
    idx = np.flatnonzero(bad)
    return int(idx[0]) + 1 if idx.size else None


def _tail_minorant_scale(energies: np.ndarray, budgets: np.ndarray) -> np.ndarray:
    """Scale c_p of the projection x_p = c_p w_p onto the nested tail balls.

    Constraint k is sum_{p >= k} x_p^2 <= budgets[k-1].  With the input's tail
    energy W_k = sum_{p >= k} w_p^2, the KKT conditions make c nonincreasing in
    p, so the projected tail energy is a convex function of W: zero at 0, slope
    c_p^2 on [W_{p+1}, W_p], at most budgets[k-1] at W_k.  The solution is the
    greatest convex minorant of (0, 0) and the points (W_k, budgets[k-1]) with
    every slope capped at 1, the pool-adjacent-violators solution of Barlow,
    Bartholomew, Bremner & Brunk (1972).  One monotone-chain pass over the
    points in increasing W builds the lower hull in O(J).  A zero energy puts
    two points on one W; the earlier point has the lower budget and is kept.
    """
    j = energies.size
    xs = np.concatenate(([0.0], np.cumsum(energies[::-1])))  # W_{J+1} = 0, W_J, ..., W_1
    ys = np.concatenate(([0.0], budgets[::-1]))
    x_list, y_list = xs.tolist(), ys.tolist()
    hull = [0]
    for i in range(1, j + 1):
        x, y = x_list[i], y_list[i]
        if x == x_list[i - 1]:
            continue
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            # drop b when it lies on or above the chord from a to the new point
            if (y_list[b] - y_list[a]) * (x - x_list[a]) < (y - y_list[a]) * (x_list[b] - x_list[a]):
                break
            hull.pop()
        hull.append(i)
    h = np.asarray(hull)
    slopes = np.minimum(np.diff(ys[h]) / np.diff(xs[h]), 1.0)
    # interval i runs from xs[i] to xs[i+1] and belongs to coordinate J - 1 - i;
    # zero-width intervals past the last vertex take the last slope
    segment = np.minimum(np.searchsorted(h, np.arange(j), side="right") - 1, slopes.size - 1)
    return np.sqrt(slopes[segment])[::-1]


def project_besov(spec: Spectrum, ball: BesovBall) -> Spectrum:
    """Metric (closest-point) projection onto the smoothness ball.

    Exact and finite: each coefficient is scaled by the square root of a slope
    of the greatest convex minorant of the tail budgets against the input's
    tail energy (see ``_tail_minorant_scale``), in O(J) time and memory.

    Head exactness: every frequency below the first violated tail constraint
    is returned bit-for-bit unchanged.  The optimum does not touch those
    coordinates: each tail constraint only ever shrinks magnitudes, so a
    constraint with slack at the input keeps slack at the solution and its
    multiplier vanishes.  Their minorant slopes are at least 1 in exact
    arithmetic; the scale is set to exactly 1.0 there so that rounding on a
    tight constraint cannot move them.
    """
    k_violated = first_violated_tail(spec, ball)
    if k_violated is None:
        return spec

    energies = spec.frequency_energies()
    budgets = ball.tail_budget(np.arange(1, energies.size + 1))
    scale = _tail_minorant_scale(energies, budgets)
    scale[: k_violated - 1] = 1.0  # exact head, see docstring

    if spec.basis == "complex-exponential":
        coeffs = spec.coeffs.copy()
        coeffs[1:] = coeffs[1:] * scale
    else:
        coeffs = spec.coeffs * scale
    return Spectrum(basis=spec.basis, coeffs=coeffs)


def make_tail_alternative(m: int, c: float, s: float, basis: str = "cosine") -> Spectrum:
    """Equal-magnitude block on frequencies m..2m with m^{2s} * energy = c exactly.

    The block has m + 1 frequencies, each carrying energy c * m^{-2s} / (m+1),
    so the total L2 mass is c * m^{-2s} and the k = m tail constraint costs
    exactly c.  Constraints inside the block can bind slightly higher — the
    seminorm exceeds c by a bounded factor (32/27 at s = 1 in the large-m
    limit) — so c prices the block, it does not equal the seminorm.
    """
    if m < 1:
        raise ConfigError("block start m must be >= 1")
    if c <= 0 or s <= 0:
        raise ConfigError("tail alternative needs c > 0 and s > 0")
    top = 2 * m
    per_freq = c * float(m) ** (-2.0 * s) / (m + 1)
    if basis == "cosine":
        coeffs = np.zeros(top)
        coeffs[m - 1 : top] = math.sqrt(per_freq)
    elif basis == "complex-exponential":
        coeffs = np.zeros(top + 1, dtype=complex)
        coeffs[m : top + 1] = math.sqrt(per_freq / 2.0)  # the mirrored half carries the rest
    else:
        raise ConfigError(f"tail alternatives are not defined for basis {basis!r}")
    return Spectrum(basis=basis, coeffs=coeffs)


@dataclass(frozen=True)
class CalibrationRates:
    """Separation rate exponent r and the tuning exponent of a test family.

    The separation radius scales like n^{-r}.  For the quadratically tuned
    families the tuning parameter follows k_n ~ n^{tuning_exponent} (cell or
    coefficient counts) or h_n ~ n^{-tuning_exponent} (bandwidths).  The
    distribution-function family has no tuning parameter.
    """

    family: str
    s: float
    r: float
    tuning_exponent: float | None


def calibration_rates(s: float, family: str) -> CalibrationRates:
    if s <= 0:
        raise ConfigError("smoothness index s must be positive")
    if family in FAMILIES_QUADRATIC_RATE:
        r = 2.0 * s / (1.0 + 4.0 * s)
        return CalibrationRates(family=family, s=s, r=r, tuning_exponent=2.0 - 4.0 * r)
    if family == "cvm":
        return CalibrationRates(family=family, s=s, r=s / (2.0 + 2.0 * s), tuning_exponent=None)
    raise ConfigError(f"unknown family {family!r}")
