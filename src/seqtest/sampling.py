"""Observation models: Gaussian coefficient sequences and i.i.d. samples.

Two data-generating mechanisms share the Spectrum conventions:

* the sequence model  y_j = theta_j + (sigma / sqrt(n)) xi_j  with standard
  Gaussian coordinates (complex coordinates get independent real and
  imaginary parts of variance 1/2 so that E |xi_j|^2 = 1, and the j = 0 and
  negative-j components follow by conjugate symmetry);
* i.i.d. draws from the density 1 + f on (0, 1), where f is the expansion of
  the stored spectrum, via exact antiderivatives and inverse-CDF lookup.

All randomness flows through numpy Generators.  ``rng_for_replication``
derives one generator per (seed, replication) pair with a splittable mix, so
a replication's data does not depend on scheduling or worker count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectra import Spectrum

# Densities are rejected as sampling targets below this pointwise floor.
MIN_DENSITY = 1e-9


def rng_for_replication(seed: int, replication: int = 0) -> np.random.Generator:
    """Independent generator for one replication of one experiment.

    SeedSequence mixes (seed, replication) into the PCG64 state, so streams
    for different replications are independent and a replication's stream is
    identical no matter which worker runs it.
    """
    if seed < 0 or replication < 0:
        raise ConfigError("seed and replication index must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(replication)])))


@dataclass(frozen=True)
class SequenceObservation:
    """Noisy coefficients y observed at noise level sigma / sqrt(n)."""

    y: Spectrum
    n: int
    sigma: float


def sequence_noise(rng: np.random.Generator, size: int, complex_: bool) -> np.ndarray:
    """Standard Gaussian coordinates xi_1..xi_size of the sequence model.

    Complex coordinates take independent real and imaginary parts of
    variance 1/2, except the j = 0 coordinate, which is real with unit
    variance.
    """
    if not complex_:
        return rng.standard_normal(size)
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    noise = (re + 1j * im) / math.sqrt(2.0)
    noise[0] = re[0]
    return noise


def draw_sequence_observation(
    signal: Spectrum,
    n: int,
    sigma: float,
    rng: np.random.Generator,
) -> SequenceObservation:
    if n < 1 or sigma <= 0:
        raise ConfigError("sequence model needs n >= 1 and sigma > 0")
    complex_ = signal.basis == "complex-exponential"
    y = signal.coeffs + sigma / math.sqrt(n) * sequence_noise(rng, signal.coeffs.size, complex_)
    return SequenceObservation(y=Spectrum(signal.basis, y), n=n, sigma=sigma)


def evaluate_perturbation(spec: Spectrum, x: np.ndarray) -> np.ndarray:
    """f(x) for the stored expansion; the density is 1 + f."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if spec.basis == "cosine":
        for p, c in enumerate(spec.coeffs):
            if c != 0.0:
                out += c * math.sqrt(2.0) * np.cos(math.pi * (p + 1) * x)
    elif spec.basis == "complex-exponential":
        out += float(np.real(spec.coeffs[0]))
        for j in range(1, spec.coeffs.size):
            c = spec.coeffs[j]
            if c != 0:
                out += 2.0 * (c.real * np.cos(2 * math.pi * j * x) - c.imag * np.sin(2 * math.pi * j * x))
    else:  # haar
        for p, c in enumerate(spec.coeffs):
            if c == 0.0:
                continue
            level = int(math.floor(math.log2(p + 1)))
            offset = p + 1 - 2**level
            t = x * 2**level - offset
            vals = np.where((t >= 0) & (t < 0.5), 1.0, np.where((t >= 0.5) & (t < 1.0), -1.0, 0.0))
            out += c * 2 ** (level / 2.0) * vals
    return out


def cumulative_perturbation(spec: Spectrum, x: np.ndarray) -> np.ndarray:
    """Antiderivative int_0^x f(t) dt, exact per basis element."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if spec.basis == "cosine":
        for p, c in enumerate(spec.coeffs):
            if c != 0.0:
                j = p + 1
                out += c * math.sqrt(2.0) * np.sin(math.pi * j * x) / (math.pi * j)
    elif spec.basis == "complex-exponential":
        out += float(np.real(spec.coeffs[0])) * x
        for j in range(1, spec.coeffs.size):
            c = spec.coeffs[j]
            if c != 0:
                w = 2 * math.pi * j
                # 2 Re[c (e^{iwx} - 1) / (iw)]
                out += (2.0 / w) * (c.real * np.sin(w * x) + c.imag * (np.cos(w * x) - 1.0))
    else:  # haar: the primitive of one bump is a tent of height 2^{-i}/2
        for p, c in enumerate(spec.coeffs):
            if c == 0.0:
                continue
            level = int(math.floor(math.log2(p + 1)))
            offset = p + 1 - 2**level
            t = np.clip(x * 2**level - offset, 0.0, 1.0)
            out += c * 2 ** (-level / 2.0) * np.minimum(t, 1.0 - t)
    return out


def density_grid(spec: Spectrum, points: int = 2049) -> tuple[np.ndarray, np.ndarray]:
    x = np.linspace(0.0, 1.0, points)
    return x, 1.0 + evaluate_perturbation(spec, x)


def min_density(spec: Spectrum, points: int = 4097) -> float:
    _, dens = density_grid(spec, points)
    return float(np.min(dens))


def cdf_grid(spec: Spectrum, points: int = 8193) -> tuple[np.ndarray, np.ndarray]:
    """Exact CDF F(x) = x + int_0^x f of the density 1 + f on a uniform grid."""
    x = np.linspace(0.0, 1.0, points)
    cdf = x + cumulative_perturbation(spec, x)
    return x, cdf


def iid_sampler(spec: Spectrum | None, grid_points: int = 8193):
    """``draw(rng, size)``: i.i.d. points from the density 1 + f (uniform for None).

    The CDF is exact on the grid; between nodes the inverse is linear, so the
    sampled density is a fine piecewise-constant approximation whose cell
    masses on any interval wider than the grid step match the target to
    O(step^2).  The density floor and the grid are settled here, once.
    """
    if spec is None:
        return lambda rng, size: rng.random(size)
    floor = min_density(spec, points=2 * grid_points - 1)
    if floor < MIN_DENSITY:
        raise ConfigError(
            f"1 + f is not bounded away from zero (min {floor:.3e}); not a usable density"
        )
    x, cdf = cdf_grid(spec, grid_points)
    return lambda rng, size: np.interp(rng.random(size), cdf, x)


def sample_iid(
    spec: Spectrum,
    size: int,
    rng: np.random.Generator,
    grid_points: int = 8193,
) -> np.ndarray:
    """Draw i.i.d. points from the density 1 + f by inverse-CDF lookup."""
    if size < 0:
        raise ConfigError("sample size must be non-negative")
    return iid_sampler(spec, grid_points)(rng, size)
