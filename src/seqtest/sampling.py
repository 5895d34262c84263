"""Observation models: Gaussian coefficient sequences and i.i.d. samples.

Two data-generating mechanisms share the Spectrum conventions:

* the sequence model  y_j = theta_j + (sigma / sqrt(n)) xi_j  with standard
  Gaussian coordinates (complex coordinates get independent real and
  imaginary parts of variance 1/2 so that E |xi_j|^2 = 1, and the j = 0 and
  negative-j components follow by conjugate symmetry);
* i.i.d. draws from the density 1 + f on (0, 1), where f is the expansion of
  the stored spectrum, via exact antiderivatives and inverse-CDF lookup
  (an indexed search, with the bits of ``np.interp``) on one grid: the CDF at
  ``GRID_POINTS`` nodes, the floor (``min_density``) at nodes and midpoints.

All randomness flows through numpy Generators.  ``rng_for_replication``
derives one generator per (seed, replication) pair with a splittable mix, so
a replication's data does not depend on scheduling or worker count.  It is
the scalar reference; ``replication_rngs`` computes the same SeedSequence
hash for any seed and index, a block at a time, with bit-identical streams.
``replication_blocks`` is the one loop over replications: it draws each
replication's values into a row of one reused buffer, and every Monte Carlo
plan, the CvM null table and the Bayes prior draws score its blocks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .spectra import Spectrum

# Densities are rejected as sampling targets below this pointwise floor.
MIN_DENSITY = 1e-9
# nodes m / 8192, m = 0..8192, of the sampler's exact CDF; the floor is
# checked at twice the resolution, on 2 * GRID_POINTS - 1 points
GRID_POINTS = 8193
# largest block of draws that ``replication_blocks`` yields: with the few
# arrays that score it, a block stays in a core's L2 cache (2**19 ran 25 %
# slower on a Xeon with 2 MB of L2 per core)
BLOCK_BYTES = 2**17
# most buckets of an inverse-CDF guide table; a CDF that needs more (a
# density below about 1/8 somewhere, at the sampler's grid) is searched by
# ``np.interp`` instead
MAX_GUIDE_BUCKETS = 2**16
_SQRT_HALF = 1.0 / math.sqrt(2.0)


def rng_for_replication(seed: int, replication: int = 0) -> np.random.Generator:
    """Independent generator for one replication of one experiment.

    SeedSequence mixes (seed, replication) into the PCG64 state, so streams
    for different replications are independent and a replication's stream is
    identical no matter which worker runs it.
    """
    if seed < 0 or replication < 0:
        raise ConfigError("seed and replication index must be non-negative")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed), int(replication)])))


# numpy's SeedSequence hash (bit_generator.pyx), for any number of 32-bit
# entropy words and a pool of four words.  Each hashmix call multiplies its
# running constant once, so the constants of every call are fixed ahead of
# time: call i XORs with HASH_A[i] and multiplies by HASH_A[i + 1] (HASH_B
# likewise for the output words).  They are computed in Python ints masked to
# 32 bits and stored as uint32 columns.
_POOL_SIZE = 4
_STATE_WORDS = 8  # PCG64 asks for four uint64 words
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


@functools.cache
def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    return np.array([[init * pow(mult, i, 2**32) % 2**32] for i in range(calls + 1)], dtype=np.uint32)


_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, _STATE_WORDS)
# replications seeded per block: enough to amortize the hash, small enough
# that memory stays flat for any replication count
_BLOCK = 256


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """Hashmix, one call per row of ``value``: row i XORs with ``consts[i]``
    and multiplies by ``consts[i + 1]``."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _words(value: int) -> list[int]:
    """numpy's entropy words of an int >= 0: 32 bits each, lowest first; 0 is one word."""
    return [value >> shift & 0xFFFFFFFF for shift in range(0, max(value.bit_length(), 1), 32)]


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """Row r is ``SeedSequence(entropy[:, r]).generate_state(4, np.uint64)``,
    for uint32 entropy words, one column a generator."""
    hash_a = _hash_constants(0x43B0D7E5, 0x931E8875, _POOL_SIZE * max(_POOL_SIZE, entropy.shape[0]))
    with np.errstate(over="ignore"):
        pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
        pool[: entropy.shape[0]] = entropy[:_POOL_SIZE]
        pool = _hashmix(pool, hash_a[: _POOL_SIZE + 1])
        # mix every word into the three others; word src stays fixed meanwhile
        for src in range(_POOL_SIZE):
            dst = [d for d in range(_POOL_SIZE) if d != src]
            first = _POOL_SIZE + 3 * src
            hashed = _hashmix(pool[src], hash_a[first : first + 4])
            mixed = pool[dst] * _MIX_MULT_L - hashed * _MIX_MULT_R
            pool[dst] = mixed ^ (mixed >> 16)
        for src in range(_POOL_SIZE, entropy.shape[0]):  # then each word past the pool into all four
            hashed = _hashmix(entropy[src], hash_a[_POOL_SIZE * src : _POOL_SIZE * (src + 1) + 1])
            mixed = pool * _MIX_MULT_L - hashed * _MIX_MULT_R
            pool = mixed ^ (mixed >> 16)
        words = _hashmix(np.tile(pool, (_STATE_WORDS // _POOL_SIZE, 1)), _HASH_B)
    return np.ascontiguousarray(words.T, dtype="<u4").view("<u8").astype(np.uint64)


@functools.cache
def _seed_state_type() -> type:
    """A seed sequence whose PCG64 state words are already computed; defined
    on first use, since subclassing ``ISeedSequence`` imports numpy.random,
    which importing seqtest otherwise does not."""

    class SeedState(np.random.bit_generator.ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint64):
            return self.state

    return SeedState


def replication_rngs(seed: int, lo: int, hi: int):
    """The generators of replications lo..hi-1, each bit-identical to
    ``rng_for_replication(seed, rep)``, built a block at a time for any seed
    and index."""
    if seed < 0 or lo < 0:
        raise ConfigError("seed and replication index must be non-negative")
    return _replication_rngs(int(seed), int(lo), int(hi))


def _replication_rngs(seed: int, lo: int, hi: int):
    seed_state, seed_words, start = _seed_state_type(), _words(seed), lo
    while start < hi:
        # a block ends at a multiple of 2**32 too, so its indices differ only in their lowest word
        stop = min(start + _BLOCK, hi, (start >> 32 << 32) + 2**32)
        entropy = np.repeat(np.array(seed_words + _words(start), dtype=np.uint32)[:, None], stop - start, axis=1)
        entropy[len(seed_words)] += np.arange(stop - start, dtype=np.uint32)
        for state in _seed_states(entropy):
            yield np.random.Generator(np.random.PCG64(seed_state(state)))
        start = stop


def block_rows(count: int, width: int) -> int:
    """Rows of ``width`` float64 values in one block of at most
    ``BLOCK_BYTES``, for ``count`` rows in all: at least one, at most ``count``."""
    return max(1, min(count, BLOCK_BYTES // (8 * width)))


def replication_blocks(seed: int, lo: int, hi: int, width: int, draw):
    """The draws of replications lo..hi-1, a block at a time.

    Row r of a block holds ``draw(rng, out=row)`` for the generator of its
    replication (``replication_rngs``); ``draw`` is a ``Generator`` method
    such as ``Generator.random`` or ``Generator.standard_normal``.  The blocks
    are views of one buffer of ``block_rows(hi - lo, width)`` rows, which the
    next block overwrites, so a caller may score a block in place.  Each call
    owns its buffer: threads may draw spans of one plan at once.
    """
    rngs = replication_rngs(seed, lo, hi)
    buffer = np.empty((block_rows(hi - lo, width), width))
    for start in range(lo, hi, buffer.shape[0]):
        block = buffer[: hi - start]
        for row, rng in zip(block, rngs):
            draw(rng, out=row)
        yield block


def check_noise_level(n: int, sigma: float) -> None:
    """Refuse a sigma whose sigma^4, sigma^-4 or n^2 sigma^-4 is not a finite
    float: the sequence-model statistics and designs scale by these powers."""
    if not 0.0 < sigma < math.inf:
        raise ConfigError("sigma must be positive and finite")
    try:
        finite = math.isfinite(sigma**4) and math.isfinite(n**2 * sigma**-4)
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise ConfigError(f"sigma={sigma!r} is too far from 1: sigma^4 or n^2 sigma^-4 overflows a float (n={n})")


@dataclass(frozen=True)
class SequenceObservation:
    """Noisy coefficients y observed at noise level sigma / sqrt(n)."""

    y: Spectrum
    n: int
    sigma: float


def complex_pairs(raw: np.ndarray) -> np.ndarray:
    """The (re, im) pairs of complex noise coordinates from 2 m standard
    normals along the last axis, the m real parts first: each part times
    1/sqrt(2), and coordinate 0 real with the first normal as it is."""
    size = raw.shape[-1] // 2
    pairs = np.empty_like(raw)
    # times 1/sqrt(2), not over it: these are the bits of the complex quotient
    # (re + i im) / sqrt(2), which numpy forms through the reciprocal
    np.multiply(raw[..., :size], _SQRT_HALF, out=pairs[..., 0::2])
    np.multiply(raw[..., size:], _SQRT_HALF, out=pairs[..., 1::2])
    pairs[..., 0], pairs[..., 1] = raw[..., 0], 0.0
    return pairs


def draw_sequence_observation(
    signal: Spectrum,
    n: int,
    sigma: float,
    rng: np.random.Generator,
) -> SequenceObservation:
    """One draw of the sequence model; complex noise draws its real parts
    first, then its imaginary parts (``complex_pairs``)."""
    if n < 1 or sigma <= 0:
        raise ConfigError("sequence model needs n >= 1 and sigma > 0")
    size = signal.coeffs.size
    if signal.basis == "complex-exponential":
        xi = complex_pairs(rng.standard_normal(2 * size)).view(complex)
    else:
        xi = rng.standard_normal(size)
    y = signal.coeffs + sigma / math.sqrt(n) * xi
    return SequenceObservation(y=Spectrum(signal.basis, y), n=n, sigma=sigma)


def evaluate_perturbation(spec: Spectrum, x: np.ndarray) -> np.ndarray:
    """f(x) for the stored expansion; the density is 1 + f."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    if spec.basis == "cosine":
        for p, c in enumerate(spec.coeffs):
            if c != 0.0:
                out += c * math.sqrt(2.0) * np.cos(math.pi * (p + 1) * x)
    else:
        out += float(np.real(spec.coeffs[0]))
        for j in range(1, spec.coeffs.size):
            c = spec.coeffs[j]
            if c != 0:
                out += 2.0 * (c.real * np.cos(2 * math.pi * j * x) - c.imag * np.sin(2 * math.pi * j * x))
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
    else:
        out += float(np.real(spec.coeffs[0])) * x
        for j in range(1, spec.coeffs.size):
            c = spec.coeffs[j]
            if c != 0:
                w = 2 * math.pi * j
                # 2 Re[c (e^{iwx} - 1) / (iw)]
                out += (2.0 / w) * (c.real * np.sin(w * x) + c.imag * (np.cos(w * x) - 1.0))
    return out


def min_density(spec: Spectrum) -> float:
    """The least of 1 + f on the ``2 * GRID_POINTS - 1`` points where
    ``iid_sampler`` checks the density floor."""
    x = np.linspace(0.0, 1.0, 2 * GRID_POINTS - 1)
    return float(np.min(1.0 + evaluate_perturbation(spec, x)))


def cdf_grid(spec: Spectrum) -> tuple[np.ndarray, np.ndarray]:
    """Exact CDF F(x) = x + int_0^x f of the density 1 + f at the sampler's nodes."""
    x = np.linspace(0.0, 1.0, GRID_POINTS)
    cdf = x + cumulative_perturbation(spec, x)
    return x, cdf


def check_zero_mean(spec: Spectrum) -> None:
    """Refuse a complex spectrum whose j = 0 coefficient is not 0: 1 + f
    would integrate to 1 + coeffs[0], so it is not a density."""
    if spec.basis == "complex-exponential" and spec.coeffs[0] != 0:
        raise ConfigError(f"not a density: the j = 0 coefficient must be 0, got {spec.coeffs[0].real:g}")


def iid_sampler(spec: Spectrum):
    """The inverse-CDF map ``u -> x`` that turns uniforms on [0, 1) into
    i.i.d. points from the density 1 + f, on [0, 1]: where 1 + f exceeds 2
    near x = 1, a u just below 1 maps to 1.0.

    The CDF is exact at the nodes of ``cdf_grid``; between them the inverse
    is linear, so the sampled density is a fine piecewise-constant
    approximation whose cell masses on any interval wider than the grid step
    match the target to O(step^2).  The floor (``min_density``), the grid and
    the lookup table of ``_inverse_cdf`` are settled here, once.  The map
    takes an array of any shape with values in [0, 1] and returns the bits of
    ``np.interp(u, cdf, x)`` in a new array.  The grid must increase strictly, so the map is
    nondecreasing but for ulps at a grid node.  The Monte Carlo engine relies
    on that twice: its CvM replications invert uniforms sorted once a group
    (a row that steps back is sorted again), and its chi-square plans invert
    only the cell thresholds of ``chisq.cell_thresholds``, once per plan.
    The engine samples a spectrum of zeros as the null, with no map.  A
    complex spectrum whose j = 0 coefficient is not 0 is a ConfigError
    (``check_zero_mean``).
    """
    check_zero_mean(spec)
    floor = min_density(spec)
    if floor < MIN_DENSITY:
        raise ConfigError(
            f"1 + f is not bounded away from zero (min {floor:.3e}); not a usable density"
        )
    x, cdf = cdf_grid(spec)
    step = np.diff(cdf)
    if not np.all(step > 0):
        raise ConfigError("the CDF of 1 + f does not increase strictly on the sampling grid")
    return _inverse_cdf(x, cdf, step)


def _inverse_cdf(x: np.ndarray, cdf: np.ndarray, step: np.ndarray):
    """``u -> np.interp(u, cdf, x)`` for u in [0, 1], bit for bit, by indexed
    search (Chen & Asau 1974).

    [0, 1] is cut into M = 2^m buckets no wider than the least CDF step, so a
    bucket holds at most one grid node.  ``guide[b]`` counts the nodes at or
    below the bucket's left edge b / M; for u in bucket b the count of nodes
    at or below u, s, is that or one more, settled by one compare with the
    next node.  Segment s = 1..L-1 holds cdf[s-1] <= u < cdf[s], and the value
    is numpy's interpolation ``slope * (u - cdf[s-1]) + x[s-1]`` with numpy's
    slope (dx / dcdf, divided per segment).  The two end entries have slope 0
    and give numpy's end values: x[0] below cdf[0], x[-1] from cdf[-1] on.
    u * M and the bucket edges are exact, since M is a power of two, so
    every u in [0, 1] lands in the segment that ``np.interp``'s search finds.
    Outside [0, 1] the map is not defined (a uniform never lies there).
    Where M would pass ``MAX_GUIDE_BUCKETS`` the map is ``np.interp``.
    """
    # the computed least step is within one rounding of the true one; shrunk
    # by 2^-52 it is a lower bound, and M = 2^(1 - e) >= 1 / it, with e its
    # binary exponent
    _, exponent = math.frexp(float(step.min()) * (1.0 - 2.0**-52))
    bits = max(0, 1 - exponent)
    if 2**bits > MAX_GUIDE_BUCKETS:
        return lambda u: np.interp(u, cdf, x)
    buckets = 2**bits
    # node j lies at or below edge b / M exactly when ceil(cdf[j] M) <= b;
    # bucket M holds u = 1 alone
    first_edge = np.clip(np.ceil(cdf * buckets), 0, buckets + 1).astype(np.intp)
    guide = np.cumsum(np.bincount(first_edge, minlength=buckets + 2))[: buckets + 1]
    # one array holds both: anchor[s] = cdf[s-1] opens segment s, upper[s] =
    # cdf[s] is node s, the first one above u's bucket edge
    padded = np.concatenate((cdf[:1], cdf, [np.inf]))
    anchor, upper = padded[:-1], padded[1:]
    slope = np.concatenate(([0.0], np.diff(x) / step, [0.0]))
    value = np.concatenate((x[:1], x))

    def inverse(u):
        u = np.asarray(u)
        s = guide[(u * buckets).astype(np.intp)]
        s += upper[s] <= u
        out = u - anchor[s]
        out *= slope[s]
        out += value[s]
        return out

    return inverse


def sample_iid(spec: Spectrum, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw i.i.d. points from the density 1 + f by inverse-CDF lookup: the
    uniforms lie in [0, 1), and their points in [0, 1], 1.0 included."""
    if size < 0:
        raise ConfigError("sample size must be non-negative")
    return iid_sampler(spec)(rng.random(size))


def validate_sample(sample: np.ndarray) -> np.ndarray:
    """``sample`` as a float array, if it is a non-empty 1-d array of finite
    points of [0, 1], the range of ``sample_iid``; a ConfigError if not.
    Both density families, chi-square and CvM, read their samples here."""
    x = np.asarray(sample, dtype=float)
    if x.ndim != 1 or x.size == 0:
        raise ConfigError("sample must be a non-empty 1-d array")
    if not np.all((x >= 0.0) & (x <= 1.0)):  # false for NaN too
        raise ConfigError("observations must be finite points of [0, 1]")
    return x
