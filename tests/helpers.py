"""Independent oracles and diagnostics shared across test modules.

Everything here recomputes a quantity from its defining formula with tools
outside the package (scipy optimizers, direct summation), so agreement is
evidence and not circularity.  The weight-profile regularity report, the
primitive mean and the CvM consistency margin are diagnostics that only the
tests read.  ``imhof_sf`` is the exact law of the sequence-model statistics,
and ``exact_power`` reads it off an ``EnergyForm``.  ``prior_members`` counts
prior membership one full-length draw at a time, the reference for the
block-scored count, and ``simulate_reference`` draws a CvM null table one
replication at a time, the reference for the block-scored table.
``valid_spectra`` generates sampling targets for hypothesis.
``KERNEL_DENSITIES`` holds the stock kernels' K in the space domain, which
the library, working from closed forms, does not keep.
"""

import math
from dataclasses import dataclass

import numpy as np
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss
from scipy import integrate
from scipy.optimize import minimize

from seqtest.cvm import cvm_population, omega_sq, omega_sq_scorer, order_grid
from seqtest.design import prior_profile
from seqtest.errors import ConfigError
from seqtest.report import upper_quantile
from seqtest.sampling import evaluate_perturbation, replication_blocks, replication_rngs, rng_for_replication
from seqtest.spectra import BesovBall, Spectrum, besov_seminorm

# Regularity thresholds: neighbor-step bound a3 <= A3_STEP_OVER_KN / k_n in the
# resolution window, window mass fractions for a5 below A5_MASS_FRACTION.
A3_STEP_OVER_KN = 8.0
A5_MASS_FRACTION = 0.5

# limiting distribution of omega^2 = n T^2: classical upper 5% point
ASYMPTOTIC_Q95 = 0.46136


# K itself for each stock kernel, by name, the integrand of the quadrature
# checks of its closed forms
KERNEL_DENSITIES = {
    "box": lambda t: np.where(np.abs(t) <= 1.0, 0.5, 0.0),
    "triangle": lambda t: np.maximum(0.0, 1.0 - np.abs(t)),
    "epanechnikov": lambda t: np.where(np.abs(t) <= 1.0, 0.75 * (1.0 - np.asarray(t) ** 2), 0.0),
}


# Gauss-Legendre nodes per panel of Imhof's integral, each panel spanning at
# most pi of phase, and the bound on the integral's two truncated tails
IMHOF_NODES = 16
IMHOF_TAIL = 1e-7


def imhof_sf(x: float, lam, delta=None) -> float:
    """P(sum_i lam_i (Z_i + delta_i)^2 > x) for independent standard normal
    Z_i and lam_i >= 0, by Imhof's (1961) inversion integral

        P = 1/2 + (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du,

    taken in t = log u with Gauss-Legendre panels.  The panels are 1/2 wide
    in t while the phase theta moves by at most c u <= 2 pi per unit of t
    (c bounds |theta'|), and span pi / c in u beyond, so each panel covers at
    most pi of phase.  The range starts where c u falls below IMHOF_TAIL and
    stops where Imhof's bound on the upper tail, taken over the m largest
    weights for the best m, does.
    """
    lam = np.asarray(lam, dtype=float)
    d2 = np.zeros_like(lam) if delta is None else np.asarray(delta, dtype=float) ** 2
    keep = lam > 0.0
    top = lam[keep].max()
    lam, d2, x = lam[keep] / top, d2[keep], x / top  # weights at most 1
    c = 0.5 * (float(np.sum(lam * (1.0 + d2))) + abs(x))
    # rho(u) >= prod over the m largest of sqrt(lam_i u), so the tail beyond U
    # is at most (2 / m) U^(-m/2) prod lam_i^(-1/2); log_u[m - 1] is the U at
    # which that bound reads pi * IMHOF_TAIL
    m = np.arange(1, lam.size + 1)
    log_u = (np.log(2.0 / (m * math.pi * IMHOF_TAIL)) - 0.5 * np.cumsum(np.log(np.sort(lam)[::-1]))) * 2.0 / m
    u_lo, u_mid, u_hi = IMHOF_TAIL / c, 2.0 * math.pi / c, math.exp(float(np.min(log_u)))
    if (u_hi - u_mid) * c / math.pi > 1e7:
        # one or two real coordinates: the integrand decays like u^-1/2 or u^-1
        raise ValueError("Imhof's integral needs over 1e7 panels for these weights")
    t_edges = np.arange(math.log(u_lo), math.log(u_mid), 0.5)
    u_edges = np.arange(u_mid, max(u_hi, u_mid) + math.pi / c, math.pi / c)
    edges = np.concatenate([t_edges, np.log(u_edges)])
    nodes, weights = leggauss(IMHOF_NODES)
    total = 0.0
    step = max(1, 2**16 // lam.size)  # panels per chunk: about 1e6 (node, weight) pairs
    for lo in range(0, edges.size - 1, step):
        a, b = edges[lo : lo + step + 1][:-1], edges[lo : lo + step + 1][1:]
        t = (0.5 * (b - a)[:, None] * nodes + 0.5 * (a + b)[:, None]).ravel()
        w = (0.5 * (b - a)[:, None] * weights).ravel()
        lu = np.exp(t)[:, None] * lam
        lu2 = lu * lu
        theta = 0.5 * np.sum(np.arctan(lu) + d2 * lu / (1.0 + lu2), axis=1) - 0.5 * x * np.exp(t)
        log_rho = np.sum(0.25 * np.log1p(lu2) + 0.5 * d2 * lu2 / (1.0 + lu2), axis=1)
        total += float(np.dot(w, np.sin(theta) * np.exp(-log_rho)))
    return 0.5 + total / math.pi


def exact_power(form, mean: np.ndarray, noise_var: np.ndarray, alpha: float) -> float:
    """P(form.standardize(form.energy(y)) > x_alpha) for y = mean + N(0, noise_var), one
    real coordinate per weight: lam_i = w_i noise_var_i, delta_i = mean_i /
    noise sd.  A coordinate without noise adds w_i mean_i^2 to the energy."""
    mean = np.asarray(mean, dtype=float)
    noise_var = np.asarray(noise_var, dtype=float)
    noisy = noise_var > 0.0
    fixed = float(np.dot(form.weights[~noisy], mean[~noisy] ** 2))
    x = form.offset + form.sd * upper_quantile(alpha) - fixed
    return imhof_sf(x, form.weights[noisy] * noise_var[noisy], mean[noisy] / np.sqrt(noise_var[noisy]))


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


def _cosine_terms(theta, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f(x) = sqrt(2) sum_j theta_j cos(pi j x) and its primitive U(x)."""
    coeffs = np.asarray(theta.coeffs, dtype=float)
    w = math.pi * np.arange(1, coeffs.size + 1)
    f = math.sqrt(2.0) * np.cos(np.outer(x, w)) @ coeffs
    u = math.sqrt(2.0) * np.sin(np.outer(x, w)) @ (coeffs / w)
    return f, u


def primitive_mean(theta) -> float:
    """int_0^1 U(x) dx = 2 sqrt(2) sum_{odd j} theta_j / (pi^2 j^2) for the cosine basis."""
    if theta.basis != "cosine":
        raise ConfigError("the primitive mean is defined for the cosine basis")
    coeffs = np.asarray(theta.coeffs, dtype=float)
    j = np.arange(1, coeffs.size + 1)
    odd = j % 2 == 1
    return float(2.0 * math.sqrt(2.0) * np.sum(coeffs[odd] / (math.pi**2 * j[odd] ** 2)))


@dataclass(frozen=True)
class MarginReport:
    """n T^2(F - F_0) together with the density-floor check 1 + f > delta."""

    margin: float
    min_density: float
    delta: float

    @property
    def b1_ok(self) -> bool:
        return self.min_density > self.delta


def consistency_margin(theta, n: int, delta: float = 0.0, grid: int = 4096) -> MarginReport:
    if n < 1:
        raise ConfigError("n must be positive")
    margin = n * cvm_population(theta)
    dens = 1.0 + evaluate_perturbation(theta, np.linspace(0.0, 1.0, grid + 1))
    return MarginReport(margin=float(margin), min_density=float(dens.min()), delta=delta)


def cvm_statistic_quadrature(sample: np.ndarray) -> float:
    """int_0^1 (Fhat_n(x) - x)^2 dx summed segment by segment.

    Between consecutive order statistics Fhat_n is flat, so each segment
    contributes an exact cubic difference.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    n = x.size
    knots = np.concatenate([[0.0], x, [1.0]])
    total = 0.0
    for i in range(n + 1):
        level = i / n
        a, b = knots[i], knots[i + 1]
        total += ((level - a) ** 3 - (level - b) ** 3) / 3.0
    return total


def cvm_population_quadrature(theta, grid: int = 8192) -> float:
    """T^2(F - F_0) = int_0^1 U(x)^2 dx by Simpson quadrature of the primitive
    of a cosine-basis perturbation."""
    x = np.linspace(0.0, 1.0, grid + 1)
    _, u = _cosine_terms(theta, x)
    return float(integrate.simpson(u**2, x=x))


def bridge_kernel_quadrature(theta, order: int = 256) -> float:
    """int int (min{s,t} - st) f(s) f(t) ds dt by tensor Gauss-Legendre.

    Differs from int U^2 by the rank-one term (int U)^2.
    """
    nodes, weights = leggauss(order)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    f, _ = _cosine_terms(theta, x)
    kern = np.minimum.outer(x, x) - np.outer(x, x)
    return float((w * f) @ kern @ (w * f))


def signed_pairs(spec) -> tuple[np.ndarray, np.ndarray]:
    """Full signed index set (-J..J) and coefficients of a complex-exponential
    spectrum, the negative half by conjugate symmetry."""
    if spec.basis != "complex-exponential":
        raise ConfigError("signed_pairs is only defined for the complex-exponential basis")
    j_max = spec.max_frequency
    js = np.arange(-j_max, j_max + 1)
    vals = np.concatenate([np.conj(spec.coeffs[:0:-1]), spec.coeffs])
    return js, vals


def space_domain_energy(y, kernel, h: float, grid: int = 2048) -> float:
    """||smoothed field||^2 by direct periodic convolution on a grid.

    Reconstructs the band-limited field from the stored complex-exponential
    coefficients, wraps the scaled kernel around the circle, convolves by
    direct summation, and integrates the square; O(grid^2).
    """
    t = np.arange(grid) / grid
    js, vals = signed_pairs(y)
    field = np.real(np.exp(2j * math.pi * np.outer(t, js)) @ vals)
    # wrapped kernel (t - u mod 1), scaled by 1/h
    d = t[:, None] - t[None, :]
    d = (d + 0.5) % 1.0 - 0.5
    wrapped = np.zeros_like(d)
    width = kernel.halfwidth * h
    for shift in (-1.0, 0.0, 1.0):  # h < 1/2 keeps at most one wrap relevant
        sel = np.abs(d + shift) <= width
        if np.any(sel):
            wrapped[sel] += KERNEL_DENSITIES[kernel.name]((d[sel] + shift) / h) / h
    smoothed = wrapped @ field / grid
    return float(np.mean(smoothed**2))


def kernel_transform_quadrature(kernel, omega: np.ndarray) -> np.ndarray:
    """Khat(omega) = 2 int_0^b K(t) cos(2 pi omega t) dt of a symmetric kernel,
    by scipy's oscillatory quadrature, ignoring its closed-form transform."""
    omega = np.atleast_1d(np.asarray(omega, dtype=float))
    out = np.empty_like(omega)
    for i, w in enumerate(omega):
        val, _ = integrate.quad(KERNEL_DENSITIES[kernel.name], 0.0, kernel.halfwidth, weight="cos", wvar=2.0 * math.pi * abs(w), limit=200)
        out[i] = 2.0 * val
    return out


def aliasing_sum(theta, k: int) -> float:
    """J1 = k^2 sum_m sum_{j != 0, j != m k} theta_j conj(theta_{j - m k})
    (2 - 2 cos(2 pi j / k)) / (4 pi^2 j (j - m k)), term by term; n J1 is the
    chi-square population functional of a mean-zero perturbation."""
    js, vals = signed_pairs(theta)
    if abs(vals[js == 0][0]) > 1e-12:
        raise ConfigError("the aliasing sum requires a mean-zero perturbation (zero frequency-0 coefficient)")
    j_max = int(js.max())
    m_max = (2 * j_max) // k + 1  # index differences reach 2 j_max
    coeff = dict(zip(js.tolist(), vals.tolist()))
    total = 0.0
    for m in range(-m_max, m_max + 1):
        for j in range(-j_max, j_max + 1):
            if j == 0 or j == m * k:
                continue
            other = coeff.get(j - m * k)
            first = coeff.get(j)
            if other is None or first is None or first == 0 or other == 0:
                continue
            weight = (2.0 - 2.0 * math.cos(2.0 * math.pi * j / k)) / (4.0 * math.pi**2 * j * (j - m * k))
            total += float(np.real(first * np.conj(other))) * weight
    return k * k * total


def cross_frequency_sum(theta, k: int) -> float:
    """|sum over pairs with k not dividing (j - j')| of the cell-energy
    expansion of a complex-exponential spectrum: identically zero.

    Keeps the explicit phase average sum_l e^{2 pi i (j - j') l / k} instead
    of using its known value; c_j = int_0^{1/k} e^{2 pi i j x} dx.
    """
    js, vals = signed_pairs(theta)
    nz = js != 0
    js, vals = js[nz], vals[nz]
    c = (np.exp(2.0j * math.pi * js / k) - 1.0) / (2.0j * math.pi * js)
    l = np.arange(k)
    total = 0.0 + 0.0j
    for a in range(js.size):
        for b in range(js.size):
            diff = js[a] - js[b]
            if diff % k == 0:
                continue
            phase_avg = np.sum(np.exp(2.0j * math.pi * diff * l / k))
            total += vals[a] * np.conj(vals[b]) * c[a] * np.conj(c[b]) * phase_avg
    return float(abs(k * total))


def prior_members(design, delta: float, draws: int, seed: int) -> int:
    """How many of prior draws 0..draws-1 lie in V_n: each draws all j_max
    normals of ``rng_for_replication(seed, rep)`` and is scored as a Spectrum."""
    scale = np.sqrt(prior_profile(design, delta))
    ball = BesovBall(s=design.s, p0=design.p0)
    members = 0
    for rep in range(draws):
        eta = Spectrum("cosine", scale * rng_for_replication(seed, rep).standard_normal(design.j_max))
        members += bool(eta.norm_sq() >= design.rho_n and ball.admits(besov_seminorm(eta, design.s)))
    return members


def simulate_reference(n: int, reps: int, seed: int) -> np.ndarray:
    """The sorted null table of n T^2, one replication at a time: replication
    r sorts the n uniforms of its generator and scores them alone."""
    grid = order_grid(n)
    values = np.empty(reps)
    for rep, rng in enumerate(replication_rngs(seed, 0, reps)):
        values[rep] = omega_sq(np.sort(rng.random(n)), grid)
    values.sort()
    return values


def omega_sq_blocks(n: int, seed: int, lo: int, hi: int, inverse=None):
    """n T^2 of replications lo..hi-1, one array per block of
    ``replication_blocks``: replication r scores the n uniforms of
    ``rng_for_replication(seed, r)``, sorted, through ``omega_sq_scorer(n,
    inverse)``, as the engine's CvM plans and the calibration table do."""
    score = omega_sq_scorer(n, inverse)
    for block in replication_blocks(seed, lo, hi, n, np.random.Generator.random):
        block.sort(axis=1)
        yield score(block)


# densities 1 + f with |f| <= 0.85: up to six cosines with |coeff| <= 0.1, or
# four complex frequencies with parts of at most 0.05
_small = st.floats(min_value=-0.1, max_value=0.1, allow_nan=False)
valid_spectra = st.one_of(
    st.lists(_small, min_size=1, max_size=6).map(lambda c: Spectrum("cosine", np.array(c))),
    st.lists(st.tuples(_small, _small), min_size=1, max_size=4).map(
        lambda c: Spectrum("complex-exponential", np.array([0j] + [complex(re / 2, im / 2) for re, im in c]))
    ),
)


def half_mass_index(kappa_sq: np.ndarray) -> int:
    """Largest k with sum_{j < k} kappa^2_j <= (1/2) sum_j kappa^2_j."""
    kappa_sq = np.asarray(kappa_sq, dtype=float)
    if kappa_sq.size == 0 or np.any(kappa_sq < 0):
        raise ConfigError("kappa_sq must be a non-empty non-negative array")
    csum = np.cumsum(kappa_sq)
    half = 0.5 * csum[-1]
    return int(np.searchsorted(csum, half, side="right")) + 1


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
    a2 = float(n**2 * sigma**-4 * np.sum(kq**2))  # A_n

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
