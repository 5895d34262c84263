"""Asymptotically minimax detection designs for the Gaussian sequence model.

Observing y_j = theta_j + (sigma / sqrt(n)) xi_j, the alternative set is the
Besov-type ball of smoothness s and budget P0 intersected with the shell
||theta||^2 >= rho_n.  The design solves the coupled equations

    (1 / 2s) k^(1+2s) kappa^2 = P0,          k kappa^2 + P0 k^(-2s) = rho_n

for the breakpoint k_n and plateau kappa_n^2, extends the weights past the
breakpoint by the ball's boundary profile kappa_j^2 = 2 s P0 j^(-1-2s), and
uses the weighted energy statistic

    T_n = sigma^-4 n^2 sum_j kappa_j^2 y_j^2.

Under the null E T_n = sigma^-2 n sum_j kappa_j^2 and Var T_n = 2 A_n with
A_n = sigma^-4 n^2 sum_j kappa_j^4, so the test rejects when
(T_n - C_n) / sqrt(2 A_n) > x_alpha.  The centering C_n = sigma^-2 n rho_n is
not the null mean: sum_j kappa_j^2 sums and truncates the tail that the
radius equation integrates, at a rounded k_n, so the standardized gap
(E T_n - C_n) / sqrt(2 A_n) is -0.139 at n = 2000, rho_n = 2e-3 and -0.056 at
n = 1e4, rho_n = n^-0.8 (s = 1, P0 = 1), and the size is not exactly alpha.
A signal theta shifts T_n from its null law by
sigma^-4 n^2 sum_j kappa_j^2 theta_j^2, and its drift is that shift over
sqrt(2 A_n).  The least favorable signal is theta_j = kappa_j, whose drift is
sqrt(A_n / 2), so the minimax type II error is Phi(x_alpha - sqrt(A_n / 2)).
``energy_form`` writes the standardized statistic as an ``EnergyForm``, and
its ``drift`` is the drift of any signal.

The inverse variant observes y_j = lambda_j theta_j + noise.  Writing the
least favorable signal as theta_j^2 = a lambda_j^-4 up to the breakpoint,
continuity with the ball boundary fixes a = 2 s P0 k^(-1-2s) lambda_k^4 and
the radius equation a sum_{j<=k} lambda_j^-4 + P0 k^(-2s) = rho_n pins k.
The statistic weights become kappa_j^2 = lambda_j^2 theta_j^2 (the energy
each y_j carries about theta), and the test centers on the exact null mean
since no closed-form centering constant is available here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, InfeasibleDesignError, NumericError, check_length
from .quadratic import EnergyForm
from .report import TestReport, normal_type2, upper_quantile
from .sampling import SequenceObservation, check_noise_level, replication_blocks
from .spectra import BesovBall, Spectrum, besov_seminorms

DEFAULT_MIN_TRUNCATION = 1024
TRUNCATION_MULTIPLIER = 20
# largest breakpoint the direct design accepts (beyond it k_n is not an exact float)
MAX_BREAKPOINT = 2.0**53
# slack on the rounding bound in the radius-residual check
RESIDUAL_SLACK = 1e-9


@dataclass(frozen=True)
class DetectionDesign:
    """Solved weight profile for the energy test.

    ``kappa_j2[p]`` is the weight on y_{p+1}; ``kappa_n2`` its value at the
    breakpoint.  ``c_n`` is the centering the test subtracts: sigma^-2 n rho_n
    for the direct design, the exact null mean for the inverse one.
    ``eq_budget_residual`` / ``eq_radius_residual`` are the relative residuals
    of the two design equations after integer rounding of k_n; rounding keeps
    the radius residual below (2s+1)/k_n.
    """

    s: float
    p0: float
    rho_n: float
    n: int
    sigma: float
    k_n: int
    kappa_n2: float
    kappa_j2: np.ndarray
    a_n: float
    c_n: float
    j_max: int
    eq_budget_residual: float
    eq_radius_residual: float
    lambdas: np.ndarray | None = None

    @property
    def residual_bound(self) -> float:
        return (2.0 * self.s + 1.0) / self.k_n

    def to_json_dict(self) -> dict:
        """Every field in declaration order, arrays as lists of floats;
        ``lambdas`` only for an inverse design."""
        out = {}
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, np.ndarray):
                out[field.name] = [float(v) for v in value]
            elif value is not None:
                out[field.name] = value
        return out


def _validate_common(s: float, p0: float, rho_n: float, n: int, sigma: float) -> None:
    if s <= 0 or p0 <= 0 or rho_n <= 0 or sigma <= 0:
        raise ConfigError("s, P0, rho_n, sigma must all be positive")
    if n < 1:
        raise ConfigError("n must be a positive integer")
    check_noise_level(n, sigma)


def _tail_profile(s: float, p0: float, j: np.ndarray) -> np.ndarray:
    return 2.0 * s * p0 * np.power(j, -(1.0 + 2.0 * s))


def solve_design(
    s: float,
    p0: float,
    rho_n: float,
    n: int,
    sigma: float = 1.0,
    j_max: int | None = None,
) -> DetectionDesign:
    _validate_common(s, p0, rho_n, n, sigma)

    # radius equation with kappa^2 eliminated, (2s+1) P0 k^-2s = rho_n, solved for k
    if (2.0 * s + 1.0) * p0 < rho_n:
        raise InfeasibleDesignError("rho_n exceeds (2s+1) P0: no breakpoint k >= 1")
    try:
        k_real = ((2.0 * s + 1.0) * p0 / rho_n) ** (1.0 / (2.0 * s))
    except OverflowError:
        k_real = math.inf
    if k_real > MAX_BREAKPOINT:
        raise InfeasibleDesignError("rho_n too small: breakpoint overflows")
    k_n = max(1, int(round(k_real)))
    if j_max is None:
        j_max = max(TRUNCATION_MULTIPLIER * k_n, DEFAULT_MIN_TRUNCATION)
    check_length("j_max", j_max)
    if k_n > j_max:
        raise InfeasibleDesignError(f"breakpoint k_n={k_n} exceeds truncation j_max={j_max}")

    kappa_n2 = 2.0 * s * p0 * k_n ** (-(1.0 + 2.0 * s))
    j = np.arange(1, j_max + 1, dtype=float)
    kappa_j2 = np.where(j <= k_n, kappa_n2, _tail_profile(s, p0, j))

    budget_res = abs(k_n ** (1.0 + 2.0 * s) * kappa_n2 / (2.0 * s) - p0) / p0
    radius_res = abs(k_n * kappa_n2 + p0 * k_n ** (-2.0 * s) - rho_n) / rho_n
    return _build(s, p0, rho_n, n, sigma, k_n, kappa_j2, n * rho_n / sigma**2, budget_res, radius_res)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a gap, weight or sum past a float is refused
def solve_inverse_design(
    s: float,
    p0: float,
    rho_n: float,
    n: int,
    sigma: float,
    lambdas: np.ndarray,
    j_max: int | None = None,
) -> DetectionDesign:
    _validate_common(s, p0, rho_n, n, sigma)
    lam = np.asarray(lambdas, dtype=float)
    if lam.ndim != 1 or lam.size < 2:
        raise ConfigError("lambdas must be a 1-d sequence of at least two eigenvalues")
    if np.any(lam == 0.0) or np.any(~np.isfinite(lam)):
        raise ConfigError("eigenvalues must be finite and nonzero")
    lam = np.abs(lam)
    if j_max is None:
        j_max = lam.size
    if not 1 <= j_max <= lam.size:
        raise ConfigError("truncation must be positive and within the provided eigenvalue sequence")
    lam = lam[:j_max]

    j = np.arange(1, j_max + 1, dtype=float)
    # a_k at each candidate breakpoint k: continuity of the least favorable profile there
    a_k = 2.0 * s * p0 * j ** (-(1.0 + 2.0 * s)) * lam**4
    gaps = a_k * np.cumsum(lam**-4) + p0 * j ** (-2.0 * s) - rho_n
    if not np.all(np.isfinite(gaps)):
        raise ConfigError("s, p0, rho_n and lambdas put the radius equation's gaps past a float")
    if gaps[0] < 0.0:
        raise InfeasibleDesignError("rho_n too large for the eigenvalue sequence: no breakpoint k >= 1")
    below = np.nonzero(gaps <= 0.0)[0]
    if below.size == 0:
        raise InfeasibleDesignError(f"no breakpoint within truncation j_max={j_max}")
    k_hi = int(below[0]) + 1
    k_n = k_hi - 1 if k_hi > 1 and abs(gaps[k_hi - 2]) <= abs(gaps[k_hi - 1]) else k_hi

    a = a_k[k_n - 1]
    kappa_j2 = np.where(j <= k_n, a * lam**-2, _tail_profile(s, p0, j) * lam**2)

    budget_res = abs(a * lam[k_n - 1] ** -4 - 2.0 * s * p0 * k_n ** (-(1.0 + 2.0 * s))) / (
        2.0 * s * p0 * k_n ** (-(1.0 + 2.0 * s))
    )
    radius_res = abs(gaps[k_n - 1]) / rho_n
    c_n = float(n / sigma**2 * np.sum(kappa_j2))  # exact null mean; see module docstring
    return _build(s, p0, rho_n, n, sigma, k_n, kappa_j2, c_n, budget_res, radius_res, lambdas=lam)


def solve(s: float, p0: float, rho_n: float, n: int, sigma: float = 1.0,
          lambdas: np.ndarray | None = None, j_max: int | None = None) -> DetectionDesign:
    """``solve_inverse_design`` when ``lambdas`` are given, else ``solve_design``."""
    if lambdas is not None:
        return solve_inverse_design(s, p0, rho_n, n, sigma, lambdas, j_max=j_max)
    return solve_design(s, p0, rho_n, n, sigma, j_max=j_max)


def _build(
    s: float, p0: float, rho_n: float, n: int, sigma: float, k_n: int, kappa_j2: np.ndarray,
    c_n: float, budget_res: float, radius_res: float, lambdas: np.ndarray | None = None,
) -> DetectionDesign:
    """The design both solvers return, once its radius residual passes the
    rounding bound; A_n, the plateau and the truncation follow from the
    weights.  An A_n that overflows or underflows a float is an invalid
    config: the test's null variance 2 A_n would be infinite or zero."""
    with np.errstate(over="ignore"):
        a_n = sigma**-4 * n**2 * float(np.sum(kappa_j2**2))
    if not 0.0 < a_n < math.inf:
        raise ConfigError(f"A_n = {a_n!r} is not a positive finite float; the weights are too large or too small")
    if not all(map(math.isfinite, (c_n, budget_res, radius_res))):
        raise ConfigError(f"c_n = {c_n!r} or a residual of the design equations is not a finite float")
    design = DetectionDesign(
        s=s, p0=p0, rho_n=rho_n, n=n, sigma=sigma, k_n=k_n, kappa_n2=float(kappa_j2[k_n - 1]),
        kappa_j2=kappa_j2, a_n=a_n, c_n=c_n,
        j_max=kappa_j2.size, eq_budget_residual=budget_res, eq_radius_residual=radius_res, lambdas=lambdas,
    )
    bound = design.residual_bound
    if radius_res > bound + RESIDUAL_SLACK:
        raise NumericError(f"radius residual {radius_res:.3e} exceeds the rounding bound {bound:.3e}")
    return design


def _check_observation(obs: SequenceObservation, design: DetectionDesign) -> np.ndarray:
    if obs.y.basis != "cosine":
        raise ConfigError("the energy test reads real sequence observations (cosine basis)")
    if obs.y.coeffs.size != design.j_max:
        raise ConfigError(f"observation length {obs.y.coeffs.size} != design truncation {design.j_max}")
    if obs.n != design.n or obs.sigma != design.sigma:
        raise ConfigError("observation (n, sigma) must match the design")
    return np.asarray(obs.y.coeffs, dtype=float)


def energy_form(design: DetectionDesign) -> EnergyForm:
    """(T_n - c_n) / sqrt(2 A_n), with weights sigma^-4 n^2 kappa_j^2."""
    return EnergyForm(design.sigma**-4 * design.n**2 * design.kappa_j2, design.c_n, math.sqrt(2.0 * design.a_n))


def minimax_statistic(obs: SequenceObservation, design: DetectionDesign) -> float:
    """T_n = sigma^-4 n^2 sum_j kappa_j^2 y_j^2."""
    return float(energy_form(design).energy(_check_observation(obs, design)))


def predicted_type2_minimax(design: DetectionDesign, alpha: float) -> float:
    """Phi(x_alpha - sqrt(A_n / 2)), the type II error at the least favorable signal."""
    return normal_type2(math.sqrt(design.a_n / 2.0), alpha)


def minimax_test(obs: SequenceObservation, design: DetectionDesign, alpha: float) -> TestReport:
    form = energy_form(design)
    t_n = float(form.energy(_check_observation(obs, design)))
    z = form.standardize(t_n)
    x_alpha = upper_quantile(alpha)
    return TestReport(
        family="minimax",
        statistic=t_n,
        standardized=z,
        threshold=x_alpha,
        alpha=alpha,
        n=design.n,
        predicted_type2=predicted_type2_minimax(design, alpha),
        details={"k_n": design.k_n, "a_n": design.a_n, "c_n": design.c_n},
    )


def least_favorable(design: DetectionDesign) -> Spectrum:
    """theta*_j = kappa_j: the boundary signal the design is tuned against."""
    return Spectrum(basis="cosine", coeffs=np.sqrt(design.kappa_j2))


def _resolve_delta(design: DetectionDesign, delta: float) -> DetectionDesign:
    if not 0.0 < delta < 1.0:
        raise ConfigError("delta must lie in (0, 1)")
    check_length("delta", design.k_n / delta)  # the prior's support, inf where the quotient overflows
    shifted = (design.s, design.p0 * (1.0 - delta), design.rho_n * (1.0 + delta), design.n, design.sigma)
    return solve(*shifted, design.lambdas, j_max=design.j_max)


def prior_profile(design: DetectionDesign, delta: float) -> np.ndarray:
    """Prior variances theta*_j^2(delta), hard-truncated beyond k_n / delta:
    the least favorable signal of the shrunken-ball design, its weights
    kappa_j^2 for the direct design and kappa_j^2 / lambda_j^2 for the
    inverse one, whose weights are lambda_j^2 theta*_j^2."""
    shifted = _resolve_delta(design, delta)
    if shifted.lambdas is None:
        profile = shifted.kappa_j2.copy()
    else:
        profile = shifted.kappa_j2 / shifted.lambdas**2
    cut = int(design.k_n / delta)
    profile[cut:] = 0.0
    return profile


@dataclass(frozen=True)
class PriorDraw:
    eta: Spectrum
    norm_sq: float
    seminorm: float
    in_alternative: bool


def sample_bayes_prior(design: DetectionDesign, delta: float, seed: int, rep: int = 0) -> PriorDraw:
    """One Gaussian draw eta_j ~ N(0, kappa_j^2(delta)) and its V_n membership.

    The noise vector is drawn first and then scaled, so for a fixed seed the
    draw is continuous in delta (and in the design parameters).  This is the
    one-row case of ``prior_blocks``: it reads only the prior's support,
    min(j_max, floor(k_n / delta)) normals, the prefix of the stream of
    ``rng_for_replication(seed, rep)``, so eta (padded with zeros to j_max)
    and its membership are those of a full-length draw.
    """
    (eta, norm_sq, seminorm, member), = prior_blocks(design, delta, seed, rep, rep + 1)
    eta = Spectrum("cosine", np.pad(eta[0], (0, design.j_max - eta.shape[1])))
    return PriorDraw(eta, float(norm_sq[0]), float(seminorm[0]), bool(member[0]))


def prior_blocks(design: DetectionDesign, delta: float, seed: int, lo: int, hi: int):
    """Prior draws lo..hi-1, scored a block at a time.

    Yields ``(eta, norm_sq, seminorm, member)`` per block, a row or an entry
    per draw; ``member`` is V_n membership: ||eta||^2 >= rho_n, inside the
    smoothness ball.  Draw r scales the normals of
    ``rng_for_replication(seed, r)`` by sqrt(``prior_profile``), which is zero
    past the prior's support m = min(j_max, floor(k_n / delta)).  So a draw
    reads only m normals, into its row of a block of ``replication_blocks``;
    numpy draws normals in order, so they are the first m of the full-length
    draw, and so are the scores.  ``eta`` holds the first m coefficients, in
    the buffer the next block overwrites.
    """
    scale = np.sqrt(prior_profile(design, delta)[: int(design.k_n / delta)])  # zero past the cut
    ball = BesovBall(design.s, design.p0)
    for eta in replication_blocks(seed, lo, hi, scale.size, np.random.Generator.standard_normal):
        eta *= scale
        energies = eta**2
        norm_sq, seminorm = energies.sum(axis=1), besov_seminorms(energies, design.s)
        yield eta, norm_sq, seminorm, (norm_sq >= design.rho_n) & ball.admits(seminorm)
