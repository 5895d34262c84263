"""Replication-seeded Monte Carlo engine over the five test families.

Every replication ``rep`` of a run draws from ``rng_for_replication(seed,
rep)``, so the stream a replication sees is a pure function of (seed, rep):
rejection counts are identical no matter how replications are sliced across
workers, and partial counts add associatively.  Wall time is measured but
kept out of every serialized output for byte-reproducibility.

Each family's plan supplies only how a replication draws its data and how
the data is tested; both call the same sampling functions and statistic
cores as ``draw_sequence_observation``/``sample_iid`` and the ``*_test``
functions, and one loop (``_counter``) counts the rejections.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import chisq as chisq_mod
from . import cvm as cvm_mod
from . import design as design_mod
from . import kernels as kernels_mod
from . import quadratic as quad_mod
from .cvm import DEFAULT_CALIBRATION_REPS, DEFAULT_CALIBRATION_SEED
from .errors import ConfigError
from .report import normal_cdf, upper_quantile
from .sampling import iid_sampler, rng_for_replication, sequence_noise
from .spectra import Spectrum

FAMILIES = ("quadratic", "kernel", "chisq", "cvm", "minimax")

_KERNELS = {
    "box": kernels_mod.box_kernel,
    "triangle": kernels_mod.triangle_kernel,
    "epanechnikov": kernels_mod.epanechnikov_kernel,
}

THETA_BASIS = {
    "quadratic": "cosine",
    "minimax": "cosine",
    "cvm": "cosine",
    "kernel": "complex-exponential",
    "chisq": "complex-exponential",
}

_REQUIRED = object()


def take(data: dict, key: str, kind: type = float, default=_REQUIRED, many: bool = False):
    """Pop ``key`` from a config dict as a ``kind``, or as a list of them
    when ``many``.  A key that is missing or null falls back to ``default``
    (a ConfigError when there is none).

    int and float mean a finite number (not a string or a boolean; an int
    must be integral, so 2.0 reads as 2 and 1.5 is an error); ``np.ndarray``
    means a list of finite numbers, read as a float array; any other kind is
    an isinstance check.
    """
    value = data.pop(key, None)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"config needs key {key!r}")
        return default
    if many:
        return [_typed(v, key, kind) for v in _listed(value, key)]
    return _typed(value, key, kind)


def _listed(value, key: str):
    if not isinstance(value, (list, np.ndarray)):
        raise ConfigError(f"{key!r} must be a list, got {value!r}")
    return value


def _typed(value, key: str, kind: type):
    if kind is np.ndarray:
        return np.array([_typed(v, key, float) for v in _listed(value, key)], dtype=float)
    if kind not in (int, float):
        if not isinstance(value, kind):
            raise ConfigError(f"{key!r} must be a {kind.__name__}, got {value!r}")
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigError(f"{key!r} must be a number, got {value!r}")
    if kind is int and isinstance(value, numbers.Integral):
        return int(value)
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{key!r} must be finite, got {value!r}")
    if kind is int:
        if not number.is_integer():
            raise ConfigError(f"{key!r} must be an integer, got {value!r}")
        return int(number)
    return number


def check_empty(data: dict, what: str) -> None:
    """Reject the keys left in ``data`` after every known one was taken."""
    if data:
        raise ConfigError(f"unknown {what} keys: {sorted(data)}")


# family -> param -> (kind, default); _REQUIRED marks a param without a default
_PARAMS = {
    "quadratic": {"gamma": (float, None), "j_max": (int, 4096), "kappa_sq": (np.ndarray, None)},
    "kernel": {"kernel": (str, _REQUIRED), "h": (float, _REQUIRED), "j_max": (int, None)},
    "chisq": {"k": (int, _REQUIRED)},
    "cvm": {
        "calibration_reps": (int, DEFAULT_CALIBRATION_REPS),
        "calibration_seed": (int, DEFAULT_CALIBRATION_SEED),
        "cache_dir": (str, None),
    },
    "minimax": {
        "s": (float, _REQUIRED),
        "p0": (float, _REQUIRED),
        "rho_n": (float, _REQUIRED),
        "j_max": (int, None),
        "lambdas": (np.ndarray, None),
        "least_favorable": (bool, False),
    },
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo run: a family, a truth, and replication bookkeeping.

    ``theta`` is the true signal/perturbation (None = the null).  Family
    specifics ride in ``params``; ``_PARAMS`` lists each family's keys, their
    types and defaults.  ``params`` is stored as given, so the config hash
    sees exactly what the caller wrote.
    """

    family: str
    n: int
    reps: int
    seed: int
    alpha: float = 0.05
    sigma: float = 1.0
    theta: Spectrum | None = None
    params: dict = field(default_factory=dict)

    def validate(self) -> dict:
        """Check the run; return its params typed, with defaults filled in."""
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        if self.n < 1 or self.reps < 1:
            raise ConfigError("n and reps must be positive integers")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 < self.sigma < math.inf:
            raise ConfigError("sigma must be positive and finite")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.theta is not None and self.theta.basis != THETA_BASIS[self.family]:
            raise ConfigError(
                f"family {self.family!r} expects theta in the {THETA_BASIS[self.family]!r} basis"
            )
        raw = dict(self.params)
        p = {key: take(raw, key, kind, default) for key, (kind, default) in _PARAMS[self.family].items()}
        check_empty(raw, f"{self.family} param")
        if p.get("j_max") is not None and p["j_max"] < 1:
            raise ConfigError("params.j_max must be a positive integer")
        if self.family == "quadratic":
            kq = p["kappa_sq"]
            if (kq is None) == (p["gamma"] is None):
                raise ConfigError("quadratic family needs exactly one of 'kappa_sq' or 'gamma'")
            if kq is not None and self.params.get("j_max") is not None:
                raise ConfigError("quadratic params.j_max applies only with 'gamma'; 'kappa_sq' sets its own length")
            if kq is not None and (kq.size == 0 or np.any(kq < 0)):
                raise ConfigError("kappa_sq must be a non-empty non-negative 1-d array")
            with np.errstate(over="ignore"):
                if kq is not None and not math.isfinite(float(np.sum(kq**2))):
                    raise ConfigError("kappa_sq is too large: the null variance sum(kappa_sq**2) overflows")
        elif self.family == "kernel":
            if p["kernel"] not in _KERNELS:
                raise ConfigError(f"kernel must be one of {sorted(_KERNELS)}")
            if not 0.0 < p["h"] < 1.0:
                raise ConfigError("kernel family needs a bandwidth h in (0, 1)")
        elif self.family == "chisq":
            if p["k"] < 2:
                raise ConfigError("chisq family needs k >= 2 cells")
        elif self.family == "minimax":
            if p["least_favorable"] and self.theta is not None:
                raise ConfigError("give either an explicit theta or least_favorable, not both")
        return p

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "alpha": self.alpha,
            "sigma": self.sigma,
            "theta": None if self.theta is None else self.theta.to_json_dict(),
            "params": dict(self.params),
        }

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        """Read every key through ``take``; a key left over is a ConfigError."""
        data = dict(data)
        theta = take(data, "theta", dict, default=None)
        config = ExperimentConfig(
            family=take(data, "family", str),
            n=take(data, "n", int),
            reps=take(data, "reps", int),
            seed=take(data, "seed", int),
            alpha=take(data, "alpha", default=0.05),
            sigma=take(data, "sigma", default=1.0),
            theta=None if theta is None else Spectrum.from_json_dict(theta),
            params=take(data, "params", dict, default={}),
        )
        check_empty(data, "experiment config")
        return config

    def config_hash(self) -> str:
        canon = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class MonteCarloSummary:
    experiment: str
    reps: int
    rejections: int
    seed: int
    wall_time_s: float

    @property
    def rate(self) -> float:
        return self.rejections / self.reps

    @property
    def std_err(self) -> float:
        return math.sqrt(self.rate * (1.0 - self.rate) / self.reps)

    def to_json_dict(self) -> dict:
        # wall_time_s stays out: outputs are byte-identical across machines
        return {
            "experiment": self.experiment,
            "reps": self.reps,
            "rejections": self.rejections,
            "rate": self.rate,
            "std_err": self.std_err,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class MonteCarloPlan:
    """Compiled run: count rejections over a replication range."""

    count: Callable[[int, int], int]
    predicted_type2: float | None
    details: dict


def _padded(theta: Spectrum | None, j_max: int, basis: str) -> np.ndarray:
    dtype = complex if basis == "complex-exponential" else float
    if theta is None:
        return np.zeros(j_max if basis != "complex-exponential" else j_max + 1, dtype=dtype)
    coeffs = np.asarray(theta.coeffs, dtype=dtype)
    size = j_max + 1 if basis == "complex-exponential" else j_max
    if coeffs.size > size:
        raise ConfigError(f"signal support {coeffs.size} exceeds the run's truncation {size}")
    out = np.zeros(size, dtype=dtype)
    out[: coeffs.size] = coeffs
    return out


def _counter(seed: int, draw, rejects) -> Callable[[int, int], int]:
    """The one replication loop: ``count(lo, hi)`` runs replications lo..hi-1,
    each drawing its data from its own generator and testing it."""

    def count(lo: int, hi: int) -> int:
        c = 0
        for rep in range(lo, hi):
            c += rejects(draw(rng_for_replication(seed, rep)))
        return c

    return count


def _sequence_draw(th: np.ndarray, n: int, sigma: float):
    """Observations y = theta + (sigma / sqrt(n)) xi, as ``draw_sequence_observation``."""
    noise_scale = sigma / math.sqrt(n)
    complex_ = np.iscomplexobj(th)
    return lambda rng: th + noise_scale * sequence_noise(rng, th.size, complex_)


def _iid_draw(theta: Spectrum | None, n: int):
    """The values of ``sample_iid(theta, n, rng)``, in an order that neither
    i.i.d. statistic reads (cell counts; CvM sorts).  Under an alternative the
    uniforms are sorted first: the inverse-CDF map is nondecreasing, so the
    values come out the same and sorted (to within an ulp where ``np.interp``
    rounds across a grid node), and on sorted input ``np.interp`` walks its
    grid instead of bisecting.  Uniform null draws have no inverse to speed up
    and stay unsorted."""
    if theta is None:
        return lambda rng: rng.random(n)
    inverse = iid_sampler(theta)
    return lambda rng: inverse(np.sort(rng.random(n)))


def _plan_quadratic(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    kq = p["kappa_sq"]
    if kq is None:
        kq = quad_mod.example_coefficients(cfg.n, p["gamma"], p["j_max"])
    th = _padded(cfg.theta, kq.size, "cosine")
    n, sigma, alpha = cfg.n, cfg.sigma, cfg.alpha
    center = quad_mod.null_center(kq, n, sigma)
    sd0 = quad_mod.null_sd(kq, n, sigma)
    x_alpha = upper_quantile(alpha)
    count = _counter(
        cfg.seed,
        _sequence_draw(th, n, sigma),
        lambda y: quad_mod.centered_energy(y, kq, center) / sd0 > x_alpha,
    )
    drift = quad_mod.drift(th, kq, n, sigma)
    predicted = quad_mod.predicted_type2_quadratic(th, kq, n, sigma, alpha)
    return MonteCarloPlan(count, predicted, {"j_max": kq.size, "drift": drift})


def _plan_minimax(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    design_args = (p["s"], p["p0"], p["rho_n"], cfg.n, cfg.sigma)
    if p["lambdas"] is not None:
        dsg = design_mod.solve_inverse_design(*design_args, p["lambdas"], j_max=p["j_max"])
    else:
        dsg = design_mod.solve_design(*design_args, j_max=p["j_max"])
    if p["least_favorable"]:
        th = design_mod.least_favorable(dsg).coeffs
        predicted = design_mod.predicted_type2_minimax(dsg, cfg.alpha)
        drift = math.sqrt(dsg.a_n / 2.0)
    else:
        th = _padded(cfg.theta, dsg.j_max, "cosine")
        mean_shift = dsg.null_mean() - dsg.c_n + quad_mod.noncentrality(th, dsg.kappa_j2, cfg.n, cfg.sigma)
        drift = mean_shift / dsg.null_sd()
        predicted = float(normal_cdf(upper_quantile(cfg.alpha) - drift))
    x_alpha = upper_quantile(cfg.alpha)
    prefactor = cfg.sigma**-4 * cfg.n**2
    kq, c_n, sd = dsg.kappa_j2, dsg.c_n, dsg.null_sd()
    count = _counter(
        cfg.seed,
        _sequence_draw(th, cfg.n, cfg.sigma),
        lambda y: (design_mod.energy_statistic(y, kq, prefactor) - c_n) / sd > x_alpha,
    )
    details = {"k_n": dsg.k_n, "a_n": dsg.a_n, "c_n": dsg.c_n, "j_max": dsg.j_max, "drift": drift}
    return MonteCarloPlan(count, predicted, details)


def _plan_kernel(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    kernel = _KERNELS[p["kernel"]]()
    h = p["h"]
    theta_support = 0 if cfg.theta is None else cfg.theta.coeffs.size - 1
    j_max = max(1024, theta_support) if p["j_max"] is None else p["j_max"]
    if theta_support > j_max:
        raise ConfigError(f"signal support {theta_support} exceeds the run's truncation {j_max}")
    w = kernels_mod.transform_values(kernel, h, j_max) ** 2
    th = _padded(cfg.theta, j_max, "complex-exponential")
    n, sigma, alpha = cfg.n, cfg.sigma, cfg.alpha
    scale, center = kernels_mod.studentization(n, h, sigma, kernels_mod.kernel_constants(kernel))
    x_alpha = upper_quantile(alpha)
    count = _counter(
        cfg.seed,
        _sequence_draw(th, n, sigma),
        lambda y: kernels_mod.studentize(kernels_mod.weighted_energy(y, w), scale, center) > x_alpha,
    )
    theta_spec = cfg.theta if cfg.theta is not None else Spectrum("complex-exponential", np.zeros(1, dtype=complex))
    predicted = kernels_mod.predicted_type2_kernel(theta_spec, kernel, h, n, sigma, alpha)
    t1n = kernels_mod.bias_functional(theta_spec, kernel, h)
    drift = scale * t1n
    return MonteCarloPlan(count, predicted, {"j_max": j_max, "h": h, "drift": drift, "t1n": t1n})


def _plan_chisq(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    k = p["k"]
    n, alpha = cfg.n, cfg.alpha
    x_alpha = upper_quantile(alpha)
    count = _counter(
        cfg.seed,
        _iid_draw(cfg.theta, n),
        lambda xs: chisq_mod.standardized_chisq(
            chisq_mod.statistic_from_counts(chisq_mod.binned(xs, k), n, k), k
        ) > x_alpha,
    )
    if cfg.theta is not None:
        t_f = chisq_mod.population_chisq_functional(cfg.theta, k, n)
        predicted = chisq_mod.predicted_type2_chisq(cfg.theta, k, n, alpha)
    else:
        t_f, predicted = 0.0, 1.0 - alpha
    return MonteCarloPlan(count, predicted, {"k": k, "drift": t_f / math.sqrt(2.0 * k)})


def _plan_cvm(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    calibration = cvm_mod.calibrate_cvm(
        cfg.n, reps=p["calibration_reps"], seed=p["calibration_seed"], cache_dir=p["cache_dir"]
    )
    critical = calibration.critical_value(cfg.alpha)
    n = cfg.n
    grid = cvm_mod.order_grid(n)
    # n * (omega^2 / n) is n T^2 as cvm_test forms it, rounding included
    count = _counter(
        cfg.seed,
        _iid_draw(cfg.theta, n),
        lambda xs: n * (cvm_mod.omega_sq(np.sort(xs), grid) / n) > critical,
    )
    margin = 0.0 if cfg.theta is None else n * cvm_mod.cvm_population(cfg.theta)
    details = {"critical_value": critical, "margin": margin, "calibration_reps": calibration.reps}
    return MonteCarloPlan(count, None, details)


_PLANNERS = {
    "quadratic": _plan_quadratic,
    "kernel": _plan_kernel,
    "chisq": _plan_chisq,
    "cvm": _plan_cvm,
    "minimax": _plan_minimax,
}


def build_plan(config: ExperimentConfig) -> MonteCarloPlan:
    params = config.validate()
    return _PLANNERS[config.family](config, params)


def run_monte_carlo(
    config: ExperimentConfig,
    threads: int = 1,
    plan: MonteCarloPlan | None = None,
) -> MonteCarloSummary:
    if plan is None:
        plan = build_plan(config)
    start = time.perf_counter()
    if threads <= 1 or config.reps < 4:
        rejections = plan.count(0, config.reps)
    else:
        pieces = min(4 * threads, config.reps)
        edges = np.linspace(0, config.reps, pieces + 1).astype(int)
        spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rejections = sum(pool.map(lambda span: plan.count(*span), spans))
    wall = time.perf_counter() - start
    return MonteCarloSummary(
        experiment=f"{config.family}-{config.config_hash()}",
        reps=config.reps,
        rejections=int(rejections),
        seed=config.seed,
        wall_time_s=wall,
    )
