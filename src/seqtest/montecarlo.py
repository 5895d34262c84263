"""Replication-seeded Monte Carlo engine over the five test families.

Every replication ``rep`` of a run draws from ``rng_for_replication(seed,
rep)``, so the stream a replication sees is a pure function of (seed, rep):
rejection counts are identical no matter how replications are sliced across
workers, and partial counts add associatively.  The loop takes those
generators from ``replication_rngs``, which seeds a block of replications at
once and yields the same streams as that scalar reference.  Wall time is
measured but kept out of every serialized output for byte-reproducibility.

Each family's plan supplies only how a replication draws its data and how
the data is tested, and one loop (``_counter``) counts the rejections.
Every rejection rule calls the same statistic core as its ``*_test``
function.  The quadratic, kernel and minimax plans differ only in the
``EnergyForm``, theta and drift they build, and share one rejection rule
(``_plan_energy``).  Sequence and CvM draws call the same sampling functions as
``draw_sequence_observation``/``sample_iid``.  A chi-square replication
reads its sample only through its cell counts: it draws the uniforms that
``sample_iid`` draws, and under an alternative counts them, sorted, against
cell thresholds fixed when the plan is built, with no point inverted.
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
from .errors import ConfigError, finite_real
from .report import normal_type2, upper_quantile
from .sampling import check_noise_level, iid_sampler, replication_rngs, sequence_noise
from .spectra import Spectrum

FAMILIES = ("quadratic", "kernel", "chisq", "cvm", "minimax")

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
    if kind is int and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    number = finite_real(value, key)
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
        check_noise_level(self.n, self.sigma)
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
        elif self.family == "kernel":
            if p["kernel"] not in kernels_mod.KERNELS:
                raise ConfigError(f"kernel must be one of {sorted(kernels_mod.KERNELS)}")
            kernels_mod.check_bandwidth(kernels_mod.KERNELS[p["kernel"]], p["h"])
        elif self.family == "chisq":
            if p["k"] < 2:
                raise ConfigError("chisq family needs k >= 2 cells")
        elif self.family == "cvm":
            if p["calibration_seed"] < 0:
                raise ConfigError("params.calibration_seed must be a non-negative integer")
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
        for rng in replication_rngs(seed, lo, hi):
            c += rejects(draw(rng))
        return c

    return count


def _sequence_draw(th: np.ndarray, n: int, sigma: float):
    """Observations y = theta + (sigma / sqrt(n)) xi, as ``draw_sequence_observation``."""
    noise_scale = sigma / math.sqrt(n)
    complex_ = np.iscomplexobj(th)
    return lambda rng: th + noise_scale * sequence_noise(rng, th.size, complex_)


def _iid_draw(theta: Spectrum | None, n: int):
    """The values of ``sample_iid(theta, n, rng)``, for the CvM plan, in an
    order its statistic does not read (it sorts).  Under an alternative the
    uniforms are sorted first: the inverse-CDF map is nondecreasing, so the
    values come out the same and sorted (to within an ulp where ``np.interp``
    rounds across a grid node), and on sorted input ``np.interp`` walks its
    grid instead of bisecting.  Uniform null draws have no inverse to speed up
    and stay unsorted."""
    if theta is None:
        return lambda rng: rng.random(n)
    inverse = iid_sampler(theta)
    return lambda rng: inverse(np.sort(rng.random(n)))


def _plan_energy(cfg: ExperimentConfig, form: quad_mod.EnergyForm, th: np.ndarray, details: dict) -> MonteCarloPlan:
    """The plan of a sequence-model family: draw y = theta + noise and reject
    when the family's standardized energy exceeds x_alpha.  A drift that
    overflows a float is refused: the normal prediction would be meaningless."""
    drift = details["drift"]
    if not math.isfinite(drift):
        raise ConfigError(f"{cfg.family} plan: drift={drift}; theta, n or 1/sigma is too large for a float")
    x_alpha = upper_quantile(cfg.alpha)
    count = _counter(cfg.seed, _sequence_draw(th, cfg.n, cfg.sigma), lambda y: form.standardized(y) > x_alpha)
    return MonteCarloPlan(count, normal_type2(drift, cfg.alpha), details)


def _plan_quadratic(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    kq = p["kappa_sq"]
    if kq is None:
        kq = quad_mod.example_coefficients(cfg.n, p["gamma"], p["j_max"])
    form = quad_mod.energy_form(kq, cfg.n, cfg.sigma)
    th = _padded(cfg.theta, kq.size, "cosine")
    with np.errstate(over="ignore", invalid="ignore"):
        drift = quad_mod.drift(th, kq, cfg.n, cfg.sigma)
    return _plan_energy(cfg, form, th, {"j_max": kq.size, "drift": drift})


def _plan_minimax(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    design_args = (p["s"], p["p0"], p["rho_n"], cfg.n, cfg.sigma)
    if p["lambdas"] is not None:
        dsg = design_mod.solve_inverse_design(*design_args, p["lambdas"], j_max=p["j_max"])
    else:
        dsg = design_mod.solve_design(*design_args, j_max=p["j_max"])
    form = design_mod.energy_form(dsg)
    if p["least_favorable"]:
        th = design_mod.least_favorable(dsg).coeffs
        drift = design_mod.minimax_drift(dsg)
    else:
        th = _padded(cfg.theta, dsg.j_max, "cosine")
        with np.errstate(over="ignore", invalid="ignore"):
            drift = (dsg.null_mean() - dsg.c_n + quad_mod.noncentrality(th, dsg.kappa_j2, cfg.n, cfg.sigma)) / form.sd
    details = {"k_n": dsg.k_n, "a_n": dsg.a_n, "c_n": dsg.c_n, "j_max": dsg.j_max, "drift": drift}
    return _plan_energy(cfg, form, th, details)


def _plan_kernel(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    kernel = kernels_mod.KERNELS[p["kernel"]]
    h = p["h"]
    theta_support = 0 if cfg.theta is None else cfg.theta.coeffs.size - 1
    j_max = max(1024, theta_support) if p["j_max"] is None else p["j_max"]
    if theta_support > j_max:
        raise ConfigError(f"signal support {theta_support} exceeds the run's truncation {j_max}")
    form = kernels_mod.energy_form(kernel, h, j_max, cfg.n, cfg.sigma)
    th = _padded(cfg.theta, j_max, "complex-exponential")
    t1n = 0.0 if cfg.theta is None else kernels_mod.bias_functional(cfg.theta, kernel, h)
    with np.errstate(over="ignore", invalid="ignore"):
        drift = kernels_mod.studentization_scale(kernel, h, cfg.n, cfg.sigma) * t1n
    return _plan_energy(cfg, form, th, {"j_max": j_max, "h": h, "drift": drift, "t1n": t1n})


def _chisq_counts(theta: Spectrum | None, n: int, k: int):
    """The cell counts of ``sample_iid(theta, n, rng)``.  Under an alternative
    the uniforms are sorted and counted against plan-time cell thresholds
    (``chisq.cell_thresholds``), so no point is inverted.  Each call allocates
    its own arrays: threads share the plan.  Uniform null draws are binned
    directly, which is faster than sorting them."""
    if theta is None:
        return lambda rng: chisq_mod.binned(rng.random(n), k)
    thresholds = chisq_mod.cell_thresholds(iid_sampler(theta), k)
    return lambda rng: np.diff(np.searchsorted(np.sort(rng.random(n)), thresholds))


def _plan_chisq(cfg: ExperimentConfig, p: dict) -> MonteCarloPlan:
    k = p["k"]
    n, alpha = cfg.n, cfg.alpha
    x_alpha = upper_quantile(alpha)
    count = _counter(
        cfg.seed,
        _chisq_counts(cfg.theta, n, k),
        lambda counts: chisq_mod.standardized_chisq(chisq_mod.statistic_from_counts(counts, n, k), k) > x_alpha,
    )
    drift = 0.0 if cfg.theta is None else chisq_mod.chisq_drift(cfg.theta, k, n)
    return MonteCarloPlan(count, normal_type2(drift, alpha), {"k": k, "drift": drift})


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
