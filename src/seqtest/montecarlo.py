"""Replication-seeded Monte Carlo engine over the five test families.

``FAMILIES`` holds one ``Family`` record per test family and is the only
table keyed by family name.  A config is checked in two places.
``ExperimentConfig.resolve`` makes the generic checks and returns a
``Resolved`` record: the config's hash, its typed params, and the lengths
its plan allocates (``Family.sizes``), each within ``errors.check_length``.
The first lines of each planner, which reads only that record, make its
family's cross-field checks, before any design solve, sampler build or CvM
calibration.  ``build_plan``, ``run_plans`` and ``run_monte_carlo`` resolve
each config once, and every config of a call before they plan any.

Every replication ``rep`` of a run draws from ``rng_for_replication(seed,
rep)``, so the stream a replication sees is a pure function of (seed, rep):
rejection counts are identical no matter how replications are sliced across
workers, and partial counts add associatively.

A plan is data: how many values a replication draws, the ``Generator``
method that draws them, a block statistic, a threshold, and whether the
statistic reads each row sorted.  Plans with the same seed, replication
count, draw count and draw method form a group; ``group_counts`` is the one
loop, one pass over the blocks of ``sampling.replication_blocks`` (each
replication's draws in a row of one reused buffer) in which every plan of
the group counts the rows above its threshold.  No scorer writes its block,
so every plan reads the block as drawn, or sorted once for all of them when
any plan reads sorted rows.  ``run_plans`` plans and scores each distinct
config once; ``run_monte_carlo`` runs a group of one through the same
counter.  A planner only wires: its block statistic is its family module's
(``EnergyForm.block_statistic`` for the quadratic, kernel and minimax plans,
``chisq.block_statistic``, ``cvm.block_statistic``), with the bits of that
module's ``*_test`` on a replication scored alone.

``threads`` is an upper bound on the pool width; ``pool_width`` sets the
width from the group.  A group of K plans whose K * ``draws`` values a
replication fall below ``POOL_MIN_DRAWS``, or that has fewer than 4
replications, runs on the calling thread, since the pool would cost more
than it saves; a larger one is split into spans over at most as many threads
as the CPUs the process may use (``concurrent.futures`` loads only then).
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from typing import Callable, get_args, get_origin

import numpy as np

from . import chisq as chisq_mod
from . import cvm as cvm_mod
from . import design as design_mod
from . import kernels as kernels_mod
from . import quadratic as quad_mod
from .cvm import DEFAULT_CALIBRATION_REPS, DEFAULT_CALIBRATION_SEED
from .errors import ConfigError, check_length, finite_real
from .report import normal_type2, upper_quantile
from .sampling import block_rows, check_noise_level, iid_sampler, replication_blocks
from .spectra import Spectrum

# a table's default for a key that must be given
REQUIRED = object()

# A plan whose replications each draw fewer values than this runs on one
# thread.  In the 1 -> 2 thread curve of BENCH_17.json, 2^14 is the least
# power of two at which every family ran faster at two threads than at one;
# a chi-square replication of 8192 uniforms did not, and at 1024 draws every
# family but CvM ran slower.
POOL_MIN_DRAWS = 2**14


def take(data: dict, key: str, kind: type = float, default=REQUIRED):
    """Pop ``key`` from a config dict as a ``kind``.  A key that is missing
    or null falls back to ``default`` (a ConfigError when it is
    ``REQUIRED``).

    int and float mean a finite number (not a string or a boolean; an int
    must be integral, so 2.0 reads as 2 and 1.5 is an error); ``list[kind]``
    means a list of them; ``np.ndarray`` means a list of finite numbers, read
    as a float array; any other kind is an isinstance check.
    """
    value = data.pop(key, None)
    if value is None:
        if default is REQUIRED:
            raise ConfigError(f"config needs key {key!r}")
        return default
    return _typed(value, key, kind)


def read_keys(data: dict, keys: dict, what: str) -> dict:
    """Pop every key of ``keys``, a table {key: (kind, default)}, from
    ``data`` through ``take``, in table order; a key left over in ``data``
    is a ConfigError that names the ``what`` keys."""
    values = {key: take(data, key, kind, default) for key, (kind, default) in keys.items()}
    if data:
        raise ConfigError(f"unknown {what} keys: {sorted(data)}")
    return values


def _typed(value, key: str, kind: type):
    if kind is int and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if kind in (int, float):
        number = finite_real(value, key)
        if kind is int:
            if not number.is_integer():
                raise ConfigError(f"{key!r} must be an integer, got {value!r}")
            return int(number)
        return number
    if get_origin(kind) is list:
        if not isinstance(value, (list, np.ndarray)):
            raise ConfigError(f"{key!r} must be a list, got {value!r}")
        item = get_args(kind)[0]
        return [_typed(v, key, item) for v in value]
    if kind is np.ndarray:
        return np.array(_typed(value, key, list[float]), dtype=float)
    if kind is Spectrum:
        return Spectrum.from_json_dict(_typed(value, key, dict))
    if not isinstance(value, kind):
        raise ConfigError(f"{key!r} must be a {kind.__name__}, got {value!r}")
    return value


# ExperimentConfig's JSON keys in reading order, key -> (kind, default); an
# optional key reads as None when absent and then takes the field's default
CONFIG_KEYS = {
    "theta": (Spectrum, None), "family": (str, REQUIRED), "n": (int, REQUIRED), "reps": (int, REQUIRED),
    "seed": (int, REQUIRED), "alpha": (float, None), "sigma": (float, None), "params": (dict, None),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One Monte Carlo run: a family, a truth, and replication bookkeeping.

    ``theta`` is the true signal/perturbation (None = the null).  Family
    specifics ride in ``params``; ``FAMILIES[family].params`` lists their
    keys, types and defaults.  ``params`` is stored as given, so the config hash
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

    def resolve(self) -> Resolved:
        """Make the generic checks and return the ``Resolved`` record.  The
        int and float keys of ``CONFIG_KEYS`` must be ints (not bools) and
        finite reals, as ``take`` reads them from JSON, theta a Spectrum or
        None, and each of the family's ``sizes`` within ``check_length``.
        The family's cross-field checks run in its planner, so only a plan
        build makes every check."""
        family = FAMILIES.get(self.family) if isinstance(self.family, str) else None
        if family is None:
            raise ConfigError(f"unknown family {self.family!r}; expected one of {tuple(FAMILIES)}")
        for key, (kind, _) in CONFIG_KEYS.items():
            value = getattr(self, key)
            if kind is int and (isinstance(value, bool) or not isinstance(value, int)):
                raise ConfigError(f"{key!r} must be an integer, got {value!r}")
            if kind in (int, float):
                finite_real(value, key)
        if not isinstance(self.theta, (Spectrum, type(None))):
            raise ConfigError(f"'theta' must be a Spectrum, got {self.theta!r}")
        if not isinstance(self.params, dict):
            raise ConfigError(f"'params' must be a dict, got {self.params!r}")
        if self.n < 1 or self.reps < 1:
            raise ConfigError("n and reps must be positive integers")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        check_noise_level(self.n, self.sigma)
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.theta is not None and self.theta.basis != family.basis:
            raise ConfigError(f"family {self.family!r} expects theta in the {family.basis!r} basis")
        p = read_keys(dict(self.params), family.params, f"{self.family} param")
        sizes = family.sizes(self, p)
        for key, length in sizes.items():
            if length is not None:
                check_length(key, length)
        return Resolved(self, self.config_hash(), p, sizes)

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["theta"] = None if self.theta is None else self.theta.to_json_dict()
        out["params"] = dict(self.params)
        return out

    @staticmethod
    def from_json_dict(data: dict) -> "ExperimentConfig":
        """Read every key of ``CONFIG_KEYS`` through ``take``; a key left
        over is a ConfigError, and an optional key left out takes the
        field's default."""
        values = read_keys(dict(data), CONFIG_KEYS, "experiment config")
        return ExperimentConfig(**{key: value for key, value in values.items() if value is not None})

    def config_hash(self) -> str:
        """``canonical_hash`` of the config JSON."""
        return canonical_hash(self.to_json_dict())


@dataclass(frozen=True)
class Resolved:
    """A checked config: its ``config_hash``, its params typed with their
    defaults filled in, and ``Family.sizes``, the lengths its plan allocates."""

    config: ExperimentConfig
    digest: str
    params: dict
    sizes: dict


def canonical_hash(data: dict) -> str:
    """The first 12 hex digits of the sha256 of ``data`` as canonical JSON;
    a numpy scalar or array in it hashes as the Python numbers it holds."""
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"), default=_json_numpy)
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _json_numpy(value):
    """``json.dumps``'s fallback: a numpy scalar or array as its Python value."""
    if isinstance(value, (np.generic, np.ndarray)):
        return value.tolist()
    return json.JSONEncoder().default(value)  # the usual TypeError


@dataclass(frozen=True)
class MonteCarloSummary:
    """The rejections of a run; ``rate`` and ``std_err`` follow from them."""

    experiment: str
    reps: int
    rejections: int
    rate: float = field(init=False)
    std_err: float = field(init=False)
    seed: int

    def __post_init__(self):
        rate = self.rejections / self.reps
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "std_err", math.sqrt(rate * (1.0 - rate) / self.reps))

    def to_json_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class MonteCarloPlan:
    """Compiled run of ``config``.  Replication r draws ``draws`` values,
    ``draw(rng, out=row)`` with the generator of (``config.seed``, r), into a
    row of a block of ``sampling.replication_blocks``; ``score`` maps a block
    to one statistic a row, and a replication rejects when its statistic
    exceeds ``threshold``.  ``draws`` also sets the pool width.  ``score``
    never writes its block, and reads each row sorted when ``sorted_rows``."""

    config: ExperimentConfig
    draws: int
    draw: Callable
    score: Callable[[np.ndarray], np.ndarray]
    threshold: float
    predicted_type2: float | None
    details: dict
    sorted_rows: bool


def group_counts(plans: list[MonteCarloPlan], lo: int, hi: int) -> np.ndarray:
    """The rejections of each plan among replications lo..hi-1, in one pass
    over the blocks of the plans' common seed, ``draws`` and ``draw``.  No
    scorer writes its block, so every plan scores the drawn block itself,
    sorted along its rows once when any plan reads sorted rows (a plan that
    does not, the chi-square null, bins a row in any order)."""
    head = plans[0]
    counts = np.zeros(len(plans), dtype=np.int64)
    sort = any(plan.sorted_rows for plan in plans)
    for block in replication_blocks(head.config.seed, lo, hi, head.draws, head.draw):
        if sort:
            block.sort(axis=1)
        for k, plan in enumerate(plans):
            counts[k] += np.count_nonzero(plan.score(block) > plan.threshold)
    return counts


def _padded(theta: Spectrum | None, size: int, dtype: type) -> np.ndarray:
    out = np.zeros(size, dtype)
    if theta is not None:
        quad_mod.check_support(theta.coeffs, size)
        out[: theta.coeffs.size] = theta.coeffs
    return out


def _plan_energy(cfg: ExperimentConfig, form: quad_mod.EnergyForm, th: np.ndarray, details: dict) -> MonteCarloPlan:
    """The plan of a sequence-model family: draw y = theta + noise and reject
    when the family's standardized energy exceeds x_alpha.  The prediction
    reads ``form.drift(theta)``; a drift that overflows a float is refused,
    since the normal prediction would be meaningless."""
    with np.errstate(over="ignore", invalid="ignore"):
        drift = details["drift"] = form.drift(th)
    if not math.isfinite(drift):
        raise ConfigError(f"{cfg.family} plan: drift={drift}; theta, n or 1/sigma is too large for a float")
    score = form.block_statistic(th, cfg.n, cfg.sigma)
    return MonteCarloPlan(cfg, form.weights.size, np.random.Generator.standard_normal, score,
                          upper_quantile(cfg.alpha), normal_type2(drift, cfg.alpha), details, False)


def _plan_quadratic(r: Resolved) -> MonteCarloPlan:
    cfg, p, j_max = r.config, r.params, r.sizes["j_max"]
    kq = p["kappa_sq"]
    if (kq is None) == (p["gamma"] is None):
        raise ConfigError("quadratic family needs exactly one of 'kappa_sq' or 'gamma'")
    if kq is not None and cfg.params.get("j_max") is not None:
        raise ConfigError("quadratic params.j_max applies only with 'gamma'; 'kappa_sq' sets its own length")
    if kq is not None and np.any(kq < 0):  # an empty one fails the size rule
        raise ConfigError("kappa_sq must be a non-negative 1-d array")
    if kq is None:
        kq = quad_mod.example_coefficients(cfg.n, p["gamma"], j_max)
    form = quad_mod.energy_form(kq, cfg.n, cfg.sigma)
    return _plan_energy(cfg, form, _padded(cfg.theta, j_max, float), {"j_max": j_max})


def _plan_minimax(r: Resolved) -> MonteCarloPlan:
    cfg, p = r.config, r.params
    if p["least_favorable"] and cfg.theta is not None:
        raise ConfigError("give either an explicit theta or least_favorable, not both")
    dsg = design_mod.solve(p["s"], p["p0"], p["rho_n"], cfg.n, cfg.sigma, p["lambdas"], r.sizes["j_max"])
    th = design_mod.least_favorable(dsg).coeffs if p["least_favorable"] else _padded(cfg.theta, dsg.j_max, float)
    details = {"k_n": dsg.k_n, "a_n": dsg.a_n, "c_n": dsg.c_n, "j_max": dsg.j_max}
    return _plan_energy(cfg, design_mod.energy_form(dsg), th, details)


def _kernel_sizes(cfg: ExperimentConfig, p: dict) -> dict:
    """j_max, by default the larger of 1024 and theta's support, and the 2 (j_max + 1) normals a replication draws."""
    j_max = p["j_max"] if p["j_max"] is not None else max(1024, 0 if cfg.theta is None else cfg.theta.coeffs.size - 1)
    return {"j_max": j_max, "normals": 2 * (j_max + 1)}


def _plan_kernel(r: Resolved) -> MonteCarloPlan:
    cfg, p, j_max = r.config, r.params, r.sizes["j_max"]
    if p["kernel"] not in kernels_mod.KERNELS:
        raise ConfigError(f"kernel must be one of {sorted(kernels_mod.KERNELS)}")
    form = kernels_mod.truncated_form(kernels_mod.KERNELS[p["kernel"]], p["h"], j_max, cfg.n, cfg.sigma)
    return _plan_energy(cfg, form, _padded(cfg.theta, j_max + 1, complex), {"j_max": j_max, "h": p["h"]})


def _inverse(theta: Spectrum | None):
    """``iid_sampler(theta)``, or None for a zero f, whose inverse CDF (u - a) + a past each node a is u."""
    return iid_sampler(theta) if theta is not None and np.any(theta.coeffs) else None


def _check_no_noise_level(cfg: ExperimentConfig) -> None:
    """Refuse a ``sigma`` other than 1: an i.i.d. sample has no noise level."""
    if cfg.sigma != 1.0:
        raise ConfigError(f"{cfg.family} family draws an i.i.d. sample, which has no noise level; "
                          f"'sigma' must be 1, got {cfg.sigma!r}")


def _plan_chisq(r: Resolved) -> MonteCarloPlan:
    """A zero perturbation bins and predicts as the null (drift 0, no
    warning); an alternative reads each row sorted.  A ``sigma`` other than 1
    is refused first, as ``_plan_cvm`` refuses it."""
    cfg, k, n = r.config, r.params["k"], r.sizes["n"]
    _check_no_noise_level(cfg)
    if k < 2:
        raise ConfigError("chisq family needs k >= 2 cells")
    inverse = _inverse(cfg.theta)
    score = chisq_mod.block_statistic(n, k, inverse)
    drift = 0.0 if inverse is None else chisq_mod.chisq_drift(cfg.theta, k, n)
    return MonteCarloPlan(cfg, n, np.random.Generator.random, score, upper_quantile(cfg.alpha),
                          normal_type2(drift, cfg.alpha), {"k": k, "drift": drift}, inverse is not None)


def _plan_cvm(r: Resolved) -> MonteCarloPlan:
    """Refuses a ``sigma`` other than 1 before it calibrates its null table."""
    cfg, p, n = r.config, r.params, r.sizes["n"]
    _check_no_noise_level(cfg)
    if p["calibration_seed"] < 0:
        raise ConfigError("params.calibration_seed must be a non-negative integer")
    calibration = cvm_mod.calibrate_cvm(
        n, reps=r.sizes["calibration_reps"], seed=p["calibration_seed"], cache_dir=p["cache_dir"]
    )
    critical = calibration.critical_value(cfg.alpha)
    score = cvm_mod.block_statistic(n, _inverse(cfg.theta))
    margin = 0.0 if cfg.theta is None else n * cvm_mod.cvm_population(cfg.theta)
    details = {"critical_value": critical, "margin": margin, "calibration_reps": calibration.reps}
    return MonteCarloPlan(cfg, n, np.random.Generator.random, score, critical, None, details, True)


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


def _quadratic_rate(s: float) -> tuple[float, float]:
    r = 2.0 * s / (1.0 + 4.0 * s)
    return r, 2.0 - 4.0 * r


def _tuned_kernel(rates: CalibrationRates, n: int, j_max: int) -> dict:
    """A box kernel at h = n^-(tuning exponent), on ``kernels.least_j_max``."""
    h = float(n**-rates.tuning_exponent)
    return {"kernel": "box", "h": h, "j_max": kernels_mod.least_j_max(kernels_mod.KERNELS["box"], h, j_max)}


@dataclass(frozen=True)
class Family:
    """One test family.  ``basis`` is the basis of its theta; ``params`` maps
    each param to (kind, default), ``REQUIRED`` marking one without a
    default; ``sizes(config, params)`` gives each length its plan allocates,
    {name: length}, None where the planner's solver sets and checks its own;
    ``plan(resolved)`` checks the params' cross-field rules, then builds the
    plan from the ``Resolved`` record.  ``rate(s)`` gives (r, tuning
    exponent), and ``tuned(rates, n, j_max)`` the params of a
    consistency-experiment run, whose j_max is at least the given one; either
    is None where the family has none."""

    basis: str
    params: dict
    sizes: Callable[[ExperimentConfig, dict], dict]
    plan: Callable[[Resolved], MonteCarloPlan]
    rate: Callable[[float], tuple[float, float | None]] | None = None
    tuned: Callable[[CalibrationRates, int, int], dict] | None = None


FAMILIES = {
    "quadratic": Family(
        "cosine", {"gamma": (float, None), "j_max": (int, 4096), "kappa_sq": (np.ndarray, None)},
        lambda cfg, p: {"j_max": p["j_max"] if p["kappa_sq"] is None else p["kappa_sq"].size},
        _plan_quadratic, _quadratic_rate,
        lambda rates, n, j_max: {"gamma": (1.0 + 4.0 * rates.s) / 2.0, "j_max": j_max},
    ),
    "kernel": Family(
        "complex-exponential", {"kernel": (str, REQUIRED), "h": (float, REQUIRED), "j_max": (int, None)},
        _kernel_sizes, _plan_kernel, _quadratic_rate,
        _tuned_kernel,
    ),
    "chisq": Family(
        "complex-exponential", {"k": (int, REQUIRED)},
        # k counts for each row of a block of n uniforms; a k below 1 stays as it is, for the size rule to refuse
        lambda cfg, p: {"n": cfg.n, "k": max(p["k"], p["k"] * block_rows(cfg.reps, cfg.n))},
        _plan_chisq, _quadratic_rate,
        lambda rates, n, j_max: {"k": max(2, round(n**rates.tuning_exponent))},
    ),
    "cvm": Family("cosine", {
        "calibration_reps": (int, DEFAULT_CALIBRATION_REPS),
        "calibration_seed": (int, DEFAULT_CALIBRATION_SEED),
        "cache_dir": (str, None),
    }, lambda cfg, p: {"n": cfg.n, "calibration_reps": p["calibration_reps"]}, _plan_cvm,
        lambda s: (s / (2.0 + 2.0 * s), None)),
    "minimax": Family("cosine", {
        "s": (float, REQUIRED), "p0": (float, REQUIRED), "rho_n": (float, REQUIRED), "j_max": (int, None),
        "lambdas": (np.ndarray, None), "least_favorable": (bool, False),
    }, lambda cfg, p: {"j_max": p["j_max"]}, _plan_minimax),
}


def calibration_rates(s: float, family: str) -> CalibrationRates:
    if s <= 0:
        raise ConfigError("smoothness index s must be positive")
    if family not in FAMILIES:
        raise ConfigError(f"unknown family {family!r}")
    if FAMILIES[family].rate is None:
        raise ConfigError(f"family {family!r} has no separation rate")
    r, tuning_exponent = FAMILIES[family].rate(s)
    return CalibrationRates(family=family, s=s, r=r, tuning_exponent=tuning_exponent)


def build_plan(config: ExperimentConfig) -> MonteCarloPlan:
    """Make every check of ``config`` (``resolve``, then the planner's own
    first lines) and compile its plan."""
    return _plan(config.resolve())


def _plan(resolved: Resolved) -> MonteCarloPlan:
    return FAMILIES[resolved.config.family].plan(resolved)


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def pool_width(draws: int, reps: int, threads: int) -> int:
    """Worker threads for ``reps`` replications of ``draws`` values each, at
    most ``threads``: one below ``POOL_MIN_DRAWS`` draws or 4 replications,
    else ``threads`` capped at the usable CPUs and at the replications."""
    if threads <= 1 or draws < POOL_MIN_DRAWS or reps < 4:
        return 1
    return min(threads, _usable_cpus(), reps)


def _summaries(plans: dict[str, MonteCarloPlan], threads: int) -> dict[str, MonteCarloSummary]:
    """The summary of each plan {``config_hash`` of its config: plan}, by hash.
    Plans that share (seed, reps, draws, draw) make one pass over the stream
    (``group_counts``), and each counts what it counts alone.  ``pool_width``
    sets a group's width from its K plans' K * draws values a replication;
    each span counts all K plans."""
    groups: dict[tuple, list[str]] = {}
    for digest, plan in plans.items():
        groups.setdefault((plan.config.seed, plan.config.reps, plan.draws, plan.draw), []).append(digest)
    summaries = {}
    for (seed, reps, draws, _), members in groups.items():
        group = [plans[digest] for digest in members]
        width = pool_width(len(group) * draws, reps, threads)
        if width == 1:
            counts = group_counts(group, 0, reps)
        else:
            from concurrent.futures import ThreadPoolExecutor  # here, since most runs never reach the pool
            edges = np.linspace(0, reps, min(4 * width, reps) + 1).astype(int)
            spans = [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]
            with ThreadPoolExecutor(max_workers=width) as pool:
                counts = sum(pool.map(lambda span: group_counts(group, *span), spans))
        for digest, plan, count in zip(members, group, counts):
            summaries[digest] = MonteCarloSummary(f"{plan.config.family}-{digest}", reps, int(count), seed)
    return summaries


def run_plans(configs: list[ExperimentConfig], threads: int = 1) -> list[tuple[MonteCarloPlan, MonteCarloSummary]]:
    """Each config's plan and summary, in config order: every config is
    resolved, then ``_plan`` runs once for each distinct digest, in config
    order, so a repeated config is planned and scored once, and the plans
    run in ``_summaries``."""
    resolved = [config.resolve() for config in configs]
    plans: dict[str, MonteCarloPlan] = {}
    for r in resolved:
        if r.digest not in plans:
            plans[r.digest] = _plan(r)
    summaries = _summaries(plans, threads)
    return [(plans[r.digest], summaries[r.digest]) for r in resolved]


def run_monte_carlo(
    config: ExperimentConfig,
    threads: int = 1,
    plan: MonteCarloPlan | None = None,
) -> MonteCarloSummary:
    """Count the rejections of ``config.reps`` replications, as a group of
    one.  ``threads`` is an upper bound on the pool width, which
    ``pool_width`` sets from the plan: the count, and so the summary, is the
    same at any width.  A ``plan`` given must be ``build_plan``'s of this
    config (the same object, or one of the same ``config_hash``)."""
    resolved = config.resolve()
    if plan is None:
        plan = _plan(resolved)
    elif plan.config is not config and plan.config.config_hash() != resolved.digest:
        raise ConfigError(f"the plan was built from config {plan.config.config_hash()}, not {resolved.digest}")
    return _summaries({resolved.digest: plan}, threads)[resolved.digest]
