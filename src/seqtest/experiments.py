"""Experiment drivers: power curves, the consistency boundary, the
projection decomposition, and prior membership — plus the CSV/JSON writers.

Every row carries the resolved seed and a 12-hex config hash so any line of
any table can be replayed exactly.  CSV files start with ``# schema=v1`` and
format floats with ``repr``, which is shortest-roundtrip and platform-stable;
together with the replication-seeded engine this makes outputs byte-identical
across thread counts.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np

from . import design as design_mod
from .errors import ConfigError, NumericError
from .montecarlo import THETA_BASIS, ExperimentConfig, MonteCarloPlan, build_plan, run_monte_carlo
from .spectra import (
    FAMILIES_QUADRATIC_RATE, BesovBall, CalibrationRates, Spectrum,
    calibration_rates, make_tail_alternative, project_besov,
)

POWER_CURVE_FIELDS = (
    "scale", "power", "empirical_type2", "predicted_type2", "gap",
    "std_err", "reps", "seed", "config_hash",
)
CONSISTENCY_FIELDS = (
    "C", "m", "n", "power", "predicted_drift", "std_err", "reps", "seed", "config_hash",
)
MEMBERSHIP_FIELDS = ("draws", "members", "rate", "std_err", "delta", "seed")
DECOMPOSITION_FIELDS = (
    "gamma", "power_f", "power_projected", "power_residual", "gap",
    "std_err_f", "std_err_projected", "std_err_residual",
    "reps", "seed", "config_hash",
)


def _scaled(theta: Spectrum, scale: float) -> Spectrum:
    return Spectrum(theta.basis, np.asarray(theta.coeffs) * float(scale))


def _run(config: ExperimentConfig, threads: int) -> tuple[MonteCarloPlan, float, float]:
    plan = build_plan(config)
    summary = run_monte_carlo(config, threads=threads, plan=plan)
    return plan, summary.rate, summary.std_err


def power_curve(config: ExperimentConfig, scales, threads: int = 1) -> list[dict]:
    """Empirical vs. predicted type II error along a signal-scale schedule."""
    if config.theta is None:
        raise ConfigError("power_curve needs a base signal to scale")
    rows = []
    for scale in scales:
        cfg = ExperimentConfig(
            family=config.family, n=config.n, reps=config.reps, seed=config.seed,
            alpha=config.alpha, sigma=config.sigma,
            theta=_scaled(config.theta, scale), params=config.params,
        )
        plan, rate, std_err = _run(cfg, threads)
        predicted = plan.predicted_type2
        empirical_beta = 1.0 - rate
        rows.append({
            "scale": float(scale),
            "power": rate,
            "empirical_type2": empirical_beta,
            "predicted_type2": predicted,
            "gap": None if predicted is None else abs(empirical_beta - predicted),
            "std_err": std_err,
            "reps": cfg.reps,
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
        })
    return rows


def _consistency_params(rates: CalibrationRates, n: int, j_max: int) -> dict:
    e = rates.tuning_exponent
    if rates.family == "quadratic":
        return {"gamma": (1.0 + 4.0 * rates.s) / 2.0, "j_max": j_max}
    if rates.family == "kernel":
        return {"kernel": "box", "h": float(n**-e), "j_max": j_max}
    return {"k": max(2, round(n**e))}


def consistency_experiment(
    family: str,
    s: float,
    c_schedule,
    n_schedule,
    reps: int,
    seed: int,
    alpha: float = 0.05,
    threads: int = 1,
    norm_scale: float = math.sqrt(8.0),
) -> list[dict]:
    """Power along a schedule of ball radii C with the signal norm pinned.

    Each point places a tail block at frequencies m..2m with m^{2s} * energy
    = C and total energy (norm_scale * n^{-r})^2, so m grows like
    C^{1/(2s)}: a larger radius pushes the same amount of signal to higher
    frequencies, where the test's weights no longer see it.
    """
    if family not in FAMILIES_QUADRATIC_RATE:
        raise ConfigError(
            "the consistency boundary experiment covers the quadratic, kernel, and chisq families"
        )
    c_values = [float(c) for c in c_schedule]
    if len(c_values) < 2 or any(b <= a for a, b in zip(c_values, c_values[1:])):
        raise ConfigError("C schedule must be increasing with at least two points")
    if c_values[0] <= 0 or norm_scale <= 0:
        raise ConfigError("C values and norm_scale must be positive")
    if isinstance(n_schedule, (int, np.integer)):
        n_values = [int(n_schedule)] * len(c_values)
    else:
        n_values = [int(v) for v in n_schedule]
        if len(n_values) != len(c_values):
            raise ConfigError("n schedule must be a scalar or match the C schedule length")
    if min(n_values) < 1:
        raise ConfigError("sample sizes n must be positive")
    rates = calibration_rates(s, family)
    basis = THETA_BASIS[family]
    rows = []
    for c_val, n in zip(c_values, n_values):
        energy = (norm_scale * n**-rates.r) ** 2
        m = round((c_val / energy) ** (1.0 / (2.0 * s)))
        if m < 1:
            raise ConfigError(f"schedule infeasible: C={c_val} needs block start m >= 1")
        theta = make_tail_alternative(m, c_val, s, basis=basis)
        j_max = max(1024, 2 * m + 8)
        cfg = ExperimentConfig(
            family=family, n=n, reps=reps, seed=seed, alpha=alpha,
            theta=theta, params=_consistency_params(rates, n, j_max),
        )
        plan, rate, std_err = _run(cfg, threads)
        rows.append({
            "C": c_val,
            "m": m,
            "n": n,
            "power": rate,
            "predicted_drift": plan.details["drift"],
            "std_err": std_err,
            "reps": reps,
            "seed": seed,
            "config_hash": cfg.config_hash(),
        })
    return rows


def maxiset_decomposition_experiment(
    config: ExperimentConfig,
    s: float,
    gammas,
    threads: int = 1,
) -> list[dict]:
    """Rejection rates of f, its ball projection, and the residual, per gamma.

    The gamma-ball is the smoothness body with radius budget gamma^2.  For the
    density families each of the three perturbations is checked when its
    plan is built: the sampler refuses a 1 + f that is not bounded away from
    zero, a configuration error, not a numeric one.
    """
    if config.theta is None:
        raise ConfigError("decomposition needs the signal f to project")
    g_values = [float(g) for g in gammas]
    if len(g_values) < 2 or any(b <= a for a, b in zip(g_values, g_values[1:])):
        raise ConfigError("gamma schedule must be increasing with at least two points")
    f_n = config.theta
    rows = []
    for gamma in g_values:
        ball = BesovBall(s, gamma**2)
        f_proj = project_besov(f_n, ball)
        residual = Spectrum(f_n.basis, np.asarray(f_n.coeffs) - np.asarray(f_proj.coeffs))
        triple = {}
        for label, spec in (("f", f_n), ("projected", f_proj), ("residual", residual)):
            cfg = ExperimentConfig(
                family=config.family, n=config.n, reps=config.reps, seed=config.seed,
                alpha=config.alpha, sigma=config.sigma, theta=spec, params=config.params,
            )
            _, rate, std_err = _run(cfg, threads)
            triple[label] = (rate, std_err, cfg.config_hash())
        rows.append({
            "gamma": gamma,
            "power_f": triple["f"][0],
            "power_projected": triple["projected"][0],
            "power_residual": triple["residual"][0],
            "gap": abs(triple["f"][0] - triple["projected"][0]),
            "std_err_f": triple["f"][1],
            "std_err_projected": triple["projected"][1],
            "std_err_residual": triple["residual"][1],
            "reps": config.reps,
            "seed": config.seed,
            "config_hash": triple["f"][2],
        })
    return rows


def bayes_membership_rate(
    design: design_mod.DetectionDesign,
    delta: float,
    draws: int,
    seed: int,
) -> dict:
    """Empirical probability that a prior draw lands in the alternative set."""
    if draws < 1:
        raise ConfigError("need at least one prior draw")
    profile = design_mod.prior_profile(design, delta)  # one shifted-design solve for every draw
    members = sum(design_mod._draw_prior(design, profile, seed, rep).in_alternative for rep in range(draws))
    rate = members / draws
    return {
        "draws": draws,
        "members": members,
        "rate": rate,
        "std_err": math.sqrt(rate * (1.0 - rate) / draws),
        "delta": delta,
        "seed": seed,
    }


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, fieldnames, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("# schema=v1\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def write_json(path, payload) -> None:
    """Write ``payload`` under the schema tag; a NaN or infinity in it, which
    JSON cannot hold, is a NumericError and leaves ``path`` untouched."""
    body = {"schema": "v1"}
    body.update(payload)
    try:
        text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"output for {path} holds a non-finite number: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
