"""Experiment drivers: power curves, the consistency boundary, the
projection decomposition, and prior membership — plus the CSV/JSON writers.

Every row carries the resolved seed and a 12-hex config hash, so any line of
any table can be replayed exactly (the CLI adds the hash to a ``simulate``
row and to ``bayes_membership_rate``'s row); a driver's rows share their
keys, in order, and a CSV's columns are those keys.  CSV files start with
``# schema=<OUTPUT_SCHEMA>`` and JSON files hold it under ``"schema"``; CSVs
format floats with ``repr``, which is shortest-roundtrip and platform-stable;
together with the replication-seeded engine this makes outputs byte-identical
across thread counts.  A driver makes every config of its call before any
plan is built, so a bad schedule point is reported before a plan fails; then
``montecarlo.run_plans`` plans each distinct config once (a decomposition's f
once for all its gammas) and runs them together: plans that draw alike, as a
power curve's, a decomposition's and a consistency run's do, share one pass
over the replication stream.  ``threads`` bounds each group's pool width.

Prior membership scores its draws in blocks.  Each draw reads only the
prior's support, min(j_max, floor(k_n / delta)) normals, the prefix of the
stream a full-length draw reads, so the counts are those of full-length
draws.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import replace

import numpy as np

from . import design as design_mod
from .errors import ConfigError, NumericError, check_length
from .montecarlo import FAMILIES, ExperimentConfig, calibration_rates, run_plans
from .spectra import BesovBall, Spectrum, make_tail_alternative, project_besov

# version of every CSV and JSON output; a change to the random streams bumps it
OUTPUT_SCHEMA = "v1"


def power_curve(config: ExperimentConfig, scales, threads: int = 1) -> list[dict]:
    """Empirical vs. predicted type II error along a signal-scale schedule."""
    if config.theta is None:
        raise ConfigError("power_curve needs a base signal to scale")
    s_values = [float(v) for v in scales]
    if not s_values:
        raise ConfigError("power_curve needs at least one scale")
    base = config.theta
    configs = [replace(config, theta=Spectrum(base.basis, np.asarray(base.coeffs) * scale)) for scale in s_values]
    rows = []
    for scale, cfg, (plan, summary) in zip(s_values, configs, run_plans(configs, threads)):
        predicted = plan.predicted_type2
        empirical_beta = 1.0 - summary.rate
        rows.append({
            "scale": scale,
            "power": summary.rate,
            "empirical_type2": empirical_beta,
            "predicted_type2": predicted,
            "gap": None if predicted is None else abs(empirical_beta - predicted),
            "std_err": summary.std_err,
            "reps": cfg.reps,
            "seed": cfg.seed,
            "config_hash": cfg.config_hash(),
        })
    return rows


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
    record = FAMILIES.get(family)
    if record is None or record.tuned is None:
        *head, last = [name for name, fam in FAMILIES.items() if fam.tuned is not None]
        raise ConfigError(f"the consistency boundary experiment covers the {', '.join(head)}, and {last} families")
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
    points, configs = [], []
    for c_val, n in zip(c_values, n_values):
        try:  # the energy must be finite and positive, and the block within the size rule
            energy = (norm_scale * n**-rates.r) ** 2
            m = round((c_val / energy) ** (1.0 / (2.0 * s)))
            j_max = check_length("j_max", max(1024, 2 * m + 8))
        except (OverflowError, ZeroDivisionError, ConfigError):
            raise ConfigError(f"norm_scale={norm_scale!r} at n={n} puts the energy of the tail block at C={c_val}, "
                              "or its start m, out of range") from None
        if m < 1:
            raise ConfigError(f"schedule infeasible: C={c_val} needs block start m >= 1")
        theta = make_tail_alternative(m, c_val, s, basis=record.basis)
        cfg = ExperimentConfig(
            family=family, n=n, reps=reps, seed=seed, alpha=alpha,
            theta=theta, params=record.tuned(rates, n, j_max),
        )
        points.append((c_val, m, n))
        configs.append(cfg)
    return [
        {
            "C": c_val,
            "m": m,
            "n": n,
            "power": summary.rate,
            "predicted_drift": plan.details["drift"],
            "std_err": summary.std_err,
            "reps": reps,
            "seed": seed,
            "config_hash": cfg.config_hash(),
        }
        for (c_val, m, n), cfg, (plan, summary) in zip(points, configs, run_plans(configs, threads))
    ]


def maxiset_decomposition_experiment(
    config: ExperimentConfig,
    s: float,
    gammas,
    threads: int = 1,
) -> list[dict]:
    """Rejection rates of f, its ball projection, and the residual, per gamma.

    The gamma-ball is the smoothness body with radius budget gamma^2.  The
    split is f = P f + (f - P f), with P the metric projection onto the ball
    (``project_besov``).  The residual f - P f is not orthogonal to P f, as
    the paper's maxiset-plus-orthogonal split is: in criterion 10's setting
    the cosine between them is 0.52 to 0.60.  For the
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
    configs = []
    for gamma in g_values:
        ball = BesovBall(s, gamma**2)
        f_proj = project_besov(f_n, ball)
        residual = Spectrum(f_n.basis, np.asarray(f_n.coeffs) - np.asarray(f_proj.coeffs))
        configs += [replace(config, theta=spec) for spec in (f_n, f_proj, residual)]
    summaries = [summary for _, summary in run_plans(configs, threads)]
    rows = []
    for gamma, i in zip(g_values, range(0, len(configs), 3)):
        f_run, projected_run, residual_run = summaries[i : i + 3]
        rows.append({
            "gamma": gamma,
            "power_f": f_run.rate,
            "power_projected": projected_run.rate,
            "power_residual": residual_run.rate,
            "gap": abs(f_run.rate - projected_run.rate),
            "std_err_f": f_run.std_err,
            "std_err_projected": projected_run.std_err,
            "std_err_residual": residual_run.std_err,
            "reps": config.reps,
            "seed": config.seed,
            "config_hash": configs[i].config_hash(),
        })
    return rows


def bayes_membership_rate(
    design: design_mod.DetectionDesign,
    delta: float,
    draws: int,
    seed: int,
) -> dict:
    """Empirical probability that a prior draw lands in the alternative set.

    Draw r is ``sample_bayes_prior(design, delta, seed, r)``, scored with the
    others a block at a time (``prior_blocks``).  A draw reads only the
    prior's support, min(j_max, floor(k_n / delta)) normals, the prefix of
    the same stream, so the counts are those of the full-length draws.
    """
    if draws < 1:
        raise ConfigError("need at least one prior draw")
    members = sum(int(member.sum()) for *_, member in design_mod.prior_blocks(design, delta, seed, 0, draws))
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
        fh.write(f"# schema={OUTPUT_SCHEMA}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fieldnames)
        for row in rows:
            writer.writerow([_fmt(row.get(name)) for name in fieldnames])


def write_json(path, payload) -> None:
    """Write ``payload`` under the schema tag; a NaN or infinity in it, which
    JSON cannot hold, is a NumericError and leaves ``path`` untouched."""
    body = {"schema": OUTPUT_SCHEMA}
    body.update(payload)
    try:
        text = json.dumps(body, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise NumericError(f"output for {path} holds a non-finite number: {exc}") from exc
    with open(path, "w") as fh:
        fh.write(text + "\n")
