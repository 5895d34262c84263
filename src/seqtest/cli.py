"""Command-line front end.

All subcommands read a JSON config (``--config``); a config key the command
does not know is an error.  ``--out`` writes JSON when the path ends in
``.json`` and CSV otherwise; ``minimax-design``, ``project-besov`` and
``calibrate cvm`` write JSON only and refuse any other path.
``--seed``/``--reps`` override the config's key of the same name and exist
only on the subcommands whose config has it; ``--threads`` is at least 1.
``--threads`` bounds the pool width: a plan with small replications runs on one thread.
Exit codes: 0 success, 2 invalid config or arguments, I/O failure or an
allocation that fails, 3 infeasible design, 4 numeric failure.  Outputs
never include wall-clock times, so a run is byte-reproducible from (config,
seed) at any thread count.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import design as design_mod
from .cvm import DEFAULT_CALIBRATION_REPS, DEFAULT_CALIBRATION_SEED, calibrate_cvm
from .errors import ConfigError, InfeasibleDesignError, NumericError
from .experiments import (
    bayes_membership_rate,
    consistency_experiment,
    maxiset_decomposition_experiment,
    power_curve,
    write_csv,
    write_json,
)
from .montecarlo import CONFIG_KEYS, REQUIRED, ExperimentConfig, canonical_hash, read_keys, run_monte_carlo, take
from .spectra import BesovBall, Spectrum, besov_seminorm, first_violated_tail, project_besov

# the integer flags that override a config key of the same name; a command
# has each flag whose key is in its table
_OVERRIDES = {"seed": "override the config seed", "reps": "override the replication count"}

# Each command's config keys in reading order, key -> (kind, default).  The
# commands that read an ExperimentConfig read CONFIG_KEYS, after the keys
# they add to it.
_DESIGN_KEYS = {
    "s": (float, REQUIRED), "p0": (float, REQUIRED), "rho_n": (float, REQUIRED), "n": (int, REQUIRED),
    "sigma": (float, 1.0), "j_max": (int, None),
}
MINIMAX_DESIGN_KEYS = {**_DESIGN_KEYS, "alpha": (float, 0.05), "lambdas": (np.ndarray, None)}
MEMBERSHIP_KEYS = {**_DESIGN_KEYS, "delta": (float, REQUIRED), "draws": (int, REQUIRED), "seed": (int, REQUIRED)}
# a config gives either n or n_schedule; the handler drops the other one
CONSISTENCY_KEYS = {
    "family": (str, REQUIRED), "s": (float, REQUIRED), "c_schedule": (list[float], REQUIRED),
    "n_schedule": (list[int], REQUIRED), "n": (int, REQUIRED), "reps": (int, REQUIRED), "seed": (int, REQUIRED),
    "alpha": (float, 0.05), "norm_scale": (float, math.sqrt(8.0)),
}
PROJECTION_KEYS = {"theta": (Spectrum, REQUIRED), "s": (float, REQUIRED), "p0": (float, REQUIRED)}
CALIBRATION_KEYS = {
    "n": (int, REQUIRED), "reps": (int, DEFAULT_CALIBRATION_REPS), "seed": (int, DEFAULT_CALIBRATION_SEED),
    "cache_dir": (str, None),
}


def _load_config(args) -> dict:
    """The --config file as a dict, with the command's --seed/--reps applied."""
    path = args.config
    if path is None:
        raise ConfigError("this subcommand needs --config <file.json>")
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    for key in _OVERRIDES:
        if getattr(args, key, None) is not None:
            data[key] = getattr(args, key)
    return data


def _write_out(args, payload: dict, rows=()) -> None:
    """Write --out, if given: ``payload`` as JSON when the path ends in
    .json, else ``rows`` as CSV, whose columns are the first row's keys
    (``main`` keeps JSON-only commands off CSV)."""
    if args.out is None:
        return
    if args.out.endswith(".json"):
        write_json(args.out, payload)
    else:
        write_csv(args.out, list(rows[0]), rows)
    print(f"wrote {args.out}")


def _cmd_simulate(args) -> None:
    config = ExperimentConfig.from_json_dict(_load_config(args))
    summary = run_monte_carlo(config, threads=args.threads)
    row = dict(summary.to_json_dict(), config_hash=config.config_hash())
    print(
        f"{config.family}: rate={summary.rate:.6f} "
        f"({summary.rejections}/{summary.reps}), std_err={summary.std_err:.6f}, "
        f"hash={config.config_hash()}"
    )
    _write_out(args, {"summary": row, "config": config.to_json_dict()}, [row])


def _cmd_power_curve(args) -> None:
    data = _load_config(args)
    scales = take(data, "scales", list[float])
    config = ExperimentConfig.from_json_dict(data)
    rows = power_curve(config, scales, threads=args.threads)
    for row in rows:
        gap = "n/a" if row["gap"] is None else f"{row['gap']:.4f}"
        print(f"scale={row['scale']:g} power={row['power']:.4f} gap={gap}")
    _write_out(args, {"power_curve": rows}, rows)


def _cmd_consistency(args) -> None:
    data = _load_config(args)
    if "n" in data and "n_schedule" in data:
        raise ConfigError("consistency config has both 'n' and 'n_schedule'; give only one")
    keys = dict(CONSISTENCY_KEYS)
    del keys["n" if "n_schedule" in data else "n_schedule"]
    kwargs = read_keys(data, keys, "consistency config")
    kwargs.setdefault("n_schedule", kwargs.pop("n", None))
    rows = consistency_experiment(**kwargs, threads=args.threads)
    for row in rows:
        print(
            f"C={row['C']:g} m={row['m']} n={row['n']} power={row['power']:.4f} "
            f"drift={row['predicted_drift']:.3f}"
        )
    _write_out(args, {"consistency": rows}, rows)


def _cmd_decomposition(args) -> None:
    data = _load_config(args)
    s = take(data, "s")
    gammas = take(data, "gammas", list[float])
    config = ExperimentConfig.from_json_dict(data)
    rows = maxiset_decomposition_experiment(config, s, gammas, threads=args.threads)
    for row in rows:
        print(
            f"gamma={row['gamma']:g} power_f={row['power_f']:.4f} "
            f"power_projected={row['power_projected']:.4f} "
            f"power_residual={row['power_residual']:.4f} gap={row['gap']:.4f}"
        )
    _write_out(args, {"decomposition": rows}, rows)


def _cmd_minimax_design(args) -> None:
    kwargs = read_keys(_load_config(args), MINIMAX_DESIGN_KEYS, "design config")
    alpha, lambdas = kwargs.pop("alpha"), kwargs.pop("lambdas")
    if lambdas is not None:
        design = design_mod.solve_inverse_design(lambdas=lambdas, **kwargs)
    else:
        design = design_mod.solve_design(**kwargs)
    predicted = design_mod.predicted_type2_minimax(design, alpha)
    print(
        f"k_n={design.k_n} a_n={design.a_n:.6g} c_n={design.c_n:.6g} "
        f"predicted_type2(alpha={alpha:g})={predicted:.4f}"
    )
    _write_out(args, {"design": dict(design.to_json_dict(), alpha=alpha, predicted_type2=predicted)})


def _cmd_bayes_membership(args) -> None:
    kwargs = read_keys(_load_config(args), MEMBERSHIP_KEYS, "bayes-membership config")
    config_hash = canonical_hash(kwargs)
    design = design_mod.solve_design(**{key: kwargs.pop(key) for key in _DESIGN_KEYS})
    row = dict(bayes_membership_rate(design, **kwargs), config_hash=config_hash)
    print(
        f"k_n={design.k_n}: {row['members']}/{row['draws']} draws in the "
        f"alternative set (rate {row['rate']:.4f}, std_err {row['std_err']:.4f})"
    )
    _write_out(args, {"bayes_membership": [row]}, [row])


def _cmd_project_besov(args) -> None:
    theta, s, p0 = read_keys(_load_config(args), PROJECTION_KEYS, "projection config").values()
    ball = BesovBall(s, p0)
    projected = project_besov(theta, ball)
    before = besov_seminorm(theta, s)
    after = besov_seminorm(projected, s)
    print(f"seminorm {before:.6g} -> {after:.6g} (budget {p0:.6g})")
    if args.out is not None:
        _write_out(args, {
            "projected": projected.to_json_dict(),
            "seminorm_before": before,
            "seminorm_after": after,
            "first_violated_tail": first_violated_tail(theta, ball),
            "s": s,
            "p0": p0,
        })


def _cmd_calibrate_cvm(args) -> None:
    calibration = calibrate_cvm(**read_keys(_load_config(args), CALIBRATION_KEYS, "calibration config"))
    print(
        f"n={calibration.n} reps={calibration.reps} seed={calibration.seed} "
        f"q95={calibration.critical_value(0.05):.6f}"
    )
    _write_out(args, {"calibration": calibration.to_json_dict()})


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once; its handlers look names up when they run."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument(
        "--threads", type=int, default=1,
        help="upper bound on worker threads, >= 1; plans with small replications run on one (results identical)",
    )
    common.add_argument("--out", help="output path; JSON if it ends in .json, else CSV")

    def command(subparsers, name, handler, keys, json_only=False):
        cmd = subparsers.add_parser(name, parents=[common])
        for key in [key for key in _OVERRIDES if key in keys]:
            cmd.add_argument(f"--{key}", type=int, help=_OVERRIDES[key])
        cmd.set_defaults(handler=handler, json_only=json_only)

    parser = argparse.ArgumentParser(prog="seqtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    command(sub, "simulate", _cmd_simulate, CONFIG_KEYS)
    command(sub, "power-curve", _cmd_power_curve, CONFIG_KEYS)

    kinds = sub.add_parser("experiment").add_subparsers(dest="kind", required=True)
    command(kinds, "consistency", _cmd_consistency, CONSISTENCY_KEYS)
    command(kinds, "decomposition", _cmd_decomposition, CONFIG_KEYS)
    command(kinds, "bayes-membership", _cmd_bayes_membership, MEMBERSHIP_KEYS)

    command(sub, "minimax-design", _cmd_minimax_design, MINIMAX_DESIGN_KEYS, json_only=True)
    command(sub, "project-besov", _cmd_project_besov, PROJECTION_KEYS, json_only=True)

    targets = sub.add_parser("calibrate").add_subparsers(dest="target", required=True)
    command(targets, "cvm", _cmd_calibrate_cvm, CALIBRATION_KEYS, json_only=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error(f"--threads must be at least 1, got {args.threads}")
    if args.json_only and args.out is not None and not args.out.endswith(".json"):
        parser.error(f"--out {args.out}: this command writes JSON only; give a path ending in .json")
    try:
        args.handler(args)
    except ConfigError as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except InfeasibleDesignError as exc:
        print(f"infeasible design: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"invalid config: the sizes it asks for cannot be allocated ({exc})", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
