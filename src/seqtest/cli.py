"""Command-line front end.

All subcommands read a JSON config (``--config``), optionally overridden by
``--seed``/``--reps``, and write CSV or JSON based on the ``--out`` extension.
Exit codes: 0 success, 2 invalid config or I/O failure, 3 infeasible design,
4 numeric failure.  Outputs never include wall-clock times, so a run is
byte-reproducible from (config, seed) at any thread count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import design as design_mod
from .cvm import calibrate_cvm
from .errors import ConfigError, InfeasibleDesignError, NumericError
from .experiments import (
    CONSISTENCY_FIELDS,
    DECOMPOSITION_FIELDS,
    MEMBERSHIP_FIELDS,
    POWER_CURVE_FIELDS,
    bayes_membership_rate,
    consistency_experiment,
    maxiset_decomposition_experiment,
    power_curve,
    write_csv,
    write_json,
)
from .montecarlo import DEFAULT_CALIBRATION_SEED, ExperimentConfig, as_number, run_monte_carlo
from .spectra import BesovBall, Spectrum, besov_seminorm, first_violated_tail, project_besov

SUMMARY_FIELDS = ("experiment", "reps", "rejections", "rate", "std_err", "seed", "config_hash")


def _load_config(path: str | None) -> dict:
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
    return data


def _apply_overrides(data: dict, args) -> dict:
    if args.seed is not None:
        data["seed"] = args.seed
    if args.reps is not None:
        data["reps"] = args.reps
    return data


def _write_rows(args, fieldnames, rows, label: str) -> None:
    if args.out is None:
        return
    if args.out.endswith(".json"):
        write_json(args.out, {label: rows})
    else:
        write_csv(args.out, fieldnames, rows)
    print(f"wrote {len(rows)} rows to {args.out}")


_REQUIRED = object()


def _take(data: dict, key: str, kind: type = float, default=_REQUIRED, many: bool = False):
    """Pop ``key`` from the config as a ``kind`` (a finite int or float, or
    else an instance of ``kind``), or as a list of them when ``many``.  A key
    that is missing or null falls back to ``default``."""
    value = data.pop(key, None)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"config needs key {key!r}")
        return default
    if many:
        if not isinstance(value, list):
            raise ConfigError(f"{key!r} must be a list, got {value!r}")
        return [_typed(v, key, kind) for v in value]
    return _typed(value, key, kind)


def _typed(value, key: str, kind: type):
    if kind in (int, float):
        return as_number(value, repr(key), kind)
    if not isinstance(value, kind):
        raise ConfigError(f"{key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _check_empty(data: dict, what: str) -> None:
    if data:
        raise ConfigError(f"unknown {what} config keys: {sorted(data)}")


def _cmd_simulate(args) -> None:
    data = _apply_overrides(_load_config(args.config), args)
    config = ExperimentConfig.from_json_dict(data)
    summary = run_monte_carlo(config, threads=args.threads)
    row = dict(summary.to_json_dict(), config_hash=config.config_hash())
    print(
        f"{config.family}: rate={summary.rate:.6f} "
        f"({summary.rejections}/{summary.reps}), std_err={summary.std_err:.6f}, "
        f"hash={config.config_hash()}"
    )
    if args.out is None:
        return
    if args.out.endswith(".csv"):
        write_csv(args.out, SUMMARY_FIELDS, [row])
    else:
        write_json(args.out, {"summary": row, "config": config.to_json_dict()})
    print(f"wrote {args.out}")


def _cmd_power_curve(args) -> None:
    data = _apply_overrides(_load_config(args.config), args)
    scales = _take(data, "scales", many=True)
    config = ExperimentConfig.from_json_dict(data)
    rows = power_curve(config, scales, threads=args.threads)
    for row in rows:
        gap = "n/a" if row["gap"] is None else f"{row['gap']:.4f}"
        print(f"scale={row['scale']:g} power={row['power']:.4f} gap={gap}")
    _write_rows(args, POWER_CURVE_FIELDS, rows, "power_curve")


def _cmd_consistency(args) -> None:
    data = _apply_overrides(_load_config(args.config), args)
    if "n" in data and "n_schedule" in data:
        raise ConfigError("consistency config has both 'n' and 'n_schedule'; give only one")
    rows = consistency_experiment(
        family=_take(data, "family", str),
        s=_take(data, "s"),
        c_schedule=_take(data, "c_schedule", many=True),
        n_schedule=(
            _take(data, "n_schedule", int, many=True) if "n_schedule" in data else _take(data, "n", int)
        ),
        reps=_take(data, "reps", int),
        seed=_take(data, "seed", int),
        alpha=_take(data, "alpha", default=0.05),
        threads=args.threads,
        p0_ref=_take(data, "p0_ref", default=1.0),
        norm_scale=_take(data, "norm_scale", default=math.sqrt(8.0)),
    )
    _check_empty(data, "consistency")
    for row in rows:
        print(
            f"C={row['C']:g} m={row['m']} n={row['n']} power={row['power']:.4f} "
            f"drift={row['predicted_drift']:.3f}"
        )
    _write_rows(args, CONSISTENCY_FIELDS, rows, "consistency")


def _cmd_decomposition(args) -> None:
    data = _apply_overrides(_load_config(args.config), args)
    s = _take(data, "s")
    gammas = _take(data, "gammas", many=True)
    floor = _take(data, "density_floor", default=0.0)
    config = ExperimentConfig.from_json_dict(data)
    rows = maxiset_decomposition_experiment(config, s, gammas, threads=args.threads, density_floor=floor)
    for row in rows:
        print(
            f"gamma={row['gamma']:g} power_f={row['power_f']:.4f} "
            f"power_projected={row['power_projected']:.4f} "
            f"power_residual={row['power_residual']:.4f} gap={row['gap']:.4f}"
        )
    _write_rows(args, DECOMPOSITION_FIELDS, rows, "decomposition")


def _design_kwargs(data: dict) -> dict:
    """The direct-design arguments shared by ``minimax-design`` and
    ``experiment bayes-membership``, popped from the config."""
    return {
        "s": _take(data, "s"),
        "p0": _take(data, "p0"),
        "rho_n": _take(data, "rho_n"),
        "n": _take(data, "n", int),
        "sigma": _take(data, "sigma", default=1.0),
        "j_max": _take(data, "j_max", int, default=None),
    }


def _cmd_minimax_design(args) -> None:
    data = _apply_overrides(_load_config(args.config), args)
    kwargs = _design_kwargs(data)
    alpha = _take(data, "alpha", default=0.05)
    lambdas = _take(data, "lambdas", default=None, many=True)
    _check_empty(data, "design")
    if lambdas is not None:
        design = design_mod.solve_inverse_design(lambdas=np.asarray(lambdas, dtype=float), **kwargs)
    else:
        design = design_mod.solve_design(**kwargs)
    predicted = design_mod.predicted_type2_minimax(design, alpha)
    print(
        f"k_n={design.k_n} a_n={design.a_n:.6g} c_n={design.c_n:.6g} "
        f"predicted_type2(alpha={alpha:g})={predicted:.4f}"
    )
    if args.out is not None:
        payload = dict(design.to_json_dict(), alpha=alpha, predicted_type2=predicted)
        write_json(args.out, {"design": payload})
        print(f"wrote {args.out}")


def _cmd_bayes_membership(args) -> None:
    data = _apply_overrides(_load_config(args.config), args)
    kwargs = _design_kwargs(data)
    delta, draws, seed = _take(data, "delta"), _take(data, "draws", int), _take(data, "seed", int)
    _check_empty(data, "bayes-membership")
    design = design_mod.solve_design(**kwargs)
    row = bayes_membership_rate(design, delta, draws, seed)
    print(
        f"k_n={design.k_n}: {row['members']}/{row['draws']} draws in the "
        f"alternative set (rate {row['rate']:.4f}, std_err {row['std_err']:.4f})"
    )
    _write_rows(args, MEMBERSHIP_FIELDS, [row], "bayes_membership")


def _cmd_project_besov(args) -> None:
    data = _apply_overrides(_load_config(args.config), args)
    theta = Spectrum.from_json_dict(_take(data, "theta", dict))
    s = _take(data, "s")
    p0 = _take(data, "p0")
    _check_empty(data, "projection")
    ball = BesovBall(s, p0)
    projected = project_besov(theta, ball)
    before = besov_seminorm(theta, s)
    after = besov_seminorm(projected, s)
    print(f"seminorm {before:.6g} -> {after:.6g} (budget {p0:.6g})")
    if args.out is not None:
        write_json(args.out, {
            "projected": projected.to_json_dict(),
            "seminorm_before": before,
            "seminorm_after": after,
            "first_violated_tail": first_violated_tail(theta, ball),
            "s": s,
            "p0": p0,
        })
        print(f"wrote {args.out}")


def _cmd_calibrate_cvm(args) -> None:
    data = _apply_overrides(_load_config(args.config), args)
    calibration = calibrate_cvm(
        n=_take(data, "n", int),
        reps=_take(data, "reps", int, default=20000),
        seed=_take(data, "seed", int, default=DEFAULT_CALIBRATION_SEED),
        cache_dir=_take(data, "cache_dir", str, default=None),
    )
    _check_empty(data, "calibration")
    print(
        f"n={calibration.n} reps={calibration.reps} seed={calibration.seed} "
        f"q95={calibration.critical_value(0.05):.6f}"
    )
    if args.out is not None:
        write_json(args.out, {"calibration": calibration.to_json_dict()})
        print(f"wrote {args.out}")


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file")
    common.add_argument("--seed", type=int, default=None, help="override the config seed")
    common.add_argument("--reps", type=int, default=None, help="override the replication count")
    common.add_argument("--threads", type=int, default=1, help="worker threads (results identical)")
    common.add_argument("--out", help="output path; .csv or .json picks the format")

    parser = argparse.ArgumentParser(prog="seqtest", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("simulate", parents=[common]).set_defaults(handler=_cmd_simulate)
    sub.add_parser("power-curve", parents=[common]).set_defaults(handler=_cmd_power_curve)

    experiment = sub.add_parser("experiment")
    kinds = experiment.add_subparsers(dest="kind", required=True)
    kinds.add_parser("consistency", parents=[common]).set_defaults(handler=_cmd_consistency)
    kinds.add_parser("decomposition", parents=[common]).set_defaults(handler=_cmd_decomposition)
    kinds.add_parser("bayes-membership", parents=[common]).set_defaults(handler=_cmd_bayes_membership)

    sub.add_parser("minimax-design", parents=[common]).set_defaults(handler=_cmd_minimax_design)
    sub.add_parser("project-besov", parents=[common]).set_defaults(handler=_cmd_project_besov)

    calibrate = sub.add_parser("calibrate")
    targets = calibrate.add_subparsers(dest="target", required=True)
    targets.add_parser("cvm", parents=[common]).set_defaults(handler=_cmd_calibrate_cvm)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
