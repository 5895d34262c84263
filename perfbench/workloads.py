"""The four workloads: inputs made from a seed, and one round of operations.

A round is a fixed list of operations, each one call into seqtest's public
API; ``round`` returns how many it attempted and how many failed.  Rounds
differ only in the Monte Carlo seeds they pass, so every round does the same
work.  Outputs are kept on the workload object for ``checks.py``.

seqtest is reached through module attributes (``montecarlo.build_plan``, not
a name imported here), so that the wrappers ``tracing.py`` installs see every
call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from seqtest import cli, design, experiments, montecarlo, spectra
from seqtest.chisq import population_chisq_functional
from seqtest.errors import NumericError
from seqtest.montecarlo import ExperimentConfig
from seqtest.quadratic import example_coefficients, scale_to_drift
from seqtest.spectra import BesovBall, Spectrum

# ordinary projection inputs |w_j| = |N(0,1)| j^-0.6 at s = 1, p0 = 0.05; the
# magnitude seeds are fixed (Dykstra's work depends on them, and some
# magnitudes make it fail at J = 16 and 32), the signs come from --seed
PROJ_S, PROJ_P0 = 1.0, 0.05
MAGNITUDE_SEED = {16: 1002, 32: 1002, 128: 1000}
NEAR_BOUNDARY_J, NEAR_BOUNDARY_K = 4096, 2048
# Dykstra raises NumericError on this input every time (2000 cycles, ~3.5 s)
KEPT_FAILURE = "J128"


def derived_seed(seed: int, round_index: int, slot: int) -> int:
    """Monte Carlo seed of one operation: distinct per (seed, round, slot)."""
    return seed * 100_000 + round_index * 16 + slot


def ordinary_input(j: int, seed: int) -> np.ndarray:
    mags = np.abs(np.random.default_rng(MAGNITUDE_SEED[j]).standard_normal(j)) * np.arange(1, j + 1) ** -0.6
    if j == 128:  # the kept failure: same input on every seed
        return mags
    signs = np.where(np.random.default_rng([seed, j]).random(j) < 0.5, -1.0, 1.0)
    return signs * mags


def near_boundary_input(seed: int) -> np.ndarray:
    """10 % inside every tail budget, plus one spike that breaks only the
    constraint at K: Dykstra scales the tail from K once and stops."""
    j, k = NEAR_BOUNDARY_J, NEAR_BOUNDARY_K
    b = PROJ_P0 * np.arange(1, j + 2, dtype=float) ** (-2.0 * PROJ_S)
    e = 0.9 * (b[:-1] - b[1:])
    e[-1] = 0.9 * b[j - 1]
    e[k - 1] += 0.05 * (b[k - 1] + b[k - 2])
    signs = np.where(np.random.default_rng([seed, j]).random(j) < 0.5, -1.0, 1.0)
    return signs * np.sqrt(e)


class MonteCarloWorkload:
    """One plan built and run per config per round; rejections pooled by key."""

    def __init__(self, seed: int, configs: dict[str, ExperimentConfig]):
        self.seed = seed
        self.configs = configs
        self.pooled = {key: {"rejections": 0, "reps": 0} for key in configs}
        self.details = {}

    def round(self, index: int) -> tuple[int, int]:
        for slot, (key, template) in enumerate(self.configs.items()):
            cfg = replace(template, seed=derived_seed(self.seed, index, slot))
            plan = montecarlo.build_plan(cfg)
            summary = montecarlo.run_monte_carlo(cfg, plan=plan)
            self.pooled[key]["rejections"] += summary.rejections
            self.pooled[key]["reps"] += summary.reps
            self.details[key] = plan.details
        return len(self.configs), 0


class SeqModel(MonteCarloWorkload):
    name = "seqmodel"

    def __init__(self, seed: int, workdir: Path):
        n = 10_000
        minimax = {"s": 1.0, "p0": 1.0, "rho_n": float(n) ** -0.8}
        n2 = 2000
        kq = example_coefficients(n2, 2.0, 1024)
        spike = round(6.0 * math.sqrt(n2))  # inside the weight window
        shape = np.zeros(spike)
        shape[-1] = 1.0
        quad_theta = scale_to_drift(Spectrum("cosine", shape), kq, n2, 1.0, 2.0)
        h = float(n2) ** -0.4
        l2_sq = math.sqrt(2.0 / 3.0) / (n2 * math.sqrt(h))  # unit drift for the box kernel
        kern_theta = Spectrum("complex-exponential", np.array([0.0, math.sqrt(l2_sq / 2.0)], dtype=complex))
        super().__init__(seed, {
            "minimax_null": ExperimentConfig("minimax", n, 6000, 0, params=minimax),
            "minimax_lf": ExperimentConfig("minimax", n, 6000, 0, params={**minimax, "least_favorable": True}),
            "quadratic": ExperimentConfig("quadratic", n2, 8000, 0, theta=quad_theta,
                                          params={"gamma": 2.0, "j_max": 1024}),
            "kernel": ExperimentConfig("kernel", n2, 6000, 0, theta=kern_theta,
                                       params={"kernel": "box", "h": h, "j_max": 512}),
        })


class Density(MonteCarloWorkload):
    name = "density"

    def __init__(self, seed: int, workdir: Path):
        n, k, alpha = 5000, 50, 0.01
        shape = Spectrum("complex-exponential", np.array([0.0, 0.0, 0.0, 0.5], dtype=complex))
        target = 2.0 * math.sqrt(2.0 * k)  # drift 2 on the sqrt(2k) null scale
        chisq_theta = Spectrum(shape.basis, shape.coeffs * math.sqrt(target / population_chisq_functional(shape, k, n)))
        super().__init__(seed, {
            "chisq_null": ExperimentConfig("chisq", n, 2000, 0, alpha=alpha, params={"k": k}),
            "chisq": ExperimentConfig("chisq", n, 1500, 0, alpha=alpha, theta=chisq_theta, params={"k": k}),
            "cvm_null": ExperimentConfig("cvm", 1000, 2000, 0),
            "cvm": ExperimentConfig("cvm", 1000, 2000, 0, theta=Spectrum("cosine", np.array([0.0, 0.1]))),
        })


class Geometry:
    name = "geometry"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.ball = BesovBall(PROJ_S, PROJ_P0)
        self.projections = {f"J{j}": ordinary_input(j, seed) for j in (16, 32, 128)}
        self.projections["J4096"] = near_boundary_input(seed)
        self.n = 10_000
        self.rho = float(self.n) ** -0.8
        self.rho_inverse = float(self.n) ** (-4.0 / 9.0)
        self.lambdas = np.arange(1, 4001, dtype=float) ** -1.0
        self.prior_design = design.solve_design(1.0, 1.0, 4e-5, self.n)
        self.prior_delta, self.prior_draws = 0.2, 1000
        self.outputs: dict | None = None
        self.repeat_mismatch: list[str] = []

    def round(self, index: int) -> tuple[int, int]:
        out, failed = {}, 0
        for key, w in self.projections.items():
            try:
                out[key] = spectra.project_besov(Spectrum("cosine", w), self.ball).coeffs
            except NumericError:
                out[key] = None
                failed += 1
        out["design"] = design.solve_design(1.0, 1.0, self.rho, self.n, j_max=self.lambdas.size)
        out["inverse"] = design.solve_inverse_design(1.0, 1.0, self.rho_inverse, self.n, 1.0, self.lambdas)
        out["bayes"] = experiments.bayes_membership_rate(
            self.prior_design, self.prior_delta, self.prior_draws, self.seed)
        self._keep(out)
        return len(self.projections) + 3, failed

    def _keep(self, out: dict) -> None:
        if self.outputs is None:
            self.outputs = out
            return
        for key in self.projections:
            a, b = self.outputs[key], out[key]
            if (a is None) != (b is None) or (a is not None and not np.array_equal(a, b)):
                self.repeat_mismatch.append(key)
        if out["bayes"] != self.outputs["bayes"]:
            self.repeat_mismatch.append("bayes")


class Cli:
    """In-process ``seqtest.cli.main`` on five commands, CSV and JSON out."""

    name = "cli"
    threads = 2

    def __init__(self, seed: int, workdir: Path):
        self.dir = workdir
        n = 2000
        kq = example_coefficients(n, 2.5, 1024)
        f_n = scale_to_drift(Spectrum("cosine", np.ones(8)), kq, n, 1.0, 2.5)
        g_star = math.sqrt(spectra.besov_seminorm(f_n, 1.0))
        self.signal = ordinary_input(16, seed)
        configs = {
            "curve": {"family": "cvm", "n": 1000, "reps": 1000, "seed": seed,
                      "theta": {"basis": "cosine", "coeffs": [0.0, 0.1]}, "params": {"calibration_reps": 10_000},
                      "scales": [0.0, 0.5, 1.0, 1.5]},
            "decomposition": {"family": "quadratic", "n": n, "reps": 500, "seed": seed + 1,
                              "theta": f_n.to_json_dict(), "params": {"gamma": 2.5, "j_max": 1024},
                              "s": 1.0, "gammas": [x * g_star for x in (0.4, 0.6, 0.8, 1.0)]},
            "consistency": {"family": "quadratic", "s": 1.0, "c_schedule": [1.0, 4.0, 16.0],
                            "n": n, "reps": 1000, "seed": seed + 2, "norm_scale": 2.0},
            "design": {"s": 1.0, "p0": 1.0, "rho_n": 10_000.0 ** -0.8, "n": 10_000},
            "project": {"theta": {"basis": "cosine", "coeffs": self.signal.tolist()},
                        "s": PROJ_S, "p0": PROJ_P0},
        }
        self.commands = {
            "curve": (["power-curve"], "csv"),
            "decomposition": (["experiment", "decomposition"], "csv"),
            "consistency": (["experiment", "consistency"], "csv"),
            "design": (["minimax-design"], "json"),
            "project": (["project-besov"], "json"),
        }
        self.configs = configs
        for name, payload in configs.items():
            (self.dir / f"{name}.json").write_text(json.dumps(payload))
        self.reference: dict[str, bytes] = {}
        self.reference_codes: dict[str, int] = {}
        self.codes: list[dict[str, int]] = []
        self.outputs: list[dict[str, bytes]] = []

    def _run_all(self, threads: int, tag: str) -> dict[str, int]:
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for name, (argv, ext) in self.commands.items():
                codes[name] = cli.main(argv + [
                    "--config", str(self.dir / f"{name}.json"),
                    "--threads", str(threads),
                    "--out", str(self.dir / f"{name}-{tag}.{ext}"),
                ])
        return codes

    def _read(self, tag: str) -> dict[str, bytes]:
        out = {}
        for name, (_, ext) in self.commands.items():
            path = self.dir / f"{name}-{tag}.{ext}"
            out[name] = path.read_bytes() if path.exists() else b""
        return out

    def prepare(self) -> None:
        """The --threads 1 run every timed round is compared with."""
        self.reference_codes = self._run_all(1, "ref")
        self.reference = self._read("ref")

    def round(self, index: int) -> tuple[int, int]:
        codes = self._run_all(self.threads, "run")
        self.codes.append(codes)
        return len(codes), sum(1 for c in codes.values() if c != 0)

    def collect(self) -> None:
        self.outputs.append(self._read("run"))
        for name, (_, ext) in self.commands.items():
            (self.dir / f"{name}-run.{ext}").unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (SeqModel, Density, Geometry, Cli)}
