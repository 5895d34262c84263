"""Command-line contract: exit codes, output files, overrides, determinism.

Everything drives ``seqtest.cli.main`` in-process with small replication
counts; the statistical content of what the commands compute is covered by
the per-module tests.
"""

import argparse
import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from seqtest import cli, errors, montecarlo
from seqtest.cli import main
from seqtest.design import solve_design
from seqtest.errors import NumericError
from seqtest.experiments import bayes_membership_rate

HASH_RE = re.compile(r"^[0-9a-f]{12}$")

# each command's CSV header, column for column
SUMMARY_HEADER = "experiment,reps,rejections,rate,std_err,seed,config_hash"
POWER_CURVE_HEADER = "scale,power,empirical_type2,predicted_type2,gap,std_err,reps,seed,config_hash"
CONSISTENCY_HEADER = "C,m,n,power,predicted_drift,std_err,reps,seed,config_hash"
DECOMPOSITION_HEADER = (
    "gamma,power_f,power_projected,power_residual,gap,"
    "std_err_f,std_err_projected,std_err_residual,reps,seed,config_hash"
)
MEMBERSHIP_HEADER = "draws,members,rate,std_err,delta,seed,config_hash"


def _config(tmp_path, name, payload) -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def _simulate_payload(**overrides) -> dict:
    payload = {
        "family": "quadratic",
        "n": 400,
        "reps": 50,
        "seed": 7,
        "theta": {"basis": "cosine", "coeffs": [0.2, 0.1]},
        "params": {"gamma": 2.0, "j_max": 64},
    }
    payload.update(overrides)
    return payload


def _rows(path) -> list[str]:
    lines = path.read_text().split("\n")
    assert lines[0] == "# schema=v1"
    return [line for line in lines[1:] if line]


class TestSimulate:
    def test_csv_output(self, tmp_path, capsys):
        cfg = _config(tmp_path, "sim.json", _simulate_payload())
        out = tmp_path / "summary.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        header, row = _rows(out)
        assert header == SUMMARY_HEADER
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["experiment"].startswith("quadratic-")
        assert cells["seed"] == "7"
        assert HASH_RE.match(cells["config_hash"])
        assert "rate=" in capsys.readouterr().out

    def test_json_output_carries_the_config(self, tmp_path):
        cfg = _config(tmp_path, "sim.json", _simulate_payload())
        out = tmp_path / "summary.json"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        body = json.loads(out.read_text())
        assert body["schema"] == "v1"
        assert body["config"]["family"] == "quadratic"
        assert "wall_time_s" not in body["summary"]
        assert HASH_RE.match(body["summary"]["config_hash"])

    def test_seed_and_reps_overrides(self, tmp_path):
        cfg = _config(tmp_path, "sim.json", _simulate_payload())
        out = tmp_path / "summary.csv"
        assert main([
            "simulate", "--config", cfg, "--seed", "99", "--reps", "30",
            "--out", str(out),
        ]) == 0
        _, row = _rows(out)
        cells = dict(zip(SUMMARY_HEADER.split(","), row.split(",")))
        assert cells["seed"] == "99"
        assert cells["reps"] == "30"

    def test_thread_count_does_not_change_the_bytes(self, tmp_path):
        cfg = _config(tmp_path, "sim.json", _simulate_payload())
        one, four = tmp_path / "one.csv", tmp_path / "four.csv"
        assert main(["simulate", "--config", cfg, "--threads", "1", "--out", str(one)]) == 0
        assert main(["simulate", "--config", cfg, "--threads", "4", "--out", str(four)]) == 0
        assert one.read_bytes() == four.read_bytes()


class TestPowerCurveCommand:
    def test_writes_one_row_per_scale(self, tmp_path, capsys):
        payload = _simulate_payload(reps=40)
        payload["scales"] = [0.0, 1.0]
        cfg = _config(tmp_path, "curve.json", payload)
        out = tmp_path / "curve.csv"
        assert main(["power-curve", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = _rows(out)
        assert header == POWER_CURVE_HEADER
        assert len(rows) == 2
        assert "scale=0 power=" in capsys.readouterr().out

    def test_missing_scales_is_a_config_error(self, tmp_path):
        cfg = _config(tmp_path, "curve.json", _simulate_payload(reps=10))
        assert main(["power-curve", "--config", cfg]) == 2


class TestExperimentCommands:
    def test_consistency_csv(self, tmp_path):
        cfg = _config(tmp_path, "cons.json", {
            "family": "quadratic", "s": 1.0, "c_schedule": [1.0, 4.0],
            "n": 300, "reps": 40, "seed": 11,
        })
        out = tmp_path / "cons.csv"
        assert main(["experiment", "consistency", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = _rows(out)
        assert header == CONSISTENCY_HEADER
        assert len(rows) == 2

    def test_consistency_rejects_leftover_keys(self, tmp_path):
        cfg = _config(tmp_path, "cons.json", {
            "family": "quadratic", "s": 1.0, "c_schedule": [1.0, 4.0],
            "n": 300, "reps": 10, "seed": 11, "bogus": 1,
        })
        assert main(["experiment", "consistency", "--config", cfg]) == 2

    @pytest.mark.parametrize("argv,payload,runner", [
        (["experiment", "consistency"], {
            "family": "quadratic", "s": 1.0, "c_schedule": [1.0, 4.0], "n": 300, "reps": 10, "seed": 11, "bogus": 1,
        }, "consistency_experiment"),
        (["calibrate", "cvm"], {"n": 40, "reps": 100, "bogus": 1}, "calibrate_cvm"),
    ])
    def test_unknown_keys_are_refused_before_the_run(self, argv, payload, runner, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("the command ran before its config was read")

        monkeypatch.setattr(cli, runner, fail)
        assert main(argv + ["--config", _config(tmp_path, "cfg.json", payload)]) == 2
        assert "keys: ['bogus']" in capsys.readouterr().err

    def test_consistency_rejects_both_n_forms(self, tmp_path, capsys):
        # a scalar n and an n_schedule together are ambiguous; the error says so
        cfg = _config(tmp_path, "cons.json", {
            "family": "quadratic", "s": 1.0, "c_schedule": [1.0, 4.0],
            "n_schedule": [300, 300], "n": 300, "reps": 10, "seed": 11,
        })
        assert main(["experiment", "consistency", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "'n'" in err and "'n_schedule'" in err and "only one" in err
        assert "unknown" not in err

    def test_tuned_kernel_consistency_runs(self, tmp_path):
        """At s = 0.5, n = 1e4 the tuned bandwidth h = 0.00215 needs j_max =
        3118 for its null shift; the run takes it, where j_max = 1024 would
        shift T_n by -0.309 sd."""
        cfg = _config(tmp_path, "cons.json", {
            "family": "kernel", "s": 0.5, "c_schedule": [1.0, 4.0], "n": 10**4, "reps": 5, "seed": 1,
        })
        out = tmp_path / "cons.csv"
        assert main(["experiment", "consistency", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = _rows(out)
        assert header == CONSISTENCY_HEADER
        assert len(rows) == 2

    def test_decomposition_csv(self, tmp_path):
        cfg = _config(tmp_path, "decomp.json", {
            "family": "quadratic", "n": 300, "reps": 30, "seed": 3,
            "theta": {"basis": "cosine", "coeffs": [0.05, 0.02]},
            "params": {"gamma": 2.0, "j_max": 64},
            "s": 1.0, "gammas": [0.5, 1.0],
        })
        out = tmp_path / "decomp.csv"
        assert main(["experiment", "decomposition", "--config", cfg, "--out", str(out)]) == 0
        header, *rows = _rows(out)
        assert header == DECOMPOSITION_HEADER
        assert len(rows) == 2


class TestMinimaxDesignCommand:
    def test_direct_design(self, tmp_path, capsys):
        cfg = _config(tmp_path, "design.json", {
            "s": 1.0, "p0": 1.0, "rho_n": 3e-4, "n": 10000,
        })
        out = tmp_path / "design.json.out.json"
        assert main(["minimax-design", "--config", cfg, "--out", str(out)]) == 0
        assert "k_n=100" in capsys.readouterr().out
        body = json.loads(out.read_text())
        assert body["design"]["k_n"] == 100
        assert 0.0 < body["design"]["predicted_type2"] < 1.0

    def test_inverse_design_via_lambdas(self, tmp_path, capsys):
        cfg = _config(tmp_path, "design.json", {
            "s": 1.0, "p0": 1.0, "rho_n": 1e-2, "n": 1000,
            "lambdas": [1.0] * 400,
        })
        assert main(["minimax-design", "--config", cfg]) == 0
        assert "k_n=" in capsys.readouterr().out

    @pytest.mark.parametrize("payload", [
        {"s": 1.0, "p0": 1.0, "rho_n": 10.0, "n": 100},
        {"s": 0.1, "p0": 1.0, "rho_n": 1e-8, "n": 100},  # the breakpoint overflows
        {"s": 0.01, "p0": 1.0, "rho_n": 1e-10, "n": 100},  # ... past a float, an OverflowError
        {"s": 1.0, "p0": 1.0, "rho_n": 5.0, "n": 100, "lambdas": [1, 1]},  # too large for the eigenvalues
    ], ids=["rho_n too large", "breakpoint overflows", "breakpoint overflows a float", "too large for the eigenvalues"])
    def test_infeasible_radius_exits_3(self, payload, tmp_path, capsys):
        cfg = _config(tmp_path, "design.json", payload)
        assert main(["minimax-design", "--config", cfg]) == 3
        assert "infeasible design:" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = _config(tmp_path, "design.json", {
            "s": 1.0, "p0": 1.0, "rho_n": 3e-4, "n": 10000, "extra": 1,
        })
        assert main(["minimax-design", "--config", cfg]) == 2


class TestProjectBesovCommand:
    def test_projection_report(self, tmp_path, capsys):
        cfg = _config(tmp_path, "proj.json", {
            "theta": {"basis": "cosine", "coeffs": [1.0, 1.0, 1.0]},
            "s": 1.0, "p0": 0.5,
        })
        out = tmp_path / "proj.json.out.json"
        assert main(["project-besov", "--config", cfg, "--out", str(out)]) == 0
        assert "seminorm" in capsys.readouterr().out
        body = json.loads(out.read_text())
        assert body["seminorm_after"] <= 0.5 * (1 + 1e-9)
        assert body["seminorm_before"] > body["seminorm_after"]
        assert body["first_violated_tail"] is not None
        assert len(body["projected"]["coeffs"]) == 3

    def test_ordinary_j128_input_exits_0(self, tmp_path):
        # |N(0,1)| j^-0.6 at s = 1, p0 = 0.05: an input the projection must always solve
        coeffs = np.abs(np.random.default_rng(1000).standard_normal(128)) * np.arange(1, 129) ** -0.6
        cfg = _config(tmp_path, "proj.json", {
            "theta": {"basis": "cosine", "coeffs": coeffs.tolist()}, "s": 1.0, "p0": 0.05,
        })
        out = tmp_path / "proj.out.json"
        assert main(["project-besov", "--config", cfg, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["seminorm_after"] <= 0.05 * (1 + 1e-12)

    def test_haar_theta_exits_2(self, tmp_path, capsys):
        cfg = _config(tmp_path, "proj.json", {
            "theta": {"basis": "haar", "coeffs": [0.5, 0.3, 0.2]}, "s": 1, "p0": 0.05,
        })
        assert main(["project-besov", "--config", cfg]) == 2
        assert "unknown basis 'haar'" in capsys.readouterr().err


class TestCalibrateCvmCommand:
    def test_calibration_run(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cache.mkdir()
        cfg = _config(tmp_path, "cal.json", {
            "n": 40, "reps": 300, "seed": 5, "cache_dir": str(cache),
        })
        out = tmp_path / "cal.out.json"
        assert main(["calibrate", "cvm", "--config", cfg, "--out", str(out)]) == 0
        assert "q95=" in capsys.readouterr().out
        body = json.loads(out.read_text())
        assert body["calibration"]["n"] == 40
        assert body["calibration"]["reps"] == 300
        assert list(cache.iterdir())

    def test_reps_override_reaches_the_calibration(self, tmp_path, capsys):
        cfg = _config(tmp_path, "cal.json", {"n": 40, "seed": 5})
        assert main(["calibrate", "cvm", "--config", cfg, "--reps", "200"]) == 0
        assert "reps=200" in capsys.readouterr().out


class TestBayesMembershipCommand:
    def test_matches_the_library_call(self, tmp_path, capsys):
        cfg = _config(tmp_path, "bayes.json", {
            "s": 1.0, "p0": 1.0, "rho_n": 4e-5, "n": 10000,
            "delta": 0.2, "draws": 40, "seed": 77001,
        })
        out = tmp_path / "bayes.csv"
        assert main(["experiment", "bayes-membership", "--config", cfg, "--out", str(out)]) == 0
        want = bayes_membership_rate(solve_design(1.0, 1.0, 4e-5, 10000), 0.2, 40, 77001)
        assert f"{want['members']}/40 draws" in capsys.readouterr().out
        header, row = _rows(out)
        assert header == MEMBERSHIP_HEADER
        cells = dict(zip(header.split(","), row.split(",")))
        assert int(cells["members"]) == want["members"]
        assert cells["seed"] == "77001"

    def test_row_hashes_the_resolved_config(self, tmp_path):
        hashes = []
        for delta in (0.2, 0.3):
            cfg = _config(tmp_path, "bayes.json", {**_DESIGN, "delta": delta, "draws": 10, "seed": 1})
            out = tmp_path / "bayes.csv"
            assert main(["experiment", "bayes-membership", "--config", cfg, "--out", str(out)]) == 0
            header, row = _rows(out)
            hashes.append(dict(zip(header.split(","), row.split(",")))["config_hash"])
        assert all(HASH_RE.match(h) for h in hashes)
        assert hashes[0] != hashes[1]

    def test_unknown_key_exits_2(self, tmp_path):
        cfg = _config(tmp_path, "bayes.json", {
            "s": 1.0, "p0": 1.0, "rho_n": 4e-5, "n": 10000,
            "delta": 0.2, "draws": 10, "seed": 1, "lambdas": [1.0, 0.5],
        })
        assert main(["experiment", "bayes-membership", "--config", cfg]) == 2


def _params(family: str, **params) -> dict:
    base = {
        "quadratic": {"gamma": 2.0, "j_max": 64},
        "kernel": {"kernel": "box", "h": 0.1, "j_max": 64},
        "chisq": {"k": 8},
        "cvm": {"calibration_reps": 200},
        "minimax": {"s": 1.0, "p0": 1.0, "rho_n": 2e-3, "least_favorable": True},
    }[family]
    if family == "quadratic" and "kappa_sq" in params:
        base = {}
    return {"family": family, "n": 300, "reps": 10, "seed": 1, "params": {**base, **params}}


_DESIGN = {"s": 1.0, "p0": 1.0, "rho_n": 3e-4, "n": 10000}
_CONSISTENCY = {"family": "quadratic", "s": 1.0, "c_schedule": [1.0, 4.0], "n": 300, "reps": 10, "seed": 1}
_DECOMPOSITION = {**_simulate_payload(reps=10), "s": 1.0, "gammas": [0.5, 1.0]}
_INVERSE = {"s": 1.0, "p0": 1.0, "rho_n": 0.1, "n": 200, "j_max": 4, "lambdas": [1.0, 0.5, 0.25, 0.125]}

BAD_CONFIGS = {
    "chisq k": (["simulate"], _params("chisq", k="x")),
    "kernel h": (["simulate"], _params("kernel", h="x")),
    # past 1/(4b) the quartic Poisson identity fails and the null variance grows
    "kernel h past its bound": (["simulate"], _params("kernel", h=0.3)),
    "kernel name": (["simulate"], _params("kernel", kernel=["box"])),
    "quadratic gamma": (["simulate"], _params("quadratic", gamma="a")),
    "quadratic kappa_sq": (["simulate"], _params("quadratic", kappa_sq=["a"])),
    "quadratic negative kappa_sq": (["simulate"], _params("quadratic", kappa_sq=[1, -1])),
    "minimax s": (["simulate"], _params("minimax", s="a")),
    "minimax j_max": (["simulate"], _params("minimax", j_max="x")),
    "calibration_reps": (["simulate"], _params("cvm", calibration_reps="x")),
    "sigma nan": (["simulate"], _simulate_payload(sigma="nan")),
    "fractional seed": (["simulate"], _simulate_payload(seed=1.5)),
    "scalar scales": (["power-curve"], {**_simulate_payload(reps=10), "scales": 3}),
    "text scales": (["power-curve"], {**_simulate_payload(reps=10), "scales": ["a"]}),
    "empty scales": (["power-curve"], {**_simulate_payload(reps=10), "scales": []}),
    "scalar c_schedule": (["experiment", "consistency"], {**_CONSISTENCY, "c_schedule": 5}),
    "consistency zero n": (["experiment", "consistency"], {**_CONSISTENCY, "n": 0}),
    "text gammas": (["experiment", "decomposition"], {**_DECOMPOSITION, "gammas": "ab"}),
    "design j_max": (["minimax-design"], {**_DESIGN, "j_max": "x"}),
    "design one eigenvalue": (["minimax-design"], {**_DESIGN, "lambdas": [1]}),
    "design negative j_max": (
        ["minimax-design"], {"s": 1, "p0": 1, "rho_n": 2e-3, "n": 200, "j_max": -256},
    ),
    "membership draws": (
        ["experiment", "bayes-membership"],
        {**_DESIGN, "delta": 0.2, "draws": "x", "seed": 1},
    ),
    "calibration reps": (["calibrate", "cvm"], {"n": 40, "reps": "x"}),
    "negative c_schedule": (["experiment", "consistency"], {**_CONSISTENCY, "c_schedule": [-4, -1]}),
    "negative p0_ref": (["experiment", "consistency"], {**_CONSISTENCY, "p0_ref": -1}),
    "zero norm_scale": (["experiment", "consistency"], {**_CONSISTENCY, "norm_scale": 0}),
    "simulate unknown key": (["simulate"], _simulate_payload(sigam=2.0)),
    "power-curve unknown key": (
        ["power-curve"], {**_simulate_payload(reps=10), "scales": [1.0], "sigam": 2.0},
    ),
    "decomposition unknown key": (["experiment", "decomposition"], {**_DECOMPOSITION, "sigam": 2.0}),
    "decomposition density_floor": (["experiment", "decomposition"], {**_DECOMPOSITION, "density_floor": 0.0}),
    "projection overflow": (
        ["project-besov"],
        {"theta": {"basis": "cosine", "coeffs": [1e200, 1.0]}, "s": 1.0, "p0": 0.5},
    ),
    "seminorm overflow": (
        ["project-besov"],
        {"theta": {"basis": "cosine", "coeffs": [1, 1, 1]}, "s": 400, "p0": 0.5},
    ),
    "quadratic j_max with kappa_sq": (["simulate"], _params("quadratic", kappa_sq=[1, 0.5, 0.25], j_max=7)),
    # petabyte-scale arrays, refused by the size rule (errors.check_length)
    # before anything is allocated: no length past the float64 values this
    # machine's physical memory holds reaches numpy
    "quadratic petabyte j_max": (["simulate"], _params("quadratic", j_max=10**15)),
    "kernel petabyte j_max": (["simulate"], _params("kernel", j_max=10**15)),
    "kernel zero j_max": (["simulate"], _params("kernel", j_max=0)),
    "design petabyte truncation": (["minimax-design"], {"s": 0.1, "p0": 1, "rho_n": 2e-3, "n": 200}),
    # coefficients whose energy overflows a float
    "quadratic overflowing theta": (
        ["simulate"], {**_params("quadratic"), "theta": {"basis": "cosine", "coeffs": [1e200, 1.0]}},
    ),
    "kernel overflowing theta": (
        ["simulate"],
        {**_params("kernel"), "theta": {"basis": "complex-exponential", "coeffs": [[0.0, 0.0], [1e200, 0.0]]}},
    ),
    "minimax overflowing theta": (
        ["simulate"],
        {**_params("minimax", least_favorable=False), "theta": {"basis": "cosine", "coeffs": [1e200, 1.0]}},
    ),
    "quadratic overflowing kappa_sq": (["simulate"], _params("quadratic", kappa_sq=[1e300, 1.0])),
    # coefficients whose energy is finite, but whose drift overflows in the plan's n^2 arithmetic
    "quadratic overflowing drift": (
        ["simulate"], {**_params("quadratic"), "theta": {"basis": "cosine", "coeffs": [1e154, 1.0]}},
    ),
    "minimax overflowing drift": (
        ["simulate"],
        {
            **_params("minimax", least_favorable=False, rho_n=0.01),
            "theta": {"basis": "cosine", "coeffs": [1e154, 1.0]},
        },
    ),
    "kernel overflowing drift": (
        ["simulate"],
        {**_params("kernel"), "theta": {"basis": "complex-exponential", "coeffs": [[0.0, 0.0], [5e153, 0.0]]}},
    ),
    # a sigma whose sigma^4 or n^2 sigma^-4 overflows: the plans and designs scale by both
    "quadratic huge sigma": (["simulate"], {**_params("quadratic"), "sigma": 1e200}),
    "quadratic tiny sigma": (["simulate"], {**_params("quadratic"), "sigma": 1e-200}),
    "kernel huge sigma": (["simulate"], {**_params("kernel"), "sigma": 1e200}),
    "minimax huge sigma": (["simulate"], {**_params("minimax"), "sigma": 1e200}),
    "design tiny sigma": (["minimax-design"], {**_DESIGN, "n": 300, "sigma": 1e-200}),
    # A_n = sigma^-4 n^2 sum kappa_j^4 overflows in the design's square
    "design overflowing A_n": (["minimax-design"], {"s": 1, "p0": 1e160, "rho_n": 1e160, "n": 300}),
    # ... or underflows to zero, which leaves the test a null sd of 0
    "minimax vanishing A_n": (["simulate"], _params("minimax", p0=1e-300, rho_n=1e-300)),
    # a complex density perturbation integrates to coeffs[0], which must be 0
    "chisq nonzero mean": (
        ["simulate"],
        {**_params("chisq", k=8), "theta": {"basis": "complex-exponential", "coeffs": [[-0.1, 0], [0, 0], [0.05, 0]]}},
    ),
    # the default j_max = 1024 at h = 1e-3 shifts the null mean by -0.97 sd
    "kernel truncation past its bound": (["simulate"], _params("kernel", h=1e-3, j_max=None)),
    "cvm negative calibration_seed": (
        ["simulate"], _params("cvm", calibration_reps=100, calibration_seed=-1, cache_dir="cache"),
    ),
    # a schedule whose energy (norm_scale n^-r)^2 overflows, underflows to 0,
    # or puts the tail block's start m past the size rule
    "consistency overflowing norm_scale": (["experiment", "consistency"], {**_CONSISTENCY, "norm_scale": 1e300}),
    "consistency vanishing norm_scale": (["experiment", "consistency"], {**_CONSISTENCY, "norm_scale": 1e-300}),
    "consistency tiny norm_scale": (["experiment", "consistency"], {**_CONSISTENCY, "norm_scale": 1e-150}),
    "consistency huge n": (["experiment", "consistency"], {**_CONSISTENCY, "n": 10**150}),
    # a delta whose prior support k_n / delta overflows a float
    "membership tiny delta": (["experiment", "bayes-membership"], {**_DESIGN, "delta": 5e-324, "draws": 8, "seed": 1}),
    # lengths of 2^63 or more, as ints or as floats, which numpy cannot index
    "quadratic huge j_max": (["simulate"], _params("quadratic", j_max=1e150)),
    "kernel huge j_max": (["simulate"], _params("kernel", j_max=2**63)),
    "chisq null k past int64": (["simulate"], _params("chisq", k=2**64 + 1)),
    "chisq null huge k": (["simulate"], _params("chisq", k=2**63)),
    "chisq alternative huge k": (
        ["simulate"],
        {**_params("chisq", k=2**63), "theta": {"basis": "complex-exponential", "coeffs": [[0, 0], [0.05, 0]]}},
    ),
    "chisq huge n": (["simulate"], {**_params("chisq"), "n": 2**63}),
    "cvm huge n": (["simulate"], {**_params("cvm"), "n": 1e150}),
    "calibrate cvm huge n": (["calibrate", "cvm"], {"n": 2**63, "reps": 100}),
    "minimax huge j_max": (["simulate"], _params("minimax", j_max=2**63)),
    # found by TestKeyTableFuzz: an inverse design whose weights, gaps or sums
    # leave float range (each a RuntimeWarning before), and a direct design
    # whose null mean c_n = n rho_n / sigma^2 overflows (exit 0 before)
    "inverse design huge s": (["minimax-design"], {**_INVERSE, "s": 1e300}),
    "inverse design overflowing lambdas": (["minimax-design"], {**_INVERSE, "j_max": 3, "lambdas": [1e300, 1e-300, 1]}),
    "inverse design vanishing lambdas": (["minimax-design"], {**_INVERSE, "j_max": 2, "lambdas": [5e-324, 1]}),
    "inverse design overflowing c_n": (
        ["minimax-design"], {**_INVERSE, "s": 1e-3, "p0": 1e300, "rho_n": 1e300, "n": 2**63},
    ),
    "design overflowing c_n": (
        ["minimax-design"], {"s": 1e-300, "p0": 1e300, "rho_n": 1e300, "n": 2**63, "j_max": 256},
    ),
}
# the part of its message by which each refusal above names its key
NAMED_KEYS = {
    "consistency overflowing norm_scale": "norm_scale=1e+300",
    "consistency vanishing norm_scale": "norm_scale=1e-300",
    "consistency tiny norm_scale": "norm_scale=1e-150",
    "consistency huge n": f"at n={10**150}",
    "membership tiny delta": "'delta' asks for",
    "quadratic huge j_max": "'j_max' asks for",
    "kernel huge j_max": "'j_max' asks for",
    "chisq null k past int64": "'k' asks for",
    "chisq null huge k": "'k' asks for",
    "chisq alternative huge k": "'k' asks for",
    "chisq huge n": "'n' asks for",
    "cvm huge n": "'n' asks for",
    "calibrate cvm huge n": "'n' asks for",
    "minimax huge j_max": "'j_max' asks for",
}


class TestBadConfigValues:
    """A wrong type or a non-finite value is an invalid config, never a traceback."""

    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_exits_2_without_traceback(self, name, tmp_path, capsys):
        argv, payload = BAD_CONFIGS[name]
        cfg = _config(tmp_path, "bad.json", payload)
        assert main(argv + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "invalid config:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(NAMED_KEYS))
    def test_refusal_names_its_key(self, name, tmp_path, capsys):
        argv, payload = BAD_CONFIGS[name]
        assert main(argv + ["--config", _config(tmp_path, "bad.json", payload)]) == 2
        assert NAMED_KEYS[name] in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,payload",
        [
            (["project-besov"], {"theta": {"basis": "cosine", "coeffs": ["0.5", 0.1]}, "s": 1.0, "p0": 0.5}),
            (["project-besov"], {"theta": {"basis": "cosine", "coeffs": [True, 0.1]}, "s": 1.0, "p0": 0.5}),
            (
                ["project-besov"],
                {"theta": {"basis": "complex-exponential", "coeffs": [[0, 0], [True, False]]}, "s": 1.0, "p0": 0.5},
            ),
            (["simulate"], _simulate_payload(theta={"basis": "cosine", "coeffs": ["0.1"]})),
        ],
        ids=["string", "boolean", "complex boolean", "simulate theta string"],
    )
    def test_spectrum_coeffs_must_be_numbers(self, argv, payload, tmp_path, capsys):
        cfg = _config(tmp_path, "bad.json", payload)
        assert main(argv + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "invalid config:" in err
        assert "Traceback" not in err

    def test_integral_float_counts_still_read(self, tmp_path):
        cfg = _config(tmp_path, "sim.json", _simulate_payload(n=400.0, reps=20.0, seed=7.0))
        assert main(["simulate", "--config", cfg]) == 0


class TestPlanRefusals:
    """Configs whose plan would run and report a rate that means nothing."""

    @pytest.mark.parametrize("name,message", [
        ("chisq nonzero mean", "the j = 0 coefficient must be 0, got -0.1"),
        ("kernel truncation past its bound", "at h=0.001 the truncation j_max=1024 shifts the null mean of T_n by -0.969 sd"),
    ])
    def test_exits_2_with_the_reason(self, name, message, tmp_path, capsys):
        argv, payload = BAD_CONFIGS[name]
        assert main(argv + ["--config", _config(tmp_path, "bad.json", payload)]) == 2
        assert message in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_section() -> str:
    text = README.read_text()
    return text[text.index("## CLI"):text.index("## Library")]


def _commands(parser, prefix=()):
    """Each leaf command of ``parser`` as (its words, its parser)."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, prefix + (name,))
            return
    yield " ".join(prefix), parser


class TestKeyTables:
    """Each command declares its config keys once, in a table that reads the
    config and gives the command its --seed/--reps; the README follows."""

    TABLES = {"CONFIG_KEYS": montecarlo.CONFIG_KEYS} | {
        name: table for name, table in vars(cli).items() if name.endswith("_KEYS")
    }

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_readme_names_every_key(self, name):
        code = re.findall(r"```.*?```|`[^`\n]+`", _cli_section(), flags=re.S)
        words = set(re.findall(r"\w+", " ".join(code)))
        assert set(self.TABLES[name]) <= words, set(self.TABLES[name]) - words

    def test_readme_flag_table_matches_the_parser(self):
        rows = re.findall(r"^\| (`.*`) +\| (yes|no) +\| (yes|no) +\|$", _cli_section(), flags=re.M)
        readme = {
            command: {flag for flag, has in (("--seed", seed), ("--reps", reps)) if has == "yes"}
            for names, seed, reps in rows for command in re.findall(r"`([^`]+)`", names)
        }
        parsed = {
            command: {flag for action in sub._actions for flag in action.option_strings} & {"--seed", "--reps"}
            for command, sub in _commands(cli._build_parser.__wrapped__())
        }
        assert readme == parsed


class TestOutRule:
    """--out writes JSON when the path ends in .json and CSV otherwise; the
    JSON-only commands refuse any other path."""

    @pytest.mark.parametrize("argv,payload,fields", [
        (["simulate"], _simulate_payload(reps=10), tuple(SUMMARY_HEADER.split(","))),
        (["power-curve"], {**_simulate_payload(reps=10), "scales": [0.0, 1.0]}, tuple(POWER_CURVE_HEADER.split(","))),
    ])
    def test_other_suffix_writes_csv(self, argv, payload, fields, tmp_path):
        cfg = _config(tmp_path, "cfg.json", payload)
        out = tmp_path / "out.txt"
        assert main(argv + ["--config", cfg, "--out", str(out)]) == 0
        header, *_ = _rows(out)
        assert header == ",".join(fields)

    @pytest.mark.parametrize("argv,payload", [
        (["minimax-design"], _DESIGN),
        (["project-besov"], {"theta": {"basis": "cosine", "coeffs": [1.0, 1.0]}, "s": 1.0, "p0": 0.5}),
        (["calibrate", "cvm"], {"n": 40, "reps": 100, "seed": 1}),
    ])
    def test_json_only_commands_refuse_other_paths(self, argv, payload, tmp_path, capsys):
        cfg = _config(tmp_path, "cfg.json", payload)
        for name in ("d.csv", "d.txt", "d"):
            with pytest.raises(SystemExit) as excinfo:
                main(argv + ["--config", cfg, "--out", str(tmp_path / name)])
            assert excinfo.value.code == 2
            assert "--out" in capsys.readouterr().err
            assert not (tmp_path / name).exists()
        assert main(argv + ["--config", cfg, "--out", str(tmp_path / "d.json")]) == 0
        json.loads((tmp_path / "d.json").read_text())


class TestExitCodes:
    @pytest.mark.parametrize("family", ["chisq", "cvm"])
    def test_density_families_refuse_sigma(self, family, tmp_path, capsys):
        """An i.i.d. sample has no noise level: chisq and cvm refuse any
        sigma but 1, which they would not read."""
        assert main(["simulate", "--config", _config(tmp_path, "sim.json", {**_params(family), "sigma": 2.0})]) == 2
        err = capsys.readouterr().err
        assert "invalid config:" in err and "'sigma' must be 1, got 2.0" in err
        assert main(["simulate", "--config", _config(tmp_path, "sim.json", {**_params(family), "sigma": 1.0})]) == 0

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.json")]) == 2
        assert "invalid config:" in capsys.readouterr().err

    def test_no_config_flag(self, capsys):
        assert main(["simulate"]) == 2
        assert "--config" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_non_object_root(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["simulate", "--config", str(path)]) == 2

    def test_unknown_family(self, tmp_path):
        cfg = _config(tmp_path, "sim.json", _simulate_payload(family="bogus"))
        assert main(["simulate", "--config", cfg]) == 2

    def test_unwritable_output_is_an_io_error(self, tmp_path, capsys):
        cfg = _config(tmp_path, "sim.json", _simulate_payload(reps=10))
        out = tmp_path / "missing_dir" / "x.csv"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert "io error:" in capsys.readouterr().err

    def test_numeric_failure_exits_4(self, tmp_path, monkeypatch, capsys):
        def boom(**kwargs):
            raise NumericError("calibration diverged")

        monkeypatch.setattr("seqtest.cli.calibrate_cvm", boom)
        cfg = _config(tmp_path, "cal.json", {"n": 40})
        assert main(["calibrate", "cvm", "--config", cfg]) == 4
        assert "numeric failure:" in capsys.readouterr().err

    def test_missing_subcommand_is_a_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_is_a_usage_error(self, threads, tmp_path, capsys):
        cfg = _config(tmp_path, "sim.json", _simulate_payload(reps=10))
        with pytest.raises(SystemExit) as excinfo:
            main(["simulate", "--config", cfg, "--threads", threads])
        assert excinfo.value.code == 2
        assert "--threads" in capsys.readouterr().err


class TestParserReuse:
    """``main`` builds its parser once; a later call must parse, print help
    and fail on bad usage exactly as a fresh parser does."""

    @staticmethod
    def _exit(argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        out = capsys.readouterr()
        return excinfo.value.code, out.out, out.err

    def test_help_and_usage_errors_repeat(self, tmp_path, capsys):
        argvs = (["--help"], ["power-curve", "--help"], ["experiment", "decomposition", "--help"],
                 ["simulate", "--threads", "0"], ["calibrate"], ["bogus"])
        first = [self._exit(argv, capsys) for argv in argvs]
        assert [code for code, *_ in first] == [0, 0, 0, 2, 2, 2]
        cfg = _config(tmp_path, "sim.json", _simulate_payload(reps=10))
        assert main(["simulate", "--config", cfg, "--seed", "3"]) == 0
        capsys.readouterr()
        assert [self._exit(argv, capsys) for argv in reversed(argvs)] == first[::-1]
        assert cli._build_parser() is cli._build_parser()
        assert cli._build_parser.__wrapped__().format_help() == first[0][1]

    def test_defaults_do_not_leak_between_calls(self, tmp_path):
        cfg = _config(tmp_path, "sim.json", _simulate_payload(reps=10))
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", cfg, "--seed", "3", "--reps", "20", "--out", str(first)]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(second)]) == 0
        rows = [dict(zip(SUMMARY_HEADER.split(","), _rows(path)[1].split(","))) for path in (first, second)]
        assert [(row["reps"], row["seed"]) for row in rows] == [("20", "3"), ("10", "7")]


class TestOverrideFlags:
    """--seed/--reps exist only where the command's config has that key."""

    @pytest.mark.parametrize("argv,flag", [
        (["minimax-design"], "--reps"),
        (["minimax-design"], "--seed"),
        (["project-besov"], "--reps"),
        (["project-besov"], "--seed"),
        (["experiment", "bayes-membership"], "--reps"),
    ])
    def test_absent_flag_is_a_usage_error(self, argv, flag, tmp_path, capsys):
        cfg = _config(tmp_path, "cfg.json", _DESIGN)
        with pytest.raises(SystemExit) as excinfo:
            main(argv + ["--config", cfg, flag, "5"])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    def test_bayes_membership_seed_override(self, tmp_path, capsys):
        cfg = _config(tmp_path, "bayes.json", {**_DESIGN, "delta": 0.2, "draws": 10, "seed": 1})
        out = tmp_path / "bayes.csv"
        argv = ["experiment", "bayes-membership", "--config", cfg, "--seed", "77001", "--out", str(out)]
        assert main(argv) == 0
        _, row = _rows(out)
        assert dict(zip(MEMBERSHIP_HEADER.split(","), row.split(",")))["seed"] == "77001"


# every subcommand with a small valid config; the fuzz below breaks them
_FUZZ_THETA = {"basis": "cosine", "coeffs": [0.05, 0.02]}
_FUZZ_SIMULATE = {"n": 200, "reps": 10, "seed": 1, "alpha": 0.05, "sigma": 1.0}
_FUZZ_DESIGN = {"s": 1.0, "p0": 1.0, "rho_n": 2e-3, "n": 200, "sigma": 1.0, "j_max": 256}
_FUZZ_BASES = {
    "simulate quadratic": (["simulate"], {
        **_FUZZ_SIMULATE, "family": "quadratic", "theta": _FUZZ_THETA, "params": {"gamma": 2.0, "j_max": 64},
    }),
    "simulate kernel": (["simulate"], {
        **_FUZZ_SIMULATE, "family": "kernel",
        "theta": {"basis": "complex-exponential", "coeffs": [[0.0, 0.0], [0.05, 0.0]]},
        "params": {"kernel": "box", "h": 0.1, "j_max": 64},
    }),
    "simulate chisq": (["simulate"], {
        **_FUZZ_SIMULATE, "family": "chisq",
        "theta": {"basis": "complex-exponential", "coeffs": [[0.0, 0.0], [0.1, 0.0]]}, "params": {"k": 8},
    }),
    "simulate cvm": (["simulate"], {
        **_FUZZ_SIMULATE, "family": "cvm", "theta": _FUZZ_THETA,
        "params": {"calibration_reps": 100, "calibration_seed": 1, "cache_dir": "cache"},
    }),
    "simulate minimax": (["simulate"], {
        **_FUZZ_SIMULATE, "family": "minimax",
        "params": {"s": 1.0, "p0": 1.0, "rho_n": 2e-3, "j_max": 256, "least_favorable": True},
    }),
    "power-curve": (["power-curve"], {
        **_FUZZ_SIMULATE, "family": "quadratic", "theta": _FUZZ_THETA,
        "params": {"kappa_sq": [1e-4, 1e-4, 5e-5]}, "scales": [0.0, 1.0],
    }),
    "consistency": (["experiment", "consistency"], {
        "family": "quadratic", "s": 1.0, "c_schedule": [1.0, 4.0], "n": 200, "reps": 10, "seed": 1,
        "alpha": 0.05, "norm_scale": 2.0,
    }),
    "decomposition": (["experiment", "decomposition"], {
        **_FUZZ_SIMULATE, "family": "quadratic", "theta": _FUZZ_THETA,
        "params": {"gamma": 2.0, "j_max": 64}, "s": 1.0, "gammas": [0.5, 1.0],
    }),
    "bayes-membership": (["experiment", "bayes-membership"], {
        **_FUZZ_DESIGN, "delta": 0.2, "draws": 10, "seed": 1,
    }),
    "minimax-design": (["minimax-design"], {**_FUZZ_DESIGN, "alpha": 0.05}),
    "inverse design": (["minimax-design"], {
        **_FUZZ_DESIGN, "rho_n": 0.1, "j_max": 4, "lambdas": [1.0, 0.5, 0.25, 0.125],
    }),
    "project-besov": (["project-besov"], {
        "theta": {"basis": "cosine", "coeffs": [1.0, 1.0, 1.0]}, "s": 1.0, "p0": 0.5,
    }),
    "calibrate cvm": (["calibrate", "cvm"], {"n": 40, "reps": 100, "seed": 1, "cache_dir": "cache"}),
}
# the commands that write JSON only; the others get .csv or .json at random
_JSON_ONLY = ("minimax-design", "project-besov", "calibrate cvm")
# wrong types, non-finite numbers and other lists; no value here, and none
# that _damaged derives, asks for a large allocation
_BAD_VALUES = ["x", True, [], {}, ["a"], [[1.0]], math.nan, math.inf, -math.inf, -1, 0]
# huge smoothness values, which overflow k^(2s); only s gets these, since a
# huge p0 or rho_n moves the breakpoint k_n, and p0 ~ 1e12 alone asks for a
# multi-GB truncation
_HUGE_S = [400, 1e3]
_BAD_THETAS = [
    {"basis": "haar", "coeffs": [0.05, 0.02]},
    {"basis": "bogus", "coeffs": [0.05]},
    {"basis": "complex-exponential", "coeffs": [[0.0, 0.0], [0.05]]},
    {"basis": "cosine", "coeffs": [[0.05, 0.0]]},
    {"basis": "cosine", "coeffs": []},
    {"basis": "cosine"},
    {"basis": "cosine", "coeffs": [1e200, 1.0]},
    {"basis": "cosine", "coeffs": [1e300, -1e300]},
    {"basis": "cosine", "coeffs": [0.05, 1e300]},
    {"basis": "complex-exponential", "coeffs": [[0.0, 0.0], [1e200, -1e300]]},
    {"basis": "cosine", "coeffs": [10**400]},
]
# a cache file cut short, for the (n, reps, seed) the cvm configs above calibrate
_TORN_CACHE = '{{"n": {n}, "reps": 100, "seed": 1, "values": [0.01, 0.'


def _damaged(value) -> list:
    """Negative, zero and fractional stand-ins for a number or a list of
    numbers; a negated schedule is reversed so that it still increases."""
    if isinstance(value, bool):
        return []
    if isinstance(value, (int, float)):
        return [-value, 0, value + 0.5]
    if isinstance(value, list) and value and all(isinstance(v, (int, float)) for v in value):
        return [[-v for v in reversed(value)], [0] * len(value), [v + 0.5 for v in value]]
    return []


def _mutate(draw, payload: dict) -> bool:
    """Apply one random damage to ``payload``; True asks for torn cache files."""
    kind = draw(st.sampled_from(["value", "param", "drop", "unknown", "theta", "cache"]))
    params = payload.get("params")
    target = params if kind == "param" and isinstance(params, dict) and params else payload
    if kind in ("value", "param") and target:
        key = draw(st.sampled_from(sorted(target)))
        huge = _HUGE_S if key == "s" else []
        target[key] = draw(st.sampled_from(_damaged(target[key]) + _BAD_VALUES + huge))
    elif kind == "drop" and payload:
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif kind == "unknown":
        target = params if isinstance(params, dict) and draw(st.booleans()) else payload
        target["sigam"] = 2.0
    elif kind == "theta":
        payload["theta"] = draw(st.sampled_from(_BAD_THETAS))
    return kind == "cache"


@st.composite
def _fuzz_cases(draw, name: str):
    argv, base = _FUZZ_BASES[name]
    payload = copy.deepcopy(base)
    torn = False
    for _ in range(draw(st.integers(1, 2))):
        torn |= _mutate(draw, payload)
    ext = "json" if " ".join(argv) in _JSON_ONLY else draw(st.sampled_from(["csv", "json"]))
    return argv, payload, torn, ext


def _strict_json(text: str):
    """json.loads that refuses NaN and Infinity, which are not JSON."""
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


class TestConfigFuzz:
    """Damaged configs for every subcommand end in exit 0, 2, 3 or 4, never
    in an exception out of ``main``, and every JSON file written is strict
    JSON."""

    @pytest.mark.parametrize("name", sorted(_FUZZ_BASES))
    def test_base_config_is_valid(self, name, tmp_path, monkeypatch, capsys):
        # a base that already exits 2 would make its damaged variants vacuous
        argv, base = _FUZZ_BASES[name]
        monkeypatch.chdir(tmp_path)  # the relative cache_dir stays in here
        ext = "json" if " ".join(argv) in _JSON_ONLY else "csv"
        code = main(argv + ["--config", _config(tmp_path, "cfg.json", base), "--out", f"out.{ext}"])
        assert code == 0, capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(_FUZZ_BASES))
    def test_every_config_exits_cleanly(self, name):
        @settings(max_examples=40, derandomize=True, deadline=None)
        @given(_fuzz_cases(name))
        def run(case):
            argv, payload, torn, ext = case
            err = io.StringIO()
            home = os.getcwd()
            with tempfile.TemporaryDirectory() as workdir:
                os.chdir(workdir)  # relative cache_dir and any stray string path stay in here
                try:
                    if torn:
                        os.mkdir("cache")
                        for n in (40, 200):
                            with open(f"cache/cvm_null_n{n}_reps100_seed1.json", "w") as fh:
                                fh.write(_TORN_CACHE.format(n=n))
                    with open("cfg.json", "w") as fh:
                        json.dump(payload, fh)
                    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                        code = main(argv + ["--config", "cfg.json", "--threads", "1", "--out", f"out.{ext}"])
                    if ext == "json" and os.path.exists("out.json"):
                        with open("out.json") as fh:
                            _strict_json(fh.read())
                finally:
                    os.chdir(home)
            assert code in (0, 2, 3, 4), err.getvalue()
            assert "Traceback" not in err.getvalue()

        run()


# Each command's config keys, from the tables the code declares: a key added
# to a table is fuzzed with no new test.  power-curve and decomposition read
# their own keys ahead of CONFIG_KEYS.
_COMMAND_KEYS = {
    "simulate": montecarlo.CONFIG_KEYS,
    "power-curve": {"scales": (list[float], montecarlo.REQUIRED), **montecarlo.CONFIG_KEYS},
    "experiment consistency": cli.CONSISTENCY_KEYS,
    "experiment decomposition": {
        "s": (float, montecarlo.REQUIRED), "gammas": (list[float], montecarlo.REQUIRED), **montecarlo.CONFIG_KEYS,
    },
    "experiment bayes-membership": cli.MEMBERSHIP_KEYS,
    "minimax-design": cli.MINIMAX_DESIGN_KEYS,
    "project-besov": cli.PROJECTION_KEYS,
    "calibrate cvm": cli.CALIBRATION_KEYS,
}
# the counts of work a run does; a huge one is a run that never ends, not a
# traceback or an allocation, so these take small or invalid values only
_WORK_COUNTS = {"reps", "draws", "calibration_reps"}
_SMALL_COUNTS = [1, 2, 8, 0, -1, 1.5, 5e-324, math.nan, math.inf, -1e300, -(2**63), "x", True, None, []]
# every kind's neighbours: non-finite, extreme and fractional numbers, wrong types, empty and nested lists
_EXTREMES = [math.nan, math.inf, -math.inf, 5e-324, 1e-150, 1e300, -1e300, 0, -1, 0.5, 1, 2**63, 2**64 + 1]
_WRONG_TYPES = ["x", "", True, None, [], [[]], [[1.0, 2.0]], {}]
# the valid words of the string keys that take one
_WORDS = {"family": sorted(montecarlo.FAMILIES), "kernel": sorted(montecarlo.kernels_mod.KERNELS)}
# the size rule's reading of this machine's memory, lowered so that no fuzz
# case allocates more than 128 MB (a length the real rule admits is then
# refused, through the same check), whatever machine runs the suite
_FUZZ_FLOATS = 2**24
_FUZZ_EXAMPLES = max(300, settings().max_examples)  # HYPOTHESIS_PROFILE=long asks for more


def _number_lists(draw) -> list:
    element = st.sampled_from(_EXTREMES) | st.lists(st.sampled_from(_EXTREMES), max_size=3)
    return draw(st.lists(element, max_size=3))


def _fuzz_value(draw, key: str, kind):
    """A value of ``kind`` or one of its neighbours, for ``key``."""
    if key in _WORK_COUNTS:
        return draw(st.sampled_from(_SMALL_COUNTS))
    if kind is montecarlo.Spectrum:
        basis = draw(st.sampled_from(["cosine", "complex-exponential", "haar"]))
        return draw(st.sampled_from([{"basis": basis, "coeffs": _number_lists(draw)}, *_WRONG_TYPES]))
    if kind is np.ndarray or typing.get_origin(kind) is list:
        return draw(st.sampled_from([_number_lists(draw), *_EXTREMES, *_WRONG_TYPES]))
    if kind is dict:
        return draw(st.sampled_from([{}, {"sigam": 2.0}, *_WRONG_TYPES]))
    return draw(st.sampled_from([*_WORDS.get(key, []), *_EXTREMES, *_WRONG_TYPES]))


def _small(argv: list, base: dict) -> tuple:
    """A fuzz base with at most 8 replications or draws; a CvM calibration needs 100."""
    counts = {} if argv == ["calibrate", "cvm"] else {key: 8 for key in ("reps", "draws") if key in base}
    return argv, {**base, **counts}


_SMALL_BASES = {name: _small(*base) for name, base in _FUZZ_BASES.items()}


@st.composite
def _table_fuzz_cases(draw):
    name = draw(st.sampled_from(sorted(_SMALL_BASES)))
    argv, base = _SMALL_BASES[name]
    payload = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 2))):
        params = payload.get("params")
        family = montecarlo.FAMILIES.get(payload.get("family")) if isinstance(payload.get("family"), str) else None
        tables = [_COMMAND_KEYS[" ".join(argv)]]
        if family is not None and isinstance(params, dict):
            tables.append(family.params)
        table = draw(st.sampled_from(tables))
        target = payload if table is tables[0] else params
        action = draw(st.sampled_from(["set", "set", "drop", "unknown"]))
        if action == "unknown":
            target["sigam"] = 2.0
        elif action == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        else:
            key = draw(st.sampled_from(sorted(table)))
            target[key] = _fuzz_value(draw, key, table[key][0])
    return name, argv, payload


class TestKeyTableFuzz:
    """One or two keys of a small valid config of each command, each set to
    a value of its declared kind or a neighbour of it, or dropped, or an
    unknown key added: ``main`` ends in exit 0, 2, 3 or 4, and no exception
    escapes it.  The only warning accepted is the chi-square drift window's,
    which a valid run may print."""

    @pytest.mark.parametrize("name", sorted(_SMALL_BASES))
    def test_base_config_is_small_and_valid(self, name, tmp_path, monkeypatch, capsys):
        argv, base = _SMALL_BASES[name]
        assert base.get("n", 0) <= 1000 and base.get("draws", 0) <= 8
        assert base.get("reps", 0) <= (100 if argv == ["calibrate", "cvm"] else 8)
        monkeypatch.chdir(tmp_path)
        assert main(argv + ["--config", _config(tmp_path, "cfg.json", base)]) == 0, capsys.readouterr().err

    def test_every_mutation_exits_cleanly(self, monkeypatch):
        monkeypatch.setattr(errors, "physical_floats", lambda: _FUZZ_FLOATS)

        @settings(max_examples=_FUZZ_EXAMPLES, derandomize=True, deadline=None)
        @given(_table_fuzz_cases())
        def run(case):
            name, argv, payload = case
            err = io.StringIO()
            home = os.getcwd()
            with tempfile.TemporaryDirectory() as workdir:
                os.chdir(workdir)  # a relative cache_dir stays in here
                try:
                    with open("cfg.json", "w") as fh:
                        json.dump(payload, fh)
                    with warnings.catch_warnings():
                        warnings.filterwarnings("ignore", r"population functional .* outside", UserWarning)
                        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                            code = main(argv + ["--config", "cfg.json", "--threads", "1"])
                finally:
                    os.chdir(home)
            event(f"exit {code}")
            assert code in (0, 2, 3, 4), (name, payload, err.getvalue())

        run()
