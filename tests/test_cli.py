"""Command-line contract: exit codes, output files, overrides, determinism.

Everything drives ``seqtest.cli.main`` in-process with small replication
counts; the statistical content of what the commands compute is covered by
the per-module tests.
"""

import contextlib
import copy
import io
import json
import math
import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqtest.cli import SUMMARY_FIELDS, main
from seqtest.design import solve_design
from seqtest.errors import NumericError
from seqtest.experiments import (
    CONSISTENCY_FIELDS,
    DECOMPOSITION_FIELDS,
    MEMBERSHIP_FIELDS,
    POWER_CURVE_FIELDS,
    bayes_membership_rate,
)

HASH_RE = re.compile(r"^[0-9a-f]{12}$")


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
        assert header == ",".join(SUMMARY_FIELDS)
        cells = row.split(",")
        assert cells[0].startswith("quadratic-")
        assert cells[SUMMARY_FIELDS.index("seed")] == "7"
        assert HASH_RE.match(cells[SUMMARY_FIELDS.index("config_hash")])
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
        cells = row.split(",")
        assert cells[SUMMARY_FIELDS.index("seed")] == "99"
        assert cells[SUMMARY_FIELDS.index("reps")] == "30"

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
        assert header == ",".join(POWER_CURVE_FIELDS)
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
        assert header == ",".join(CONSISTENCY_FIELDS)
        assert len(rows) == 2

    def test_consistency_rejects_leftover_keys(self, tmp_path):
        cfg = _config(tmp_path, "cons.json", {
            "family": "quadratic", "s": 1.0, "c_schedule": [1.0, 4.0],
            "n": 300, "reps": 10, "seed": 11, "bogus": 1,
        })
        assert main(["experiment", "consistency", "--config", cfg]) == 2

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
        assert header == ",".join(DECOMPOSITION_FIELDS)
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

    def test_infeasible_radius_exits_3(self, tmp_path, capsys):
        cfg = _config(tmp_path, "design.json", {
            "s": 1.0, "p0": 1.0, "rho_n": 10.0, "n": 100,
        })
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
        assert header == ",".join(MEMBERSHIP_FIELDS)
        cells = dict(zip(MEMBERSHIP_FIELDS, row.split(",")))
        assert int(cells["members"]) == want["members"]
        assert cells["seed"] == "77001"

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

BAD_CONFIGS = {
    "chisq k": (["simulate"], _params("chisq", k="x")),
    "kernel h": (["simulate"], _params("kernel", h="x")),
    # past 1/(4b) the quartic Poisson identity fails and the null variance grows
    "kernel h past its bound": (["simulate"], _params("kernel", h=0.3)),
    "kernel name": (["simulate"], _params("kernel", kernel=["box"])),
    "quadratic gamma": (["simulate"], _params("quadratic", gamma="a")),
    "quadratic kappa_sq": (["simulate"], _params("quadratic", kappa_sq=["a"])),
    "minimax s": (["simulate"], _params("minimax", s="a")),
    "minimax j_max": (["simulate"], _params("minimax", j_max="x")),
    "calibration_reps": (["simulate"], _params("cvm", calibration_reps="x")),
    "sigma nan": (["simulate"], _simulate_payload(sigma="nan")),
    "fractional seed": (["simulate"], _simulate_payload(seed=1.5)),
    "scalar scales": (["power-curve"], {**_simulate_payload(reps=10), "scales": 3}),
    "text scales": (["power-curve"], {**_simulate_payload(reps=10), "scales": ["a"]}),
    "scalar c_schedule": (["experiment", "consistency"], {**_CONSISTENCY, "c_schedule": 5}),
    "text gammas": (["experiment", "decomposition"], {**_DECOMPOSITION, "gammas": "ab"}),
    "design j_max": (["minimax-design"], {**_DESIGN, "j_max": "x"}),
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
    # petabyte-scale arrays, refused before anything is allocated; a size
    # between about 1e8 and 1e13 elements might really be allocated
    "quadratic petabyte j_max": (["simulate"], _params("quadratic", j_max=10**15)),
    "kernel petabyte j_max": (["simulate"], _params("kernel", j_max=10**15)),
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
    "cvm negative calibration_seed": (
        ["simulate"], _params("cvm", calibration_reps=100, calibration_seed=-1, cache_dir="cache"),
    ),
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


class TestOutRule:
    """--out writes JSON when the path ends in .json and CSV otherwise; the
    JSON-only commands refuse any other path."""

    @pytest.mark.parametrize("argv,payload,fields", [
        (["simulate"], _simulate_payload(reps=10), SUMMARY_FIELDS),
        (["power-curve"], {**_simulate_payload(reps=10), "scales": [0.0, 1.0]}, POWER_CURVE_FIELDS),
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
        assert dict(zip(MEMBERSHIP_FIELDS, row.split(",")))["seed"] == "77001"


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
