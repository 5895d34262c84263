"""Command-line contract: exit codes, output files, overrides, determinism.

Everything drives ``seqtest.cli.main`` in-process with small replication
counts; the statistical content of what the commands compute is covered by
the per-module tests.
"""

import json
import re

import numpy as np
import pytest

from seqtest.cli import SUMMARY_FIELDS, main
from seqtest.errors import NumericError
from seqtest.experiments import (
    CONSISTENCY_FIELDS,
    DECOMPOSITION_FIELDS,
    POWER_CURVE_FIELDS,
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
