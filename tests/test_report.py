"""The normal approximation in ``report``, checked against scipy, and the
library's independence from scipy at run time."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import norm

import seqtest
from seqtest.cli import main
from seqtest import report as report_mod
from seqtest.report import normal_cdf, normal_type2, upper_quantile

_SRC = str(Path(seqtest.__file__).resolve().parent.parent)
_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")])))


def _probe(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code], env=_ENV, capture_output=True, text=True, check=True)


class TestUpperQuantile:
    def test_within_8_ulp_of_scipy_down_to_1e_300(self):
        # log-spaced tail values plus a linear sweep through the centre
        alphas = np.concatenate([np.logspace(-300, math.log10(0.99), 2001), np.linspace(1e-4, 0.99, 2001)])
        for alpha in alphas:
            x, want = upper_quantile(float(alpha)), float(norm.isf(alpha))
            assert math.isfinite(x)
            assert abs(x - want) <= 8 * math.ulp(want), alpha

    def test_tiny_alpha_simulate_detects_a_strong_signal(self, tmp_path, capsys):
        # x_alpha = 8.49 at alpha = 1e-17 sits far below this signal's drift
        cfg = tmp_path / "tiny.json"
        cfg.write_text(json.dumps({
            "family": "quadratic", "n": 300, "reps": 50, "seed": 1, "alpha": 1e-17,
            "theta": {"basis": "cosine", "coeffs": [3.0, 1.0]},
            "params": {"gamma": 2.0, "j_max": 64},
        }))
        assert main(["simulate", "--config", str(cfg)]) == 0
        assert "(50/50)" in capsys.readouterr().out

    def test_rejects_alpha_outside_the_unit_interval(self):
        for alpha in (0.0, 1.0, -0.1, math.nan):
            with pytest.raises(seqtest.ConfigError):
                upper_quantile(alpha)


class TestNormalCdf:
    def test_within_1e_13_relative_of_scipy_ndtr(self):
        for x in np.linspace(-8.0, 8.0, 16001):
            want = float(ndtr(x))
            assert abs(normal_cdf(float(x)) - want) <= 1e-13 * want, x

    def test_type2_is_phi_of_quantile_minus_drift(self):
        assert normal_type2(0.0, 0.05) == normal_cdf(upper_quantile(0.05))
        assert normal_type2(1.3, 0.01) == normal_cdf(upper_quantile(0.01) - 1.3)


class TestDecision:
    @pytest.mark.parametrize("standardized, reject", [(1.5, False), (np.nextafter(1.5, 2.0), True), (-3.0, False)])
    def test_reject_is_read_off_the_statistic(self, standardized, reject):
        """A report rejects when its standardized statistic exceeds the
        threshold, strictly; no caller sets the decision."""
        report = report_mod.TestReport("chisq", 0.0, standardized, 1.5, 0.05, 100)
        assert report.reject is reject
        with pytest.raises(TypeError):
            report_mod.TestReport("chisq", 0.0, standardized, 1.5, 0.05, 100, reject=not reject)


class TestNoScipyAtRunTime:
    def test_import_loads_no_scipy_module(self):
        probe = "import sys, seqtest; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        assert _probe(probe).stdout.strip() == "[]"

    def test_cli_runs_with_scipy_blocked(self, tmp_path):
        # sys.modules[name] = None makes any later `import scipy` fail
        simulate = {
            "family": "quadratic", "n": 300, "reps": 20, "seed": 1,
            "theta": {"basis": "cosine", "coeffs": [0.1]}, "params": {"gamma": 2.0, "j_max": 64},
        }
        curve = {
            "family": "chisq", "n": 200, "reps": 20, "seed": 2,
            "theta": {"basis": "complex-exponential", "coeffs": [[0, 0], [0.1, 0]]},
            "params": {"k": 8}, "scales": [0.5, 1.0],
        }
        design = {"s": 1.0, "p0": 1.0, "rho_n": 3e-4, "n": 10000}
        # command -> (config, output suffix)
        configs = {"simulate": (simulate, ".csv"), "power-curve": (curve, ".csv"), "minimax-design": (design, ".json")}
        runs = []
        for command, (payload, suffix) in configs.items():
            path = tmp_path / f"{command}-config.json"
            path.write_text(json.dumps(payload))
            runs.append([command, "--config", str(path), "--out", str(tmp_path / f"{command}{suffix}")])
        probe = (
            "import sys; sys.modules['scipy'] = None\n"
            "from seqtest.cli import main\n"
            f"print([main(argv) for argv in {runs!r}])\n"
        )
        assert _probe(probe).stdout.strip().splitlines()[-1] == "[0, 0, 0]"
