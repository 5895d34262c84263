"""Experiment drivers and table writers.

The drivers are thin loops over the Monte Carlo engine, so these tests pin
the *bookkeeping*: row schemas, scheduling rules, infeasibility errors, and
the exact text the writers emit.  Engine correctness lives in
test_montecarlo.py.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from helpers import prior_members
from seqtest import montecarlo
from seqtest.design import solve_design, solve_inverse_design
from seqtest.errors import ConfigError, NumericError
from seqtest.experiments import (
    bayes_membership_rate,
    consistency_experiment,
    maxiset_decomposition_experiment,
    power_curve,
    write_csv,
    write_json,
)
from seqtest.montecarlo import ExperimentConfig
from seqtest.sampling import BLOCK_BYTES
from seqtest.spectra import Spectrum, besov_seminorm

NULL_RATE_BAND = 0.05  # |rate - alpha| at 400 reps; ~4.6 binomial sigmas

# each driver's row keys, in order; the CLI writes them as its CSV columns
POWER_CURVE_KEYS = (
    "scale", "power", "empirical_type2", "predicted_type2", "gap", "std_err", "reps", "seed", "config_hash",
)
CONSISTENCY_KEYS = ("C", "m", "n", "power", "predicted_drift", "std_err", "reps", "seed", "config_hash")
DECOMPOSITION_KEYS = (
    "gamma", "power_f", "power_projected", "power_residual", "gap",
    "std_err_f", "std_err_projected", "std_err_residual", "reps", "seed", "config_hash",
)
MEMBERSHIP_KEYS = ("draws", "members", "rate", "std_err", "delta", "seed")


def _quadratic_config(reps: int = 400, seed: int = 71, coeffs=(0.15, 0.05)) -> ExperimentConfig:
    return ExperimentConfig(
        family="quadratic",
        n=500,
        reps=reps,
        seed=seed,
        theta=Spectrum("cosine", np.array(coeffs)),
        params={"gamma": 2.0, "j_max": 64},
    )


def _cvm_config(reps: int = 30) -> ExperimentConfig:
    return ExperimentConfig(
        family="cvm", n=60, reps=reps, seed=9,
        theta=Spectrum("cosine", np.array([0.25, -0.1])), params={"calibration_reps": 300},
    )


# each driver with a small call, and the keys of its rows
DRIVER_ROWS = {
    "power curve": (lambda: power_curve(_quadratic_config(reps=20), scales=[0.0, 1.0, 2.0]), POWER_CURVE_KEYS),
    "cvm power curve": (lambda: power_curve(_cvm_config(), scales=[0.0, 1.0]), POWER_CURVE_KEYS),
    "consistency": (
        lambda: consistency_experiment("quadratic", 1.0, [1.0, 4.0, 8.0], 400, reps=10, seed=5), CONSISTENCY_KEYS,
    ),
    "decomposition": (
        lambda: maxiset_decomposition_experiment(_quadratic_config(reps=10), s=1.0, gammas=[0.1, 0.2]),
        DECOMPOSITION_KEYS,
    ),
    "bayes membership": (
        lambda: [bayes_membership_rate(solve_design(s=1.0, p0=1.0, rho_n=1e-2, n=1000), 0.3, 5, 88)],
        MEMBERSHIP_KEYS,
    ),
}


@pytest.mark.parametrize("name", sorted(DRIVER_ROWS))
def test_every_row_has_the_first_rows_keys(name):
    """The CLI writes a CSV's columns from its first row's keys, so every
    row must hold those keys, in that order."""
    run, keys = DRIVER_ROWS[name]
    rows = run()
    assert [tuple(row) for row in rows] == [tuple(rows[0])] * len(rows)
    assert tuple(rows[0]) == keys


class TestPowerCurve:
    def test_row_schema_and_identities(self):
        rows = power_curve(_quadratic_config(reps=200), scales=[0.0, 1.0, 2.0])
        assert len(rows) == 3
        for row in rows:
            assert tuple(row) == POWER_CURVE_KEYS
            assert row["empirical_type2"] == 1.0 - row["power"]
            assert row["gap"] == abs(row["empirical_type2"] - row["predicted_type2"])
            assert row["reps"] == 200
            assert row["seed"] == 71

    def test_scale_zero_is_the_null(self):
        rows = power_curve(_quadratic_config(), scales=[0.0])
        assert rows[0]["power"] == pytest.approx(0.05, abs=NULL_RATE_BAND)
        # zero drift: predicted type II error collapses to 1 - alpha
        assert rows[0]["predicted_type2"] == pytest.approx(0.95, rel=1e-12)

    def test_predicted_type2_decreases_with_scale(self):
        rows = power_curve(_quadratic_config(reps=10), scales=[0.0, 0.5, 1.0, 2.0])
        predicted = [row["predicted_type2"] for row in rows]
        assert all(b < a for a, b in zip(predicted, predicted[1:]))

    def test_scales_change_the_config_hash(self):
        rows = power_curve(_quadratic_config(reps=10), scales=[1.0, 2.0])
        assert rows[0]["config_hash"] != rows[1]["config_hash"]
        assert all(len(row["config_hash"]) == 12 for row in rows)

    def test_cvm_rows_have_no_prediction(self):
        rows = power_curve(_cvm_config(), scales=[0.0, 1.0])
        assert all(row["predicted_type2"] is None for row in rows)
        assert all(row["gap"] is None for row in rows)

    def test_needs_a_base_signal(self):
        config = ExperimentConfig(
            family="quadratic", n=500, reps=10, seed=1,
            params={"gamma": 2.0, "j_max": 64},
        )
        with pytest.raises(ConfigError, match="base signal"):
            power_curve(config, scales=[0.0, 1.0])


class TestConsistencyExperiment:
    def test_quadratic_schedule_rows(self):
        rows = consistency_experiment(
            "quadratic", s=1.0, c_schedule=[1.0, 8.0], n_schedule=400,
            reps=60, seed=5,
        )
        assert [tuple(row) for row in rows] == [CONSISTENCY_KEYS] * 2
        # m grows like C^{1/(2s)}: the block moves out as the radius grows
        assert rows[1]["m"] > rows[0]["m"]
        assert all(row["n"] == 400 for row in rows)
        assert all(row["predicted_drift"] > 0 for row in rows)

    def test_block_start_matches_the_budget_rule(self):
        rows = consistency_experiment(
            "quadratic", s=1.0, c_schedule=[1.0, 8.0], n_schedule=400,
            reps=10, seed=5, norm_scale=np.sqrt(8.0),
        )
        # r = 2s/(1+4s) = 0.4; m = round((C / (8 * n^{-0.8}))^{1/2})
        energy = 8.0 * 400.0**-0.8
        assert rows[0]["m"] == round((1.0 / energy) ** 0.5)
        assert rows[1]["m"] == round((8.0 / energy) ** 0.5)

    def test_chisq_family_runs(self):
        # at n=200 the pinned signal sits below the chisq drift window, so
        # the plan flags its type II prediction as unreliable
        with pytest.warns(UserWarning, match="outside"):
            rows = consistency_experiment(
                "chisq", s=1.0, c_schedule=[1.0, 4.0], n_schedule=[200, 200],
                reps=40, seed=17,
            )
        assert len(rows) == 2
        assert all(0.0 <= row["power"] <= 1.0 for row in rows)

    def test_tuned_kernel_takes_the_least_j_max_within_the_shift(self, monkeypatch):
        """A tuned kernel point takes max(1024, 2m + 8) when its null shift is
        within kernels.MAX_NULL_SHIFT there, as before, and otherwise the
        least j_max past it that is: at s = 0.5, n = 1e4 every point takes
        3118, so the three plans draw alike and form one group."""
        built = []

        def spy(resolved):
            built.append((resolved.params["h"], resolved.params["j_max"]))
            return plan(resolved)

        plan = montecarlo._plan
        monkeypatch.setattr(montecarlo, "_plan", spy)
        rows = consistency_experiment("kernel", 0.5, [1.0, 4.0, 16.0], 10**4, reps=5, seed=1)
        assert [row["m"] for row in rows] == [58, 232, 928]  # floors 1024, 1024, 1864
        assert [j_max for _, j_max in built] == [3118] * 3
        built.clear()
        rows = consistency_experiment("kernel", 1.0, [1.0, 4.0], 400, reps=5, seed=1)
        assert [j_max for _, j_max in built] == [max(1024, 2 * row["m"] + 8) for row in rows]

    def test_rejects_decreasing_schedule(self):
        with pytest.raises(ConfigError, match="increasing"):
            consistency_experiment("quadratic", 1.0, [4.0, 1.0], 400, reps=10, seed=1)

    def test_rejects_single_point(self):
        with pytest.raises(ConfigError, match="two points"):
            consistency_experiment("quadratic", 1.0, [4.0], 400, reps=10, seed=1)

    def test_rejects_cvm_family(self):
        with pytest.raises(ConfigError, match="quadratic, kernel"):
            consistency_experiment("cvm", 1.0, [1.0, 4.0], 400, reps=10, seed=1)

    def test_rejects_mismatched_n_schedule(self):
        with pytest.raises(ConfigError, match="match the C schedule"):
            consistency_experiment(
                "quadratic", 1.0, [1.0, 4.0], [400, 400, 400], reps=10, seed=1
            )

    def test_rejects_block_start_below_one(self):
        # at n=10 the pinned norm dwarfs the budget and m rounds to zero
        with pytest.raises(ConfigError, match="m >= 1"):
            consistency_experiment(
                "quadratic", 1.0, [1e-3, 2e-3], 10, reps=10, seed=1
            )


class TestDecompositionExperiment:
    def test_in_ball_signal_has_zero_gap(self):
        config = _quadratic_config(reps=80, seed=3, coeffs=(0.05, 0.02))
        semi = besov_seminorm(config.theta, 1.0)
        gammas = [2.0 * np.sqrt(semi), 4.0 * np.sqrt(semi)]
        rows = maxiset_decomposition_experiment(config, s=1.0, gammas=gammas)
        assert [tuple(row) for row in rows] == [DECOMPOSITION_KEYS] * 2
        for row in rows:
            # projection is the identity inside the ball, hashes coincide,
            # and the two runs share every replication stream
            assert row["power_f"] == row["power_projected"]
            assert row["gap"] == 0.0
            assert row["power_residual"] <= 0.2

    def test_repeated_configs_are_scored_once(self, monkeypatch, tmp_path):
        """f repeats once per gamma, and at the widest gamma its projection is
        f: each distinct config is planned and scored once, and the table
        has the bytes it had when every config was scored."""
        config = _quadratic_config(reps=300, seed=3, coeffs=(0.15, 0.05, 0.04))
        g = float(np.sqrt(besov_seminorm(config.theta, 1.0)))
        built, scored = [], []

        def counting(resolved):
            plan = plan_of(resolved)
            built.append(resolved.digest)

            def score(block):
                scored.append(resolved.digest)
                return plan.score(block)

            return replace(plan, score=score)

        plan_of = montecarlo._plan
        monkeypatch.setattr(montecarlo, "_plan", counting)
        rows = maxiset_decomposition_experiment(config, s=1.0, gammas=[0.4 * g, 0.7 * g, 2.0 * g])
        assert len(built) == len(set(built)) == 6
        assert sorted(scored) == sorted(built * 2)  # 300 replications: blocks of 256 and 44
        assert rows[2]["power_projected"] == rows[2]["power_f"]
        path = tmp_path / "decomposition.csv"
        write_csv(path, list(rows[0]), rows)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "311fc79ba15d7318d8b3574b06be6e61ea21a350f2beee7ce88fd98eeb21e890"
        )

    def test_hash_column_is_the_unprojected_config(self):
        config = _quadratic_config(reps=20, seed=3, coeffs=(0.05, 0.02))
        rows = maxiset_decomposition_experiment(config, s=1.0, gammas=[1.0, 2.0])
        assert rows[0]["config_hash"] == config.config_hash()

    def test_rejects_decreasing_gammas(self):
        config = _quadratic_config(reps=10)
        with pytest.raises(ConfigError, match="increasing"):
            maxiset_decomposition_experiment(config, s=1.0, gammas=[2.0, 1.0])

    def test_needs_a_signal(self):
        config = ExperimentConfig(
            family="quadratic", n=500, reps=10, seed=1,
            params={"gamma": 2.0, "j_max": 64},
        )
        with pytest.raises(ConfigError, match="signal f"):
            maxiset_decomposition_experiment(config, s=1.0, gammas=[1.0, 2.0])

    def test_density_floor_guards_the_sampling_families(self):
        # 1 + 1.2 cos(2 pi x) drops to -0.2: the sampler refuses it at plan time
        config = ExperimentConfig(
            family="chisq",
            n=200,
            reps=10,
            seed=2,
            theta=Spectrum("complex-exponential", np.array([0.0, 0.6])),
            params={"k": 8},
        )
        with pytest.raises(ConfigError, match="bounded away from zero"):
            maxiset_decomposition_experiment(config, s=1.0, gammas=[1.0, 2.0])


def _direct_prior_design(j_max=None):
    return solve_design(s=1.0, p0=1.0, rho_n=1e-2, n=1000, j_max=j_max)  # k_n = 17


# (design, delta, draws, seed); the direct design's support is 56 = 17 / 0.3
PRIOR_CASES = {
    "direct": (_direct_prior_design, 0.3, 50, 88),
    "inverse": (lambda: solve_inverse_design(1.0, 1.0, 1e-3, 1000, 1.0, 1.0 / np.arange(1, 501)), 0.3, 50, 88),
    "support past j_max": (lambda: _direct_prior_design(j_max=40), 0.3, 200, 88),
    "criterion 11": (lambda: solve_design(1.0, 1.0, 4e-5, 10_000), 0.2, 1000, 77_001),
    "one draw": (_direct_prior_design, 0.3, 1, 88),
    "partial last block": (_direct_prior_design, 0.3, 2 * (BLOCK_BYTES // (8 * 56)) + 17, 88),
}


class TestBayesMembershipRate:
    @pytest.mark.parametrize("case", list(PRIOR_CASES))
    def test_matches_a_manual_loop(self, case):
        make_design, delta, draws, seed = PRIOR_CASES[case]
        design = make_design()
        report = bayes_membership_rate(design, delta=delta, draws=draws, seed=seed)
        manual = prior_members(design, delta, draws, seed)
        assert report["members"] == manual
        assert report["rate"] == manual / draws
        assert report["std_err"] == pytest.approx(
            np.sqrt(report["rate"] * (1 - report["rate"]) / draws), rel=1e-12
        )
        assert set(report) == {"draws", "members", "rate", "std_err", "delta", "seed"}

    def test_rejects_zero_draws(self):
        design = solve_design(s=1.0, p0=1.0, rho_n=1e-2, n=1000)
        with pytest.raises(ConfigError, match="at least one"):
            bayes_membership_rate(design, delta=0.3, draws=0, seed=88)


class TestWriters:
    def test_csv_layout_and_formatting(self, tmp_path):
        path = tmp_path / "table.csv"
        rows = [
            {"a": 0.1, "b": None, "c": True, "d": 7, "e": "quadratic"},
            {"a": 1 / 3, "b": 2.5, "c": False, "d": -1, "e": "x,y"},
        ]
        write_csv(path, ("a", "b", "c", "d", "e"), rows)
        text = path.read_text()
        lines = text.split("\n")
        assert lines[0] == "# schema=v1"
        assert lines[1] == "a,b,c,d,e"
        assert lines[2] == "0.1,,True,7,quadratic"
        # repr floats survive a round trip; commas get quoted by the writer
        assert lines[3] == '0.3333333333333333,2.5,False,-1,"x,y"'
        assert text.endswith("\n")

    def test_csv_missing_keys_become_empty(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ("a", "b"), [{"a": 1}])
        assert path.read_text().split("\n")[2] == "1,"

    def test_csv_is_deterministic(self, tmp_path):
        rows = [{"x": np.float64(0.30000000000000004), "y": np.int64(3)}]
        write_csv(tmp_path / "one.csv", ("x", "y"), rows)
        write_csv(tmp_path / "two.csv", ("x", "y"), rows)
        assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
        assert "0.30000000000000004,3" in (tmp_path / "one.csv").read_text()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_json_rejects_non_finite(self, tmp_path, bad):
        path = tmp_path / "out.json"
        with pytest.raises(NumericError):
            write_json(path, {"seminorm": bad})
        assert not path.exists()

    def test_json_envelope(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(path, {"beta": [1, 2], "alpha": {"z": 1.5}})
        text = path.read_text()
        body = json.loads(text)
        assert body["schema"] == "v1"
        assert body["beta"] == [1, 2]
        assert text.endswith("\n")
        assert text.index('"alpha"') < text.index('"beta"') < text.index('"schema"')
