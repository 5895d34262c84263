"""Monte Carlo engine: config contract, seeded streams, fast-path equivalence."""

import concurrent.futures
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from helpers import exact_power, imhof_sf, omega_sq_blocks, valid_spectra
from seqtest import chisq as chisq_mod
from seqtest import design as design_mod
from seqtest import errors
from seqtest import kernels as kernels_mod
from seqtest import montecarlo
from seqtest import quadratic as quad_mod

from seqtest.chisq import cell_index, cell_thresholds, chisq_test, population_chisq_functional
from seqtest.cli import main as cli_main
from seqtest.cvm import calibrate_cvm, cvm_test, omega_sq, order_grid
from seqtest.design import least_favorable, minimax_test, solve_design
from seqtest.errors import ConfigError
from seqtest.kernels import box_kernel, kernel_test, triangle_kernel
from seqtest.montecarlo import (
    DEFAULT_CALIBRATION_SEED,
    FAMILIES,
    POOL_MIN_DRAWS,
    ExperimentConfig,
    MonteCarloSummary,
    build_plan,
    pool_width,
    run_monte_carlo,
)
from seqtest.quadratic import example_coefficients, quadratic_test
from seqtest.sampling import (
    SequenceObservation,
    cdf_grid,
    draw_sequence_observation,
    iid_sampler,
    replication_blocks,
    rng_for_replication,
    sample_iid,
)
from seqtest.spectra import Spectrum

# sha256 of the canonical config JSON, first 12 hex digits; any change to the
# serialization breaks every stored experiment id, so it is pinned here.
REFERENCE_HASH = "b6b023960910"

EQUIVALENCE_REPS = 64

IMHOF_ATOL = 1e-5  # Imhof's integral against scipy's noncentral chi-square


def _reference_config():
    return ExperimentConfig(
        family="quadratic",
        n=1000,
        reps=200,
        seed=7,
        theta=Spectrum(basis="cosine", coeffs=np.array([0.2, 0.1])),
        params={"gamma": 2.0, "j_max": 64},
    )


def _pad_cosine(theta, j_max):
    out = np.zeros(j_max)
    if theta is not None:
        out[: theta.coeffs.size] = theta.coeffs
    return Spectrum(basis="cosine", coeffs=out)


def _pad_complex(theta, j_max):
    out = np.zeros(j_max + 1, dtype=complex)
    if theta is not None:
        out[: theta.coeffs.size] = theta.coeffs
    return Spectrum(basis="complex-exponential", coeffs=out)


class TestConfigContract:
    def test_hash_is_pinned(self):
        assert _reference_config().config_hash() == REFERENCE_HASH
        with pytest.raises(TypeError):  # JSON has no sets; resolve refuses one before any hash
            montecarlo.canonical_hash({"k": {1, 2}})

    def test_hash_ignores_param_insertion_order(self):
        a = _reference_config()
        b = ExperimentConfig(
            family="quadratic", n=1000, reps=200, seed=7,
            theta=Spectrum(basis="cosine", coeffs=np.array([0.2, 0.1])),
            params={"j_max": 64, "gamma": 2.0},
        )
        assert a.config_hash() == b.config_hash()

    def test_hash_tracks_every_field(self):
        base = _reference_config()
        bumped = ExperimentConfig(
            family="quadratic", n=1000, reps=200, seed=8,
            theta=base.theta, params=dict(base.params),
        )
        assert bumped.config_hash() != base.config_hash()

    @pytest.mark.parametrize("numpy_fields, plain_fields", [
        ({"alpha": np.float32(0.05)}, {"alpha": float(np.float32(0.05))}),
        ({"params": {"k": np.int64(5)}}, {"params": {"k": 5}}),
        ({"family": "quadratic", "params": {"kappa_sq": np.array([1.0, 0.5])}},
         {"family": "quadratic", "params": {"kappa_sq": [1.0, 0.5]}}),
    ])
    def test_hash_reads_numpy_values(self, numpy_fields, plain_fields):
        """A config built in Python with a numpy scalar or array runs, and
        hashes and counts as the config with the Python numbers."""
        fields = {"family": "chisq", "n": 1000, "reps": 10, "seed": 1, "params": {"k": 5}}
        got = run_monte_carlo(ExperimentConfig(**{**fields, **numpy_fields}))
        want = run_monte_carlo(ExperimentConfig(**{**fields, **plain_fields}))
        assert got.to_json_dict() == want.to_json_dict()

    def test_json_round_trip(self):
        cfg = _reference_config()
        again = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert again.config_hash() == cfg.config_hash()
        assert again.to_json_dict() == cfg.to_json_dict()

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_json_dict({"family": "quadratic"})

    @pytest.mark.parametrize(
        "family,params,theta_basis",
        [
            ("quadratic", {"gamma": 2.0}, "complex-exponential"),
            ("kernel", {"kernel": "box", "h": 0.1}, "cosine"),
            ("chisq", {"k": 8}, "cosine"),
        ],
    )
    def test_theta_basis_checked(self, family, params, theta_basis):
        coeffs = np.array([0.1 + 0j]) if theta_basis == "complex-exponential" else np.array([0.1])
        cfg = ExperimentConfig(
            family=family, n=100, reps=10, seed=0,
            theta=Spectrum(basis=theta_basis, coeffs=coeffs), params=params,
        )
        with pytest.raises(ConfigError):
            cfg.resolve()

    def test_family_specific_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(family="ks", n=10, reps=10, seed=0).resolve()
        with pytest.raises(ConfigError):  # both tuning styles at once
            build_plan(ExperimentConfig(
                family="quadratic", n=10, reps=10, seed=0,
                params={"gamma": 2.0, "kappa_sq": [1.0]},
            ))
        with pytest.raises(ConfigError):  # neither
            build_plan(ExperimentConfig(family="quadratic", n=10, reps=10, seed=0))
        with pytest.raises(ConfigError):
            build_plan(ExperimentConfig(family="kernel", n=10, reps=10, seed=0,
                                        params={"kernel": "gauss", "h": 0.1}))
        with pytest.raises(ConfigError):
            build_plan(ExperimentConfig(family="kernel", n=10, reps=10, seed=0,
                                        params={"kernel": "box", "h": 1.5}))
        with pytest.raises(ConfigError):
            build_plan(ExperimentConfig(family="chisq", n=10, reps=10, seed=0, params={"k": 1}))
        with pytest.raises(ConfigError):
            ExperimentConfig(family="minimax", n=10, reps=10, seed=0,
                             params={"s": 1.0, "p0": 1.0}).resolve()
        with pytest.raises(ConfigError):  # explicit theta and least_favorable together
            build_plan(ExperimentConfig(
                family="minimax", n=10, reps=10, seed=0,
                theta=Spectrum(basis="cosine", coeffs=np.array([0.1])),
                params={"s": 1.0, "p0": 1.0, "rho_n": 1e-3, "least_favorable": True},
            ))
        with pytest.raises(ConfigError):  # unknown key
            ExperimentConfig(family="chisq", n=10, reps=10, seed=0,
                             params={"k": 4, "cells": 4}).resolve()

    @pytest.mark.parametrize("field", [
        {"n": 1000.5}, {"reps": 10.5}, {"n": True}, {"seed": True},
        {"alpha": "0.05"}, {"sigma": "1"}, {"theta": {"basis": "cosine"}}, {"family": ["chisq"]},
        {"theta": "x"}, {"params": {"k": {1, 2}}}, {"params": [1]},
    ])
    def test_python_config_typed_as_json(self, field):
        """A config built in Python is typed as ``take`` types a JSON one:
        each of these is a ConfigError from ``resolve`` and from every entry
        point, which checks a config before it hashes it, not a traceback
        from the engine or the JSON encoder."""
        cfg = ExperimentConfig(**{"family": "chisq", "n": 1000, "reps": 10, "seed": 1, "params": {"k": 5}, **field})
        for entry in (ExperimentConfig.resolve, build_plan, run_monte_carlo, lambda c: montecarlo.run_plans([c])):
            with pytest.raises(ConfigError):
                entry(cfg)

    @pytest.mark.parametrize("family,params,theta,costly", [
        ("cvm", {"calibration_seed": -1}, None, ["seqtest.cvm.calibrate_cvm"]),
        ("minimax", {"s": 1.0, "p0": 1.0, "rho_n": 1e-3, "least_favorable": True}, [0.1],
         ["seqtest.design.solve_design", "seqtest.design.solve_inverse_design"]),
        ("kernel", {"kernel": "box", "h": 1.5}, None, ["seqtest.kernels.energy_form"]),
    ])
    def test_checks_run_before_costly_work(self, monkeypatch, family, params, theta, costly):
        def fail(*args, **kwargs):
            raise AssertionError("a costly step ran before the config checks")

        for target in costly:
            monkeypatch.setattr(target, fail)
        basis = FAMILIES[family].basis
        cfg = ExperimentConfig(family=family, n=100, reps=10, seed=0, params=params,
                               theta=None if theta is None else Spectrum(basis, np.array(theta)))
        with pytest.raises(ConfigError):
            build_plan(cfg)

    @pytest.mark.parametrize("family,params,n,key", [
        ("quadratic", {"gamma": 2.0, "j_max": 65}, 100, "j_max"),
        ("quadratic", {"kappa_sq": [1.0] * 65}, 100, "j_max"),
        ("kernel", {"kernel": "box", "h": 0.1}, 100, "j_max"),  # the default, 1024
        ("kernel", {"kernel": "box", "h": 0.1, "j_max": 40}, 100, "normals"),  # 2 (40 + 1)
        ("chisq", {"k": 65}, 10, "k"),
        ("chisq", {"k": 8}, 65, "n"),
        ("cvm", {}, 10, "calibration_reps"),
        ("minimax", {"s": 1.0, "p0": 1.0, "rho_n": 2e-3, "j_max": 65}, 100, "j_max"),
    ])
    def test_size_rule_refuses_before_any_planner(self, monkeypatch, family, params, n, key):
        """With the memory reading lowered to 64 floats, each length past it
        is a ConfigError naming its key from every entry point, and no
        planner runs and nothing is allocated."""
        def fail(*args, **kwargs):
            raise AssertionError("a planner or an allocation ran before the size rule")

        monkeypatch.setattr(errors, "physical_floats", lambda: 64)
        for target in ("seqtest.montecarlo._plan", "numpy.zeros", "numpy.empty", "numpy.arange"):
            monkeypatch.setattr(target, fail)
        cfg = ExperimentConfig(family=family, n=n, reps=10, seed=0, params=params)
        for entry in (ExperimentConfig.resolve, build_plan, run_monte_carlo, lambda c: montecarlo.run_plans([c])):
            with pytest.raises(ConfigError, match=f"'{key}' asks for"):
                entry(cfg)

    def test_size_rule_outside_the_engine(self, monkeypatch):
        """The paths that build no ExperimentConfig read the same rule: the
        direct design's truncation, given or by default 20 k_n, the prior
        support k_n / delta, and a CvM calibration's n and reps."""
        design = solve_design(1.0, 1.0, 2e-3, 200, j_max=64)  # k_n = 39
        monkeypatch.setattr(errors, "physical_floats", lambda: 64)
        monkeypatch.setattr("numpy.arange", lambda *args, **kwargs: pytest.fail("allocated"))
        monkeypatch.setattr("seqtest.cvm.replication_blocks", lambda *args: pytest.fail("calibrated"))
        for call, key in [
            (lambda: solve_design(1.0, 1.0, 2e-3, 200), "j_max"),  # 780
            (lambda: solve_design(1.0, 1.0, 2e-3, 200, j_max=65), "j_max"),
            (lambda: design_mod.prior_profile(design, 0.5), "delta"),  # 78
            (lambda: calibrate_cvm(65, reps=100), "n"),
            (lambda: calibrate_cvm(10, reps=100), "reps"),
        ]:
            with pytest.raises(ConfigError, match=f"'{key}' asks for"):
                call()

    def test_each_config_is_resolved_once(self, monkeypatch):
        """``run_plans`` resolves each config of a call once, a repeated one
        too, and plans each distinct digest once; ``run_monte_carlo``
        resolves its config once."""
        resolved, planned = [], []
        resolve, plan = ExperimentConfig.resolve, montecarlo._plan

        def counting_resolve(cfg):
            resolved.append(cfg)
            return resolve(cfg)

        def counting_plan(r):
            planned.append(r.digest)
            return plan(r)

        monkeypatch.setattr(ExperimentConfig, "resolve", counting_resolve)
        monkeypatch.setattr(montecarlo, "_plan", counting_plan)
        a = ExperimentConfig("quadratic", 300, 5, 1, params={"gamma": 2.0, "j_max": 32})
        configs = [a, replace(a, seed=2), a, replace(a)]
        montecarlo.run_plans(configs)
        assert [id(cfg) for cfg in resolved] == [id(cfg) for cfg in configs]
        assert planned == [a.config_hash(), configs[1].config_hash()]
        resolved.clear()
        run_monte_carlo(a)
        assert resolved == [a]

    def test_kernel_truncation_bounds_the_null_shift(self):
        """The box kernel at h = 1e-3 and the default j_max = 1024 centres
        T_n at -0.97 null sd (a size of 0.004 at alpha = 0.05); at j_max =
        65 536 the shift is -0.015, inside kernels.MAX_NULL_SHIFT."""
        cfg = ExperimentConfig("kernel", 2000, 10, 1, params={"kernel": "box", "h": 1e-3})
        with pytest.raises(ConfigError, match=r"h=0\.001 the truncation j_max=1024 .* by -0\.969 sd"):
            build_plan(cfg)
        assert build_plan(replace(cfg, params={**cfg.params, "j_max": 65536})).details["j_max"] == 65536

    def test_readme_lists_every_param(self):
        """Each row of the README's params table names exactly the family's
        params, each in backticks."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| (\w+) +\| (.*) \|$", readme, flags=re.M))
        for name, family in FAMILIES.items():
            assert set(re.findall(r"`([^`]+)`", rows[name])) == set(family.params), name

    def test_summary_arithmetic_and_serialization(self):
        s = MonteCarloSummary(experiment="x", reps=400, rejections=100, seed=3)
        assert s.rate == 0.25
        assert s.std_err == pytest.approx(math.sqrt(0.25 * 0.75 / 400))
        payload = s.to_json_dict()
        assert "wall_time_s" not in payload
        assert set(payload) == {"experiment", "reps", "rejections", "rate", "std_err", "seed"}


class TestEngineMatchesReference:
    """The inlined fast paths must reproduce the *_test verdicts bit for bit."""

    def test_quadratic(self):
        theta = Spectrum(basis="cosine", coeffs=np.array([0.08, 0.05, 0.02]))
        cfg = ExperimentConfig(
            family="quadratic", n=500, reps=EQUIVALENCE_REPS, seed=101,
            theta=theta, params={"gamma": 2.0, "j_max": 64},
        )
        got = run_monte_carlo(cfg).rejections
        kq = example_coefficients(500, 2.0, 64)
        padded = _pad_cosine(theta, 64)
        want = 0
        for rep in range(EQUIVALENCE_REPS):
            obs = draw_sequence_observation(padded, 500, 1.0, rng_for_replication(101, rep))
            want += quadratic_test(obs.y, kq, 500, 1.0, 0.05).reject
        assert got == want

    def test_minimax_least_favorable(self):
        cfg = ExperimentConfig(
            family="minimax", n=2000, reps=EQUIVALENCE_REPS, seed=102,
            params={"s": 1.0, "p0": 1.0, "rho_n": 2e-3, "least_favorable": True},
        )
        got = run_monte_carlo(cfg).rejections
        d = solve_design(1.0, 1.0, 2e-3, 2000)
        theta = least_favorable(d)
        want = 0
        for rep in range(EQUIVALENCE_REPS):
            obs = draw_sequence_observation(theta, 2000, 1.0, rng_for_replication(102, rep))
            want += minimax_test(obs, d, 0.05).reject
        assert got == want

    def test_kernel(self):
        theta = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.02 + 0.01j]))
        cfg = ExperimentConfig(
            family="kernel", n=800, reps=EQUIVALENCE_REPS, seed=103,
            theta=theta, params={"kernel": "triangle", "h": 0.11, "j_max": 48},
        )
        got = run_monte_carlo(cfg).rejections
        kern = triangle_kernel()
        padded = _pad_complex(theta, 48)
        want = 0
        for rep in range(EQUIVALENCE_REPS):
            obs = draw_sequence_observation(padded, 800, 1.0, rng_for_replication(103, rep))
            want += kernel_test(obs, kern, 0.11, 0.05).reject
        assert got == want

    def test_chisq_null_and_alternative(self):
        null_cfg = ExperimentConfig(family="chisq", n=300, reps=EQUIVALENCE_REPS, seed=104,
                                    params={"k": 8})
        got = run_monte_carlo(null_cfg).rejections
        want = sum(
            chisq_test(rng_for_replication(104, rep).random(300), 8, 0.05).reject
            for rep in range(EQUIVALENCE_REPS)
        )
        assert got == want

        theta = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.1 + 0.05j]))
        alt_cfg = ExperimentConfig(family="chisq", n=300, reps=EQUIVALENCE_REPS, seed=105,
                                   theta=theta, params={"k": 8})
        got = run_monte_carlo(alt_cfg).rejections
        want = sum(
            chisq_test(sample_iid(theta, 300, rng_for_replication(105, rep)), 8, 0.05).reject
            for rep in range(EQUIVALENCE_REPS)
        )
        assert got == want

    @pytest.mark.parametrize("name", ["density workload", "k = 8192"])
    def test_chisq_alternative(self, name):
        if name == "density workload":
            # n = 5000, k = 50, alpha = 0.01, theta_3 scaled to drift 2
            n, k, alpha, seed = 5000, 50, 0.01, 107
            shape = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.0, 0.0, 0.5], dtype=complex))
            scale = math.sqrt(2.0 * math.sqrt(2.0 * k) / population_chisq_functional(shape, k, n))
            theta = Spectrum(shape.basis, shape.coeffs * scale)
        else:
            # every cell boundary i / 8192 is a node of the sampler's CDF grid
            n, k, alpha, seed = 20000, 8192, 0.05, 108
            theta = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.0, 0.08], dtype=complex))
        cfg = ExperimentConfig(family="chisq", n=n, reps=EQUIVALENCE_REPS, seed=seed, alpha=alpha,
                               theta=theta, params={"k": k})
        got = run_monte_carlo(cfg).rejections
        want = sum(
            chisq_test(sample_iid(theta, n, rng_for_replication(seed, rep)), k, alpha).reject
            for rep in range(EQUIVALENCE_REPS)
        )
        assert got == want

    def test_cvm(self):
        theta = Spectrum(basis="cosine", coeffs=np.array([0.25, -0.1]))
        cfg = ExperimentConfig(
            family="cvm", n=60, reps=EQUIVALENCE_REPS, seed=106,
            theta=theta, params={"calibration_reps": 400},
        )
        got = run_monte_carlo(cfg).rejections
        table = calibrate_cvm(60, reps=400, seed=DEFAULT_CALIBRATION_SEED)
        want = 0
        for rep in range(EQUIVALENCE_REPS):
            xs = sample_iid(theta, 60, rng_for_replication(106, rep))
            want += cvm_test(xs, 0.05, table).reject
        assert got == want


class TestIidDraw:
    """The CvM scorer inverts sorted uniforms; that must score sample_iid's values."""

    @given(spec=valid_spectra, n=st.integers(1, 400), seed=st.integers(0, 2**32 - 1))
    def test_sorted_values_of_sample_iid(self, spec, n, seed):
        want = omega_sq(np.sort(sample_iid(spec, n, rng_for_replication(seed, 3))), order_grid(n))
        (got,) = omega_sq_blocks(n, seed, 3, 4, iid_sampler(spec))
        assert got.tobytes() == np.atleast_1d(want).tobytes()


def _ulps(x, steps):
    """x moved by ``steps`` ulps, down when negative."""
    for _ in range(abs(steps)):
        x = np.nextafter(x, math.copysign(math.inf, steps))
    return x


class TestCellThresholds:
    """The engine counts sorted uniforms against the thresholds; a uniform's
    cell that way must be the cell of its inverted point."""

    @given(spec=valid_spectra, k=st.sampled_from([2, 3, 7, 50, 64, 8192, 10000]),
           seed=st.integers(0, 2**32 - 1))
    def test_cells_of_inverted_points(self, spec, k, seed):
        inverse = iid_sampler(spec)
        t = cell_thresholds(inverse, k)
        assert np.all(np.diff(t) >= 0)
        _, cdf = cdf_grid(spec)
        u = np.concatenate([
            rng_for_replication(seed, 0).random(1000),
            t, _ulps(t, -1), _ulps(t, 1),
            *(_ulps(cdf, steps) for steps in (-2, -1, 0, 1, 2)),
        ])
        u = u[(u >= 0.0) & (u < 1.0)]
        np.testing.assert_array_equal(np.searchsorted(t, u, side="right") - 1, cell_index(inverse(u), k))


def _cos(*coeffs):
    return Spectrum(basis="cosine", coeffs=np.array(coeffs))


def _cx(*coeffs):
    return Spectrum(basis="complex-exponential", coeffs=np.array(coeffs, dtype=complex))


# Rejection counts of one small run per family, pinned across commits: an
# accidental change to a random stream or a statistic's rounding moves them.
# A deliberate stream change bumps the CSV schema and re-pins these values.
PINNED_REJECTIONS = {
    "quadratic": (ExperimentConfig("quadratic", 500, 200, 201, theta=_cos(0.08, 0.05, 0.02),
                                   params={"gamma": 2.0, "j_max": 64}), 40),
    "minimax": (ExperimentConfig("minimax", 2000, 200, 202, params={
        "s": 1.0, "p0": 1.0, "rho_n": 2e-3, "least_favorable": True}), 12),
    "kernel": (ExperimentConfig("kernel", 800, 200, 203, theta=_cx(0.0, 0.02 + 0.01j),
                                params={"kernel": "triangle", "h": 0.11, "j_max": 48}), 26),
    "chisq": (ExperimentConfig("chisq", 300, 200, 204, theta=_cx(0.0, 0.1 + 0.05j),
                               params={"k": 8}), 91),
    "chisq_null": (ExperimentConfig("chisq", 300, 200, 205, params={"k": 8}), 10),
    "cvm": (ExperimentConfig("cvm", 60, 200, 206, theta=_cos(0.25, -0.1),
                             params={"calibration_reps": 400}), 85),
}
# sha256 of the CSV below; a CvM curve has no normal prediction, so every
# cell is a count, an exact ratio, a square root or a hash
PINNED_CURVE = {
    "family": "cvm", "n": 60, "reps": 100, "seed": 8,
    "theta": {"basis": "cosine", "coeffs": [0.25, -0.1]},
    "params": {"calibration_reps": 400}, "scales": [0.0, 1.0, 1.5],
}
PINNED_CURVE_SHA256 = "270ce540b64355896f6a2fb1487b7a12d96f4a383584077e57779398c488ff53"


class TestPinnedStreams:
    @pytest.mark.parametrize("name", sorted(PINNED_REJECTIONS))
    def test_rejection_count(self, name):
        cfg, want = PINNED_REJECTIONS[name]
        assert run_monte_carlo(cfg).rejections == want

    def test_power_curve_bytes(self, tmp_path, capsys):
        cfg = tmp_path / "curve.json"
        cfg.write_text(json.dumps(PINNED_CURVE))
        out = tmp_path / "curve.csv"
        assert cli_main(["power-curve", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CURVE_SHA256


def _curve(family, seed, theta, params):
    return {"family": family, "n": {"quadratic": 500, "kernel": 800, "minimax": 2000}[family],
            "reps": 100, "seed": seed, "theta": theta, "params": params, "scales": [0.0, 1.0, 1.5]}


# sha256 of a power-curve CSV per sequence-model family: unlike the CvM curve,
# these pin each plan's normal prediction (the predicted_type2 and gap columns)
PINNED_SEQUENCE_CURVES = {
    "quadratic": (
        _curve("quadratic", 9, {"basis": "cosine", "coeffs": [0.08, 0.05, 0.02]}, {"gamma": 2.0, "j_max": 64}),
        "07319fed1c6dd4b7b0d928c99916f7266db191b9dff61a31747b29a3718cb2f7",
    ),
    "kernel": (
        _curve("kernel", 10, {"basis": "complex-exponential", "coeffs": [[0.0, 0.0], [0.02, 0.01]]},
               {"kernel": "triangle", "h": 0.11, "j_max": 48}),
        "8408a3336db803446e5e03e12a60e0dcdd0ece6115d8e4ebc444f522a6558dc2",
    ),
    "minimax": (
        _curve("minimax", 11, {"basis": "cosine", "coeffs": [0.03, 0.02, 0.01]}, {"s": 1.0, "p0": 1.0, "rho_n": 2e-3}),
        "e033404bdb74c6c685afae021a433d18d60728a94904d3847ba85d1a950505c4",
    ),
}


class TestPinnedSequenceCurves:
    @pytest.mark.parametrize("name", sorted(PINNED_SEQUENCE_CURVES))
    def test_power_curve_bytes(self, name, tmp_path, capsys):
        payload, want = PINNED_SEQUENCE_CURVES[name]
        cfg = tmp_path / "curve.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "curve.csv"
        assert cli_main(["power-curve", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want


def _exact_law_inputs(cfg: ExperimentConfig):
    """(form, mean, noise variance) per real coordinate of a sequence plan's y."""
    p = cfg.resolve().params
    var = cfg.sigma**2 / cfg.n
    if cfg.family == "quadratic":
        kq = example_coefficients(cfg.n, p["gamma"], p["j_max"])
        return quad_mod.energy_form(kq, cfg.n, cfg.sigma), _pad_cosine(cfg.theta, kq.size).coeffs, np.full(kq.size, var)
    if cfg.family == "minimax":
        d = solve_design(p["s"], p["p0"], p["rho_n"], cfg.n, cfg.sigma)
        return design_mod.energy_form(d), least_favorable(d).coeffs, np.full(d.j_max, var)
    kernel = {"box": box_kernel, "triangle": triangle_kernel}[p["kernel"]]()
    form = kernels_mod.energy_form(kernel, p["h"], p["j_max"], cfg.n, cfg.sigma)
    # y_0 is real with variance sigma^2 / n; each part of y_j, j >= 1, has half that
    noise = np.full(2 * (p["j_max"] + 1), var / 2.0)
    noise[:2] = var, 0.0
    return form, _pad_complex(cfg.theta, p["j_max"]).coeffs.view(float), noise


class TestExactLaw:
    """Imhof's inversion of the weighted noncentral chi-square law
    (``helpers.imhof_sf``), gated against scipy, and the pinned sequence
    counts checked against the exact power it gives."""

    @pytest.mark.parametrize("df,nc,x", [(3, 0.0, 8.0), (3, 4.0, 8.0), (50, 0.0, 60.0), (50, 30.0, 60.0)])
    def test_imhof_matches_ncx2(self, df, nc, x):
        delta = np.zeros(df)
        delta[0] = math.sqrt(nc)
        want = stats.ncx2.sf(x, df, nc) if nc else stats.chi2.sf(x, df)
        assert imhof_sf(x, np.ones(df), delta) == pytest.approx(want, abs=IMHOF_ATOL)

    @pytest.mark.parametrize("name", ["quadratic", "minimax", "kernel"])
    def test_pinned_count_within_4_se(self, name):
        cfg, count = PINNED_REJECTIONS[name]
        power = exact_power(*_exact_law_inputs(cfg), cfg.alpha)
        assert abs(count / cfg.reps - power) <= 4.0 * math.sqrt(power * (1.0 - power) / cfg.reps)


# sha256 of `minimax-design --out design.json` for one direct and one inverse
# design: every field of the solved design, written as JSON.  Output bytes are
# pinned per numpy version and SIMD target of numpy's float64 np.power loop,
# which rounds differently on X86_V4 (AVX-512) and on the baseline: the
# direct design's kappa_j2 go through it, so it has one pin a target
PINNED_DESIGNS = {
    "direct": (
        {"s": 1.0, "p0": 1.0, "rho_n": 10_000.0**-0.8, "n": 10_000},
        {
            "X86_V4": "0309a8e74135b7381996d988c8e182e04e6cd2e864f769c2bc2dd449b742eca0",
            "baseline(X86_V2)": "ca3254ffd7945bd08be1a9522fa5d15718925548625c525afdc2878a1199f970",
        },
    ),
    "inverse": (
        {"s": 1.0, "p0": 1.0, "rho_n": 0.1, "n": 200, "sigma": 1.0, "j_max": 4, "lambdas": [1.0, 0.5, 0.25, 0.125]},
        "0309625ad7dfadcd97971599633d7f6eecb89d560a98d6da53b6153ce1b3a92e",
    ),
}


def _power_target() -> str:
    """The SIMD target of the float64 ``np.power`` loop numpy runs here."""
    from numpy.lib.introspect import opt_func_info

    return opt_func_info(func_name="^power$", signature="float64")["power"]["ddd"]["current"]


class TestPinnedDesigns:
    @pytest.mark.parametrize("name", sorted(PINNED_DESIGNS))
    def test_design_bytes(self, name, tmp_path):
        payload, want = PINNED_DESIGNS[name]
        if isinstance(want, dict):
            target = _power_target()
            assert target in want, f"no pinned {name} design bytes for numpy's {target} float64 power loop"
            want = want[target]
        cfg = tmp_path / "design-config.json"
        cfg.write_text(json.dumps(payload))
        out = tmp_path / "design.json"
        assert cli_main(["minimax-design", "--config", str(cfg), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == want


class TestScheduling:
    def test_thread_count_does_not_change_counts(self):
        cfg = ExperimentConfig(
            family="quadratic", n=300, reps=101, seed=11,
            theta=Spectrum(basis="cosine", coeffs=np.array([0.1])),
            params={"gamma": 2.0, "j_max": 32},
        )
        plan = build_plan(cfg)
        results = {t: run_monte_carlo(cfg, threads=t, plan=plan) for t in (1, 3, 8)}
        payloads = {t: r.to_json_dict() for t, r in results.items()}
        assert payloads[1] == payloads[3] == payloads[8]

    def test_thread_count_does_not_change_chisq_counts(self):
        cfg = ExperimentConfig(
            family="chisq", n=2000, reps=101, seed=14,
            theta=Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.0, 0.0, 0.05], dtype=complex)),
            params={"k": 50},
        )
        plan = build_plan(cfg)
        results = {t: run_monte_carlo(cfg, threads=t, plan=plan) for t in (1, 3, 8)}
        payloads = {t: r.to_json_dict() for t, r in results.items()}
        assert payloads[1] == payloads[3] == payloads[8]

    def test_pool_summary_matches_one_thread(self, monkeypatch):
        """A plan above POOL_MIN_DRAWS is split over the pool, and its summary
        is the one-thread summary at every width."""
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        widths = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(
            family="chisq", n=2 * POOL_MIN_DRAWS, reps=40, seed=15,
            theta=Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.0, 0.0, 0.01], dtype=complex)),
            params={"k": 50},
        )
        plan = build_plan(cfg)
        payloads = {t: run_monte_carlo(cfg, threads=t, plan=plan).to_json_dict() for t in (1, 2, 3)}
        assert payloads[1] == payloads[2] == payloads[3]
        assert widths == [2, 3]

    def test_pool_summary_matches_one_thread_cvm(self, monkeypatch):
        """A CvM alternative above POOL_MIN_DRAWS scores one row per block; its
        summary is the one-thread summary at every width."""
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        widths = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        cfg = ExperimentConfig(
            family="cvm", n=2 * POOL_MIN_DRAWS, reps=13, seed=16,
            theta=Spectrum(basis="cosine", coeffs=np.array([0.0, 0.015])),
            params={"calibration_reps": 100},
        )
        plan = build_plan(cfg)
        payloads = {t: run_monte_carlo(cfg, threads=t, plan=plan).to_json_dict() for t in (1, 2, 3)}
        assert payloads[1] == payloads[2] == payloads[3]
        assert 0 < payloads[1]["rejections"] < cfg.reps
        assert widths == [2, 3]

    def test_small_plan_never_builds_the_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a plan below POOL_MIN_DRAWS built a thread pool")

        cfg = ExperimentConfig(family="quadratic", n=300, reps=101, seed=11, params={"gamma": 2.0, "j_max": 32})
        plan = build_plan(cfg)
        serial = run_monte_carlo(cfg, threads=1, plan=plan)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
        assert run_monte_carlo(cfg, threads=8, plan=plan).to_json_dict() == serial.to_json_dict()

    def test_width_rule(self, monkeypatch):
        # the rule alone: no thread is started, whatever width is asked for
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        big = POOL_MIN_DRAWS
        assert pool_width(big - 1, 10**6, 8) == 1
        assert pool_width(big, 3, 8) == 1
        assert pool_width(big, 10**6, 1) == 1
        assert pool_width(big, 10**6, 100_000) == 2
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 64)
        assert pool_width(big, 10**6, 3) == 3
        assert pool_width(big, 5, 100_000) == 5

    def test_usable_cpus(self):
        assert 1 <= montecarlo._usable_cpus() <= (os.cpu_count() or 1)

    def test_scores_do_not_depend_on_blas_threads(self):
        """A kernel plan of 16 386 weights, past the length at which OpenBLAS
        splits a dot product over its threads, scores every replication with
        the same bits at one BLAS thread and at two."""
        config = {"family": "kernel", "n": 2000, "reps": 8, "seed": 5,
                  "params": {"kernel": "box", "h": 0.05, "j_max": 8192}}
        probe = (
            "import hashlib, json, sys\n"
            "from seqtest.montecarlo import ExperimentConfig, build_plan\n"
            "from seqtest.sampling import replication_blocks\n"
            "cfg = ExperimentConfig.from_json_dict(json.loads(sys.argv[1]))\n"
            "plan = build_plan(cfg)\n"
            "digest = hashlib.sha256()\n"
            "for block in replication_blocks(plan.config.seed, 0, cfg.reps, plan.draws, plan.draw):\n"
            "    digest.update(plan.score(block).tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(montecarlo.__file__)))
        digests = set()
        for blas_threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=blas_threads,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = subprocess.run([sys.executable, "-c", probe, json.dumps(config)],
                                 env=env, capture_output=True, text=True, check=True)
            digests.add(out.stdout.strip())
        assert len(digests) == 1

    def test_partial_counts_add_up(self):
        cfg = ExperimentConfig(family="chisq", n=100, reps=40, seed=12, params={"k": 4})
        plan = build_plan(cfg)
        alternative = build_plan(replace(cfg, theta=Spectrum("complex-exponential", np.array([0.0, 0.2]))))
        for group in ([plan], [plan, alternative]):
            parts = montecarlo.group_counts(group, 0, 13) + montecarlo.group_counts(group, 13, 40)
            assert montecarlo.group_counts(group, 0, 40).tolist() == parts.tolist()

    def test_experiment_id_carries_family_and_hash(self):
        cfg = _reference_config()
        summary = run_monte_carlo(cfg)
        assert summary.experiment == f"quadratic-{REFERENCE_HASH}"
        assert summary.seed == 7

    def test_plan_of_another_config_is_refused(self):
        """A plan counts its own config's stream, so ``run_monte_carlo``
        refuses a plan built from another config (3/50 alone, 29/50 through
        the other plan, under this config's id); an equal config's plan runs."""
        a = ExperimentConfig("quadratic", 300, 50, 1, params={"gamma": 2.0, "j_max": 32})
        b = replace(a, seed=2, alpha=0.5)
        assert run_monte_carlo(a).rejections == 3
        with pytest.raises(ConfigError, match="built from config"):
            run_monte_carlo(a, plan=build_plan(b))
        same = replace(a, params=dict(a.params))
        assert run_monte_carlo(a, plan=build_plan(same)) == run_monte_carlo(a)


# per family, three configs whose plans share (seed, reps, draws, draw): the
# null and two alternatives
_GROUPS = {
    "quadratic": (400, {"gamma": 2.0, "j_max": 64},
                  [None, Spectrum("cosine", np.array([0.1])), Spectrum("cosine", np.array([0.0, 0.15]))]),
    "kernel": (800, {"kernel": "box", "h": 0.1, "j_max": 48},
               [None, Spectrum("complex-exponential", np.array([0.0, 0.05])),
                Spectrum("complex-exponential", np.array([0.0, 0.0, 0.04 + 0.03j]))]),
    "minimax": (2000, {"s": 1.0, "p0": 1.0, "rho_n": 2e-3, "j_max": 300},
                [None, "least_favorable", Spectrum("cosine", np.array([0.0, 0.06]))]),
    "chisq": (300, {"k": 8},
              [None, Spectrum("complex-exponential", np.array([0.0, 0.1 + 0.05j])),
               Spectrum("complex-exponential", np.array([0.0, 0.0, 0.15]))]),
    "cvm": (200, {"calibration_reps": 200},
            [None, Spectrum("cosine", np.array([0.15])), Spectrum("cosine", np.array([0.0, 0.2]))]),
}


def _group_configs(family, reps=48, seed=31):
    n, params, thetas = _GROUPS[family]
    return [
        ExperimentConfig(family=family, n=n, reps=reps, seed=seed, params={**params, "least_favorable": True})
        if theta == "least_favorable" else
        ExperimentConfig(family=family, n=n, reps=reps, seed=seed, theta=theta, params=params)
        for theta in thetas
    ]


class TestGroupedRunner:
    @pytest.mark.parametrize("family", sorted(_GROUPS))
    def test_group_counts_match_each_plan_alone(self, family, monkeypatch):
        """The plans of a group make one pass over the stream, and each
        counts what it counts alone, at one thread and at two."""
        configs = _group_configs(family)
        alone = [run_monte_carlo(cfg).to_json_dict() for cfg in configs]
        assert len({a["rejections"] for a in alone}) > 1
        passes = []
        real = montecarlo.group_counts

        def counted(plans, lo, hi):
            passes.append(len(plans))
            return real(plans, lo, hi)

        monkeypatch.setattr(montecarlo, "group_counts", counted)
        for threads in (1, 2):
            grouped = montecarlo.run_plans(configs, threads)
            assert [summary.to_json_dict() for _, summary in grouped] == alone
        assert passes == [len(configs), len(configs)]

    def test_plans_group_by_stream(self):
        """Plans of other seeds, draws or draw methods run apart, and the
        summaries come back in the order of the configs."""
        configs = _group_configs("chisq") + _group_configs("cvm") + _group_configs("chisq", seed=32)
        configs.insert(2, _group_configs("quadratic")[1])
        alone = [run_monte_carlo(cfg).to_json_dict() for cfg in configs]
        grouped = montecarlo.run_plans(configs)
        assert [summary.to_json_dict() for _, summary in grouped] == alone

    def test_group_reaches_the_pool(self, monkeypatch):
        """Two plans of POOL_MIN_DRAWS / 2 draws each run on one thread alone,
        but as a group of 2 * (POOL_MIN_DRAWS / 2) draws on the pool, with the
        one-thread counts."""
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 4)
        widths = []

        class RecordingPool(ThreadPoolExecutor):
            def __init__(self, max_workers):
                widths.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
        half = POOL_MIN_DRAWS // 2
        configs = [
            ExperimentConfig(family="quadratic", n=2000, reps=8, seed=5, theta=theta,
                             params={"gamma": 2.0, "j_max": half})
            for theta in (None, Spectrum("cosine", np.array([0.0, 0.05])))
        ]
        plans = [build_plan(cfg) for cfg in configs]
        assert [plan.draws for plan in plans] == [half, half]
        alone = [run_monte_carlo(cfg, 2, plan).to_json_dict() for cfg, plan in zip(configs, plans)]
        assert widths == []
        grouped = montecarlo.run_plans(configs, 2)
        assert widths == [2]
        assert [summary.to_json_dict() for _, summary in grouped] == alone

    @pytest.mark.parametrize("family", sorted(_GROUPS))
    def test_no_scorer_writes_its_block(self, family):
        """Every plan scores a read-only block, sorted along its rows when the
        plan reads them sorted, as it scores a writable copy of it."""
        for cfg in _group_configs(family, reps=8):
            plan = build_plan(cfg)
            (block,) = replication_blocks(plan.config.seed, 0, cfg.reps, plan.draws, plan.draw)
            if plan.sorted_rows:
                block.sort(axis=1)
            writable = block.copy()
            block.setflags(write=False)
            assert plan.score(block).tobytes() == plan.score(writable).tobytes()
            assert np.array_equal(writable, block)

    def test_group_sorts_each_block_once(self, monkeypatch):
        """A group with a plan that reads sorted rows sorts each drawn block
        once, for all its plans; a group without one sorts none."""
        sorted_blocks = []

        class Counted(np.ndarray):
            def sort(self, *args, **kwargs):
                sorted_blocks.append(self)
                super().sort(*args, **kwargs)

        drawn = []

        def recorded(*args):
            for block in replication_blocks(*args):
                drawn.append(block.view(Counted))
                yield drawn[-1]

        monkeypatch.setattr(montecarlo, "replication_blocks", recorded)
        configs = _density_group(reps=150)
        plans = [build_plan(cfg) for cfg in configs]
        assert [plan.sorted_rows for plan in plans] == [False, True, True, True]
        montecarlo.group_counts(plans, 0, 150)
        assert len(drawn) > 1
        assert [id(b) for b in sorted_blocks] == [id(b) for b in drawn]
        for group in (plans[:1], [build_plan(cfg) for cfg in _group_configs("quadratic")]):
            drawn.clear()
            sorted_blocks.clear()
            montecarlo.group_counts(group, 0, 48)
            assert drawn and not sorted_blocks

    @pytest.mark.parametrize("threads", [1, 2])
    def test_mixed_density_group(self, threads, monkeypatch):
        """Chi-square and CvM plans, null and alternative, of one n share a
        pass over the sorted blocks and count what each counts alone, also
        when the group runs on the pool."""
        configs = _density_group(reps=150)
        alone = [run_monte_carlo(cfg).to_json_dict() for cfg in configs]
        assert len({a["rejections"] for a in alone}) > 1
        monkeypatch.setattr(montecarlo, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(montecarlo, "POOL_MIN_DRAWS", 4000)
        passes = []
        real = montecarlo.group_counts

        def counted(plans, lo, hi):
            passes.append((len(plans), hi - lo))
            return real(plans, lo, hi)

        monkeypatch.setattr(montecarlo, "group_counts", counted)
        grouped = montecarlo.run_plans(configs, threads)
        assert [summary.to_json_dict() for _, summary in grouped] == alone
        assert {size for size, _ in passes} == {4}
        assert len(passes) == (1 if threads == 1 else 8)

    @pytest.mark.parametrize("seed", [3, 11])
    @pytest.mark.parametrize("family,params,basis", [
        ("cvm", {"calibration_reps": 200}, "cosine"),
        ("chisq", {"k": 16}, "complex-exponential"),
    ])
    def test_zero_theta_samples_as_the_null(self, seed, family, params, basis):
        """A theta of zeros, as a power curve's scale 0 makes, counts what the
        null counts, with the details and prediction it always had, and warns
        no more than the null does: its drift 0 is the null's."""
        null = ExperimentConfig(family=family, n=1000, reps=150, seed=seed, params=params)
        zero = replace(null, theta=Spectrum(basis, np.zeros(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = build_plan(zero)
        null_plan = build_plan(null)
        # a zero theta's drift and margin are 0.0, as the null's
        assert plan.details == null_plan.details
        assert plan.predicted_type2 == null_plan.predicted_type2
        assert plan.sorted_rows == null_plan.sorted_rows
        assert run_monte_carlo(zero, plan=plan).rejections == run_monte_carlo(null).rejections
        # the sampler's map of a zero perturbation is the identity, so the
        # alternative path would have scored the same bits
        inverse = iid_sampler(zero.theta)
        for block in replication_blocks(seed, 0, null.reps, null.n, np.random.Generator.random):
            block.sort(axis=1)
            assert inverse(block).tobytes() == block.tobytes()
            if family == "chisq":
                t = cell_thresholds(inverse, params["k"])
                counts = np.diff([np.searchsorted(row, t) for row in block], axis=1)
                assert np.array_equal(counts, chisq_mod.binned(block, params["k"]))


def _density_group(reps, n=1000, seed=31):
    """A chi-square null and alternative and a CvM null and alternative at
    one (n, seed, reps): plans of one draw count and method."""
    return [
        ExperimentConfig(family="chisq", n=n, reps=reps, seed=seed, params={"k": 16}),
        ExperimentConfig(family="chisq", n=n, reps=reps, seed=seed, params={"k": 16},
                         theta=Spectrum("complex-exponential", np.array([0.0, 0.04 + 0.02j]))),
        ExperimentConfig(family="cvm", n=n, reps=reps, seed=seed, params={"calibration_reps": 200}),
        ExperimentConfig(family="cvm", n=n, reps=reps, seed=seed, params={"calibration_reps": 200},
                         theta=Spectrum("cosine", np.array([0.0, 0.05]))),
    ]


class TestPlansAndRates:
    def test_null_rate_close_to_alpha(self):
        cfg = ExperimentConfig(family="quadratic", n=400, reps=800, seed=13,
                               params={"gamma": 2.0, "j_max": 128})
        summary = run_monte_carlo(cfg)
        assert abs(summary.rate - 0.05) < 0.04

    def test_plan_details_expose_drift(self):
        theta = Spectrum(basis="cosine", coeffs=np.array([0.1]))
        cfg = ExperimentConfig(family="quadratic", n=500, reps=10, seed=0,
                               theta=theta, params={"gamma": 2.0, "j_max": 64})
        plan = build_plan(cfg)
        assert plan.details["drift"] > 0
        assert 0.0 < plan.predicted_type2 < 1.0

    def test_minimax_plan_reports_design(self):
        cfg = ExperimentConfig(family="minimax", n=2000, reps=10, seed=0,
                               params={"s": 1.0, "p0": 1.0, "rho_n": 2e-3, "least_favorable": True})
        plan = build_plan(cfg)
        d = solve_design(1.0, 1.0, 2e-3, 2000)
        assert plan.details["k_n"] == d.k_n
        assert plan.details["a_n"] == pytest.approx(d.a_n, rel=1e-15)
        assert plan.details["drift"] == pytest.approx(math.sqrt(d.a_n / 2.0), rel=1e-15)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_inverse_design_plan_counts_what_minimax_test_counts(self, threads):
        """A least favorable minimax plan on the inverse design of lambda_j =
        j^-1/2 counts, at one thread and at two, the rejections of
        ``minimax_test`` on each replication's observation: 31 of 200."""
        lambdas = np.arange(1, 401, dtype=float) ** -0.5
        cfg = ExperimentConfig(family="minimax", n=1000, reps=200, seed=7, params={
            "s": 1.0, "p0": 1.0, "rho_n": 0.02, "lambdas": lambdas.tolist(), "least_favorable": True,
        })
        d = design_mod.solve_inverse_design(1.0, 1.0, 0.02, 1000, 1.0, lambdas)
        theta = least_favorable(d)
        want = sum(
            minimax_test(draw_sequence_observation(theta, 1000, 1.0, rng_for_replication(7, rep)), d, 0.05).reject
            for rep in range(200)
        )
        assert run_monte_carlo(cfg, threads=threads).rejections == want == 31

    @pytest.mark.parametrize("family,n,params", [
        ("quadratic", 500, {"gamma": 2.0, "j_max": 64}),
        ("kernel", 800, {"kernel": "box", "h": 0.1, "j_max": 64}),
        ("minimax", 2000, {"s": 1.0, "p0": 1.0, "rho_n": 2e-3}),
        ("chisq", 300, {"k": 8}),
    ])
    def test_null_plan_predicts_one_minus_alpha(self, family, n, params):
        # no signal, no shift from the null law, whatever the test centers on
        plan = build_plan(ExperimentConfig(family=family, n=n, reps=10, seed=0, params=params))
        assert plan.details["drift"] == 0.0
        assert plan.predicted_type2 == pytest.approx(0.95, abs=1e-12)

    @pytest.mark.parametrize("family,n,params,draws", [
        ("quadratic", 500, {"gamma": 2.0, "j_max": 64}, 64),
        ("quadratic", 500, {"kappa_sq": [1.0, 0.5, 0.25]}, 3),
        ("kernel", 800, {"kernel": "box", "h": 0.1, "j_max": 48}, 98),  # (re, im) of j = 0..48
        ("minimax", 2000, {"s": 1.0, "p0": 1.0, "rho_n": 2e-3, "j_max": 300}, 300),
        ("chisq", 300, {"k": 8}, 300),
        ("cvm", 50, {"calibration_reps": 100}, 50),
    ])
    def test_plan_counts_its_draws(self, family, n, params, draws):
        plan = build_plan(ExperimentConfig(family=family, n=n, reps=10, seed=0, params=params))
        assert plan.draws == draws

    def test_minimax_drift_same_for_least_favorable_and_explicit_theta(self):
        params = {"s": 1.0, "p0": 1.0, "rho_n": 2e-3}
        lf = build_plan(ExperimentConfig(family="minimax", n=2000, reps=10, seed=0,
                                         params={**params, "least_favorable": True}))
        theta = least_favorable(solve_design(1.0, 1.0, 2e-3, 2000))
        explicit = build_plan(ExperimentConfig(family="minimax", n=2000, reps=10, seed=0,
                                               theta=theta, params=params))
        assert explicit.details["drift"] == pytest.approx(lf.details["drift"], rel=1e-12)
        assert explicit.predicted_type2 == pytest.approx(lf.predicted_type2, rel=1e-12)

    def test_cvm_plan_has_no_normal_prediction(self):
        cfg = ExperimentConfig(family="cvm", n=30, reps=10, seed=0,
                               params={"calibration_reps": 150})
        plan = build_plan(cfg)
        assert plan.predicted_type2 is None
        assert plan.details["margin"] == 0.0
        assert plan.details["critical_value"] > 0

    def test_unusable_density_rejected_at_plan_time(self):
        theta = Spectrum(basis="cosine", coeffs=np.array([1.0]))  # 1 + f hits zero
        cfg = ExperimentConfig(family="cvm", n=30, reps=10, seed=0,
                               theta=theta, params={"calibration_reps": 150})
        with pytest.raises(ConfigError):
            build_plan(cfg)

    def test_signal_wider_than_truncation_rejected(self):
        theta = Spectrum(basis="cosine", coeffs=np.ones(65) * 0.01)
        cfg = ExperimentConfig(family="quadratic", n=100, reps=10, seed=0,
                               theta=theta, params={"gamma": 2.0, "j_max": 64})
        with pytest.raises(ConfigError):
            build_plan(cfg)
