"""Distribution-function statistic, its population functional, calibration."""

import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    ASYMPTOTIC_Q95,
    bridge_kernel_quadrature,
    cvm_population_quadrature,
    consistency_margin,
    cvm_statistic_quadrature,
    cvm_blocks,
    primitive_mean,
    simulate_reference,
)
from seqtest import cvm, sampling
from seqtest.cvm import (
    CvmCalibration,
    _write_cache,
    calibrate_cvm,
    cvm_population,
    cvm_statistic,
    cvm_test,
    block_statistic,
    omega_sq,
    order_grid,
)
from seqtest.cli import main
from seqtest.errors import ConfigError
from seqtest.sampling import BLOCK_BYTES, iid_sampler, replication_rngs, rng_for_replication, sample_iid
from seqtest.spectra import Spectrum

PI = math.pi

STATISTIC_PATHS_ATOL = 1e-10  # order-statistic formula vs segment integration
POPULATION_QUAD_ATOL = 1e-8  # rational closed form vs Simpson on the primitive
BRIDGE_ORDER = 2048
BRIDGE_ATOL = 1e-7  # tensor Gauss-Legendre at the order above
Q95_MC_ATOL = 0.03

unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestStatistic:
    def test_single_midpoint(self):
        # one observation at 1/2: T^2 = 1/12
        assert cvm_statistic(np.array([0.5])) == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_quantile_grid_sample(self):
        # observations exactly at (2i-1)/(2n): T^2 = 1 / (12 n^2)
        n = 40
        x = (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)
        assert cvm_statistic(x) == pytest.approx(1.0 / (12.0 * n**2), rel=1e-13)

    @given(sample=st.lists(unit_floats, min_size=1, max_size=60))
    def test_order_statistic_formula_matches_segments(self, sample):
        x = np.asarray(sample)
        assert cvm_statistic(x) == pytest.approx(
            cvm_statistic_quadrature(x), abs=STATISTIC_PATHS_ATOL
        )

    def test_cvm_test_reads_its_sample_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cvm, "validate_sample", lambda x: calls.append(x) or sampling.validate_sample(x))
        sample = list(np.linspace(0.05, 0.95, 40))
        calibration = calibrate_cvm(40, reps=100, seed=5)
        report = cvm_test(sample, 0.05, calibration)
        assert len(calls) == 1
        assert (report.statistic, report.standardized, report.n) == (
            cvm_statistic(np.array(sample)), 40 * cvm_statistic(np.array(sample)), 40,
        )
        with pytest.raises(ConfigError, match="calibration is for n=40, sample has n=39"):
            cvm_test(sample[:39], 0.05, calibration)

    def test_validation(self):
        with pytest.raises(ConfigError):
            cvm_statistic(np.array([1.2]))
        with pytest.raises(ConfigError):
            cvm_statistic(np.array([]))


class TestPopulationFunctional:
    def test_single_cosine_rationals(self):
        # theta = e_1: functional 1/pi^2, kernel part (pi^2 - 8)/pi^4, mean 2 sqrt(2)/pi^2
        e1 = Spectrum(basis="cosine", coeffs=np.array([1.0]))
        assert cvm_population(e1) == pytest.approx(1.0 / PI**2, rel=1e-14)
        assert primitive_mean(e1) == pytest.approx(2.0 * math.sqrt(2.0) / PI**2, rel=1e-14)
        assert bridge_kernel_quadrature(e1, order=BRIDGE_ORDER) == pytest.approx(
            (PI**2 - 8.0) / PI**4, abs=BRIDGE_ATOL
        )

    def test_closed_form_matches_quadrature(self):
        rng = rng_for_replication(41, 0)
        for _ in range(5):
            theta = Spectrum(basis="cosine", coeffs=0.1 * rng.normal(size=24))
            assert cvm_population_quadrature(theta) == pytest.approx(
                cvm_population(theta), abs=POPULATION_QUAD_ATOL
            )

    def test_bridge_kernel_rank_one_correction(self):
        """int U^2 = int int (min - st) f f + (int U)^2; the kernel form alone is short."""
        rng = rng_for_replication(42, 0)
        for _ in range(4):
            theta = Spectrum(basis="cosine", coeffs=0.08 * rng.normal(size=10))
            kernel_part = bridge_kernel_quadrature(theta, order=BRIDGE_ORDER)
            assert kernel_part + primitive_mean(theta) ** 2 == pytest.approx(
                cvm_population(theta), abs=BRIDGE_ATOL
            )

    def test_even_spectrum_has_no_correction(self):
        # even frequencies only: int U = 0 and the bridge form is already exact
        coeffs = np.zeros(6)
        coeffs[1] = 0.3  # frequency 2
        coeffs[5] = -0.1  # frequency 6
        theta = Spectrum(basis="cosine", coeffs=coeffs)
        assert primitive_mean(theta) == 0.0
        assert bridge_kernel_quadrature(theta, order=BRIDGE_ORDER) == pytest.approx(
            cvm_population(theta), abs=BRIDGE_ATOL
        )

    def test_complex_basis_rejected(self):
        theta = Spectrum(basis="complex-exponential", coeffs=np.array([0.0, 0.1 + 0j]))
        with pytest.raises(ConfigError):
            cvm_population(theta)


class TestCalibration:
    def test_cache_round_trip(self, tmp_path):
        table = calibrate_cvm(40, reps=300, seed=9, cache_dir=tmp_path)
        path = tmp_path / "cvm_null_n40_reps300_seed9.json"
        assert path.exists()
        again = calibrate_cvm(40, reps=300, seed=9, cache_dir=tmp_path)
        np.testing.assert_array_equal(again.values, table.values)
        # the cache is the source on the second call: corrupt it and reread
        payload = json.loads(path.read_text())
        payload["values"][0] = -1.0
        path.write_text(json.dumps(payload))
        assert calibrate_cvm(40, reps=300, seed=9, cache_dir=tmp_path).values[0] == -1.0

    @pytest.mark.parametrize(
        "damage",
        [
            lambda p: p.update(values=p["values"][:-1]),  # wrong length
            lambda p: p.update(seed=10),  # not the table the file name promises
            lambda p: p.pop("values"),
            lambda p: p["values"].__setitem__(5, math.nan),
            lambda p: p["values"].reverse(),  # unsorted
            lambda p: p.update(values="bad"),
        ],
        ids=["length", "seed", "missing", "nan", "unsorted", "type"],
    )
    def test_invalid_cache_is_a_miss(self, tmp_path, damage):
        fresh = calibrate_cvm(40, reps=300, seed=9)
        path = tmp_path / "cvm_null_n40_reps300_seed9.json"
        payload = fresh.to_json_dict()
        damage(payload)
        path.write_text(json.dumps(payload))
        table = calibrate_cvm(40, reps=300, seed=9, cache_dir=tmp_path)
        np.testing.assert_array_equal(table.values, fresh.values)
        # the bad file was replaced by the recomputed table, and nothing else is left
        assert json.loads(path.read_text()) == fresh.to_json_dict()
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_truncated_cache_file_recovers_in_the_cli(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        cfg = tmp_path / "cal.json"
        cfg.write_text(json.dumps({"n": 50, "reps": 200, "seed": 1, "cache_dir": str(cache)}))
        assert main(["calibrate", "cvm", "--config", str(cfg)]) == 0
        path = cache / "cvm_null_n50_reps200_seed1.json"
        path.write_bytes(path.read_bytes()[:100])
        capsys.readouterr()
        assert main(["calibrate", "cvm", "--config", str(cfg)]) == 0
        fresh = calibrate_cvm(50, reps=200, seed=1)
        assert f"q95={fresh.critical_value(0.05):.6f}" in capsys.readouterr().out
        rewritten = calibrate_cvm(50, reps=200, seed=1, cache_dir=cache)  # a cache hit now
        np.testing.assert_array_equal(rewritten.values, fresh.values)

    def test_readers_never_see_a_torn_cache_file(self, tmp_path):
        table = calibrate_cvm(40, reps=300, seed=9)
        path = tmp_path / "cvm_null_n40_reps300_seed9.json"
        _write_cache(path, table)
        want = table.to_json_dict()
        stop = threading.Event()

        def write():
            while not stop.is_set():
                _write_cache(path, table)

        def read(rounds):
            for _ in range(rounds):
                assert json.loads(path.read_text()) == want

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=6) as pool:
                writers = [pool.submit(write) for _ in range(3)]
                readers = [pool.submit(read, 100) for _ in range(3)]
                try:
                    for f in readers:
                        f.result(timeout=60)
                finally:
                    stop.set()  # before the pool joins, or a failed reader hangs it
                for f in writers:
                    f.result(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        """A write whose rename into place fails raises, and removes the temp
        file it wrote, so the cache directory holds what it held before."""
        table = calibrate_cvm(40, reps=300, seed=9)

        def failing_replace(src, dst):
            assert Path(src).exists()  # the temp file was written
            raise OSError("rename refused")

        monkeypatch.setattr(cvm.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            _write_cache(tmp_path / "cvm_null_n40_reps300_seed9.json", table)
        assert list(tmp_path.iterdir()) == []

    def test_memo_draws_each_table_once(self, tmp_path, monkeypatch):
        calls = []

        def counted(seed, lo, hi):
            for rng in replication_rngs(seed, lo, hi):
                calls.append(rng)
                yield rng

        monkeypatch.setattr(sampling, "replication_rngs", counted)
        cvm._simulate.cache_clear()
        first = calibrate_cvm(35, reps=130, seed=77)
        assert len(calls) == 130
        again = calibrate_cvm(35, reps=130, seed=77)
        assert len(calls) == 130
        np.testing.assert_array_equal(again.values, first.values)
        # a disk miss is served by the memo and written out
        on_disk = calibrate_cvm(35, reps=130, seed=77, cache_dir=tmp_path)
        assert len(calls) == 130
        np.testing.assert_array_equal(on_disk.values, first.values)
        # a table read from disk does not enter the memo
        path = tmp_path / "cvm_null_n35_reps130_seed77.json"
        payload = json.loads(path.read_text())
        payload["values"][0] = -1.0
        path.write_text(json.dumps(payload))
        assert calibrate_cvm(35, reps=130, seed=77, cache_dir=tmp_path).values[0] == -1.0
        assert calibrate_cvm(35, reps=130, seed=77).values[0] == first.values[0] > 0.0
        assert len(calls) == 130

    def test_memo_tables_are_read_only(self):
        table = calibrate_cvm(35, reps=130, seed=78)
        assert not table.values.flags.writeable
        with pytest.raises(ValueError):
            table.values[0] = 0.0

    def test_no_cache_dir_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        calibrate_cvm(20, reps=150, seed=1)
        assert list(tmp_path.iterdir()) == []

    def test_seed_determinism(self):
        a = calibrate_cvm(25, reps=200, seed=5)
        b = calibrate_cvm(25, reps=200, seed=5)
        np.testing.assert_array_equal(a.values, b.values)
        c = calibrate_cvm(25, reps=200, seed=6)
        assert not np.array_equal(a.values, c.values)

    def test_table_is_sorted_scaled_statistic(self):
        table = calibrate_cvm(30, reps=150, seed=2)
        assert np.all(np.diff(table.values) >= 0)
        # reconstruct one replication by hand: n T^2 for uniform draws
        u = rng_for_replication(2, 0).random(30)
        want = 30.0 * cvm_statistic(u)
        assert np.any(np.isclose(table.values, want, atol=1e-12))

    def test_critical_value_near_asymptotic_table(self):
        table = calibrate_cvm(500, reps=4000, seed=11)
        assert table.critical_value(0.05) == pytest.approx(ASYMPTOTIC_Q95, abs=Q95_MC_ATOL)

    def test_validation(self):
        with pytest.raises(ConfigError):
            calibrate_cvm(0, reps=200)
        with pytest.raises(ConfigError):
            calibrate_cvm(10, reps=50)
        with pytest.raises(ConfigError):
            calibrate_cvm(10, reps=200).critical_value(1.5)

    def test_json_round_trip(self):
        table = calibrate_cvm(15, reps=120, seed=4)
        again = CvmCalibration.from_json_dict(table.to_json_dict())
        assert (again.n, again.reps, again.seed) == (15, 120, 4)
        np.testing.assert_array_equal(again.values, table.values)


ROWS_AT_1000 = BLOCK_BYTES // (8 * 1000)  # rows of a block of n = 1000 draws

BLOCK_SPANS = {
    "from lo > 0": (1000, 3, 3 + ROWS_AT_1000),
    "partial last block": (1000, 5, 5 + 2 * ROWS_AT_1000 + 3),
    "single replication": (1000, 7, 8),
    "small n": (3, 0, 40),
    "n above one block": (BLOCK_BYTES // 8 + 5, 2, 5),
}


class TestBlockScores:
    """Each entry of ``block_statistic`` on the sorted uniform blocks of
    ``replication_blocks`` has the bytes of ``cvm_test``'s standardized
    statistic of its replication's sample scored alone, and the calibration
    table is the table of the one-replication-at-a-time loop."""

    @pytest.mark.parametrize("n, lo, hi", BLOCK_SPANS.values(), ids=BLOCK_SPANS.keys())
    @pytest.mark.parametrize("theta", [None, Spectrum("cosine", np.array([0.0, 0.1, -0.05]))], ids=["null", "alt"])
    def test_rows_match_the_scalar_reference(self, n, lo, hi, theta):
        seed = 21
        inverse = None if theta is None else iid_sampler(theta)
        blocks = list(cvm_blocks(n, seed, lo, hi, inverse))
        table = CvmCalibration(n, 100, 0, np.zeros(100))  # any table of size n; only its n is read here
        rows = max(1, BLOCK_BYTES // (8 * n))
        assert [b.size for b in blocks] == [min(rows, hi - start) for start in range(lo, hi, rows)]
        scores = np.concatenate(blocks)
        for rep, score in zip(range(lo, hi), scores):
            rng = rng_for_replication(seed, rep)
            sample = rng.random(n) if theta is None else sample_iid(theta, n, rng)
            assert score.tobytes() == np.float64(cvm_test(sample, 0.05, table).standardized).tobytes()

    @pytest.mark.parametrize("n, reps", [(1, 100), (30, 150), (1000, 130), (BLOCK_BYTES // 8 + 1, 100)])
    def test_table_matches_one_replication_at_a_time(self, n, reps):
        cvm._simulate.cache_clear()
        table = calibrate_cvm(n, reps=reps, seed=12)
        assert table.values.tobytes() == simulate_reference(n, reps, 12).tobytes()


class TestScorer:
    def test_row_that_steps_back_is_sorted_again(self, monkeypatch):
        """An inverse that steps back by an ulp in one row: that row is scored
        sorted, the others as mapped, and the block passed in is untouched."""
        n = 50
        block = np.sort(rng_for_replication(5).random((4, n)), axis=1)
        mapped = block.copy()
        mapped[2, 7] = np.nextafter(mapped[2, 6], 0.0)
        seen = []

        def recorded(x, grid):
            seen.append(x.copy())
            return omega_sq(x, grid)

        monkeypatch.setattr(cvm, "omega_sq", recorded)
        drawn = block.copy()
        drawn.setflags(write=False)
        got = block_statistic(n, lambda u: mapped.copy())(drawn)
        assert np.array_equal(drawn, block)
        (scored,) = seen
        assert np.all(np.diff(scored, axis=1) >= 0)
        assert np.array_equal(scored, np.sort(mapped, axis=1))
        assert got.tobytes() == (n * (omega_sq(np.sort(mapped, axis=1), order_grid(n)) / n)).tobytes()


class TestCvmTest:
    def test_sample_size_must_match_table(self):
        table = calibrate_cvm(20, reps=150, seed=0)
        with pytest.raises(ConfigError):
            cvm_test(rng_for_replication(1, 0).random(19), 0.05, table)

    def test_far_alternative_rejects(self):
        table = calibrate_cvm(60, reps=300, seed=0)
        clustered = 0.05 + 0.01 * rng_for_replication(3, 0).random(60)
        rep = cvm_test(clustered, 0.05, table)
        assert rep.reject
        assert rep.standardized == pytest.approx(60.0 * rep.statistic)
        assert rep.details["calibration_reps"] == 300

    def test_null_sample_usually_accepts(self):
        table = calibrate_cvm(60, reps=300, seed=0)
        rep = cvm_test(rng_for_replication(8, 1).random(60), 0.05, table)
        assert rep.family == "cvm"
        assert not rep.reject


class TestConsistencyMargin:
    def test_margin_scales_with_n(self):
        theta = Spectrum(basis="cosine", coeffs=np.array([0.3, 0.0, -0.1]))
        m1 = consistency_margin(theta, 100)
        m2 = consistency_margin(theta, 200)
        assert m2.margin == pytest.approx(2.0 * m1.margin, rel=1e-12)
        assert m1.margin == pytest.approx(100.0 * cvm_population(theta), rel=1e-12)

    def test_density_floor_flag(self):
        safe = Spectrum(basis="cosine", coeffs=np.array([0.3]))
        tight = Spectrum(basis="cosine", coeffs=np.array([0.71]))  # 1 - 0.71 sqrt(2) just above 0
        assert consistency_margin(safe, 50, delta=0.1).b1_ok
        assert not consistency_margin(tight, 50, delta=0.1).b1_ok
