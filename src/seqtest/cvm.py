"""Cramer-von Mises statistic, population functional, and calibrated test.

The empirical statistic against the uniform null is

    T^2 = int_0^1 (Fhat_n(x) - x)^2 dx
        = (1/n) [ sum_i (U_(i) - (2i-1)/(2n))^2 + 1/(12n) ],

evaluated exactly from order statistics.  For a cosine-basis perturbation
f = sqrt(2) sum_j theta_j cos(pi j x) the population functional is

    n T^2(F - F_0) = n sum_j theta_j^2 / (pi^2 j^2),

which is exact: the primitive U(x) = int_0^x f has pure sine expansion
sqrt(2) theta_j sin(pi j x) / (pi j), and T^2(F - F_0) = int U^2.

The classical Brownian-bridge kernel form int int (min{s,t} - st) f f is
NOT the same functional: min{s,t} - st diagonalizes in the sine basis, and
rewriting int U^2 through it leaves a rank-one remainder,

    int U^2 = int int (min{s,t} - st) f(s) f(t) ds dt + (int_0^1 U)^2,

so the two agree only when int U = 0 (no odd-frequency mass).  The defining
integral is authoritative here; the test suite evaluates the kernel form by
quadrature so the remainder identity is checked explicitly.

Critical values come from a seeded Monte Carlo table of n T^2 under the
null, keyed by (n, reps, seed), kept in process and optionally cached as
JSON.  The classical asymptotic 0.95 quantile of omega^2 is not used here;
the test suite keeps it as a cross-check of the tables.

Replications are scored a block at a time: the table and the Monte Carlo
engine's CvM plans (``block_statistic``) score the uniform blocks of
``sampling.replication_blocks`` with one call of ``omega_sq``, on rows that
the caller sorted (the table sorts its own blocks, the engine once per block
for a group of plans), with the bits of a replication scored alone.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, check_length
from .report import TestReport
from .sampling import replication_blocks, validate_sample
from .spectra import Spectrum

# calibration tables must not share streams with test replications: a table
# calibrated at seed s draws exactly the uniforms of a CvM null run at seed s
DEFAULT_CALIBRATION_SEED = 1000003
DEFAULT_CALIBRATION_REPS = 20000

# null tables kept in process: a power curve asks for the same table once per
# scale, and a run rarely needs more than a few (n, reps, seed)
MEMO_TABLES = 8


def order_grid(n: int) -> np.ndarray:
    """The centers (2i - 1) / (2n), i = 1..n, that sorted uniforms are compared with."""
    return (2.0 * np.arange(1, n + 1) - 1.0) / (2.0 * n)


def omega_sq(x_sorted: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """n T^2 = sum_i (x_(i) - grid_i)^2 + 1/(12 n) of each sorted sample along
    the last axis, unchecked: the one formula behind ``cvm_statistic``,
    calibration and the Monte Carlo engine.  numpy sums each row of a
    C-ordered block as it sums that row alone, so a block's scores have the
    bits of its rows scored one by one."""
    return np.sum((x_sorted - grid) ** 2, axis=-1) + 1.0 / (12.0 * grid.size)


def block_statistic(n: int, inverse=None):
    """The map from a block of n sorted uniforms a row, left as it is, to each
    row's n T^2, as ``cvm_test`` standardizes that row's sample.  With
    ``inverse = iid_sampler(theta)`` the rows map to the sorted ``sample_iid``
    sample; the map is nondecreasing but for ulps at a grid node
    (``chisq.cell_thresholds``), so only a row that steps back is sorted again."""
    grid = order_grid(n)

    def score(block: np.ndarray) -> np.ndarray:
        if inverse is not None:
            block = inverse(block)
            back = np.any(block[:, 1:] < block[:, :-1], axis=1)
            if back.any():
                block[back] = np.sort(block[back], axis=1)
        # n * (omega^2 / n) is n T^2 as cvm_test forms it, rounding included
        return n * (omega_sq(block, grid) / n)

    return score


def cvm_statistic(sample: np.ndarray) -> float:
    """T^2 = int (Fhat_n - x)^2 dx via the exact order-statistic formula."""
    x = np.sort(validate_sample(sample))
    return float(omega_sq(x, order_grid(x.size))) / x.size


def cvm_population(theta: Spectrum) -> float:
    """T^2(F - F_0) = sum_j theta_j^2 / (pi^2 j^2) for the cosine basis."""
    if theta.basis != "cosine":
        raise ConfigError("the population functional is defined for the cosine basis")
    j = np.arange(1, theta.coeffs.size + 1, dtype=float)
    return float(np.sum(np.asarray(theta.coeffs, dtype=float) ** 2 / (math.pi**2 * j**2)))


@dataclass(frozen=True)
class CvmCalibration:
    """Monte Carlo null table of n T^2 at a fixed sample size."""

    n: int
    reps: int
    seed: int
    values: np.ndarray  # sorted n T^2 draws

    def critical_value(self, alpha: float) -> float:
        if not 0.0 < alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        return float(np.quantile(self.values, 1.0 - alpha))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "reps": self.reps,
            "seed": self.seed,
            "values": [float(v) for v in self.values],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "CvmCalibration":
        return CvmCalibration(
            n=int(data["n"]),
            reps=int(data["reps"]),
            seed=int(data["seed"]),
            values=np.asarray(data["values"], dtype=float),
        )


def _cache_path(cache_dir: Path, n: int, reps: int, seed: int) -> Path:
    return Path(cache_dir) / f"cvm_null_n{n}_reps{reps}_seed{seed}.json"


def _read_cache(path: Path, n: int, reps: int, seed: int) -> CvmCalibration | None:
    """The cached table, or None when the file is missing or is not the
    finite, sorted table of length reps that its name promises."""
    try:
        table = CvmCalibration.from_json_dict(json.loads(path.read_text()))
    except (FileNotFoundError, ValueError, KeyError, TypeError, OverflowError):
        return None  # absent, torn or hand-edited
    values = table.values
    if (
        (table.n, table.reps, table.seed) != (n, reps, seed)
        or values.shape != (reps,)
        or not np.all(np.isfinite(values))
        or np.any(np.diff(values) < 0)
    ):
        return None
    return table


def _write_cache(path: Path, table: CvmCalibration) -> None:
    """Write through a temp file in the same directory and rename it into
    place, so a concurrent reader sees the old file or the new one, never a
    torn one."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(json.dumps(table.to_json_dict()))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@functools.lru_cache(maxsize=MEMO_TABLES)
def _simulate(n: int, reps: int, seed: int) -> CvmCalibration:
    """The null table of n T^2 from reps seeded replications, read-only,
    since every later call with the same (n, reps, seed) shares it."""
    grid = order_grid(n)
    scores = []
    for block in replication_blocks(seed, 0, reps, n, np.random.Generator.random):
        block.sort(axis=1)
        scores.append(omega_sq(block, grid))
    values = np.concatenate(scores)
    values.sort()
    values.setflags(write=False)
    return CvmCalibration(n=n, reps=reps, seed=seed, values=values)


def calibrate_cvm(
    n: int,
    reps: int = DEFAULT_CALIBRATION_REPS,
    seed: int = DEFAULT_CALIBRATION_SEED,
    cache_dir: str | Path | None = None,
) -> CvmCalibration:
    """The null table of n T^2 for (n, reps, seed).

    Looked up in the JSON cache under ``cache_dir`` when it is set, then in
    the in-process memo of recent tables, and simulated only when both miss;
    a table not read from disk is then written there.  A cache file that does
    not hold a valid table for (n, reps, seed) counts as a miss and is
    rewritten.  The disk file stays the source of truth: a table read from it
    never enters the memo.
    """
    if n < 1 or reps < 100:
        raise ConfigError("need n >= 1 and reps >= 100 for calibration")
    check_length("n", n)
    check_length("reps", reps)
    path = None if cache_dir is None else _cache_path(Path(cache_dir), n, reps, seed)
    if path is not None:
        cached = _read_cache(path, n, reps, seed)
        if cached is not None:
            return cached
    table = _simulate(n, reps, seed)
    if path is not None:
        _write_cache(path, table)
    return table


def cvm_test(sample: np.ndarray, alpha: float, calibration: CvmCalibration) -> TestReport:
    t_sq = cvm_statistic(sample)  # reads the sample through validate_sample
    n = len(sample)
    if n != calibration.n:
        raise ConfigError(f"calibration is for n={calibration.n}, sample has n={n}")
    return TestReport(
        family="cvm",
        statistic=t_sq,
        standardized=n * t_sq,  # n T^2, the scale the critical value lives on
        threshold=calibration.critical_value(alpha),
        alpha=alpha,
        n=n,
        details={"calibration_reps": calibration.reps, "calibration_seed": calibration.seed},
    )
