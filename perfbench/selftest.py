"""Self-test of the output checks: each must accept a real run's outputs and
reject a deliberately wrong copy of them.

    python3 perfbench/selftest.py

Runs one round of every workload (about half a minute), then breaks one
output at a time: a null rejection count moved by 5 standard errors
(seqmodel, density), a projection scaled by 1.001 (geometry), one byte of a
CSV flipped (cli).  Exits 0 when every check accepts the real outputs and
rejects every broken one.
"""

from __future__ import annotations

import copy
import math
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402


def move_null(w, key: str, report: dict):
    """A copy of w whose pooled null count sits 5 SE further from the exact size."""
    broken = copy.deepcopy(w)
    pooled = broken.pooled[key]
    size = report[key]["exact_size"]
    step = math.ceil(5.0 * math.sqrt(size * (1.0 - size) * pooled["reps"]))
    pooled["rejections"] += step if report[key]["z"] >= 0 else -step
    return broken


def scale_projection(w, key: str):
    broken = copy.deepcopy(w)
    broken.outputs[key] = broken.outputs[key] * 1.001
    return broken


def flip_csv_byte(w, name: str):
    broken = copy.deepcopy(w)
    data = bytearray(broken.outputs[0][name])
    data[len(data) // 2] ^= 0x01
    broken.outputs[0][name] = bytes(data)
    return broken


def main() -> int:
    failures = []
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        for name, cls in workloads.WORKLOADS.items():
            w = cls(1, Path(tmp))
            if hasattr(w, "prepare"):
                w.prepare()
            w.round(0)
            if hasattr(w, "collect"):
                w.collect()
            check = checks.CHECKS[name]
            problems, report = check(w)
            print(f"{name}: real outputs -> {problems or 'accepted'}")
            if problems:
                failures.append(f"{name}: real outputs rejected")
            if name == "seqmodel":
                broken = {"minimax_null +5 SE": move_null(w, "minimax_null", report)}
            elif name == "density":
                broken = {f"{key} +5 SE": move_null(w, key, report) for key in ("chisq_null", "cvm_null")}
            elif name == "geometry":
                broken = {f"{key} x 1.001": scale_projection(w, key) for key in ("J16", "J32", "J4096")}
            else:
                broken = {f"{key} byte flipped": flip_csv_byte(w, key)
                          for key in ("curve", "decomposition", "consistency")}
            for label, bad in broken.items():
                found, _ = check(bad)
                print(f"{name}: {label} -> {found or 'ACCEPTED'}")
                if not found:
                    failures.append(f"{name}: {label} was accepted")
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
