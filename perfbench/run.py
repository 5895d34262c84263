"""seqtest benchmark: one workload per process, timed in whole rounds.

    python3 perfbench/run.py --workload {seqmodel,density,geometry,cli} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; seqtest is imported from its ``src``.  The
run builds the workload's inputs from ``--seed``, repeats rounds of the same
operations until the next round would pass ``--seconds``, checks every
output (``checks.py``), and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones of BENCHMARK.json; with ``--trace 1`` they
are the per-layer ones, from rounds run under ``tracing.py``'s wrappers that
alternate with untraced rounds.  Details go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# One BLAS thread per process, set before numpy loads: the cli workload runs
# two worker threads, and the machine has two cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 4  # extra processes that only import and build inputs


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("seqmodel", "density", "geometry", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load(name: str, seed: int, workdir: Path):
    """Import seqtest from this checkout and build the inputs; returns the
    workload and the seconds that took."""
    src = ROOT / "src"
    if not (src / "seqtest" / "__init__.py").is_file():
        raise SystemExit(f"no seqtest sources under {src}")
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import seqtest
    import workloads

    workload = workloads.WORKLOADS[name](seed, workdir)
    elapsed = time.perf_counter() - start
    if Path(seqtest.__file__).resolve().parent != (src / "seqtest").resolve():
        raise SystemExit(f"seqtest was imported from {seqtest.__file__}, not from {src}")
    return workload, elapsed


def setup_samples(args, own: float) -> list[float]:
    samples = [own]
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120,
        )
        samples.append(float(probe.stdout.split()[-1]))
    return samples


def measure(workload, seconds: float, trace: bool) -> dict:
    """Whole rounds until the next would end past ``seconds``.  Under
    --trace 1 the odd rounds run traced, the even ones untraced."""
    from tracing import Tracer

    rounds = {"wall": [], "cpu": [], "traced_wall": [], "layers": []}
    attempted = failed = 0
    tracer = Tracer()
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        if traced:
            tracer.install()
        mark = tracer.mark()
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            a, f = workload.round(index)
        finally:
            tracer.uninstall()
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            rounds["traced_wall"].append(wall)
            rounds["layers"].append(tracer.round_metrics(mark))
        else:
            rounds["wall"].append(wall)
            rounds["cpu"].append(cpu)
        if hasattr(workload, "collect"):
            workload.collect()
        attempted += a
        failed += f
        index += 1
        typical = statistics.median(rounds["wall"] + rounds["traced_wall"])
        if index >= (2 if trace else 1) and time.perf_counter() - start + typical > seconds:
            break
    if trace:
        tracer.dump(OUT / f"trace-{workload.name}.jsonl")
    rounds.update(attempted=attempted, failed=failed)
    return rounds


def main(argv=None) -> int:
    args = parse_args(argv)
    seed = abs(args.seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        workload, own_setup = load(args.workload, seed, Path(tmp))
        if args.setup_probe:
            print(repr(own_setup))
            return 0
        setups = setup_samples(args, own_setup)
        import checks

        if hasattr(workload, "prepare"):
            workload.prepare()
        rounds = measure(workload, args.seconds, bool(args.trace))
        problems, report = checks.CHECKS[args.workload](workload)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        layers = rounds["layers"]
        values = {}
        for name in layers[0]:
            seen = [r[name] for r in layers if r[name] is not None]
            if not seen:
                values[name] = 0.0
            elif len(set(seen)) == 1:  # counts: the same every round, kept exact
                values[name] = seen[0]
            else:
                values[name] = statistics.median(seen)
        values["trace.overhead_s"] = statistics.median(rounds["traced_wall"]) - statistics.median(rounds["wall"])
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(rounds["wall"]),
            "cpu_s": statistics.median(rounds["cpu"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not problems,
        "attempted": rounds["attempted"],
        "failed": rounds["failed"],
        "metrics": metrics,
    }
    detail = dict(result, workload=args.workload, seed=seed, seconds=args.seconds,
                  setup_samples=setups, problems=problems, checks=report,
                  rounds={k: rounds[k] for k in ("wall", "cpu", "traced_wall", "layers")})
    suffix = "-trace" if args.trace else ""
    (OUT / f"result-{args.workload}{suffix}.json").write_text(json.dumps(detail, indent=1, default=float) + "\n")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
