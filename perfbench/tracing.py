"""Spans around seqtest's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced function by a timing wrapper in every
seqtest module that holds it by name (``seqtest.montecarlo.build_plan`` and
``seqtest.experiments.build_plan`` are the same object), and ``uninstall``
puts the originals back.  Spans live in memory; ``round_metrics`` turns the
spans of one round into the per-layer metrics.  The replication generator is
called from worker threads tens of thousands of times per round, so it gets a
locked counter and a clock sum instead of spans.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

from seqtest import cli, cvm, design, experiments, montecarlo, sampling, spectra
from seqtest.errors import NumericError

# The first projection at J >= PEAK_TRACKED_J runs under tracemalloc for its
# peak; its time is not reported, since tracemalloc slows Dykstra ~4x.
PEAK_TRACKED_J = 1024


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _run_key(config) -> str:
    if config.family == "chisq" and config.theta is None:
        return "chisq_null"
    return config.family


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._lock = threading.Lock()
        self.rng_calls = 0
        self.rng_s = 0.0
        self._patched: list[tuple[object, str, object]] = []
        self._peak_taken = False

    # -- span bookkeeping -------------------------------------------------
    def _open(self, name: str, **attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), parent, attrs=attrs)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.duration

    def _spanned(self, name: str, fn, attrs=None, after=None):
        def wrapper(*args, **kwargs):
            span = self._open(name, **(attrs(*args, **kwargs) if attrs else {}))
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after:
                after(span, result, *args, **kwargs)
            return result
        return wrapper

    # -- wrappers ---------------------------------------------------------
    def _rng(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            rng = fn(*args, **kwargs)
            dt = time.perf_counter() - t0
            with self._lock:
                self.rng_calls += 1
                self.rng_s += dt
            return rng
        return wrapper

    def _project(self, fn):
        def wrapper(spec, *args, **kwargs):
            big = spec.max_frequency >= PEAK_TRACKED_J and not self._peak_taken
            self._peak_taken |= big
            span = self._open("spectra.project", J=spec.max_frequency)
            if big:
                tracemalloc.start()
            try:
                return fn(spec, *args, **kwargs)
            except NumericError:
                span.attrs["failed"] = True
                raise
            finally:
                if big:
                    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._close(span)
        return wrapper

    def _targets(self):
        def plan_attrs(config, *a, **k):
            return {"family": config.family}

        def run_attrs(config, *a, **k):
            return {"key": _run_key(config), "reps": config.reps}

        def rows_after(span, result, *a, **k):
            span.attrs["rows"] = len(result) if isinstance(result, list) else 1

        def write_after(span, result, path, *a, **k):
            span.attrs["bytes"] = os.path.getsize(path)

        return [
            (sampling.rng_for_replication, self._rng),
            (montecarlo.build_plan, lambda f: self._spanned("montecarlo.build_plan", f, plan_attrs)),
            (montecarlo.run_monte_carlo, lambda f: self._spanned("montecarlo.run", f, run_attrs)),
            (cvm.calibrate_cvm, lambda f: self._spanned("cvm.calibrate", f)),
            (spectra.project_besov, self._project),
            (design.solve_design, lambda f: self._spanned("design.solve", f)),
            (design.solve_inverse_design, lambda f: self._spanned("design.inverse_solve", f)),
            (design.sample_bayes_prior, lambda f: self._spanned("design.prior_draw", f)),
            *[
                (getattr(experiments, name), lambda f: self._spanned("experiments.driver", f, after=rows_after))
                for name in ("power_curve", "consistency_experiment",
                             "maxiset_decomposition_experiment", "bayes_membership_rate")
            ],
            (experiments.write_csv, lambda f: self._spanned("cli.write", f, after=write_after)),
            (experiments.write_json, lambda f: self._spanned("cli.write", f, after=write_after)),
            (cli.main, lambda f: self._spanned("cli.main", f)),
        ]

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name == "seqtest" or name.startswith("seqtest.")]
        for original, make in self._targets():
            wrapper = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- per-round metrics ------------------------------------------------
    def mark(self) -> tuple[int, int, float]:
        with self._lock:
            return len(self.spans), self.rng_calls, self.rng_s

    def round_metrics(self, since: tuple[int, int, float]) -> dict:
        """Layer metrics of the spans since ``mark``; None where this round
        cannot give the value."""
        first, calls0, rng0 = since
        spans = self.spans[first:]
        rng_calls = self.rng_calls - calls0
        rng_s = self.rng_s - rng0

        def named(name):
            return [s for s in spans if s.name == name]

        plans, runs = named("montecarlo.build_plan"), named("montecarlo.run")
        projections = named("spectra.project")
        solves, inverse = named("design.solve"), named("design.inverse_solve")
        draws = named("design.prior_draw")
        drivers, writes, mains = named("experiments.driver"), named("cli.write"), named("cli.main")
        calibrations = named("cvm.calibrate")
        run_s = sum((s.self_s for s in runs), 0.0)
        big = [s for s in projections if s.attrs["J"] == 4096]
        peaks = [s.attrs["peak_bytes"] for s in big if "peak_bytes" in s.attrs]
        timed = [s for s in big if "peak_bytes" not in s.attrs]

        out = {
            "montecarlo.plan_s": sum((s.duration for s in plans), 0.0),
            "montecarlo.cvm.plan_s": sum((s.duration for s in plans if s.attrs["family"] == "cvm"), 0.0),
            "montecarlo.plans": len(plans),
            "montecarlo.run_s": run_s,
            "montecarlo.reps_per_s": sum(s.attrs["reps"] for s in runs) / run_s if run_s else 0.0,
        }
        for key in ("minimax", "quadratic", "kernel", "chisq", "chisq_null", "cvm"):
            mine = [s for s in runs if s.attrs["key"] == key]
            reps = sum(s.attrs["reps"] for s in mine)
            out[f"montecarlo.{key}.rep_us"] = 1e6 * sum((s.self_s for s in mine), 0.0) / reps if reps else 0.0
        out.update({
            "sampling.rng_calls": rng_calls,
            "sampling.rng_us": 1e6 * rng_s / rng_calls if rng_calls else 0.0,
            "sampling.rng_s": rng_s,
            "cvm.calibrations": len(calibrations),
            "cvm.calibrate_s": sum((s.duration for s in calibrations), 0.0),
            "spectra.project_calls": len(projections),
            "spectra.project_failed": sum(1 for s in projections if s.attrs.get("failed")),
            "spectra.project_s": sum((s.duration for s in projections), 0.0),
            "spectra.project_ms.J4096": 1e3 * sum((s.duration for s in timed), 0.0) / len(timed) if timed else None,
            "spectra.project_peak_mb": max(peaks) / 2**20 if peaks else None,
            "design.solve_calls": len(solves) + len(inverse),
            "design.solve_s": sum((s.duration for s in solves + inverse), 0.0),
            "design.inverse_solve_ms": 1e3 * sum((s.duration for s in inverse), 0.0) / len(inverse) if inverse else 0.0,
            "design.prior_draw_us": 1e6 * sum((s.duration for s in draws), 0.0) / len(draws) if draws else 0.0,
            "experiments.self_s": sum((s.self_s for s in drivers), 0.0),
            "experiments.rows": sum(s.attrs.get("rows", 0) for s in drivers),
            "cli.self_s": sum((s.self_s for s in mains), 0.0),
            "cli.write_s": sum((s.duration for s in writes), 0.0),
            "cli.bytes_out": sum(s.attrs.get("bytes", 0) for s in writes),
        })
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end, "self_s": s.self_s, **s.attrs,
                }) + "\n")
