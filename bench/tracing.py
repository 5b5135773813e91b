"""Outside-in tracing of one `dynsel run` + `dynsel analyze` pass.

The traced pass goes through the same CLI entry points as the untraced one.
For its duration, every layer function that `dynsel.cli` calls is replaced
by a wrapper that records a span around the call, and `build_instance`
hands out f and c wrapped in counting, timing `ObjectiveFn`/`CostFn` shims.
The calls therefore happen in `cmd_run`'s and `cmd_analyze`'s own order,
and nothing under `src/` changes.

A span's self time is its duration minus what its child spans and the f/c
shims inside it took.  Repeat detection (hashing every bit vector an
algorithm hands to f) runs inside the shim's accounted interval, so it is
charged to no layer; it shows only in the overall tracing overhead.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from dynsel import cli
from dynsel.core import CostFn, ObjectiveFn

from workloads import ALGORITHMS

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stack = []  # open spans: [name, start, covered by children]
        self.spans = []  # closed spans: (name, start, end, parent)
        self.total = defaultdict(float)
        self.self_s = defaultdict(float)
        self.owner = "other"  # who the current f/c calls are charged to
        self.calls = defaultdict(int)  # (kind, owner) -> calls
        self.secs = defaultdict(float)  # (kind, owner) -> seconds
        self.repeats = defaultdict(int)  # algorithm -> repeated f calls
        self.seen = set()  # bit vectors f saw in the current run
        self.runs = defaultdict(list)  # algorithm -> [records]
        self.files = 0
        self.baseline_budgets = set()
        self.negatives = {}  # id(records) -> negative raw errors

    @contextmanager
    def span(self, name):
        parent = self.stack[-1][0] if self.stack else None
        frame = [name, perf(), 0.0]
        self.stack.append(frame)
        try:
            yield
        finally:
            end = perf()
            self.stack.pop()
            duration = end - frame[1]
            self.spans.append((name, frame[1], end, parent))
            self.total[name] += duration
            self.self_s[name] += duration - frame[2]
            if self.stack:
                self.stack[-1][2] += duration

    @contextmanager
    def owned_by(self, owner):
        previous, self.owner = self.owner, owner
        try:
            yield
        finally:
            self.owner = previous

    def call(self, kind, fn, bits):
        """Time one f or c call; charge it to the current owner."""
        t0 = perf()
        value = fn(bits)
        t1 = perf()
        owner = self.owner
        self.calls[kind, owner] += 1
        self.secs[kind, owner] += t1 - t0
        if kind == "objective" and owner in ALGORITHMS:
            key = np.asarray(bits, dtype=np.uint8).tobytes()
            if key in self.seen:
                self.repeats[owner] += 1
            else:
                self.seen.add(key)
        if self.stack:
            self.stack[-1][2] += perf() - t0
        return value

    # -- wrappers around the functions dynsel.cli calls ---------------------

    def build_instance(self, inner):
        def wrapper(*args, **kwargs):
            with self.span("cli.build_instance"):
                f, c, meta = inner(*args, **kwargs)
            return TracedObjective(self, f), TracedCost(self, c), meta
        return wrapper

    def run_dynamic(self, inner):
        def wrapper(name, *args, **kwargs):
            self.seen = set()
            with self.owned_by(name), self.span(f"algorithms.{name}"):
                records = inner(name, *args, **kwargs)
            self.runs[name].append(records)
            return records
        return wrapper

    def write_run_csv(self, inner):
        def wrapper(*args, **kwargs):
            with self.span("cli.write_csv"):
                inner(*args, **kwargs)
            self.files += 1
        return wrapper

    def offline_errors(self, inner):
        def wrapper(records, *args, **kwargs):
            with self.span("analysis.offline_errors"):
                series = inner(records, *args, **kwargs)
            # cmd_analyze recomputes each run's series once per interval
            self.negatives[id(records)] = int((series.errors < 0).sum())
            return series
        return wrapper

    def baseline_factory(self, inner):
        def factory(*args, **kwargs):
            baseline = inner(*args, **kwargs)

            def traced_baseline(budget):
                self.baseline_budgets.add(budget)
                with self.owned_by("baseline"), self.span("analysis.baseline"):
                    return baseline(budget)
            return traced_baseline
        return factory

    def spanned(self, name, inner):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return inner(*args, **kwargs)
        return wrapper

    @contextmanager
    def patched(self):
        """Install the wrappers on dynsel.cli for the duration of the block."""
        wrappers = {
            "build_instance": self.build_instance,
            "build_schedule": lambda fn: self.spanned("cli.build_schedule", fn),
            "run_dynamic": self.run_dynamic,
            "write_run_csv": self.write_run_csv,
            "read_run_csv": lambda fn: self.spanned("cli.read_csv", fn),
            "offline_errors": self.offline_errors,
            "brute_force_baseline": self.baseline_factory,
            "long_run_baseline": self.baseline_factory,
            "kruskal_wallis": lambda fn: self.spanned("analysis.kruskal", fn),
            "bonferroni_posthoc": lambda fn: self.spanned("analysis.posthoc", fn),
        }
        originals = {}
        for name, wrap in wrappers.items():
            if not hasattr(cli, name):
                print(f"trace: dynsel.cli has no {name}; its layer metrics "
                      "read 0", file=sys.stderr)
                continue
            originals[name] = getattr(cli, name)
            setattr(cli, name, wrap(originals[name]))
        try:
            yield self
        finally:
            for name, fn in originals.items():
                setattr(cli, name, fn)

    # -- per-layer metrics --------------------------------------------------

    def summary(self):
        """Closed spans grouped by (name, parent): count and total seconds."""
        groups = {}
        for name, start, end, parent in self.spans:
            g = groups.setdefault((name, parent), [0, 0.0])
            g[0] += 1
            g[1] += end - start
        return [{"name": name, "parent": parent, "count": count,
                 "total_s": total}
                for (name, parent), (count, total) in sorted(
                    groups.items(), key=lambda kv: -kv[1][1])]

    def metrics(self, run_s, analyze_s) -> dict:
        """Per-layer metrics as {name: (value, unit)}; run_s and analyze_s
        are the traced `dynsel run` and `dynsel analyze` wall times."""
        out = {}
        for kind in ("objective", "cost"):
            calls = sum(v for (k, _), v in self.calls.items() if k == kind)
            secs = sum(v for (k, _), v in self.secs.items() if k == kind)
            out[f"problems.{kind}.calls"] = (calls, "count")
            out[f"problems.{kind}.s"] = (secs, "s")
            out[f"problems.{kind}.us_per_call"] = (
                secs / calls * 1e6 if calls else 0.0, "us")
        out["problems.objective.run_share"] = (
            sum(self.secs["objective", alg] for alg in ALGORITHMS) / run_s,
            "ratio")
        for alg in ALGORITHMS:
            f_calls = self.calls["objective", alg]
            c_calls = self.calls["cost", alg]
            span = f"algorithms.{alg}"
            records = self.runs.get(alg, [])
            out[f"problems.objective.repeat_ratio.{alg}"] = (
                self.repeats[alg] / f_calls if f_calls else 0.0, "ratio")
            out[f"{span}.s"] = (self.total[span], "s")
            out[f"{span}.self_s"] = (self.self_s[span], "s")
            out[f"{span}.self_us_per_eval"] = (
                self.self_s[span] / c_calls * 1e6 if c_calls else 0.0, "us")
            out[f"{span}.cutoff_ratio"] = (
                1.0 - f_calls / c_calls if c_calls else 0.0, "ratio")
            if alg in ("gga", "adgga"):
                changes = sum(len(r) for r in records)
                out[f"{span}.s_per_change"] = (
                    self.total[span] / changes if changes else 0.0, "s")
            out[f"dynamics.{alg}.evals_reported"] = (
                sum(r[-1].evaluations for r in records if r), "count")
            out[f"dynamics.{alg}.cost_calls"] = (c_calls, "count")
        out["analysis.baseline.s"] = (self.total["analysis.baseline"], "s")
        out["analysis.baseline.share"] = (
            self.total["analysis.baseline"] / analyze_s, "ratio")
        out["analysis.baseline.budgets"] = (len(self.baseline_budgets), "count")
        out["analysis.baseline.objective_calls"] = (
            self.calls["objective", "baseline"], "count")
        for name in ("offline_errors", "kruskal", "posthoc"):
            out[f"analysis.{name}.s"] = (self.self_s[f"analysis.{name}"], "s")
        out["analysis.negative_errors"] = (sum(self.negatives.values()), "count")
        for name in ("build_instance", "write_csv", "read_csv"):
            out[f"cli.{name}.s"] = (self.total[f"cli.{name}"], "s")
        out["cli.files"] = (self.files, "count")
        return out


class TracedObjective(ObjectiveFn):
    def __init__(self, tracer, inner):
        self.tracer = tracer
        self.inner = inner
        self.n = inner.n
        self.deterministic = getattr(inner, "deterministic", True)

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __call__(self, bits):
        return self.tracer.call("objective", self.inner, bits)


class TracedCost(CostFn):
    def __init__(self, tracer, inner):
        self.tracer = tracer
        self.inner = inner
        self.n = inner.n
        self.min_increment = inner.min_increment

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def __call__(self, bits):
        return self.tracer.call("cost", self.inner, bits)
