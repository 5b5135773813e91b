"""One benchmark cycle in a fresh process: generate, set up, run, analyze.

Started by run.py with the checkout's `src` on PYTHONPATH.  Prints one JSON
object on its last stdout line: timings, peak RSS, output checks, the output
digest and, with --traced, the per-layer metrics.

Set-up time runs from the moment run.py started this process (`--spawned-at`,
a CLOCK_MONOTONIC reading) through the imports, the `dynsel generate` calls
and one build_instance + build_schedule pass.

`run_ref` and `analyze_ref` are the run and analyze wall times divided by the
wall time of a fixed reference kernel timed right before and after each
phase (see reference_seconds).
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import hashlib
import io
import json
import math
import resource
import sys
import time
from importlib.metadata import version
from pathlib import Path

import numpy

from dynsel import cli
from dynsel.dynamics import read_run_csv
from dynsel.problems import bfs_reachable

from tracing import Tracer
from workloads import WORKLOADS, prepare


def quiet_main(argv):
    """Run one dynsel CLI command with its progress lines swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def generate(argv):
    if quiet_main(["generate", *argv]) != 0:
        raise RuntimeError(f"dynsel generate {' '.join(argv)} failed")


def read_config(path):
    cfg = configparser.ConfigParser()
    cfg.read(path)
    return cfg


def algorithm_names(cfg):
    return [a.strip() for a in cfg["run"]["algorithms"].split(",")]


def guard(f, c, meta, schedule):
    """Refuse a workload whose budgets cannot discriminate between
    algorithms: a routing cost needs a connected routing graph, something
    must fit, and not everything may fit."""
    influence = meta.get("influence")
    if influence is not None and influence.routing_graph is not None:
        graph = influence.routing_graph
        reached = bfs_reachable(graph, [0])
        if reached != graph.n:
            raise SystemExit(
                f"degenerate workload: routing graph is disconnected, node 0 "
                f"reaches {reached} of {graph.n} nodes")
    n = f.n
    c_all = float(c(numpy.ones(n, dtype=numpy.uint8)))
    cheapest = min(float(c(numpy.eye(n, dtype=numpy.uint8)[v])) for v in range(n))
    if not cheapest <= schedule.b_max < c_all:
        raise SystemExit(
            f"degenerate workload: need cheapest singleton <= b_max < c(V), "
            f"got {cheapest!r} <= {schedule.b_max!r} < {c_all!r}")


def check_runs(cfg, results, schedules):
    """One operation per (algorithm, seed) run; returns {run_id: failure}.

    A run fails if the manifest lists it as failed, its CSV is missing, it
    has a row count other than count + 1, its budgets differ from the
    schedule, or any answer costs more than its budget.
    """
    manifest_path = results / "manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
    listed = {run_id for run_id, _msg in manifest["failed"]} if manifest else set()
    failures = {}
    for seed, schedule in schedules.items():
        budgets = schedule.budgets()
        for alg in algorithm_names(cfg):
            run_id = f"{alg}_s{seed}"
            path = results / f"{run_id}.csv"
            if manifest is None:
                failures[run_id] = "no manifest"
            elif run_id in listed:
                failures[run_id] = "listed as failed in the manifest"
            elif not path.exists():
                failures[run_id] = "missing CSV"
            else:
                records = read_run_csv(path)
                if len(records) != schedule.count + 1:
                    failures[run_id] = (f"{len(records)} rows, expected "
                                        f"{schedule.count + 1}")
                elif [r.budget for r in records] != budgets:
                    failures[run_id] = "budgets differ from the schedule"
                elif any(r.best_cost > r.budget for r in records):
                    failures[run_id] = "an answer costs more than its budget"
    return failures


def check_report(report, algorithms, intervals):
    """The analyze operation fails on a missing or non-finite report row."""
    if not report.exists():
        return ["no report.csv"]
    with open(report, newline="") as fh:
        rows = {(r["interval"], r["algorithm"]): r for r in csv.DictReader(fh)}
    failures = []
    for interval in intervals.split(","):
        for alg in sorted(algorithms):
            row = rows.get((interval, alg))
            if row is None:
                failures.append(f"no row for {alg} on {interval}")
            elif not all(math.isfinite(float(row[k])) for k in ("mean", "std")):
                failures.append(f"non-finite row for {alg} on {interval}")
    return failures


def digest(results):
    """SHA-256 of the run CSVs without their wall_ms column, plus report.csv."""
    h = hashlib.sha256()
    for path in sorted(results.glob("*_s*.csv")):
        h.update(path.name.encode())
        with open(path, newline="") as fh:
            for row in csv.reader(fh):
                h.update(",".join(row[:-1]).encode() + b"\n")
    report = results / "report.csv"
    if report.exists():
        h.update(report.read_bytes())
    return h.hexdigest()


REFERENCE_ROUNDS = 12_000


def reference_seconds():
    """Wall time of a fixed kernel that runs no dynsel code.

    The speed of a virtual CPU can drift by a factor of two within minutes
    when the host is shared.  Dividing a phase's wall time by this kernel's,
    timed right around the phase, cancels most of that drift while a change
    to dynsel still moves the ratio in full.  The kernel does what dynsel's
    hot loops do: small numpy draws and XORs on a 0/1 vector, and a Python
    loop that ORs integer bitmasks.
    """
    rng = numpy.random.default_rng(0)
    bits = numpy.zeros(100, dtype=numpy.uint8)
    masks = [(1 << (i % 61)) | (1 << (i * 7 % 97)) for i in range(100)]
    t0 = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        bits = bits ^ (rng.random(100) < 0.02)
        acc = 0
        for i, b in enumerate(bits.tobytes()):
            if b:
                acc |= masks[i]
        acc.bit_count()
    return time.perf_counter() - t0


def timed_main(argv):
    """Run one CLI command; (seconds, error message or None)."""
    t0 = time.perf_counter()
    try:
        rc = quiet_main(argv)
        error = None if rc == 0 else f"exit code {rc}"
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, error


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True)
    cfg_path = prepare(workload, args.size, args.seed, workdir, generate)
    cfg = read_config(cfg_path)
    f, c, meta = cli.build_instance(cfg, workdir)
    seeds = range(int(cfg["run"]["seeds"]))
    schedule = cli.build_schedule(cfg, workdir, seeds[0])
    setup_s = time.monotonic() - args.spawned_at

    guard(f, c, meta, schedule)
    schedules = {s: cli.build_schedule(cfg, workdir, s) for s in seeds}
    results = workdir / "results"
    size = workload.sizes[args.size]
    intervals = size["intervals"]

    tracer = Tracer() if args.traced else None

    def phase(argv):
        """Time one CLI command, then the reference kernel after it."""
        with tracer.patched() if tracer else contextlib.nullcontext():
            seconds, error = timed_main(argv)
        return seconds, error, reference_seconds()

    ref_before = reference_seconds()
    run_s, run_error, ref_between = phase(["run", "--config", str(cfg_path)])
    analyze_s, analyze_error, ref_after = phase(
        ["analyze", "--results", str(results), "--baseline", size["baseline"],
         "--intervals", intervals])

    run_failures = check_runs(cfg, results, schedules)
    if run_error and not run_failures:  # raised after its runs were written
        run_failures = {f"{alg}_s{s}": run_error
                        for s in schedules for alg in algorithm_names(cfg)}
    analyze_failures = ([analyze_error] if analyze_error else
                        check_report(results / "report.csv",
                                     algorithm_names(cfg), intervals))
    failures = [f"{k}: {v}" for k, v in sorted(run_failures.items())]
    failures += [f"analyze: {m}" for m in analyze_failures]
    if run_error:
        failures.append(f"run: {run_error}")

    out = {
        "setup_s": setup_s,
        "run_s": run_s,
        "analyze_s": analyze_s,
        "run_ref": run_s / ((ref_before + ref_between) / 2),
        "analyze_ref": analyze_s / ((ref_between + ref_after) / 2),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": len(schedules) * len(algorithm_names(cfg)) + 1,
        "failed": len(run_failures) + bool(analyze_failures),
        "failures": failures,
        "digest": digest(results),
        "versions": {"python": sys.version.split()[0],
                     **{m: version(m) for m in ("numpy", "scipy", "networkx")}},
    }
    if tracer is not None:
        out["layers"] = {k: list(v) for k, v in tracer.metrics(run_s, analyze_s).items()}
        out["spans"] = tracer.summary()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
