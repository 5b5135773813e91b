"""Benchmark of `dynsel run` + `dynsel analyze` on three workloads.

Run from the root of a dynsel checkout:

    python3 bench/run.py --workload maxcov-outdegree --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35

One client, closed loop, single-threaded: each cycle is one fresh worker
process (bench/worker.py) that generates the workload's inputs from the
seed, sets up, then runs `dynsel run --config` and `dynsel analyze`.  Cycles
repeat, one at a time, until --seconds have passed (at least three), and
the end-to-end metrics are their medians.  With --trace 1 one extra traced
cycle comes first and the per-layer metrics come from it.

The last stdout line is one JSON object: correct, attempted, failed and
metrics.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent

MIN_CYCLES = 3
DEADLINE_S = 170  # every invocation ends within 180 s
THREAD_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
END_TO_END = {"setup_s": "s", "run_ref": "ref", "analyze_ref": "ref",
              "peak_rss_mb": "MB"}
WALL = {"run_s": "s", "analyze_s": "s"}  # printed, not reported: see README


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


def git_commit(root: Path) -> str:
    try:
        head = (root / ".git" / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (root / ".git" / ref).exists():
            return (root / ".git" / ref).read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Cycles:
    """Runs worker processes for one workload and collects their results."""

    def __init__(self, root, workload, seed, size, started):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.size = size
        self.started = started
        self.workdir = root / ".bench_work" / f"{workload}-s{seed}-p{os.getpid()}"
        self.count = 0
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **THREAD_ENV)

    def run(self, traced=False):
        timeout = DEADLINE_S - (time.monotonic() - self.started)
        if timeout <= 0:
            raise BenchError("out of time before a cycle could start")
        self.count += 1
        argv = [sys.executable, str(BENCH_DIR / "worker.py"),
                "--workload", self.workload, "--seed", str(self.seed),
                "--size", self.size,
                "--workdir", str(self.workdir / f"c{self.count}")]
        if traced:
            argv.append("--traced")
        argv += ["--spawned-at", repr(time.monotonic())]
        try:
            proc = subprocess.run(argv, cwd=self.root, env=self.env, text=True,
                                  capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"a cycle ran past {DEADLINE_S} s") from None
        finally:
            shutil.rmtree(self.workdir / f"c{self.count}", ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"worker failed:\n{proc.stderr.strip()}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        try:
            self.workdir.parent.rmdir()
        except OSError:
            pass  # another invocation still uses it


def measure(root, workload, seed, seconds, trace, size):
    """Run the cycles for one workload; return (result dict, report lines)."""
    started = time.monotonic()
    cycles = Cycles(root, workload, seed, size, started)
    try:
        traced = cycles.run(traced=True) if trace else None
        untraced = []
        while len(untraced) < MIN_CYCLES or time.monotonic() - started < seconds:
            untraced.append(cycles.run())
    finally:
        cycles.close()

    every = untraced + ([traced] if traced else [])
    digests = {c["digest"] for c in every}
    failures = [msg for c in every for msg in c["failures"]]
    if len(digests) > 1:
        failures.append("outputs differ between cycles: "
                        + ", ".join(sorted(d[:12] for d in digests)))
    lines = [f"{workload} seed={seed}: {len(untraced)} untraced cycles"
             f"{' + 1 traced' if traced else ''}, digest {untraced[0]['digest']}"]
    metrics = {}
    for name, unit in {**END_TO_END, **WALL}.items():
        values = sorted(c[name] for c in untraced)
        median = statistics.median(values)
        if name in END_TO_END:
            metrics[name] = {"value": median, "unit": unit}
        lines.append(f"  {name:<12} median {median:.6g} {unit}  (min "
                     f"{values[0]:.6g}, max {values[-1]:.6g}, n={len(values)})")
    if traced:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in traced["layers"].items()}
        ratio = traced["run_s"] / statistics.median(c["run_s"] for c in untraced)
        metrics["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
        lines.append("  spans (name <- parent: count, total s):")
        lines += [f"    {s['name']} <- {s['parent']}: {s['count']}, "
                  f"{s['total_s']:.6g}" for s in traced["spans"]]
        lines += [f"  {name} {m['value']:.6g} {m['unit']}"
                  for name, m in metrics.items()]
    lines += [f"  FAILED {msg}" for msg in failures]
    result = {"correct": not failures,
              "attempted": sum(c["attempted"] for c in every),
              "failed": sum(c["failed"] for c in every),
              "metrics": metrics}
    provenance = {"nproc": os.cpu_count(), **untraced[0]["versions"],
                  "git_commit": git_commit(root), "workload": workload,
                  "seed": seed, "size": size, "seconds": seconds,
                  "thread_env": THREAD_ENV}
    lines.insert(0, "provenance " + json.dumps(provenance))
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=[*sorted(WORKLOADS), "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny is for the smoke test only")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    # and the finally blocks remove the scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "dynsel" / "cli.py").is_file():
        print(f"no dynsel sources under {root / 'src'}: run from the root of "
              "a dynsel checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(str(root / "src" / "dynsel"), quiet=1)

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result, lines = measure(root, name, args.seed, args.seconds,
                                    args.trace, args.size)
            print("\n".join(lines), flush=True)
            results[name] = result
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{m}": v for w, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
