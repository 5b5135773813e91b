"""Command-line entry point: generate instances and schedules, run dynamic
experiments, analyze results, and run the theory-verification traces.

Experiment configs are plain INI files (configparser); every generated file
embeds the originating seed, the config hash and the tool version where its
format allows, and each output directory carries a manifest with both.
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import hashlib
import json
import math
import os
import platform
import re
import shutil
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (bonferroni_posthoc, brute_force_baseline,
                       format_marks, kruskal_wallis, long_run_baseline,
                       observed_baseline, offline_errors,
                       partial_offline_error)
from .core import fork_map, substream, usable_cpus, worker_count
from .dynamics import (ALL_ALGORITHMS, SCHEDULE_KEYS, SCHEDULE_PRESETS,
                       load_schedule, planned_evals, preset_schedule,
                       read_run_csv, run_dynamic, save_schedule,
                       write_run_csv)
from .problems import (DirectedGraph, GraphParseError, IcSpreadObjective,
                       InfluenceInstance, SetCoverObjective, bfs_reachable,
                       gen_adversarial_knapsack, gen_ba_graph,
                       gen_bipartite_cover, gen_er_graph, gen_random_digraph,
                       load_dimacs, load_edge_list, make_cost,
                       random_linear_cost, save_edge_list)
from .theory import (bipartite_decrease_trace, knapsack_increase_trace,
                     pomc_phi_trial)

EXPERIMENT_PRESETS = {
    "influence-routing": dict(kind="influence", schedule="influence",
                              cost="routing", taus=(100, 1000, 5000, 10000),
                              algorithms="gga,adgga,pomc,pomc-wp"),
    "influence-cardinality": dict(kind="influence", schedule="influence",
                                  cost="cardinality",
                                  taus=(100, 1000, 5000, 10000),
                                  algorithms="gga,adgga,pomc,pomc-wp"),
    "maxcov-random": dict(kind="coverage", schedule="random-cost",
                          cost="random-linear",
                          taus=(100, 1000, 5000, 15000, 45000),
                          algorithms="gga,adgga,pomc-wp,eamc,nsga2"),
    "maxcov-outdegree": dict(kind="coverage", schedule="outdegree",
                             cost="outdegree",
                             taus=(100, 1000, 5000, 15000, 45000),
                             algorithms="gga,adgga,pomc-wp,eamc,nsga2"),
}


# the config sections `run` and `analyze` read
REQUIRED_SECTIONS = ("instance", "run", "schedule")

# the name of a run file `dynsel run` writes: <algorithm>_s<seed>.csv
RUN_FILE = re.compile(r"(?P<algorithm>[a-z0-9-]+)_s(?P<seed>-?[0-9]+)\.csv")

# the config keys that name input files, relative to the config
INPUT_KEYS = (("instance", "graph"), ("instance", "routing_graph"),
              ("cost", "costs"), ("schedule", "path"))


def _config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def load_graph(path, routing=False) -> DirectedGraph:
    """A DIMACS or edge-list graph, by its first line; a `routing` graph
    needs a weight on every edge, which only the edge-list format holds."""
    with open(path) as fh:
        for line in fh:
            if line.strip() and not line.startswith(("c", "#")):
                first = line.split()[0]
                break
        else:
            first = ""
    if first == "p":
        if routing:
            raise GraphParseError(path, "a routing graph needs edge weights, "
                                  "which the DIMACS format does not hold")
        return load_dimacs(path)
    return load_edge_list(path, routing)


# ---------------------------------------------------------------------------
# generate


def _influence_graphs(out: Path, cost: str, args, rng) -> dict:
    """Write an influence experiment's graphs next to its config `out`, named
    after it: a BA social graph and, for the routing cost, an ER routing
    graph redrawn until connected, with p raised to at least 2 ln(n) / n.
    Returns the [instance] keys that name them."""
    social = out.with_name(f"{out.stem}.social.edges")
    save_edge_list(gen_ba_graph(args.n, m=args.m, rng=rng,
                                edge_prob=args.edge_prob), social)
    keys = {"graph": social.name}
    if cost == "routing":
        p = max(args.p, 2 * math.log(args.n) / args.n)
        routing = gen_er_graph(args.n, p, rng)
        while bfs_reachable(routing, [0]) < routing.n:
            routing = gen_er_graph(args.n, p, rng)
        path = out.with_name(f"{out.stem}.routing.edges")
        save_edge_list(routing, path)
        keys["routing_graph"] = path.name
    return keys


def _write_costs(path, n, seed, rng) -> None:
    """Write random-linear per-node weights, one per line, under a header
    naming their size and seed."""
    with open(path, "w") as fh:
        fh.write(f"# random-linear costs n={n} seed={seed} dynsel={__version__}\n")
        for w in random_linear_cost(n, rng).weights:
            fh.write(f"{float(w)!r}\n")


def _schedule_flags(args) -> dict:
    """The schedule flags given on the command line, by `[schedule]` key."""
    given = {key: getattr(args, key) for key in SCHEDULE_KEYS
             if getattr(args, key) is not None}
    if args.integer_deltas:
        given["integer_deltas"] = True
    return given


def cmd_generate(args) -> int:
    if args.tau < 0:
        raise ValueError(f"--tau must be non-negative, got {args.tau}")
    rng = substream(args.seed, "generate", args.kind)
    out = Path(args.out)
    if args.kind == "schedule":
        given = {SCHEDULE_KEYS.get(key, key): value
                 for key, value in _schedule_flags(args).items()}
        save_schedule(preset_schedule(args.preset, rng, count=args.count,
                                      tau=args.tau, seed=args.seed, **given), out)
    elif args.kind == "ba":
        graph = gen_ba_graph(args.n, m=args.m, rng=rng, edge_prob=args.edge_prob)
        save_edge_list(graph, out)
    elif args.kind == "er":
        graph = gen_er_graph(args.n, args.p, rng)
        save_edge_list(graph, out)
    elif args.kind == "config":
        if not args.experiment:
            raise ValueError("config generation needs --experiment")
        preset = EXPERIMENT_PRESETS[args.experiment]
        tau = args.tau  # the full grid is preset["taus"]; one tau per config
        cfg = configparser.ConfigParser()
        if preset["kind"] == "influence":
            cfg["instance"] = {"kind": "influence",
                               **_influence_graphs(out, preset["cost"], args, rng),
                               "seed": str(args.seed)}
        else:
            graph = out.with_name(f"{out.stem}.graph.edges")
            save_edge_list(gen_random_digraph(
                args.n, args.p, substream(args.seed, "instance", "coverage"),
                edge_prob=args.edge_prob), graph)
            cfg["instance"] = {"kind": "coverage", "graph": graph.name}
        cfg["cost"] = {"variant": preset["cost"]}
        if preset["cost"] == "random-linear":
            costs = out.with_name(f"{out.stem}.costs")
            _write_costs(costs, args.n, args.seed, substream(args.seed, "costs"))
            cfg["cost"]["costs"] = costs.name
        cfg["schedule"] = {"preset": preset["schedule"],
                           "count": str(args.count), "tau": str(tau),
                           "seed": str(args.seed),
                           **{key: str(value) for key, value
                              in _schedule_flags(args).items()}}
        cfg["run"] = {"algorithms": preset["algorithms"],
                      "seeds": str(args.run_seeds), "output": "results"}
        with open(out, "w") as fh:
            fh.write(f"# dynsel={__version__} experiment={args.experiment} "
                     f"seed={args.seed}\n")
            cfg.write(fh)
    elif args.kind == "random-costs":
        _write_costs(out, args.n, args.seed, rng)
    else:
        raise ValueError(f"unknown kind {args.kind!r}")
    print(f"wrote {out}")
    return 0


# ---------------------------------------------------------------------------
# run


def _read_config(path) -> configparser.ConfigParser:
    cfg = configparser.ConfigParser()
    if not cfg.read(path):
        raise FileNotFoundError(f"config file not found: {path}")
    for section in REQUIRED_SECTIONS:
        if not cfg.has_section(section):
            raise ValueError(f"{path}: the config has no [{section}] section")
    return cfg


def _config_int(section, key, default, minimum=None):
    """`[section] key` as an integer (>= `minimum` when one is given),
    `default` when absent."""
    raw = section.get(key)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = None
    if value is None or (minimum is not None and value < minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"[{section.name}] {key} must be an integer{bound}, "
                         f"got {raw!r}")
    return value


def _config_float(section, key, default=None):
    """`[section] key` as a finite float, `default` when absent."""
    raw = section.get(key)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"[{section.name}] {key} must be a finite number, "
                         f"got {raw!r}")
    return value


def _instance_size(section, kind):
    """`[instance] n`, which the generated instance kinds require."""
    n = _config_int(section, "n", None, 1)
    if n is None:
        raise ValueError(f"[instance] n is required for kind = {kind}")
    return n


def _distinct(values, field):
    """`values`, refused by `field` when one of them repeats."""
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ValueError(f"{field} lists {value!r} twice")
    return values


def _jobs(raw) -> int:
    """The --jobs value: a positive integer, by default every usable CPU."""
    if raw is None:
        return usable_cpus()
    try:
        jobs = int(raw)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise ValueError(f"--jobs must be a positive integer, got {raw!r}")
    return jobs


def load_costs_file(path) -> np.ndarray:
    """Per-node weights, one a line, `#` lines being comments; a weight that
    is not a finite number >= 0 is refused by file and line."""
    costs = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    weight = float(line)
                except ValueError:
                    weight = math.nan
                if not 0.0 <= weight < math.inf:
                    raise ValueError(f"{path}: line {lineno}: cost {line!r} "
                                     f"is not a finite number >= 0")
                costs.append(weight)
    return np.asarray(costs)


def _input_file(section, key, base_dir: Path, why: str) -> Path:
    """The file that config key `section.key` names, relative to `base_dir`."""
    name = section.get(key)
    if not name:
        raise ValueError(f"[{section.name}] {key} is required {why}: name a "
                         "file, e.g. one written by `dynsel generate config`")
    return base_dir / name


def build_instance(cfg, base_dir: Path):
    """Build (f, c, meta) from the [instance] and [cost] config sections.

    Graphs and cost weights are read from the files the config names,
    relative to `base_dir`; nothing is generated or written here.
    """
    inst_sec = cfg["instance"]
    cost_sec = cfg["cost"] if cfg.has_section("cost") else {}
    kind = inst_sec.get("kind", "coverage")

    if kind == "adversarial-knapsack":
        if "variant" in cost_sec:
            raise ValueError("[cost] variant: kind = adversarial-knapsack "
                             "carries its own linear cost; set no variant")
        f, c = gen_adversarial_knapsack(_instance_size(inst_sec, kind))
        return f, c, {}

    variant = cost_sec.get("variant", "cardinality")
    meta = {"cost_variant": variant}
    graph = None
    if kind == "bipartite-cover":
        f = gen_bipartite_cover(_instance_size(inst_sec, kind))
        n = f.n
    elif kind in ("coverage", "influence"):
        graph = load_graph(_input_file(inst_sec, "graph", base_dir,
                                       f"for kind = {kind}"))
        n = graph.n
        if kind == "coverage":
            f = SetCoverObjective.from_graph(graph)
        else:
            routing = None
            if inst_sec.get("routing_graph"):
                routing = load_graph(base_dir / inst_sec.get("routing_graph"),
                                     routing=True)
            influence = InfluenceInstance(
                social_graph=graph,
                simulations=_config_int(inst_sec, "simulations", 500, 1),
                routing_graph=routing,
                per_node_cost=_config_float(inst_sec, "per_node_cost", 0.1))
            f = IcSpreadObjective(
                influence, substream(_config_int(inst_sec, "seed", 0), "ic"))
            meta["influence"] = influence
    else:
        raise ValueError(f"unknown instance kind {kind!r}")

    weights = None
    if variant == "random-linear":
        weights = load_costs_file(_input_file(cost_sec, "costs", base_dir,
                                              "for variant = random-linear"))
        if weights.size != n:
            raise ValueError(f"[cost] costs: {cost_sec.get('costs')} holds "
                             f"{weights.size} weights for {n} nodes")
    c = make_cost(variant, n=n, graph=graph, weights=weights,
                  influence=meta.get("influence"))
    return f, c, meta


def build_schedule(cfg, base_dir: Path, run_seed: int):
    """The schedule of run seed `run_seed`: read from `[schedule] path`, or
    drawn from the preset's parameters with every given key laid over them."""
    sched_sec = cfg["schedule"]
    tau = _config_int(sched_sec, "tau", None, 0)
    if sched_sec.get("path"):
        sched = load_schedule(base_dir / sched_sec.get("path"))
        return sched if tau is None else dataclasses.replace(sched, tau=tau)
    seed = _config_int(sched_sec, "seed", 0) + run_seed
    given = {param: _config_float(sched_sec, key)
             for key, param in SCHEDULE_KEYS.items() if sched_sec.get(key)}
    if sched_sec.get("integer_deltas"):
        given["integer_deltas"] = sched_sec.getboolean("integer_deltas")
    return preset_schedule(sched_sec.get("preset") or None,
                           substream(seed, "schedule"),
                           count=_config_int(sched_sec, "count", 200, 1),
                           tau=1000 if tau is None else tau, seed=seed, **given)


def _run_seeds(run_sec):
    """`[run] seeds`: a count k >= 1 (seeds 0 to k - 1, one by default) or
    a comma-separated list of distinct integers."""
    raw = run_sec.get("seeds", "")
    if "," not in raw:
        return list(range(_config_int(run_sec, "seeds", 1, 1)))
    try:
        seeds = [int(s) for s in raw.split(",")]
    except ValueError:
        raise ValueError(f"[run] seeds must be a count or a list of "
                         f"integers, got {raw!r}") from None
    return _distinct(seeds, "[run] seeds")


def cmd_run(args) -> int:
    jobs = _jobs(args.jobs)
    config_path = Path(args.config)
    cfg = _read_config(config_path)
    base_dir = config_path.parent
    run_sec = cfg["run"]
    algorithms = [a.strip() for a in run_sec.get("algorithms", "gga").split(",")]
    for a in algorithms:
        if a not in ALL_ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
    _distinct(algorithms, "[run] algorithms")
    seeds = _run_seeds(run_sec)
    warmup = _config_int(run_sec, "warmup", None, 0)
    f, c, meta = build_instance(cfg, base_dir)
    params = {}
    if warmup is not None:
        params["warmup_evals"] = warmup
    if cfg["schedule"].get("r"):
        params["delta_cap"] = _config_float(cfg["schedule"], "r")
    per_seed = {}  # seed -> (schedule, params as a serial loop had them)
    for seed in seeds:
        schedule = build_schedule(cfg, base_dir, seed)
        if schedule.r:
            params.setdefault("delta_cap", schedule.r)
        per_seed[seed] = (schedule, dict(params))

    for section, key in INPUT_KEYS:
        name = cfg.get(section, key, fallback="")
        if Path(name).is_absolute() or ".." in Path(name).parts:
            raise ValueError(f"[{section}] {key} must name a file in the "
                             f"config's directory or below it, got {name!r}")

    out_dir = Path(run_sec.get("output", "results"))
    if not out_dir.is_absolute():
        out_dir = base_dir / out_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    shutil.copy(config_path, out_dir / "config.ini")
    # copy referenced inputs so the output directory is a self-contained bundle
    for section, key in INPUT_KEYS:
        if cfg.has_section(section) and cfg[section].get(key):
            src = base_dir / cfg[section].get(key)
            dst = out_dir / cfg[section].get(key)
            if src.exists() and src.resolve() != dst.resolve():
                dst.parent.mkdir(parents=True, exist_ok=True)
                shutil.copy(src, dst)

    def run_task(task):
        """(records or None, error message or None, wall seconds)"""
        alg, seed = task
        schedule, run_params = per_seed[seed]
        start = time.perf_counter()
        try:
            records, error = run_dynamic(alg, f, c, schedule, seed,
                                         params=run_params), None
        except Exception as exc:  # noqa: BLE001 - flag truncated run, keep going
            records, error = None, str(exc)
        return records, error, round(time.perf_counter() - start, 6)

    cfg_hash = _config_hash(config_path.read_text())
    tasks = [(alg, seed) for seed in seeds for alg in algorithms]
    planned = sum(planned_evals(alg, *per_seed[seed]) for alg, seed in tasks)
    jobs = worker_count(jobs, len(tasks), planned)
    files = []
    failed = []
    wall_s = {}
    for (alg, seed), (records, error, wall) in zip(
            tasks, fork_map(run_task, tasks, jobs)):
        run_id = f"{alg}_s{seed}"
        wall_s[run_id] = wall
        if error is not None:
            failed.append((run_id, error))
            continue
        path = out_dir / f"{run_id}.csv"
        write_run_csv(path, run_id, seed, records)
        files.append(path.name)

    manifest = {
        "version": __version__,
        "config_hash": cfg_hash,
        "algorithms": algorithms,
        "seeds": seeds,
        "cost_variant": meta.get("cost_variant", ""),
        "files": files,
        "failed": failed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "jobs": jobs,
        "wall_s": wall_s,
    }
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2))
    if failed:
        for run_id, msg in failed:
            print(f"FAILED {run_id}: {msg}", file=sys.stderr)
        return 1
    print(f"wrote {len(files)} run files to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# analyze


def _parse_intervals(spec, total):
    """Parse `lo-hi,...` (1-indexed, inclusive; `k` alone means `k-k`) and
    check every interval lies within the `total` changes."""
    if not spec:
        return [(1, total)]
    out = []
    for part in spec.split(","):
        lo, sep, hi = part.strip().partition("-")
        try:
            lo = int(lo)
            hi = int(hi) if sep else lo
        except ValueError:
            raise ValueError(
                f"--intervals: {part!r} is not of the form lo-hi or k") from None
        if not 1 <= lo <= hi <= total:
            raise ValueError(f"--intervals: {part!r} is not an interval "
                             f"lo <= hi within 1-{total}")
        out.append((lo, hi))
    return out


def _baseline_evals(spec):
    """E of a `pomc:E` baseline (100,000 for a bare `pomc`), None for
    `brute-force`; any other spec, or E that is not an integer >= 1, is
    refused."""
    if spec == "brute-force":
        return None
    name, _, raw = spec.partition(":")
    if name != "pomc":
        raise ValueError(f"unknown baseline spec {spec!r}")
    if not raw:
        return 100_000
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"--baseline {spec!r}: E of pomc:E must be an "
                         f"integer >= 1")
    return int(raw)


def _read_manifest(path) -> dict:
    """A bundle's manifest, refused by key unless it holds what `analyze`
    reads: a `files` list of run file names (`RUN_FILE`), a non-empty
    `seeds` list of integers and a `config_hash` string."""
    manifest = json.loads(Path(path).read_text())
    if not isinstance(manifest, dict):
        raise ValueError(f"{path}: the manifest is not a JSON object")
    for key, kind, what in (("files", list, "a list"),
                            ("seeds", list, "a non-empty list of integers"),
                            ("config_hash", str, "a string")):
        if key not in manifest:
            raise ValueError(f"{path}: the manifest has no {key!r} key")
        value = manifest[key]
        if not isinstance(value, kind) or key == "seeds" and not (
                value and all(type(s) is int for s in value)):
            raise ValueError(f"{path}: the manifest's {key!r} must be {what}, "
                             f"got {value!r}")
    for name in manifest["files"]:
        match = isinstance(name, str) and RUN_FILE.fullmatch(name)
        if not match or match["algorithm"] not in ALL_ALGORITHMS:
            raise ValueError(f"{path}: the manifest's 'files' entry {name!r} "
                             f"is not <algorithm>_s<seed>.csv")
    return manifest


def cmd_analyze(args) -> int:
    jobs = _jobs(args.jobs)
    baseline_evals = _baseline_evals(args.baseline)
    if not 0.0 < args.alpha < 1.0:
        raise ValueError(f"--alpha must be in (0, 1), got {args.alpha!r}")
    results_dir = Path(args.results)
    manifest = _read_manifest(results_dir / "manifest.json")
    cfg = _read_config(results_dir / "config.ini")
    f, c, meta = build_instance(cfg, results_dir)

    by_alg = {}
    for name in manifest["files"]:
        records = read_run_csv(results_dir / name)
        if not records:
            raise ValueError(f"{results_dir / name}: the run file holds no "
                             f"records")
        alg = records[0].algorithm
        seed = int(RUN_FILE.fullmatch(name)["seed"])
        by_alg.setdefault(alg, {})[seed] = records
    if not by_alg:
        raise ValueError("no run files found")
    runs = [r for per_seed in by_alg.values() for r in per_seed.values()]
    total = max(len(r) for r in runs)
    intervals = _parse_intervals(args.intervals, total)

    budgets = {rec.budget for records in runs for rec in records}
    if baseline_evals is None:
        baseline = brute_force_baseline(f, c, budgets)
    else:
        baseline = long_run_baseline(f, c, evals=baseline_evals,
                                     budgets=budgets, jobs=jobs)
    baseline, negatives = observed_baseline(baseline, runs)
    algorithms = sorted(by_alg)

    schedule = build_schedule(cfg, results_dir, manifest["seeds"][0])
    r_val, tau_val = f"{schedule.r:.12g}", schedule.tau
    constraint = manifest.get("cost_variant", "")

    series = {alg: [offline_errors(by_alg[alg][s], baseline)
                    for s in sorted(by_alg[alg])] for alg in algorithms}
    rows = []
    matrices = {}
    for (lo, hi) in intervals:
        groups = [np.asarray([partial_offline_error(e, lo, hi)
                              for e in series[alg]]) for alg in algorithms]
        _h, p = kruskal_wallis(groups) if len(groups) > 1 else (0.0, 1.0)
        marks = (bonferroni_posthoc(groups, alpha=args.alpha)
                 if p < args.alpha else np.zeros((len(groups),) * 2, dtype=int))
        matrices[f"{lo}-{hi}"] = marks.tolist()
        for i, alg in enumerate(algorithms):
            rows.append([constraint, r_val, tau_val, f"{lo}-{hi}", alg,
                         f"{groups[i].mean():.6g}", f"{groups[i].std(ddof=1):.6g}"
                         if groups[i].size > 1 else "0",
                         format_marks(marks, i)])

    out = Path(args.out) if args.out else results_dir / "report.csv"
    import csv

    with open(out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["constraint", "r", "tau", "interval", "algorithm",
                         "mean", "std", "marks"])
        writer.writerows(rows)
    sig_path = out.with_suffix(".significance.json")
    sig_path.write_text(json.dumps({
        "version": __version__,
        "config_hash": manifest["config_hash"],
        "baseline": args.baseline,
        "negative_errors": negatives,
        "algorithms": algorithms,
        "matrices": matrices,
    }, indent=2))
    print(f"wrote {out} and {sig_path}")
    return 0


# ---------------------------------------------------------------------------
# verify-theory


def cmd_verify_theory(args) -> int:
    ok = True

    def report(name, passed, detail):
        nonlocal ok
        ok = ok and passed
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")

    # greedy adaptation failure under budget increases (knapsack)
    for n in (4, 8, 16, 64):
        t = knapsack_increase_trace(n)
        passed = t.value == 3.5 and t.optimum == 3 + n / 4
        report(f"knapsack-increase n={n}", passed,
               f"adaptive greedy {t.value} vs optimum {t.optimum} "
               f"(ratio {t.value / t.optimum:.4f})")

    # greedy adaptation failure under budget decreases (bipartite cover)
    for n in (16, 64, 100):
        t = bipartite_decrease_trace(n)
        passed = t.value == 2 * t.budget
        report(f"bipartite-decrease n={n}", passed,
               f"adaptive greedy {t.value} vs optimum {t.optimum}")

    # phi-approximation of POMC on a small coverage instance
    graph = gen_random_digraph(10, 0.2, substream(args.seed, "verify", "phi"))
    rep = pomc_phi_trial(SetCoverObjective.from_graph(graph),
                         make_cost("cardinality", n=10), 3.0,
                         substream(args.seed, "verify", "pomc"))
    report("pomc-phi-approximation", rep.all_pass,
           f"phi={rep.phi:.4f}, budgets checked: "
           + ", ".join(f"b={ch.budget:g}:{'ok' if ch.passed else 'FAIL'}"
                       for ch in rep.checks))
    return 0 if ok else 1


# ---------------------------------------------------------------------------


JOBS_HELP = ("processes for the runs or baseline budgets (default: every "
             "usable CPU); outputs are the same for every value")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dynsel",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"dynsel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate instances and schedules")
    gen.add_argument("kind", choices=["ba", "er", "schedule", "random-costs",
                                      "config"])
    gen.add_argument("--experiment", choices=sorted(EXPERIMENT_PRESETS))
    gen.add_argument("--run-seeds", type=int, default=30,
                     help="number of run seeds for generated configs")
    gen.add_argument("--n", type=int, default=100)
    gen.add_argument("--p", type=float, default=0.02)
    gen.add_argument("--m", type=int, default=2)
    gen.add_argument("--edge-prob", type=float, default=0.1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    gen.add_argument("--preset", choices=sorted(SCHEDULE_PRESETS))
    gen.add_argument("--count", type=int, default=200)
    gen.add_argument("--tau", type=int, default=1000)
    gen.add_argument("--binit", type=float)
    gen.add_argument("--bmin", type=float)
    gen.add_argument("--bmax", type=float)
    gen.add_argument("--r", type=float)
    gen.add_argument("--integer-deltas", action="store_true")
    gen.set_defaults(func=cmd_generate)

    run = sub.add_parser("run", help="run a configured experiment")
    run.add_argument("--config", required=True)
    run.add_argument("--jobs", help=JOBS_HELP)
    run.set_defaults(func=cmd_run)

    ana = sub.add_parser("analyze", help="offline errors and statistics")
    ana.add_argument("--results", required=True)
    ana.add_argument("--baseline", default="brute-force",
                     help="`brute-force` or `pomc:<evals>`")
    ana.add_argument("--intervals", default="",
                     help="e.g. `1-50,51-100,101-150,151-200`; `k` means `k-k`")
    ana.add_argument("--alpha", type=float, default=0.05,
                     help="significance level, in (0, 1)")
    ana.add_argument("--out")
    ana.add_argument("--jobs", help=JOBS_HELP)
    ana.set_defaults(func=cmd_analyze)

    ver = sub.add_parser("verify-theory",
                         help="worst-case traces and the phi-approximation check")
    ver.add_argument("--seed", type=int, default=0)
    ver.set_defaults(func=cmd_verify_theory)
    return parser


def main(argv=None) -> int:
    """Run one command; bad input ends in one error line and exit code 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"dynsel: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
