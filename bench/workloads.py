"""The benchmark's workloads: how each one's inputs are generated.

Every input comes from `dynsel generate` (the graphs, the random cost file
and the base experiment config), plus a few config keys the benchmark sets
on top.  The program under test sees only the files this module writes.

The workload seed draws the instance: graphs, costs, and the influence
simulations' random stream.  The budget trajectories are part of the
workload's definition instead: the schedule seed is fixed, so every
workload seed walks the same budgets.  The analysis baseline solves one
problem per distinct budget, so with seeded random walks the number of
distinct budgets, and with it `analyze_s`, would swing by a quarter from one
workload seed to the next.

Two sizes exist: `full` is what the benchmark measures, `tiny` only keeps
the smoke test quick.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

ALGORITHMS = ("gga", "adgga", "pomc", "pomc-wp", "eamc", "nsga2")
SCHEDULE_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str  # `dynsel generate config --experiment` preset
    sizes: dict  # size -> parameters, see prepare()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="maxcov-outdegree",
        experiment="maxcov-outdegree",
        sizes={
            "full": dict(n=100, count=7, tau=1000, run_seeds=2,
                         schedule=dict(binit=20, bmin=10, bmax=40, r=5),
                         baseline="pomc:3000", intervals="1-4,5-8"),
            "tiny": dict(n=30, count=4, tau=50, run_seeds=2,
                         schedule=dict(binit=20, bmin=10, bmax=25, r=5),
                         run=dict(warmup=50),
                         baseline="pomc:100", intervals="1-2,3-5"),
        }),
    Workload(
        name="influence-routing",
        experiment="influence-routing",
        sizes={
            # routing_p keeps an isolated routing node, which the guard
            # refuses, to about 1e-5 per seed
            "full": dict(n=100, count=8, tau=100, run_seeds=2, routing_p=0.15,
                         instance=dict(simulations=40, per_node_cost=1.0),
                         run=dict(warmup=100, algorithms="pomc,pomc-wp"),
                         baseline="pomc:300", intervals="1-4,5-9"),
            "tiny": dict(n=30, count=3, tau=20, run_seeds=1, routing_p=0.4,
                         instance=dict(simulations=5, per_node_cost=1.0),
                         schedule=dict(binit=5, bmin=4, bmax=6),
                         run=dict(warmup=20, algorithms="pomc,pomc-wp"),
                         baseline="pomc:20", intervals="1-2,3-4"),
        }),
    Workload(
        name="maxcov-exact",
        experiment="maxcov-random",
        sizes={
            "full": dict(n=13, p=0.2, count=10, tau=20, run_seeds=30,
                         run=dict(warmup=100),
                         baseline="brute-force", intervals="1-4,5-8,9-11"),
            "tiny": dict(n=8, p=0.3, count=3, tau=20, run_seeds=3,
                         run=dict(warmup=20),
                         baseline="brute-force", intervals="1-2,3-4"),
        }),
)}


def prepare(workload: Workload, size: str, seed: int, workdir, generate):
    """Generate the workload's input files in `workdir`.

    `generate(argv)` runs one `dynsel generate` command.  Returns the path
    of the experiment config.
    """
    p = workload.sizes[size]
    s = str(seed)
    n = str(p["n"])
    cfg_path = workdir / "config.ini"
    generate(["config", "--experiment", workload.experiment, "--n", n,
              "--p", str(p.get("p", 0.1)), "--count", str(p["count"]),
              "--tau", str(p["tau"]), "--run-seeds", str(p["run_seeds"]),
              "--seed", s, "--out", str(cfg_path)])
    overrides = {section: dict(p.get(section, {}))
                 for section in ("instance", "cost", "schedule", "run")}
    overrides["schedule"]["seed"] = SCHEDULE_SEED
    if workload.name == "maxcov-outdegree":
        generate(["ba", "--n", n, "--m", "3", "--seed", s,
                  "--out", str(workdir / "graph.edges")])
        overrides["instance"]["graph"] = "graph.edges"
    elif workload.name == "influence-routing":
        generate(["ba", "--n", n, "--m", "2", "--edge-prob", "0.05",
                  "--seed", s, "--out", str(workdir / "social.edges")])
        generate(["er", "--n", n, "--p", str(p["routing_p"]), "--seed", s,
                  "--out", str(workdir / "routing.edges")])
        overrides["instance"].update(kind="influence", graph="social.edges",
                                     routing_graph="routing.edges")
    elif workload.name == "maxcov-exact":
        generate(["random-costs", "--n", n, "--seed", s,
                  "--out", str(workdir / "costs.txt")])
        overrides["cost"]["costs"] = "costs.txt"
    else:
        raise ValueError(f"unknown workload {workload.name!r}")

    cfg = configparser.ConfigParser()
    cfg.read(cfg_path)
    for section, keys in overrides.items():
        cfg[section].update({k: str(v) for k, v in keys.items()})
    if cfg["instance"].get("graph"):
        for key in ("generator", "n", "p"):
            cfg.remove_option("instance", key)
    with open(cfg_path, "w") as fh:
        cfg.write(fh)
    return cfg_path
