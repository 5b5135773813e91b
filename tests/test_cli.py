import configparser
import csv
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

from dynsel import cli
from dynsel.cli import build_instance, main
from dynsel.core import substream
from dynsel.dynamics import load_schedule, read_run_csv
from dynsel.problems import bfs_reachable, load_edge_list


def run_cli(*argv):
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# generate


class TestGenerate:
    def test_schedule_preset_influence(self, tmp_path):
        out = tmp_path / "sched.txt"
        assert run_cli("generate", "schedule", "--preset", "influence",
                       "--seed", 7, "--out", out) == 0
        sched = load_schedule(out)
        assert len(sched.deltas) == 200
        assert (sched.b_init, sched.b_min, sched.b_max) == (10, 5, 30)
        assert all(d in (-1.0, 1.0) for d in sched.deltas)
        assert sched.seed == 7

    def test_schedule_explicit_params(self, tmp_path):
        out = tmp_path / "s.txt"
        run_cli("generate", "schedule", "--binit", 5, "--bmin", 0, "--bmax",
                10, "--r", 2, "--count", 30, "--integer-deltas", "--seed", 1,
                "--out", out)
        sched = load_schedule(out)
        assert len(sched.deltas) == 30
        assert all(d == int(d) and d != 0 for d in sched.deltas)

    def test_bipartite_cover_file(self, tmp_path):
        out = tmp_path / "bip.edges"
        run_cli("generate", "bipartite-cover", "--n", 16, "--out", out)
        g = load_edge_list(out)
        assert g.n == 40  # 16 U-nodes + 24 V-nodes
        assert g.edge_count() == 36

    def test_er_edgeless(self, tmp_path):
        out = tmp_path / "er.edges"
        run_cli("generate", "er", "--n", 10, "--p", 0, "--out", out)
        assert load_edge_list(out).edge_count() == 0

    def test_ba_graph(self, tmp_path):
        out = tmp_path / "ba.edges"
        run_cli("generate", "ba", "--n", 25, "--m", 2, "--seed", 3,
                "--out", out)
        g = load_edge_list(out)
        assert g.n == 25 and g.edge_count() > 0

    def test_adversarial_knapsack_file(self, tmp_path):
        out = tmp_path / "ak.txt"
        run_cli("generate", "adversarial-knapsack", "--n", 4, "--out", out)
        rows = [line.split() for line in out.read_text().splitlines()
                if not line.startswith("#")]
        assert [(float(a), float(b)) for a, b in rows] == [
            (1.0, 0.25), (1.0, 0.25), (2.0, 1.0), (2.0, 1.0), (1.0, 3.0)]

    def test_random_costs_file(self, tmp_path):
        out = tmp_path / "costs.txt"
        run_cli("generate", "random-costs", "--n", 12, "--seed", 5,
                "--out", out)
        values = [float(line) for line in out.read_text().splitlines()
                  if not line.startswith("#")]
        assert len(values) == 12
        assert all(0 < v <= 1 for v in values)

    def test_experiment_config(self, tmp_path):
        out = tmp_path / "config.ini"
        run_cli("generate", "config", "--experiment", "maxcov-outdegree",
                "--n", 20, "--count", 10, "--tau", 200, "--run-seeds", 3,
                "--seed", 2, "--out", out)
        text = out.read_text()
        assert "variant = outdegree" in text
        assert "preset = outdegree" in text
        assert "gga,adgga,pomc-wp,eamc,nsga2" in text

    @pytest.mark.parametrize("experiment", sorted(cli.EXPERIMENT_PRESETS))
    def test_every_preset_generates_runs_and_analyzes(self, tmp_path,
                                                      experiment):
        config = tmp_path / "exp.ini"
        assert run_cli("generate", "config", "--experiment", experiment,
                       "--n", 10, "--count", 2, "--tau", 10,
                       "--run-seeds", 2, "--out", config) == 0
        cfg = configparser.ConfigParser()
        cfg.read(config)
        preset = cli.EXPERIMENT_PRESETS[experiment]
        assert cfg["instance"]["kind"] == preset["kind"]
        assert cfg["cost"]["variant"] == preset["cost"]
        if preset["kind"] == "influence":
            assert cfg["instance"]["graph"] == "exp.social.edges"
            if preset["cost"] == "routing":
                assert cfg["instance"]["routing_graph"] == "exp.routing.edges"
                routing = load_edge_list(tmp_path / "exp.routing.edges")
                assert bfs_reachable(routing, [0]) == routing.n
        assert run_cli("run", "--config", config) == 0
        assert run_cli("analyze", "--results", tmp_path / "results") == 0
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert manifest["failed"] == [] and len(manifest["files"]) == \
            2 * len(preset["algorithms"].split(","))
        _f, _c, meta = build_instance(cfg, tmp_path)
        assert ("influence" in meta) == (preset["kind"] == "influence")


# ---------------------------------------------------------------------------
# run / analyze


G3_EDGE_LIST = "3 2 directed\n0 1 1.0\n0 2 1.0\n"


def write_config(tmp_path, *, algorithms="gga,eamc", seeds="2", tau=0,
                 count=1, graph=True, cost="cardinality"):
    if graph:
        (tmp_path / "g3.edges").write_text(G3_EDGE_LIST)
    (tmp_path / "config.ini").write_text(f"""
[instance]
kind = coverage
graph = g3.edges

[cost]
variant = {cost}

[schedule]
binit = 1
bmin = 1
bmax = 3
r = 1
count = {count}
tau = {tau}
seed = 0

[run]
algorithms = {algorithms}
seeds = {seeds}
output = results
""")
    return tmp_path / "config.ini"


class TestRun:
    def test_minimal_run_completes(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("run", "--config", config) == 0
        results = tmp_path / "results"
        manifest = json.loads((results / "manifest.json").read_text())
        assert manifest["failed"] == []
        assert "config_hash" in manifest and manifest["version"]
        assert (results / "config.ini").exists()

    def test_manifest_records_host_and_wall_time(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga,eamc", seeds="2")
        run_cli("run", "--config", config)
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert manifest["files"] == ["gga_s0.csv", "eamc_s0.csv",
                                     "gga_s1.csv", "eamc_s1.csv"]
        assert manifest["python"] == platform.python_version()
        assert manifest["numpy"] == np.__version__
        assert manifest["cpu_count"] == os.cpu_count()
        assert sorted(manifest["wall_s"]) == ["eamc_s0", "eamc_s1",
                                              "gga_s0", "gga_s1"]
        assert all(t >= 0 for t in manifest["wall_s"].values())

    def test_grid_emits_one_csv_per_run(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga,adgga,pomc", seeds="3")
        run_cli("run", "--config", config)
        csvs = sorted(p.name for p in (tmp_path / "results").glob("*_s*.csv"))
        assert len(csvs) == 9  # 3 algorithms x 3 seeds

    def test_rerun_identical_best_f(self, tmp_path):
        config = write_config(tmp_path, algorithms="pomc,nsga2", seeds="2",
                              tau=100, count=3)
        run_cli("run", "--config", config)
        first = {p.name: [r.best_f for r in read_run_csv(p)]
                 for p in (tmp_path / "results").glob("*_s*.csv")}
        run_cli("run", "--config", config)
        second = {p.name: [r.best_f for r in read_run_csv(p)]
                  for p in (tmp_path / "results").glob("*_s*.csv")}
        assert first == second

    def test_unknown_algorithm_rejected(self, tmp_path):
        config = write_config(tmp_path, algorithms="tabu")
        with pytest.raises(ValueError):
            run_cli("run", "--config", config)

    @pytest.mark.parametrize("variant", ["linear", "routing"])
    def test_unusable_cost_variant_refused(self, tmp_path, variant):
        # `linear` has no weights to read (`random-linear` with a `costs`
        # file is the linear cost); `routing` needs an influence instance
        cfg = configparser.ConfigParser()
        cfg.read(write_config(tmp_path, cost=variant))
        with pytest.raises(ValueError, match=r"\[cost\] variant"):
            build_instance(cfg, tmp_path)


class TestAnalyze:
    def test_single_algorithm_no_marks(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga", seeds="3",
                              tau=0, count=4)
        run_cli("run", "--config", config)
        assert run_cli("analyze", "--results", tmp_path / "results") == 0
        with open(tmp_path / "results" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(row["marks"] == "" for row in rows)
        assert all(row["algorithm"] == "gga" for row in rows)

    def test_report_layout_and_intervals(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga,eamc", seeds="3",
                              tau=50, count=8)
        run_cli("run", "--config", config)
        run_cli("analyze", "--results", tmp_path / "results",
                "--intervals", "1-3,4-6,7-9")
        with open(tmp_path / "results" / "report.csv") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["constraint", "r", "tau", "interval", "algorithm",
                          "mean", "std", "marks"]
        assert sorted({row[3] for row in rows}) == ["1-3", "4-6", "7-9"]
        assert len(rows) == 3 * 2  # intervals x algorithms

    def test_single_change_interval(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga,eamc", seeds="2",
                              tau=5, count=8)
        run_cli("run", "--config", config)
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--intervals", "3,1-9") == 0
        with open(tmp_path / "results" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["interval"] for row in rows] == ["3-3"] * 2 + ["1-9"] * 2

    @pytest.mark.parametrize("spec", ["4-2", "5-99", "0-3", "x", "3-", ""])
    def test_bad_interval_fails_before_any_baseline(self, tmp_path,
                                                    monkeypatch, spec):
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=8)
        run_cli("run", "--config", config)
        budgets = []
        monkeypatch.setattr(cli, "brute_force_baseline",
                            lambda f, c: budgets.append)
        with pytest.raises(ValueError, match="--intervals") as err:
            run_cli("analyze", "--results", tmp_path / "results",
                    "--intervals", f"1-3,{spec}")
        assert repr(spec) in str(err.value)
        assert budgets == []
        assert not (tmp_path / "results" / "report.csv").exists()

    def test_brute_force_baseline_non_negative_means(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga,eamc", seeds="2",
                              tau=20, count=5)
        run_cli("run", "--config", config)
        run_cli("analyze", "--results", tmp_path / "results")
        with open(tmp_path / "results" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(row["mean"]) >= 0 for row in rows)

    def test_significance_sidecar(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga,eamc", seeds="2",
                              tau=20, count=3)
        run_cli("run", "--config", config)
        run_cli("analyze", "--results", tmp_path / "results")
        sig = json.loads(
            (tmp_path / "results" / "report.significance.json").read_text())
        assert sig["baseline"] == "brute-force"
        assert sorted(sig["algorithms"]) == ["eamc", "gga"]
        for matrix in sig["matrices"].values():
            assert len(matrix) == 2 and len(matrix[0]) == 2

    def test_baseline_raised_to_beating_answers(self, tmp_path):
        # pomc:0 keeps only the empty set, so every gga answer (f = 3 at
        # every budget of G3) beats it
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=3)
        run_cli("run", "--config", config)
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--baseline", "pomc:0") == 0
        with open(tmp_path / "results" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["mean"]) for row in rows] == [0.0]
        sig = json.loads(
            (tmp_path / "results" / "report.significance.json").read_text())
        assert sig["negative_errors"] == 2 * 4  # 2 seeds x 4 records

    def test_pomc_baseline_spec(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga", seeds="1",
                              tau=0, count=2)
        run_cli("run", "--config", config)
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--baseline", "pomc:2000") == 0


class TestInfluence:
    CONFIG = """
[instance]
kind = influence
generator = digraph
n = 10
p = 0.3
edge_prob = 0.3
simulations = 30
seed = 4

[cost]
variant = cardinality

[schedule]
binit = 3
bmin = 2
bmax = 5
r = 1
count = 4
tau = 40
seed = 0

[run]
algorithms = gga,pomc,eamc
seeds = 2
output = results
"""

    def write(self, tmp_path):
        (tmp_path / "config.ini").write_text(self.CONFIG)
        return tmp_path / "config.ini"

    def test_objective_is_a_fixed_function(self, tmp_path):
        config = self.write(tmp_path)
        cfg = configparser.ConfigParser()
        cfg.read(config)
        f1, _c, _meta = build_instance(cfg, tmp_path)
        f2, _c, _meta = build_instance(cfg, tmp_path)
        draws = substream(0, "fixed").random((50, 10)) < 0.4
        for bits in draws.astype(np.uint8):
            value = f1(bits)
            assert value == f2(bits) == f1(bits)

    def test_run_and_brute_force_analyze(self, tmp_path):
        config = self.write(tmp_path)
        assert run_cli("run", "--config", config) == 0
        results = tmp_path / "results"
        assert run_cli("analyze", "--results", results) == 0
        with open(results / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert sorted(row["algorithm"] for row in rows) == ["eamc", "gga", "pomc"]
        assert all(float(row["mean"]) >= 0 for row in rows)
        sig = json.loads((results / "report.significance.json").read_text())
        assert sig["negative_errors"] == 0


# ---------------------------------------------------------------------------
# verify-theory


def test_verify_theory_passes(capsys):
    assert run_cli("verify-theory", "--seed", 0) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "knapsack-increase n=64" in out
    assert "bipartite-decrease n=100" in out
    assert "pomc-phi-approximation" in out
