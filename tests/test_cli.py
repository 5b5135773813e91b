import configparser
import csv
import hashlib
import json
import os
import platform
import shutil
from pathlib import Path

import numpy as np
import pytest

from dynsel import cli, problems
from dynsel.cli import build_instance, main
from dynsel.core import FORK_MIN_EVALS, substream
from dynsel.dynamics import load_schedule, planned_evals, read_run_csv
from dynsel.problems import (RoutingCost, bfs_reachable, gen_random_digraph,
                             load_edge_list, random_linear_cost,
                             save_edge_list)


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

    def test_schedule_preset_takes_given_flags(self, tmp_path):
        out = tmp_path / "sched.txt"
        run_cli("generate", "schedule", "--preset", "influence", "--binit", 7,
                "--bmax", 12, "--r", 3, "--integer-deltas", "--count", 60,
                "--out", out)
        sched = load_schedule(out)
        assert (sched.b_init, sched.b_min, sched.b_max, sched.r) == (7, 5, 12, 3)
        assert all(d == int(d) and 0 < abs(d) <= 3 for d in sched.deltas)
        assert any(abs(d) < 3 for d in sched.deltas)  # not two-point +-3

    def test_schedule_explicit_params(self, tmp_path):
        out = tmp_path / "s.txt"
        run_cli("generate", "schedule", "--binit", 5, "--bmin", 0, "--bmax",
                10, "--r", 2, "--count", 30, "--integer-deltas", "--seed", 1,
                "--out", out)
        sched = load_schedule(out)
        assert len(sched.deltas) == 30
        assert all(d == int(d) and d != 0 for d in sched.deltas)

    def test_er_edgeless(self, tmp_path):
        out = tmp_path / "er.edges"
        run_cli("generate", "er", "--n", 10, "--p", 0, "--out", out)
        assert len(load_edge_list(out).edge_list()) == 0

    def test_ba_graph(self, tmp_path):
        out = tmp_path / "ba.edges"
        run_cli("generate", "ba", "--n", 25, "--m", 2, "--seed", 3,
                "--out", out)
        g = load_edge_list(out)
        assert g.n == 25 and len(g.edge_list()) > 0

    def test_maxcov_config_writes_its_graph_and_costs(self, tmp_path):
        out = tmp_path / "exp.ini"
        run_cli("generate", "config", "--experiment", "maxcov-random",
                "--n", 15, "--p", 0.2, "--seed", 4, "--out", out)
        cfg = configparser.ConfigParser()
        cfg.read(out)
        assert dict(cfg["instance"]) == {"kind": "coverage",
                                         "graph": "exp.graph.edges"}
        assert cfg["cost"]["costs"] == "exp.costs"
        graph = load_edge_list(tmp_path / "exp.graph.edges")
        want = gen_random_digraph(15, 0.2, substream(4, "instance", "coverage"),
                                  edge_prob=0.1)
        assert graph.edge_list() == want.edge_list()
        weights = cli.load_costs_file(tmp_path / "exp.costs")
        assert weights.tolist() == \
            random_linear_cost(15, substream(4, "costs")).weights.tolist()

    def test_config_writes_given_schedule_flags(self, tmp_path):
        out = tmp_path / "exp.ini"
        run_cli("generate", "config", "--experiment", "maxcov-outdegree",
                "--n", 20, "--count", 40, "--binit", 20, "--bmin", 10,
                "--bmax", 40, "--r", 3, "--integer-deltas", "--out", out)
        cfg = configparser.ConfigParser()
        cfg.read(out)
        assert dict(cfg["schedule"]) == {
            "preset": "outdegree", "count": "40", "tau": "1000", "seed": "0",
            "binit": "20.0", "bmin": "10.0", "bmax": "40.0", "r": "3.0",
            "integer_deltas": "True"}
        sched = cli.build_schedule(cfg, tmp_path, 0)
        assert (sched.b_init, sched.b_min, sched.b_max, sched.r) == (20, 10, 40, 3)
        assert all(d == int(d) and 0 < abs(d) <= 3 for d in sched.deltas)
        assert all(10 <= b <= 40 for b in sched.budgets())

    def test_config_without_schedule_flags_keeps_the_preset(self, tmp_path):
        out = tmp_path / "exp.ini"
        run_cli("generate", "config", "--experiment", "maxcov-outdegree",
                "--n", 20, "--out", out)
        cfg = configparser.ConfigParser()
        cfg.read(out)
        assert sorted(cfg["schedule"]) == ["count", "preset", "seed", "tau"]
        sched = cli.build_schedule(cfg, tmp_path, 0)
        assert (sched.b_init, sched.b_min, sched.b_max, sched.r) == (500, 250, 750, 20)

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
        bundle = tmp_path / "results"
        named = [cfg[section][key] for section, key in cli.INPUT_KEYS
                 if cfg.has_option(section, key)]
        assert named  # every preset reads at least its graph from a file
        for name in named:
            assert (bundle / name).read_bytes() == (tmp_path / name).read_bytes()
        moved = bundle.rename(tmp_path / "moved")
        assert run_cli("analyze", "--results", moved) == 0
        manifest = json.loads((moved / "manifest.json").read_text())
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

    def test_unknown_algorithm_rejected(self, tmp_path, capsys):
        config = write_config(tmp_path, algorithms="tabu")
        assert run_cli("run", "--config", config) == 2
        assert capsys.readouterr().err == \
            "dynsel: error: unknown algorithm 'tabu'\n"

    @pytest.mark.parametrize("variant", ["linear", "routing"])
    def test_unusable_cost_variant_refused(self, tmp_path, variant):
        # `linear` has no weights to read (`random-linear` with a `costs`
        # file is the linear cost); `routing` needs an influence instance
        cfg = configparser.ConfigParser()
        cfg.read(write_config(tmp_path, cost=variant))
        with pytest.raises(ValueError, match=r"\[cost\] variant"):
            build_instance(cfg, tmp_path)


def read_config(path, **sections):
    """The config at `path` with each of `sections`' keys set, or removed
    where the value is None."""
    cfg = configparser.ConfigParser()
    cfg.read(path)
    for section, keys in sections.items():
        if not cfg.has_section(section):
            cfg.add_section(section)
        for key, value in keys.items():
            if value is None:
                cfg.remove_option(section, key)
            else:
                cfg[section][key] = value
    return cfg


class TestInputs:
    @pytest.mark.parametrize("instance", [
        {"graph": None},
        # a bundle from before graphs were files
        {"graph": None, "generator": "digraph", "n": "10", "p": "0.2"}])
    def test_missing_graph_refused(self, tmp_path, instance):
        cfg = read_config(write_config(tmp_path), instance=instance)
        with pytest.raises(ValueError, match=r"\[instance\] graph is required"):
            build_instance(cfg, tmp_path)

    def test_missing_costs_refused(self, tmp_path):
        cfg = read_config(write_config(tmp_path, cost="random-linear"))
        with pytest.raises(ValueError, match=r"\[cost\] costs is required"):
            build_instance(cfg, tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.ini",
                                                              "g3.edges"]

    def test_costs_of_wrong_length_refused(self, tmp_path):
        (tmp_path / "c.txt").write_text("0.5\n0.25\n")
        cfg = read_config(write_config(tmp_path, cost="random-linear"),
                          cost={"costs": "c.txt"})
        with pytest.raises(ValueError, match=r"\[cost\] costs"):
            build_instance(cfg, tmp_path)

    def test_run_and_analyze_write_only_into_results(self, tmp_path):
        config = tmp_path / "exp.ini"
        run_cli("generate", "config", "--experiment", "maxcov-random",
                "--n", 8, "--p", 0.3, "--count", 2, "--tau", 10,
                "--run-seeds", 2, "--out", config)
        before = sorted(tmp_path.iterdir())
        assert run_cli("run", "--config", config) == 0
        assert run_cli("analyze", "--results", tmp_path / "results") == 0
        assert sorted(p for p in tmp_path.iterdir()
                      if p.name != "results") == before

    @pytest.mark.parametrize("kind, variant", [
        ("bipartite-cover", "outdegree"),
        ("adversarial-knapsack", "cardinality")])
    def test_theory_kind_with_unusable_cost_refused(self, tmp_path, kind,
                                                    variant):
        cfg = read_config(write_config(tmp_path), instance={
            "kind": kind, "n": "16", "graph": None}, cost={"variant": variant})
        with pytest.raises(ValueError, match=r"\[cost\] variant"):
            build_instance(cfg, tmp_path)

    def test_preset_schedule_takes_integer_deltas(self, tmp_path):
        cfg = read_config(write_config(tmp_path), schedule={
            "preset": "influence", "binit": None, "bmin": None, "bmax": None,
            "r": "3", "integer_deltas": "true", "count": "60"})
        sched = cli.build_schedule(cfg, tmp_path, 0)
        assert (sched.b_init, sched.b_min, sched.b_max, sched.r) == (10, 5, 30, 3)
        assert all(d == int(d) and 0 < abs(d) <= 3 for d in sched.deltas)
        assert any(abs(d) < 3 for d in sched.deltas)  # not two-point +-3


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
    def test_bad_interval_fails_before_any_baseline(self, tmp_path, capsys,
                                                    monkeypatch, spec):
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=8)
        run_cli("run", "--config", config)
        budgets = []
        monkeypatch.setattr(cli, "brute_force_baseline",
                            lambda f, c: budgets.append)
        capsys.readouterr()
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--intervals", f"1-3,{spec}") == 2
        err = capsys.readouterr().err
        assert err.startswith("dynsel: error: --intervals")
        assert repr(spec) in err
        assert budgets == []
        assert not (tmp_path / "results" / "report.csv").exists()

    def test_report_reads_r_and_tau_from_a_schedule_file(self, tmp_path):
        run_cli("generate", "schedule", "--preset", "influence", "--binit",
                2, "--bmin", 1, "--bmax", 3, "--r", 0.5, "--count", 4,
                "--tau", 7, "--out", tmp_path / "sched.txt")
        cfg = read_config(write_config(tmp_path, algorithms="gga,eamc"))
        cfg.remove_section("schedule")
        cfg["schedule"] = {"path": "sched.txt"}
        with open(tmp_path / "config.ini", "w") as fh:
            cfg.write(fh)
        assert run_cli("run", "--config", tmp_path / "config.ini") == 0
        assert run_cli("analyze", "--results", tmp_path / "results") == 0
        with open(tmp_path / "results" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["r"], row["tau"]) for row in rows] == [("0.5", "7")] * 2

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

    def test_baseline_raised_to_beating_answers(self, tmp_path, monkeypatch):
        # a baseline that keeps only the empty set is beaten by every gga
        # answer (f = 3 at every budget of G3)
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=3)
        run_cli("run", "--config", config)
        monkeypatch.setattr(cli, "long_run_baseline", lambda f, c, **kw: (
            lambda budget: float(f(np.zeros(f.n, dtype=np.uint8)))))
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--baseline", "pomc:1") == 0
        with open(tmp_path / "results" / "report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["mean"]) for row in rows] == [0.0]
        sig = json.loads(
            (tmp_path / "results" / "report.significance.json").read_text())
        assert sig["negative_errors"] == 2 * 4  # 2 seeds x 4 records

    @pytest.mark.parametrize("spec", ["pomc:0", "pomc:-5", "pomc:2.5",
                                      "pomc:x", "pomcx"])
    def test_bad_baseline_spec_refused_before_any_baseline(
            self, tmp_path, capsys, monkeypatch, spec):
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=2)
        run_cli("run", "--config", config)
        monkeypatch.setattr(cli, "long_run_baseline", None)
        capsys.readouterr()
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--baseline", spec) == 2
        err = capsys.readouterr().err
        assert err.startswith("dynsel: error: ")
        assert repr(spec) in err
        assert not (tmp_path / "results" / "report.csv").exists()

    def test_header_only_run_file_refused(self, tmp_path, capsys):
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=2)
        run_cli("run", "--config", config)
        run_file = sorted((tmp_path / "results").glob("*_s*.csv"))[0]
        run_file.write_text(run_file.read_text().splitlines(True)[0])
        capsys.readouterr()
        assert run_cli("analyze", "--results", tmp_path / "results") == 2
        err = capsys.readouterr().err
        assert err.startswith("dynsel: error: ")
        assert str(run_file) in err and "no records" in err
        assert "Traceback" not in err

    def test_short_run_file_refused_by_name_before_any_baseline(
            self, tmp_path, capsys, monkeypatch):
        """A run file cut short ended in `empty or out-of-range interval`,
        which named no file."""
        config = write_config(tmp_path, algorithms="gga,eamc", seeds="3",
                              tau=0, count=8)
        run_cli("run", "--config", config)
        run_file = tmp_path / "results" / "eamc_s1.csv"
        run_file.write_text("".join(run_file.read_text().splitlines(True)[:6]))
        budgets = []
        monkeypatch.setattr(cli, "brute_force_baseline",
                            lambda f, c: budgets.append)
        capsys.readouterr()
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--intervals", "1-4,5-9") == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {run_file}: the run file holds 5 records where "
            f"5 of the 6 run files hold 9\n")
        assert budgets == []
        assert not (tmp_path / "results" / "report.csv").exists()

    @pytest.mark.parametrize("old, new, message", [
        ("budget,", "budgte,", "the run file has no budget column"),
        ("change_index,", "index,", "the run file has no change_index column"),
        (",1.0,gga,", ",one,gga,", "line 2: budget 'one' is not a number"),
        ("gga,3.0,", "gga,x,", "line 2: best_f 'x' is not a number"),
        ("gga,3.0,", "gga,nan,", "line 2: best_f 'nan' is not a finite number")])
    def test_malformed_run_file_refused_by_file_and_line(
            self, tmp_path, capsys, old, new, message):
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=2)
        run_cli("run", "--config", config)
        run_file = sorted((tmp_path / "results").glob("*_s*.csv"))[0]
        text = run_file.read_text()
        assert old in text
        run_file.write_text(text.replace(old, new, 1))
        capsys.readouterr()
        assert run_cli("analyze", "--results", tmp_path / "results") == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {run_file}: {message}\n")
        assert not (tmp_path / "results" / "report.csv").exists()

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
graph = social.edges
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
        save_edge_list(gen_random_digraph(10, 0.3, substream(4, "instance", "influence"),
                                          edge_prob=0.3), tmp_path / "social.edges")
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


def distance_files(bundle):
    return sorted(bundle.glob("*.dist-*.npy"))


def routing_bundle(tmp_path, *run_args):
    """A small influence-routing experiment run into `tmp_path / results`,
    with budgets where the route decides what fits; pomc-wp's default
    warm-up plans over FORK_MIN_EVALS evaluations."""
    config = tmp_path / "exp.ini"
    assert run_cli("generate", "config", "--experiment", "influence-routing",
                   "--n", 20, "--count", 3, "--tau", 20, "--run-seeds", 2,
                   "--binit", 5, "--bmin", 4, "--bmax", 6, "--seed", 3,
                   "--out", config) == 0
    config.write_text(config.read_text().replace(
        "[instance]\n", "[instance]\nper_node_cost = 1.0\n"))
    assert run_cli("run", "--config", config, *run_args) == 0
    return config, tmp_path / "results"


def analyze_report(bundle):
    """The report.csv and report.significance.json bytes of `analyze`."""
    assert run_cli("analyze", "--results", bundle, "--baseline", "pomc:300",
                   "--jobs", 1) == 0
    return [(bundle / name).read_bytes()
            for name in ("report.csv", "report.significance.json")]


class TestRoutingDistances:
    """`run` keeps the routing distances in its bundle, computed once before
    it forks, and `analyze` reads them back instead of running Dijkstra."""

    def test_report_is_the_same_with_and_without_the_file(self, tmp_path):
        _config, results = routing_bundle(tmp_path)
        assert len(distance_files(results)) == 1
        bare = tmp_path / "bare"  # as a bundle written before the file was
        shutil.copytree(results, bare)
        distance_files(bare)[0].unlink()
        assert analyze_report(results) == analyze_report(bare)
        assert distance_files(bare) == []  # analyze writes no file

    def test_file_holds_the_dijkstra_matrix_named_by_the_graph_digest(
            self, tmp_path):
        _config, results = routing_bundle(tmp_path)
        graph = results / "exp.routing.edges"
        digest = hashlib.sha256(graph.read_bytes()).hexdigest()[:16]
        path, = distance_files(results)
        assert path.name == f"exp.routing.edges.dist-{digest}.npy"
        _f, _c, meta = build_instance(cli._read_config(results / "config.ini"),
                                      results)
        assert np.array_equal(np.load(path, allow_pickle=False),
                              RoutingCost(meta["influence"])._distances())

    def test_edited_routing_graph_is_recomputed(self, tmp_path):
        _config, results = routing_bundle(tmp_path)
        edited = tmp_path / "edited"
        shutil.copytree(results, edited)
        graph = edited / "exp.routing.edges"
        header, *edges = graph.read_text().splitlines()
        tripled = [f"{u} {v} {p} {3 * float(w)!r}"
                   for u, v, p, w in map(str.split, edges)]
        graph.write_text("\n".join([header, *tripled]) + "\n")
        fresh = tmp_path / "fresh"  # the edited bundle without the stale file
        shutil.copytree(edited, fresh)
        stale = distance_files(edited)
        for path in distance_files(fresh):
            path.unlink()
        report = analyze_report(edited)
        assert report == analyze_report(fresh)
        assert report != analyze_report(results)
        assert distance_files(edited) == stale  # nothing written

    @pytest.mark.parametrize("spoil, message", [
        (lambda d, raw: np.save(d, np.load(raw)[:, :-1]),
         "the distances file holds a float64 array of shape (20, 19), not "
         "the 20 x 20 float64 matrix of the routing graph"),
        (lambda d, raw: np.save(d, np.load(raw).astype(np.float32)),
         "the distances file holds a float32 array of shape (20, 20), not "
         "the 20 x 20 float64 matrix of the routing graph"),
        (lambda d, raw: np.save(d, -np.load(raw)),
         "the distances file has a nonzero diagonal or an entry that is not "
         "a number >= 0"),
        (lambda d, raw: np.save(d, np.load(raw) + np.eye(20)),
         "the distances file has a nonzero diagonal or an entry that is not "
         "a number >= 0"),
        (lambda d, raw: d.write_bytes(raw.read_bytes()[:100]),
         "numpy cannot read the distances file: ")])
    def test_bad_file_refused_by_name(self, tmp_path, capsys, spoil, message):
        _config, results = routing_bundle(tmp_path)
        path, = distance_files(results)
        raw = tmp_path / "raw.npy"
        shutil.copy(path, raw)
        spoil(path, raw)
        capsys.readouterr()
        assert run_cli("analyze", "--results", results, "--jobs", 1) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"dynsel: error: {path}: {message}")
        assert err.count("\n") == 1
        assert not (results / "report.csv").exists()

    def test_forked_run_writes_the_serial_run_files(self, tmp_path,
                                                    monkeypatch):
        """No route computes the distances: the forked children inherit
        the matrix the parent computed."""
        def no_dijkstra(graph):
            raise AssertionError("a route ran Dijkstra")

        monkeypatch.setattr(problems, "routing_distances", no_dijkstra)
        seen = {}
        for jobs in (1, 2):
            config, results = routing_bundle(tmp_path, "--jobs", jobs)
            manifest = json.loads((results / "manifest.json").read_text())
            assert manifest["jobs"] == jobs and manifest["failed"] == []
            seen[jobs] = {}
            for path in sorted(results.glob("*_s*.csv")):
                with open(path, newline="") as fh:
                    seen[jobs][path.name] = [row[:-1] for row in csv.reader(fh)]
            results.rename(tmp_path / f"results-{jobs}")
        assert len(seen[2]) == 8 and seen[1] == seen[2]
        experiment = cli.load_experiment(cli._read_config(config), tmp_path)
        assert sum(planned_evals(alg, experiment.schedules[seed],
                                 experiment.params)
                   for alg in experiment.algorithms
                   for seed in experiment.seeds) >= FORK_MIN_EVALS


# ---------------------------------------------------------------------------
# verify-theory


class TestErrors:
    """Bad input ends in one `dynsel: error:` line and exit code 2."""

    @pytest.mark.parametrize("argv, message", [
        (("generate", "config", "--experiment", "maxcov-random", "--out",
          "missing/exp.ini"), "No such file or directory"),
        (("generate", "ba", "--m", 0, "--out", "x.edges"), "m = 0"),
        (("run", "--config", "nowhere.ini"),
         "config file not found: nowhere.ini"),
        # generate config refuses what run refuses, before writing any file
        (("generate", "config", "--experiment", "maxcov-random", "--tau", -5,
          "--out", "exp.ini"), "[schedule] tau must be an integer >= 0, got '-5'"),
        (("generate", "config", "--experiment", "maxcov-random",
          "--run-seeds", 0, "--out", "g.ini"),
         "[run] seeds must be an integer >= 1, got '0'"),
        (("generate", "config", "--experiment", "maxcov-random", "--count", 0,
          "--out", "g.ini"), "[schedule] count must be an integer >= 1, got '0'"),
        (("generate", "config", "--experiment", "maxcov-random", "--r", 0,
          "--out", "g.ini"), "[schedule] r must be positive"),
        (("generate", "config", "--experiment", "maxcov-random", "--n", 0,
          "--out", "g.ini"), "need n >= 1"),
        (("generate", "config", "--experiment", "influence-routing", "--p", 1.5,
          "--out", "g.ini"), "p must be a probability"),
        (("generate", "config", "--experiment", "maxcov-outdegree", "--bmin", 3,
          "--bmax", 1, "--out", "g.ini"),
         "[schedule] need b_min <= b_init <= b_max, got b_min = 3.0, "
         "b_init = 500.0, b_max = 1.0"),
        # generate schedule keeps the schedule's own message
        (("generate", "schedule", "--preset", "influence", "--tau", -5,
          "--out", "s.txt"), "tau must be non-negative, got -5")])
    def test_one_line_and_exit_code_2(self, tmp_path, monkeypatch, capsys,
                                      argv, message):
        monkeypatch.chdir(tmp_path)
        assert run_cli(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("dynsel: error: ") and message in err
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_missing_section_refused_before_anything_is_written(
            self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text(G3_EDGE_LIST)
        config = tmp_path / "exp.ini"
        config.write_text("[instance]\nkind = coverage\ngraph = g.edges\n\n"
                          "[run]\nalgorithms = gga\n")
        assert run_cli("run", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {config}: the config has no [schedule] section\n")
        assert not (tmp_path / "results").exists()

    def test_schedule_file_without_binit_refused(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text(G3_EDGE_LIST)
        (tmp_path / "sched.txt").write_text("bmin=1\nbmax=3\nr=1\ntau=5\n1\n")
        config = tmp_path / "exp.ini"
        config.write_text("[instance]\nkind = coverage\ngraph = g.edges\n\n"
                          "[run]\nalgorithms = gga\n\n"
                          "[schedule]\npath = sched.txt\n")
        assert run_cli("run", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {tmp_path / 'sched.txt'}: the schedule file has "
            f"no binit= line\n")
        assert not (tmp_path / "results").exists()


    @pytest.mark.parametrize("r", ["5", "1.5"])
    def test_schedule_r_key_beside_a_schedule_file_must_match_it(
            self, tmp_path, capsys, r):
        (tmp_path / "g.edges").write_text(G3_EDGE_LIST)
        (tmp_path / "sched.txt").write_text(
            "binit=2\nbmin=1\nbmax=3\nr=1\ntau=5\n1\n")
        config = tmp_path / "exp.ini"
        config.write_text("[instance]\nkind = coverage\ngraph = g.edges\n\n"
                          "[run]\nalgorithms = nsga2\n\n"
                          f"[schedule]\npath = sched.txt\nr = {r}\n")
        assert run_cli("run", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: [schedule] r = {float(r)!r} differs from r = 1.0 "
            f"in the schedule file 'sched.txt'; drop the key or make it match\n")
        assert not (tmp_path / "results").exists()
        config.write_text(config.read_text().replace(f"r = {r}", "r = 1.0"))
        experiment = cli.load_experiment(cli._read_config(config), tmp_path)
        assert experiment.params == {"delta_cap": 1.0}

    def test_schedule_file_with_a_nan_r_refused_by_file_and_line(
            self, tmp_path, capsys):
        """r = nan passed every |delta| > r check, so nsga2 ran with a nan
        delta_cap and `run` exited 0."""
        (tmp_path / "g.edges").write_text(G3_EDGE_LIST)
        sched = tmp_path / "sched.txt"
        sched.write_text("binit=2\nbmin=1\nbmax=3\nr=nan\ntau=5\n1\n")
        config = tmp_path / "exp.ini"
        config.write_text("[instance]\nkind = coverage\ngraph = g.edges\n\n"
                          "[run]\nalgorithms = nsga2\n\n"
                          "[schedule]\npath = sched.txt\n")
        assert run_cli("run", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {sched}: line 4: r='nan' is not a finite number\n")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("section, key, value, message", [
        ("run", "seeds", "0", "[run] seeds must be an integer >= 1, got '0'"),
        ("run", "seeds", "3,3", "[run] seeds lists 3 twice"),
        ("run", "seeds", "1,x",
         "[run] seeds must be a count or a list of integers, got '1,x'"),
        ("run", "algorithms", "pomc,pomc",
         "[run] algorithms lists 'pomc' twice"),
        ("run", "warmup", "-5", "[run] warmup must be an integer >= 0, "
                                "got '-5'"),
        ("schedule", "tau", "-5", "[schedule] tau must be an integer >= 0, "
                                  "got '-5'")])
    def test_bad_run_field_refused_before_anything_is_written(
            self, tmp_path, capsys, section, key, value, message):
        cfg = read_config(write_config(tmp_path, algorithms="gga,pomc"),
                          **{section: {key: value}})
        with open(tmp_path / "config.ini", "w") as fh:
            cfg.write(fh)
        assert run_cli("run", "--config", tmp_path / "config.ini") == 2
        assert capsys.readouterr().err == f"dynsel: error: {message}\n"
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("sections, message", [
        ({"schedule": {"count": "x"}},
         "[schedule] count must be an integer >= 1, got 'x'"),
        ({"schedule": {"seed": "1.5"}},
         "[schedule] seed must be an integer, got '1.5'"),
        ({"schedule": {"binit": "two"}},
         "[schedule] binit must be a finite number, got 'two'"),
        ({"schedule": {"bmin": "nan"}},
         "[schedule] bmin must be a finite number, got 'nan'"),
        ({"schedule": {"bmax": "three"}},
         "[schedule] bmax must be a finite number, got 'three'"),
        ({"schedule": {"r": "1,5"}},
         "[schedule] r must be a finite number, got '1,5'"),
        ({"instance": {"kind": "adversarial-knapsack", "n": "x"},
          "cost": {"variant": None}},
         "[instance] n must be an integer >= 1, got 'x'"),
        ({"instance": {"kind": "bipartite-cover"}},
         "[instance] n is required for kind = bipartite-cover"),
        ({"instance": {"kind": "influence", "simulations": "0"}},
         "[instance] simulations must be an integer >= 1, got '0'"),
        ({"instance": {"kind": "influence", "seed": "s"}},
         "[instance] seed must be an integer, got 's'"),
        ({"instance": {"kind": "influence", "per_node_cost": "inf"}},
         "[instance] per_node_cost must be a finite number, got 'inf'")])
    def test_bad_number_names_its_field_before_anything_is_written(
            self, tmp_path, capsys, sections, message):
        cfg = read_config(write_config(tmp_path, algorithms="gga,pomc"),
                          **sections)
        with open(tmp_path / "config.ini", "w") as fh:
            cfg.write(fh)
        assert run_cli("run", "--config", tmp_path / "config.ini") == 2
        assert capsys.readouterr().err == f"dynsel: error: {message}\n"
        assert not (tmp_path / "results").exists()

    def test_negative_tau_in_schedule_file_refused(self, tmp_path, capsys):
        (tmp_path / "g.edges").write_text(G3_EDGE_LIST)
        sched = tmp_path / "sched.txt"
        sched.write_text("binit=2\nbmin=1\nbmax=3\nr=1\ntau=-5\n1\n")
        config = tmp_path / "exp.ini"
        config.write_text("[instance]\nkind = coverage\ngraph = g.edges\n\n"
                          "[run]\nalgorithms = pomc,nsga2\n\n"
                          "[schedule]\npath = sched.txt\n")
        assert run_cli("run", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {sched}: tau must be non-negative, got -5\n")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("name, text, message", [
        ("g3.costs", "# weights\n0.5\nnan\n0.5\n",
         "line 3: cost 'nan' is not a finite number >= 0"),
        ("g3.costs", "0.5\nabc\n0.5\n",
         "line 2: cost 'abc' is not a finite number >= 0"),
        ("g3.costs", "0.5\n0.5\n-1.0\n",
         "line 3: cost '-1.0' is not a finite number >= 0"),
        ("g3.edges", "x 15 directed\n",
         "line 1: node count 'x' is not an integer"),
        ("g3.edges", "3 2 directed\n0 1 1.0\n0 99 1.0\n",
         "line 3: endpoint 99 outside the nodes 0-2"),
        ("g3.edges", "c a DIMACS graph\np edge 3 2\ne 1 2\ne 1 x\n",
         "line 4: endpoint 'x' is not an integer")])
    def test_bad_input_file_refused_by_file_and_line(
            self, tmp_path, capsys, name, text, message):
        cfg = read_config(write_config(tmp_path, algorithms="gga,pomc"),
                          cost={"variant": "random-linear",
                                "costs": "g3.costs"})
        with open(tmp_path / "config.ini", "w") as fh:
            cfg.write(fh)
        if name != "g3.costs":
            (tmp_path / "g3.costs").write_text("0.5\n0.5\n0.5\n")
        (tmp_path / name).write_text(text)
        assert run_cli("run", "--config", tmp_path / "config.ini") == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {tmp_path / name}: {message}\n")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("text, message", [
        ("3 2 undirected\n0 1 1.0 1.0\n1 2 1.0 -2.0\n",
         "line 3: weight '-2.0' is not a finite number >= 0"),
        ("3 2 undirected\n0 1 1.0 1.0\n1 2 1.0 nan\n",
         "line 3: weight 'nan' is not a finite number >= 0"),
        ("3 2 undirected\n0 1 1.0 1.0\n1 2 1.0\n",
         "line 3: routing edge line needs `u v p w`: its weight is the "
         "route length"),
        ("p edge 3 2\ne 1 2\ne 2 3\n", "a routing graph needs edge "
         "weights, which the DIMACS format does not hold")])
    def test_bad_routing_weight_refused_by_file_and_line(
            self, tmp_path, capsys, text, message):
        (tmp_path / "social.edges").write_text("3 2 directed\n0 1 0.5\n1 2 0.5\n")
        (tmp_path / "routing.edges").write_text(text)
        cfg = read_config(write_config(tmp_path, algorithms="pomc"),
                          instance={"kind": "influence", "graph": "social.edges",
                                    "routing_graph": "routing.edges",
                                    "simulations": "5"},
                          cost={"variant": "routing"})
        with open(tmp_path / "config.ini", "w") as fh:
            cfg.write(fh)
        assert run_cli("run", "--config", tmp_path / "config.ini") == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {tmp_path / 'routing.edges'}: {message}\n")
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("seeds", None, "the manifest has no 'seeds' key"),
        ("seeds", [], "the manifest's 'seeds' must be a non-empty list of "
                      "integers, got []"),
        ("files", None, "the manifest has no 'files' key"),
        ("config_hash", None, "the manifest has no 'config_hash' key"),
        (None, 5, "the manifest is not a JSON object")])
    def test_manifest_without_a_key_refused_by_key(self, tmp_path, capsys,
                                                   key, value, message):
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=2)
        run_cli("run", "--config", config)
        path = tmp_path / "results" / "manifest.json"
        manifest = json.loads(path.read_text())
        if key is None:
            manifest = value
        elif value is None:
            del manifest[key]
        else:
            manifest[key] = value
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("analyze", "--results", tmp_path / "results") == 2
        assert capsys.readouterr().err == f"dynsel: error: {path}: {message}\n"
        assert not (tmp_path / "results" / "report.csv").exists()

    @pytest.mark.parametrize("entry", ["gga.csv", "gga_s.csv", "gga_s1.txt",
                                       "greedy_s1.csv", "../gga_s0.csv", 7,
                                       None])
    def test_malformed_manifest_entry_refused_by_entry(self, tmp_path, capsys,
                                                       entry):
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=2)
        run_cli("run", "--config", config)
        path = tmp_path / "results" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["files"].append(entry)
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("analyze", "--results", tmp_path / "results") == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: {path}: the manifest's 'files' entry {entry!r} "
            f"is not <algorithm>_s<seed>.csv\n")
        assert not (tmp_path / "results" / "report.csv").exists()

    def test_negative_seed_run_file_is_read(self, tmp_path):
        config = write_config(tmp_path, algorithms="gga,pomc", seeds="-1,3",
                              tau=5, count=2)
        assert run_cli("run", "--config", config) == 0
        manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
        assert "gga_s-1.csv" in manifest["files"]
        assert run_cli("analyze", "--results", tmp_path / "results") == 0

    @pytest.mark.parametrize("outside", [False, True])
    def test_input_outside_the_config_directory_refused(
            self, tmp_path, capsys, outside):
        (tmp_path / "g.edges").write_text(G3_EDGE_LIST)
        name = "../g.edges" if outside else str(tmp_path / "g.edges")
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        cfg = read_config(write_config(cfg_dir), instance={"graph": name})
        with open(cfg_dir / "config.ini", "w") as fh:
            cfg.write(fh)
        assert run_cli("run", "--config", cfg_dir / "config.ini") == 2
        assert capsys.readouterr().err == (
            f"dynsel: error: [instance] graph must name a file in the "
            f"config's directory or below it, got {name!r}\n")
        assert sorted(p.name for p in cfg_dir.iterdir()) == ["config.ini",
                                                             "g3.edges"]

    def test_schedule_path_outside_the_config_directory_refused_by_key(
            self, tmp_path, capsys):
        cfg_dir = tmp_path / "cfg"
        cfg_dir.mkdir()
        cfg = read_config(write_config(cfg_dir),
                          schedule={"path": "../missing.txt"})
        with open(cfg_dir / "config.ini", "w") as fh:
            cfg.write(fh)
        assert run_cli("run", "--config", cfg_dir / "config.ini") == 2
        assert capsys.readouterr().err == (
            "dynsel: error: [schedule] path must name a file in the config's "
            "directory or below it, got '../missing.txt'\n")
        assert sorted(p.name for p in cfg_dir.iterdir()) == ["config.ini",
                                                             "g3.edges"]

    @pytest.mark.parametrize("alpha", ["0", "-1", "1.5", "1", "nan"])
    def test_alpha_outside_zero_one_refused(self, tmp_path, capsys,
                                            monkeypatch, alpha):
        config = write_config(tmp_path, algorithms="gga", seeds="2",
                              tau=0, count=2)
        run_cli("run", "--config", config)
        monkeypatch.setattr(cli, "brute_force_baseline", None)
        capsys.readouterr()
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--alpha", alpha) == 2
        err = capsys.readouterr().err
        assert err.startswith("dynsel: error: --alpha must be in (0, 1)")
        assert err.count("\n") == 1
        assert not (tmp_path / "results" / "report.csv").exists()


def test_verify_theory_passes(capsys):
    assert run_cli("verify-theory", "--seed", 0) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "knapsack-increase n=64" in out
    assert "bipartite-decrease n=100" in out
    assert "pomc-phi-approximation" in out
