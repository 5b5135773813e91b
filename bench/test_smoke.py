"""Smoke test of the benchmark: every workload at tiny size, in both modes,
plus the output checks and the non-degeneracy guard on broken inputs.

    PYTHONPATH=src python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import csv
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from dynsel import cli  # noqa: E402
from dynsel.dynamics import BudgetSchedule  # noqa: E402

import worker  # noqa: E402
from workloads import WORKLOADS, prepare  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert ({name: m["unit"] for name, m in result["metrics"].items()}
            == {m["name"]: m["unit"] for m in declared})


def test_declared_workloads_exist():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_refuses_without_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "maxcov-exact", "--seed", "1", "--seconds",
                 "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def finished_run(tmp_path):
    """A tiny maxcov-exact run and analysis, as one benchmark cycle makes."""
    cfg_path = prepare(WORKLOADS["maxcov-exact"], "tiny", 5, tmp_path,
                       worker.generate)
    cfg = worker.read_config(cfg_path)
    size = WORKLOADS["maxcov-exact"].sizes["tiny"]
    results = tmp_path / "results"
    assert worker.quiet_main(["run", "--config", str(cfg_path)]) == 0
    assert worker.quiet_main(["analyze", "--results", str(results),
                              "--baseline", size["baseline"],
                              "--intervals", size["intervals"]]) == 0
    schedules = {s: cli.build_schedule(cfg, tmp_path, s)
                 for s in range(size["run_seeds"])}
    return cfg, results, schedules, size["intervals"]


def rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def over_budget(rows):
    rows[1]["best_cost"] = repr(float(rows[1]["budget"]) + 0.5)
    return rows


def shifted_budget(rows):
    rows[2]["budget"] = repr(float(rows[2]["budget"]) + 0.1)
    return rows


@pytest.mark.parametrize("edit", [over_budget, shifted_budget,
                                  lambda rows: rows[:-1]])
def test_run_check_flags_broken_csv(finished_run, edit):
    cfg, results, schedules, _ = finished_run
    assert worker.check_runs(cfg, results, schedules) == {}
    rewrite_csv(results / "eamc_s1.csv", edit)
    assert list(worker.check_runs(cfg, results, schedules)) == ["eamc_s1"]


def test_run_check_flags_manifest_failure(finished_run):
    cfg, results, schedules, _ = finished_run
    manifest = json.loads((results / "manifest.json").read_text())
    manifest["failed"] = [["gga_s0", "boom"]]
    (results / "manifest.json").write_text(json.dumps(manifest))
    assert list(worker.check_runs(cfg, results, schedules)) == ["gga_s0"]


def test_report_check_flags_bad_rows(finished_run):
    cfg, results, _, intervals = finished_run
    algorithms = worker.algorithm_names(cfg)
    report = results / "report.csv"
    assert worker.check_report(report, algorithms, intervals) == []
    rewrite_csv(report, lambda rows: [dict(rows[0], mean="nan")] + rows[2:])
    assert len(worker.check_report(report, algorithms, intervals)) == 2


def test_digest_ignores_wall_time(finished_run):
    _, results, _, _ = finished_run
    before = worker.digest(results)
    rewrite_csv(results / "gga_s0.csv",
                lambda rows: [dict(r, wall_ms="999.000") for r in rows])
    assert worker.digest(results) == before
    rewrite_csv(results / "gga_s0.csv", over_budget)
    assert worker.digest(results) != before


def test_guard_names_the_numbers(tmp_path):
    cfg_path = prepare(WORKLOADS["maxcov-exact"], "tiny", 5, tmp_path,
                       worker.generate)
    f, c, meta = cli.build_instance(worker.read_config(cfg_path), tmp_path)
    roomy = BudgetSchedule(b_init=1.0, b_min=0.0, b_max=100.0, deltas=[0.1],
                           tau=1, r=0.1)
    with pytest.raises(SystemExit, match=r"<= 100\.0 < "):
        worker.guard(f, c, meta, roomy)


def test_guard_refuses_disconnected_routing(tmp_path):
    cfg_path = prepare(WORKLOADS["influence-routing"], "tiny", 5, tmp_path,
                       worker.generate)
    worker.generate(["er", "--n", "30", "--p", "0", "--seed", "5",
                     "--out", str(tmp_path / "routing.edges")])
    cfg = worker.read_config(cfg_path)
    f, c, meta = cli.build_instance(cfg, tmp_path)
    with pytest.raises(SystemExit, match="reaches 1 of 30 nodes"):
        worker.guard(f, c, meta, cli.build_schedule(cfg, tmp_path, 0))
