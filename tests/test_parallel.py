"""`--jobs`: runs and baseline budgets computed by forked processes give the
serial outputs byte for byte, and no process outlives the command."""

import configparser
import csv
import json
import os
import time

import pytest

from dynsel import cli, core
from dynsel.core import fork_map


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def experiment(tmp_path, **run_keys):
    """A small maxcov-random config with `run_keys` laid over its [run]."""
    config = tmp_path / "exp.ini"
    assert run_cli("generate", "config", "--experiment", "maxcov-random",
                   "--n", 10, "--p", 0.3, "--count", 3, "--tau", 20,
                   "--run-seeds", 2, "--out", config) == 0
    cfg = configparser.ConfigParser()
    cfg.read(config)
    cfg["run"].update(run_keys)
    with open(config, "w") as fh:
        cfg.write(fh)
    return config


def outputs(results):
    """The run CSVs without their wall_ms column, the manifest's files and
    failed lists, and report.csv."""
    runs = {}
    for path in sorted(results.glob("*_s*.csv")):
        with open(path, newline="") as fh:
            runs[path.name] = [row[:-1] for row in csv.reader(fh)]
    manifest = json.loads((results / "manifest.json").read_text())
    return (runs, manifest["files"], manifest["failed"],
            (results / "report.csv").read_bytes())


def failing_in(seed, alg):
    """cli.run_dynamic, made to raise on run `alg_s<seed>`."""
    inner = cli.run_dynamic

    def run_dynamic(name, f, c, schedule, run_seed, params=None):
        if (name, run_seed) == (alg, seed):
            raise ValueError("boom")
        return inner(name, f, c, schedule, run_seed, params=params)
    return run_dynamic


@pytest.mark.parametrize("fail", [False, True])
def test_forked_outputs_equal_serial(tmp_path, monkeypatch, fail):
    monkeypatch.setattr(core, "FORK_MIN_EVALS", 0)
    if fail:
        monkeypatch.setattr(cli, "run_dynamic", failing_in(1, "eamc"))
    config = experiment(tmp_path, warmup="40")
    results = tmp_path / "results"
    seen = {}
    for jobs in (1, 2):
        assert run_cli("run", "--config", config, "--jobs", jobs) == int(fail)
        assert_no_child_left()
        assert run_cli("analyze", "--results", results, "--baseline",
                       "pomc:200", "--jobs", jobs) == 0
        assert_no_child_left()
        manifest = json.loads((results / "manifest.json").read_text())
        assert manifest["jobs"] == jobs
        seen[jobs] = outputs(results)
        results.rename(tmp_path / f"results-{jobs}")
    assert seen[1] == seen[2]
    runs, files, failed, _report = seen[2]
    assert len(runs) == len(files) == 10 - fail
    assert failed == ([["eamc_s1", "boom"]] if fail else [])


def test_grid_below_the_threshold_starts_no_process(tmp_path, monkeypatch):
    def no_fork():
        raise AssertionError("forked below FORK_MIN_EVALS")

    # 2 seeds x 3 iterative algorithms x (40 warm-up + 20 x 4) = 720
    config = experiment(tmp_path, warmup="40")
    with monkeypatch.context() as patched:
        patched.setattr(os, "fork", no_fork)
        assert run_cli("run", "--config", config, "--jobs", 2) == 0
        assert run_cli("analyze", "--results", tmp_path / "results",
                       "--baseline", "pomc:200", "--jobs", 2) == 0
    manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
    assert manifest["jobs"] == 1
    # pomc-wp's default 10,000 warm-up evaluations per seed reach it
    config = experiment(tmp_path)
    assert run_cli("run", "--config", config, "--jobs", 2) == 0
    manifest = json.loads((tmp_path / "results" / "manifest.json").read_text())
    assert manifest["jobs"] == 2
    assert_no_child_left()


@pytest.mark.parametrize("command", ["run", "analyze"])
@pytest.mark.parametrize("jobs", ["0", "-1", "two", "1.5"])
def test_bad_jobs_refused(tmp_path, monkeypatch, capsys, command, jobs):
    monkeypatch.chdir(tmp_path)
    flag = {"run": "--config", "analyze": "--results"}[command]
    assert run_cli(command, flag, "nowhere", "--jobs", jobs) == 2
    assert capsys.readouterr().err == ("dynsel: error: --jobs must be a "
                                       f"positive integer, got {jobs!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_dead_worker_is_one_error_line(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(core, "FORK_MIN_EVALS", 0)
    parent = os.getpid()
    inner = cli.run_dynamic

    def run_dynamic(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(3)
        return inner(*args, **kwargs)

    monkeypatch.setattr(cli, "run_dynamic", run_dynamic)
    config = experiment(tmp_path, algorithms="gga,eamc", warmup="40")
    assert run_cli("run", "--config", config, "--jobs", 2) == 2
    err = capsys.readouterr().err
    assert err.startswith("dynsel: error: worker process ")
    assert err.endswith(" exited with code 3 before returning items "
                        "('eamc', 0), ('eamc', 1)\n")
    assert_no_child_left()


class TestForkMap:
    def test_keeps_item_order(self):
        assert fork_map(lambda x: x * x, range(7), 3) == [x * x for x in range(7)]
        assert_no_child_left()

    def test_serial_below_two_jobs_or_items(self, monkeypatch):
        monkeypatch.setattr(os, "fork", None)
        assert fork_map(str, [5], 4) == ["5"]
        assert fork_map(str, range(3), 1) == ["0", "1", "2"]

    def test_reaps_children_when_its_own_share_raises(self):
        def fn(x):
            if x == 0:
                raise KeyError("own share")
            time.sleep(60)

        start = time.monotonic()
        with pytest.raises(KeyError, match="own share"):
            fork_map(fn, range(4), 2)
        assert time.monotonic() - start < 30
        assert_no_child_left()

    def test_raises_what_a_child_raised(self):
        def fn(x):
            if x == 3:
                raise ValueError(f"bad item {x}")
            return x

        with pytest.raises(ValueError, match="bad item 3"):
            fork_map(fn, range(4), 2)
        assert_no_child_left()

    def test_reports_a_dead_child(self):
        with pytest.raises(ChildProcessError,
                           match="exited with code 3 before returning items 1, 3$"):
            fork_map(lambda x: os._exit(3) if x == 1 else x, range(4), 2)
        assert_no_child_left()

    def test_worker_count(self, monkeypatch):
        assert core.worker_count(4, 3, core.FORK_MIN_EVALS) == 3
        assert core.worker_count(4, 3, core.FORK_MIN_EVALS - 1) == 1
        monkeypatch.delattr(os, "fork")
        assert core.worker_count(4, 3, core.FORK_MIN_EVALS) == 1
