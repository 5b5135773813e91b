"""Acceptance gate: one test per criterion, each printing a single
machine-greppable pass/fail line with its measured numbers."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from dynsel.algorithms import Eamc, Pomc, brute_force_front
from dynsel.analysis import (kruskal_wallis, long_run_baseline,
                             offline_errors, partial_offline_error)
from dynsel.cli import main as cli_main
from dynsel.core import phi_ratio, substream
from dynsel.dynamics import gen_schedule, read_run_csv, run_dynamic
from dynsel.problems import (CardinalityCost, IcSpreadObjective,
                             InfluenceInstance, SetCoverObjective,
                             bfs_reachable, gen_ba_graph, gen_random_digraph,
                             outdegree_cost, random_linear_cost)
from dynsel.theory import (bipartite_decrease_trace, knapsack_increase_trace,
                           pomc_phi_trial)


def report(num, name, passed, detail):
    print(f"\n[{'PASS' if passed else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert passed, f"criterion {num} ({name}): {detail}"


# ---------------------------------------------------------------------------


def test_criterion_1_knapsack_increase_trace():
    """Adaptive greedy stays at 7/2 under budget increases while the optimum
    grows to 3 + n/4; verified against an independent DP oracle (and full
    enumeration where the ground set is small enough)."""
    details = []
    ok = True
    for n in (4, 8, 16, 64):
        t0 = time.perf_counter()
        trace = knapsack_increase_trace(n)
        got, opt = trace.value, trace.optimum
        if n + 1 <= 24:
            enum = brute_force_front(trace.objective, trace.cost,
                                     [trace.budget])[trace.budget]
            ok = ok and enum == opt
        elapsed = time.perf_counter() - t0
        ok = ok and got == 3.5 and opt == 3 + n / 4 and elapsed < 1.0
        ok = ok and got / opt == 14 / (12 + n)
        details.append(f"n={n}: {got} vs {opt} in {elapsed:.2f}s")
    report(1, "knapsack increase trace", ok, "; ".join(details))


def test_criterion_2_bipartite_decrease_trace():
    """Adaptive greedy collapses to 2*sqrt(n) under budget decreases on the
    bipartite construction, against the optimum n - sqrt(n)."""
    t0 = time.perf_counter()
    details = []
    ok = True
    for n in (16, 64, 100):
        k = math.isqrt(n)
        trace = bipartite_decrease_trace(n)
        got = trace.value
        # the k hub nodes witness the optimum value at budget sqrt(n)
        hub_bits = np.zeros(n, dtype=np.uint8)
        hub_bits[::k] = 1  # node i * k heads subgraph i
        hubs = trace.objective(hub_bits)
        ok = ok and got == 2 * k and hubs == n - k == trace.optimum
        if n == 16:
            opt = brute_force_front(trace.objective, trace.cost, [k])[k]
            ok = ok and opt == n - k
        details.append(f"n={n}: {got} vs {n - k}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(2, "bipartite decrease trace", ok,
           "; ".join(details) + f" in {elapsed:.2f}s")


def test_criterion_3_pomc_phi_approximation():
    """POMC reaches a 0.3160-approximation at every budget level on random
    coverage instances, in at least 28 of 30 seeded trials per instance."""
    t0 = time.perf_counter()
    rng = substream(77, "c3-instances")
    results = []
    ok = True
    for inst_i in range(20):
        n = int(rng.integers(8, 15))
        budget = int(rng.integers(2, 5))
        graph = gen_random_digraph(n, 0.18, substream(inst_i, "c3-graph"))
        f = SetCoverObjective.from_graph(graph)
        c = CardinalityCost(n)
        grid = [float(b) for b in range(budget + 1)]
        optima = brute_force_front(f, c, grid)
        passes = trials = 0
        for trial in range(30):
            trials += 1
            passes += pomc_phi_trial(f, c, float(budget),
                                     substream(trial, "c3-run", inst_i),
                                     optima=optima).all_pass
            if passes >= 28:
                break  # outcome decided for this instance
        ok = ok and passes >= 28
        results.append(f"{passes}/{trials}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    report(3, "POMC phi-approximation", ok,
           f"per-instance passes [{', '.join(results)}] in {elapsed:.1f}s")


def test_criterion_4_gga_guarantee():
    """Greedy value is at least 0.3160 x the exhaustive optimum on 100 small
    coverage instances under cardinality and random-linear costs."""
    from dynsel.algorithms import gga

    t0 = time.perf_counter()
    rng = substream(4, "c4")
    checked = 0
    worst = math.inf
    ok = True
    for inst_i in range(50):
        n = int(rng.integers(6, 13))
        graph = gen_random_digraph(n, 0.2, substream(inst_i, "c4-graph"))
        f = SetCoverObjective.from_graph(graph)
        for cost, budget in ((CardinalityCost(n), float(rng.integers(1, 5))),
                             (random_linear_cost(n, substream(inst_i, "c4-cost")),
                              float(rng.uniform(0.5, 2.0)))):
            opt = brute_force_front(f, cost, [budget])[budget]
            got = gga(f, cost, budget)[1]
            if opt > 0:
                worst = min(worst, got / opt)
                ok = ok and got >= 0.3160 * opt
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = ok and checked == 100 and elapsed < 30.0
    report(4, "GGA guarantee", ok,
           f"{checked} instances, worst ratio {worst:.4f} in {elapsed:.1f}s")


def test_criterion_5_population_invariants():
    """1e5 POMC steps keep the archive mutually non-dominated with no -inf
    member; 1e5 EAMC steps keep <= 2n+2 members, all feasible; budget changes
    are applied along the way to exercise the change protocols."""
    t0 = time.perf_counter()
    n = 16
    graph = gen_random_digraph(n, 0.2, substream(5, "c5-graph"))
    f = SetCoverObjective.from_graph(graph)
    budgets = [4.0, 6.0, 2.0, 5.0, 3.0]

    pomc = Pomc(f, CardinalityCost(n), budgets[0], substream(6, "c5-pomc"))
    for i in range(100_000):
        if i % 20_000 == 19_999:
            pomc.set_budget(budgets[(i // 20_000 + 1) % len(budgets)])
        pomc.run(1)
        pomc.check_invariants()

    c = random_linear_cost(n, substream(7, "c5-cost"))
    eamc = Eamc(f, c, 2.0, substream(8, "c5-eamc"))
    cost_budgets = [2.0, 3.0, 1.0, 2.5, 1.5]
    for i in range(100_000):
        if i % 20_000 == 19_999:
            eamc.set_budget(cost_budgets[(i // 20_000 + 1) % len(cost_budgets)])
        eamc.run(1)
        eamc.check_invariants()

    elapsed = time.perf_counter() - t0
    ok = elapsed < 30.0
    report(5, "population invariants", ok,
           f"1e5 POMC + 1e5 EAMC steps, all checks held, in {elapsed:.1f}s")


def test_criterion_6_statistics_oracle():
    """Kruskal-Wallis reproduces the hand-computed H and is calibrated under
    the null: ~5% false rejections at alpha = 0.05."""
    h, _p = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    h_ok = abs(h - 3.857) < 1e-3

    rng = substream(6, "c6-null")
    rejections = 0
    reps = 1000
    for _ in range(reps):
        groups = [rng.normal(size=30) for _ in range(3)]
        _h, p = kruskal_wallis(groups)
        rejections += p < 0.05
    rate = rejections / reps
    rate_ok = 0.03 <= rate <= 0.07
    report(6, "statistics oracle", h_ok and rate_ok,
           f"H={h:.4f} (want 3.857), null rejection rate {rate:.3f}")


def test_criterion_7_pipeline_determinism(tmp_path):
    """generate -> run -> analyze twice with fixed seeds; best_f columns and
    the analysis report must be bit-identical."""
    t0 = time.perf_counter()

    def pipeline(workdir):
        workdir.mkdir()
        config = workdir / "config.ini"
        assert cli_main(["generate", "config", "--experiment", "maxcov-random",
                         "--n", "30", "--count", "20", "--tau", "500",
                         "--run-seeds", "5", "--seed", "11",
                         "--out", str(config)]) == 0
        assert cli_main(["run", "--config", str(config)]) == 0
        results = workdir / "results"
        assert cli_main(["analyze", "--results", str(results),
                         "--baseline", "pomc:20000"]) == 0
        best_f = {p.name: [r.best_f for r in read_run_csv(p)]
                  for p in results.glob("*_s*.csv")}
        report_text = (results / "report.csv").read_text()
        return best_f, report_text

    first = pipeline(tmp_path / "a")
    second = pipeline(tmp_path / "b")
    elapsed = time.perf_counter() - t0
    ok = first == second and len(first[0]) == 25 and elapsed < 60.0
    report(7, "pipeline determinism", ok,
           f"{len(first[0])} run files x 2 invocations identical in {elapsed:.1f}s")


def test_criterion_8_trend_reproduction():
    """On a structured-cost coverage instance, warmed-up POMC has lower
    partial offline error than greedy at tau=5000 and higher at tau=100,
    with Kruskal-Wallis significance at 95% in both directions."""
    t0 = time.perf_counter()
    n = 30
    graph = gen_ba_graph(n, m=3, rng=substream(1, "c8-graph"), edge_prob=0.1)
    f = SetCoverObjective.from_graph(graph)
    c = outdegree_cost(graph, q=6)
    baseline = long_run_baseline(f, c, evals=60_000)

    def full_range_error(alg, tau, seed):
        sched = gen_schedule(5, 2, 28, 5, 20, tau,
                             substream(seed, "c8-sched"), integer_deltas=True)
        recs = run_dynamic(alg, f, c, sched, seed,
                           params={"warmup_evals": 10_000, "delta_cap": 5.0})
        return partial_offline_error(offline_errors(recs, baseline),
                                     1, len(recs))

    details = []
    ok = True
    for tau, pomc_should_win in ((5000, True), (100, False)):
        pomc_err = [full_range_error("pomc-wp", tau, s) for s in range(30)]
        gga_err = [full_range_error("gga", tau, s) for s in range(30)]
        _h, p = kruskal_wallis([pomc_err, gga_err])
        direction = (np.mean(pomc_err) < np.mean(gga_err)) == pomc_should_win
        ok = ok and direction and p < 0.05
        details.append(f"tau={tau}: pomc-wp {np.mean(pomc_err):.3f} vs "
                       f"gga {np.mean(gga_err):.3f}, p={p:.2e}")
    elapsed = time.perf_counter() - t0
    report(8, "trend reproduction", ok,
           "; ".join(details) + f" in {elapsed:.0f}s")


def test_criterion_9_ic_estimator_exactness():
    """With all edge probabilities 1, the live-edge spread equals BFS
    reachability exactly on 50 random digraphs."""
    rng = substream(9, "c9")
    run_rng = substream(10, "c9-run")
    checked = 0
    ok = True
    for i in range(50):
        n = int(rng.integers(5, 51))
        graph = gen_random_digraph(n, 0.1, substream(i, "c9-graph"),
                                   edge_prob=1.0)
        inst = InfluenceInstance(graph, simulations=int(rng.integers(1, 5)))
        k = int(rng.integers(1, 4))
        seeds = rng.choice(n, size=min(k, n), replace=False).tolist()
        bits = np.zeros(n, dtype=np.uint8)
        bits[seeds] = 1
        got = IcSpreadObjective(inst, run_rng)(bits)
        ok = ok and got == bfs_reachable(graph, seeds)
        checked += 1
    report(9, "IC estimator exactness", ok and checked == 50,
           f"{checked} digraphs, exact match with BFS reachability")
