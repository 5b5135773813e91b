"""Golden outputs: every algorithm's run records on three small fixed instances.

Speed work on the solvers must leave every counted number, every random draw
and every output byte unchanged.  These records pin (budget, best_f,
best_cost, evaluations) per change, so any drift in an evaluation count or a
random stream fails here.  `tau` is not a multiple of NSGA-II's population
size, so partial generations are covered too.

Version 0.2.0 re-drew two streams on purpose: EAMC takes its draws in POMC's
block layout and NSGA-II takes its draws once per generation, so the six
eamc and nsga2 entries were regenerated with `golden_records`; their
evaluation counts did not change.  Version 0.3.0 holds POMC's population in
cost order, so a parent draw picks another member than in insertion order:
the six pomc and pomc-wp entries were regenerated the same way, again with
unchanged evaluation counts.  Every other entry, and so every other stream,
is still pinned as before.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsel.algorithms import Pomc, _greedy_extend, evaluate
from dynsel.core import NEG_INF, POS_INF, EvalCounter, substream
from dynsel.dynamics import ALL_ALGORITHMS, BudgetSchedule, run_dynamic
from dynsel.problems import (CardinalityCost, IcSpreadObjective,
                             InfluenceInstance, RoutingCost, SetCoverObjective,
                             gen_er_graph, gen_random_digraph, outdegree_cost,
                             random_linear_cost)

RUN_SEED = 7
PARAMS = {"warmup_evals": 150}


def _outdegree_instance():
    g = gen_random_digraph(24, 0.15, substream(3, "golden", "outdegree"))
    schedule = BudgetSchedule(b_init=8.0, b_min=3.0, b_max=14.0,
                              deltas=[3.0, -4.0, 2.0, -5.0, 4.0, 1.0],
                              tau=37, r=5.0)
    return SetCoverObjective.from_graph(g), outdegree_cost(g, q=2), schedule


def _random_linear_instance():
    g = gen_random_digraph(16, 0.2, substream(4, "golden", "random-linear"))
    c = random_linear_cost(16, substream(5, "golden", "random-linear"))
    schedule = BudgetSchedule(b_init=1.0, b_min=0.2, b_max=2.5,
                              deltas=[0.3, -0.5, 0.2, -0.4, 0.6],
                              tau=23, r=0.6)
    return SetCoverObjective.from_graph(g), c, schedule


def _influence_routing_instance():
    """Live-edge influence spread with a routing cost over a connected ER
    graph, so routes of several legs are walked."""
    social = gen_random_digraph(16, 0.15, substream(6, "golden", "social"),
                                edge_prob=0.3)
    routing = gen_er_graph(16, 0.3, substream(7, "golden", "routing"))
    influence = InfluenceInstance(social, simulations=20, routing_graph=routing)
    schedule = BudgetSchedule(b_init=2.5, b_min=1.5, b_max=4.0,
                              deltas=[0.5, -0.8, 0.4, -0.9, 0.7, 0.3],
                              tau=29, r=1.0)
    return (IcSpreadObjective(influence, substream(8, "golden", "ic")),
            RoutingCost(influence), schedule)


INSTANCES = {
    "coverage-outdegree": _outdegree_instance,
    "coverage-random-linear": _random_linear_instance,
    "influence-routing": _influence_routing_instance,
}


def golden_records(instance, name):
    f, c, schedule = INSTANCES[instance]()
    records = run_dynamic(name, f, c, schedule, RUN_SEED, params=PARAMS)
    return [(r.budget, r.best_f, r.best_cost, r.evaluations) for r in records]


GOLDEN = {
    ('coverage-outdegree', 'gga'): [
        (8.0, 17.0, 8.0, 325),
        (11.0, 20.0, 11.0, 650),
        (7.0, 15.0, 7.0, 975),
        (9.0, 18.0, 9.0, 1300),
        (4.0, 11.0, 4.0, 1619),
        (8.0, 17.0, 8.0, 1944),
        (9.0, 18.0, 9.0, 2269),
    ],
    ('coverage-outdegree', 'adgga'): [
        (8.0, 17.0, 8.0, 326),
        (11.0, 20.0, 11.0, 542),
        (7.0, 13.0, 5.0, 586),
        (9.0, 18.0, 9.0, 822),
        (4.0, 9.0, 3.0, 857),
        (8.0, 17.0, 8.0, 1114),
        (9.0, 18.0, 9.0, 1330),
    ],
    ('coverage-outdegree', 'pomc'): [
        (8.0, 14.0, 8.0, 37),
        (11.0, 17.0, 9.0, 74),
        (7.0, 14.0, 7.0, 111),
        (9.0, 17.0, 9.0, 148),
        (4.0, 10.0, 4.0, 185),
        (8.0, 16.0, 8.0, 222),
        (9.0, 17.0, 9.0, 259),
    ],
    ('coverage-outdegree', 'pomc-wp'): [
        (8.0, 14.0, 6.0, 37),
        (11.0, 17.0, 10.0, 74),
        (7.0, 14.0, 6.0, 111),
        (9.0, 16.0, 9.0, 148),
        (4.0, 9.0, 4.0, 185),
        (8.0, 16.0, 8.0, 222),
        (9.0, 18.0, 9.0, 259),
    ],
    ('coverage-outdegree', 'eamc'): [
        (8.0, 16.0, 8.0, 37),
        (11.0, 18.0, 10.0, 74),
        (7.0, 12.0, 6.0, 111),
        (9.0, 14.0, 9.0, 148),
        (4.0, 10.0, 4.0, 185),
        (8.0, 14.0, 8.0, 222),
        (9.0, 14.0, 8.0, 259),
    ],
    ('coverage-outdegree', 'nsga2'): [
        (8.0, 14.0, 7.0, 37),
        (11.0, 15.0, 8.0, 74),
        (7.0, 14.0, 7.0, 111),
        (9.0, 17.0, 9.0, 148),
        (4.0, 11.0, 4.0, 185),
        (8.0, 12.0, 5.0, 222),
        (9.0, 16.0, 8.0, 259),
    ],
    ('coverage-random-linear', 'gga'): [
        (1.0, 14.0, 0.9198539462406712, 153),
        (1.3, 15.0, 1.1085832956361594, 306),
        (0.8, 14.0, 0.6845579403979293, 454),
        (1.0, 14.0, 0.9198539462406712, 607),
        (0.6, 13.0, 0.5559441339133286, 754),
        (1.2, 15.0, 1.1085832956361594, 907),
    ],
    ('coverage-random-linear', 'adgga'): [
        (1.0, 14.0, 0.9198539462406712, 154),
        (1.3, 14.0, 1.118913560206879, 227),
        (0.8, 14.0, 0.6845579403979293, 253),
        (1.0, 14.0, 0.9198539462406712, 337),
        (0.6, 13.0, 0.32064812807058674, 360),
        (1.2, 15.0, 1.1085832956361594, 456),
    ],
    ('coverage-random-linear', 'pomc'): [
        (1.0, 13.0, 0.8812481591206681, 23),
        (1.3, 14.0, 0.9437330972750247, 46),
        (0.8, 13.0, 0.5197077420367945, 69),
        (1.0, 14.0, 0.9437330972750247, 92),
        (0.6, 13.0, 0.5197077420367945, 115),
        (1.2, 14.0, 0.9437330972750247, 138),
    ],
    ('coverage-random-linear', 'pomc-wp'): [
        (1.0, 14.0, 0.9704097563710024, 23),
        (1.3, 15.0, 1.230344228623998, 46),
        (0.8, 14.0, 0.744673483308817, 69),
        (1.0, 14.0, 0.744673483308817, 92),
        (0.6, 13.0, 0.32064812807058674, 115),
        (1.2, 14.0, 0.6845579403979293, 138),
    ],
    ('coverage-random-linear', 'eamc'): [
        (1.0, 14.0, 0.8828974299158204, 23),
        (1.3, 14.0, 0.8828974299158204, 46),
        (0.8, 13.0, 0.32064812807058674, 69),
        (1.0, 14.0, 0.744673483308817, 92),
        (0.6, 13.0, 0.32064812807058674, 115),
        (1.2, 13.0, 0.32064812807058674, 138),
    ],
    ('coverage-random-linear', 'nsga2'): [
        (1.0, 13.0, 0.6220730022435726, 23),
        (1.3, 14.0, 1.2202809662206326, 46),
        (0.8, 13.0, 0.6220730022435726, 69),
        (1.0, 13.0, 0.6220730022435726, 92),
        (0.6, 12.0, 0.4195804448903334, 115),
        (1.2, 14.0, 1.046098357481803, 138),
    ],
    ('influence-routing', 'gga'): [
        (2.5, 12.25, 2.4819342793743315, 153),
        (3.0, 12.3, 2.844457754001148, 306),
        (2.2, 10.25, 2.102209349300646, 459),
        (2.6, 12.0, 2.58009106346275, 612),
        (1.7000000000000002, 9.0, 1.3978802817921734, 765),
        (2.4000000000000004, 11.15, 2.310772576227483, 918),
        (2.7, 12.0, 2.58009106346275, 1071),
    ],
    ('influence-routing', 'adgga'): [
        (2.5, 12.25, 2.4819342793743315, 154),
        (3.0, 13.25, 2.9747922974198486, 208),
        (2.2, 10.2, 1.990938693097037, 256),
        (2.6, 11.95, 2.5625384595783838, 340),
        (1.7000000000000002, 9.2, 1.4980806750515199, 384),
        (2.4000000000000004, 11.55, 2.2982780954004873, 480),
        (2.7, 12.3, 2.6830895851892986, 543),
    ],
    ('influence-routing', 'pomc'): [
        (2.5, 10.95, 2.316441095339338, 29),
        (3.0, 12.05, 2.9479100882244778, 58),
        (2.2, 10.3, 2.12102153343937, 87),
        (2.6, 11.7, 2.536697363679078, 116),
        (1.7000000000000002, 9.25, 1.6673991622867872, 145),
        (2.4000000000000004, 11.15, 2.290959620277923, 174),
        (2.7, 11.7, 2.536697363679078, 203),
    ],
    ('influence-routing', 'pomc-wp'): [
        (2.5, 11.4, 2.269736629947876, 29),
        (3.0, 12.2, 2.7083736044184104, 58),
        (2.2, 11.2, 2.131261902382912, 87),
        (2.6, 12.0, 2.5698988768534456, 116),
        (1.7000000000000002, 10.3, 1.6692423781983687, 145),
        (2.4000000000000004, 11.4, 2.269736629947876, 174),
        (2.7, 12.0, 2.5698988768534456, 203),
    ],
    ('influence-routing', 'eamc'): [
        (2.5, 10.25, 2.3059161833053206, 29),
        (3.0, 11.25, 2.674792297419849, 58),
        (2.2, 9.9, 2.189876948146725, 87),
        (2.6, 10.2, 2.4809721354258154, 116),
        (1.7000000000000002, 8.7, 1.568896616206648, 145),
        (2.4000000000000004, 10.7, 2.2986383583234042, 174),
        (2.7, 10.7, 2.2986383583234042, 203),
    ],
    ('influence-routing', 'nsga2'): [
        (2.5, 10.85, 2.4800910634627504, 29),
        (3.0, 11.75, 2.8522607294759874, 58),
        (2.2, 10.3, 2.0621003962438857, 87),
        (2.6, 11.35, 2.487388629300682, 116),
        (1.7000000000000002, 9.8, 1.4619029758949185, 145),
        (2.4000000000000004, 10.9, 2.1982780954004872, 174),
        (2.7, 11.35, 2.487388629300682, 203),
    ],
}


def test_every_algorithm_is_pinned():
    assert sorted(GOLDEN) == sorted((i, a) for i in INSTANCES
                                    for a in ALL_ALGORITHMS)


@pytest.mark.parametrize("instance, name", sorted(GOLDEN))
def test_records_match_golden(instance, name):
    assert golden_records(instance, name) == GOLDEN[instance, name]


# ---------------------------------------------------------------------------
# the greedy scan against a rescan-every-round reference


def naive_greedy_extend(f, c, x_bits, budget, counter):
    """Alg. 1 body as written: every round evaluates x + v for every
    remaining v, even when the previous round added nothing."""
    x = x_bits.copy()
    remaining = list(np.flatnonzero(x == 0))
    cx = float(c(x))
    counter.increment()
    fx = float(f(x))
    while remaining:
        best_i, best_ratio = None, NEG_INF
        best_fv = best_cv = None
        for i, v in enumerate(remaining):
            x[v] = 1
            cv = float(c(x))
            counter.increment()
            fv = float(f(x))
            x[v] = 0
            dc = cv - cx
            gain = fv - fx
            ratio = (POS_INF if gain > 0 else 0.0) if dc == 0 else gain / dc
            if ratio > best_ratio:
                best_i, best_ratio = i, ratio
                best_fv, best_cv = fv, cv
        v = remaining.pop(best_i)
        if best_cv <= budget:
            x[v] = 1
            fx, cx = best_fv, best_cv
    return x, fx


@pytest.mark.parametrize("seed", range(12))
def test_greedy_extend_matches_naive_rescan(seed):
    rng = substream(seed, "golden", "greedy")
    n = int(rng.integers(4, 19))
    g = gen_random_digraph(n, float(rng.uniform(0.05, 0.4)), rng)
    f = SetCoverObjective.from_graph(g)
    c = (outdegree_cost(g, q=int(rng.integers(0, 3))) if seed % 2
         else random_linear_cost(n, rng))
    start = (rng.random(n) < 0.2).astype(np.uint8)
    budget = float(c(start)) + float(rng.uniform(0.0, 0.5)) * float(c(np.ones(n, np.uint8)))
    want_counter, got_counter = EvalCounter(), EvalCounter()
    want_x, want_fx = naive_greedy_extend(f, c, start, budget, want_counter)
    got_x, got_fx, _cx, _ = _greedy_extend(f, c, start, budget, got_counter)
    assert got_x.tolist() == want_x.tolist()
    assert got_fx == want_fx
    assert got_counter.count == want_counter.count


# ---------------------------------------------------------------------------
# POMC's cost-ordered population against the walks over the whole population


def two_walk_run(pomc, evals):
    """`Pomc.run` as the reference: every child, zero-flip copies included,
    is evaluated without a shortcut, refused when a member strictly
    dominates it (the dominance walk), added after dropping the members it
    weakly dominates (the keep walk), and the population is sorted by cost
    again.  Parent k is drawn from that cost-ordered population."""
    n = pomc.n
    cutoff = pomc.budget + 1
    done = 0
    while done < evals:
        chunk = min(4096, evals - done)
        sel = pomc.rng.random(chunk).tolist()
        flips = pomc.rng.random((chunk, n)) < 1.0 / n
        for j in range(chunk):
            members = list(zip(pomc._bits, pomc._f1, pomc._cost))
            k = int(sel[j] * len(members))
            child = members[k][0] ^ flips[j]
            f1, cost = evaluate(pomc.f, pomc.c, child, pomc.counter, cutoff)
            if any(m1 >= f1 and mc <= cost and (m1 > f1 or mc < cost)
                   for _b, m1, mc in members):
                continue
            members = [m for m in members if not (f1 >= m[1] and cost <= m[2])]
            members.append((child, f1, cost))
            members.sort(key=lambda m: m[2])
            pomc._bits[:] = [m[0] for m in members]
            pomc._f1[:] = [m[1] for m in members]
            pomc._cost[:] = [m[2] for m in members]
        done += chunk


def archive(pomc):
    return ([b.tolist() for b in pomc._bits], pomc._f1, pomc._cost)


@pytest.mark.parametrize("seed", range(6))
def test_pomc_archive_matches_two_walk_insert(seed):
    f, c, schedule = INSTANCES[sorted(INSTANCES)[seed % len(INSTANCES)]]()
    budgets = schedule.budgets()
    got = Pomc(f, c, budgets[0], substream(seed, "golden", "archive"))
    want = Pomc(f, c, budgets[0], substream(seed, "golden", "archive"))
    for b in budgets:  # stale members under a lower bound give cut-off copies
        got.set_budget(b)
        want.set_budget(b)
        got.run(300)
        two_walk_run(want, 300)
        assert archive(got) == archive(want)
        assert got.counter.count == want.counter.count


COSTS = {
    "cardinality": lambda g, rng: CardinalityCost(g.n),
    "random-linear": lambda g, rng: random_linear_cost(g.n, rng),
    "outdegree": lambda g, rng: outdegree_cost(g, q=int(rng.integers(0, 3))),
}


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 16), cost=st.sampled_from(sorted(COSTS)),
       seed=st.integers(0, 2**16),
       walk=st.lists(st.tuples(st.floats(0.0, 1.0), st.integers(0, 120)),
                     min_size=1, max_size=6))
def test_pomc_population_matches_two_walk_insert(n, cost, seed, walk):
    """Budgets given as shares of c(V) rise and fall, so members go stale
    and zero-flip copies of them are cut off.  After every run the
    population equals the reference's, and at every budget of a grid over
    [0, c(V)] the answer is the best member that fits."""
    rng = substream(seed, "golden", "population")
    g = gen_random_digraph(n, float(rng.uniform(0.1, 0.5)), rng)
    f, c = SetCoverObjective.from_graph(g), COSTS[cost](g, rng)
    total = float(c(np.ones(n, dtype=np.uint8)))
    got = Pomc(f, c, walk[0][0] * total, substream(seed, "golden", "pomc"))
    want = Pomc(f, c, walk[0][0] * total, substream(seed, "golden", "pomc"))
    grid = [total * i / 32 for i in range(33)]
    for share, evals in walk:
        got.set_budget(share * total)
        want.set_budget(share * total)
        got.run(evals)
        two_walk_run(want, evals)
        assert archive(got) == archive(want)
        assert got.counter.count == want.counter.count
        got.check_invariants()
        for b in grid + got._cost:
            best = max(f1 for f1, mc in zip(got._f1, got._cost) if mc <= b)
            assert got.answer_value(b)[0] == best


def _pomc_at_100(budget):
    g = gen_random_digraph(100, 0.05, substream(9, "golden", "blocks"))
    return Pomc(SetCoverObjective.from_graph(g), outdegree_cost(g, q=2),
                budget, substream(9, "golden", "blocks", "pomc"))


def test_pomc_blocked_draws_match_whole_chunk_draws():
    """At n = 100 a chunk's mutation rows come in blocks of 327, so 5000
    evaluations cross the 4096 chunk, many blocks and a partial last block
    of each chunk; the whole-chunk draws of `two_walk_run` must agree."""
    got, want = _pomc_at_100(40.0), _pomc_at_100(40.0)
    got.run(5000)
    two_walk_run(want, 5000)
    assert archive(got) == archive(want)
    assert len(got) > 1
    assert got.counter.count == want.counter.count == 5001
    assert got.rng.bit_generator.state == want.rng.bit_generator.state


def test_pomc_mutation_draws_stay_small():
    """One whole-chunk draw at n = 100 is 4096 x 100 float64 = 3.3 MB."""
    pomc = _pomc_at_100(40.0)
    tracemalloc.start()
    try:
        pomc.run(4096)
        _size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
