"""Golden outputs: every algorithm's run records on two small fixed instances.

Speed work on the solvers must leave every counted number, every random draw
and every output byte unchanged.  These records pin (budget, best_f,
best_cost, evaluations) per change, so any drift in an evaluation count or a
random stream fails here.  `tau` is not a multiple of NSGA-II's population
size, so partial generations are covered too.
"""

import numpy as np
import pytest

from dynsel.algorithms import _greedy_extend
from dynsel.core import NEG_INF, POS_INF, EvalCounter, substream
from dynsel.dynamics import ALL_ALGORITHMS, BudgetSchedule, run_dynamic
from dynsel.problems import (CoverageInstance, gen_random_digraph,
                             outdegree_cost, random_linear_cost)

RUN_SEED = 7
PARAMS = {"warmup_evals": 150}


def _outdegree_instance():
    g = gen_random_digraph(24, 0.15, substream(3, "golden", "outdegree"))
    schedule = BudgetSchedule(b_init=8.0, b_min=3.0, b_max=14.0,
                              deltas=[3.0, -4.0, 2.0, -5.0, 4.0, 1.0],
                              tau=37, r=5.0)
    return CoverageInstance(g).objective, outdegree_cost(g, q=2), schedule


def _random_linear_instance():
    g = gen_random_digraph(16, 0.2, substream(4, "golden", "random-linear"))
    c = random_linear_cost(16, substream(5, "golden", "random-linear"))
    schedule = BudgetSchedule(b_init=1.0, b_min=0.2, b_max=2.5,
                              deltas=[0.3, -0.5, 0.2, -0.4, 0.6],
                              tau=23, r=0.6)
    return CoverageInstance(g).objective, c, schedule


INSTANCES = {
    "coverage-outdegree": _outdegree_instance,
    "coverage-random-linear": _random_linear_instance,
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
        (8.0, 16.0, 8.0, 37),
        (11.0, 18.0, 10.0, 74),
        (7.0, 14.0, 7.0, 111),
        (9.0, 17.0, 9.0, 148),
        (4.0, 10.0, 4.0, 185),
        (8.0, 16.0, 8.0, 222),
        (9.0, 17.0, 9.0, 259),
    ],
    ('coverage-outdegree', 'pomc-wp'): [
        (8.0, 15.0, 8.0, 37),
        (11.0, 17.0, 10.0, 74),
        (7.0, 14.0, 6.0, 111),
        (9.0, 16.0, 9.0, 148),
        (4.0, 10.0, 4.0, 185),
        (8.0, 16.0, 8.0, 222),
        (9.0, 17.0, 9.0, 259),
    ],
    ('coverage-outdegree', 'eamc'): [
        (8.0, 16.0, 8.0, 37),
        (11.0, 16.0, 8.0, 74),
        (7.0, 15.0, 7.0, 111),
        (9.0, 15.0, 7.0, 148),
        (4.0, 11.0, 4.0, 185),
        (8.0, 14.0, 7.0, 222),
        (9.0, 15.0, 7.0, 259),
    ],
    ('coverage-outdegree', 'nsga2'): [
        (8.0, 16.0, 8.0, 37),
        (11.0, 16.0, 8.0, 74),
        (7.0, 15.0, 7.0, 111),
        (9.0, 16.0, 8.0, 148),
        (4.0, 10.0, 4.0, 185),
        (8.0, 15.0, 8.0, 222),
        (9.0, 17.0, 9.0, 259),
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
        (1.0, 13.0, 0.8573690080863146, 23),
        (1.3, 14.0, 0.9198539462406712, 46),
        (0.8, 12.0, 0.4195804448903334, 69),
        (1.0, 14.0, 0.9198539462406712, 92),
        (0.6, 13.0, 0.5559441339133286, 115),
        (1.2, 14.0, 0.9198539462406712, 138),
    ],
    ('coverage-random-linear', 'pomc-wp'): [
        (1.0, 13.0, 0.8834765449676238, 23),
        (1.3, 14.0, 0.883617554364137, 46),
        (0.8, 12.0, 0.6809839876143846, 69),
        (1.0, 14.0, 0.883617554364137, 92),
        (0.6, 10.0, 0.32050711867407355, 115),
        (1.2, 14.0, 0.883617554364137, 138),
    ],
    ('coverage-random-linear', 'eamc'): [
        (1.0, 12.0, 0.9027707565154641, 23),
        (1.3, 12.0, 0.9027707565154641, 46),
        (0.8, 11.0, 0.5428104483492274, 69),
        (1.0, 13.0, 0.7454440150989798, 92),
        (0.6, 11.0, 0.5428104483492274, 115),
        (1.2, 13.0, 1.075414646661552, 138),
    ],
    ('coverage-random-linear', 'nsga2'): [
        (1.0, 14.0, 0.8828974299158204, 23),
        (1.3, 14.0, 0.8828974299158204, 46),
        (0.8, 12.0, 0.3534515765600894, 69),
        (1.0, 14.0, 0.8828974299158204, 92),
        (0.6, 13.0, 0.32064812807058674, 115),
        (1.2, 15.0, 1.0853899872690598, 138),
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
    f = CoverageInstance(g).objective
    c = (outdegree_cost(g, q=int(rng.integers(0, 3))) if seed % 2
         else random_linear_cost(n, rng))
    start = (rng.random(n) < 0.2).astype(np.uint8)
    budget = float(c(start)) + float(rng.uniform(0.0, 0.5)) * float(c(np.ones(n, np.uint8)))
    want_counter, got_counter = EvalCounter(), EvalCounter()
    want_x, want_fx = naive_greedy_extend(f, c, start, budget, want_counter)
    got_x, got_fx, _ = _greedy_extend(f, c, start, budget, got_counter)
    assert got_x.tolist() == want_x.tolist()
    assert got_fx == want_fx
    assert got_counter.count == want_counter.count
