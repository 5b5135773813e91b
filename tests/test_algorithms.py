import copy
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynsel.algorithms import (AdaptiveGreedy, Eamc, Gga,
                               NoFeasibleMemberError, Nsga2, Pomc,
                               TooLargeError, _crowding, _eamc_g, _fronts,
                               _mutation_draws,
                               all_subsets, brute_force_front, evaluate, gga,
                               knapsack_opt_value)
from dynsel.core import NEG_INF, EvalCounter, ObjectiveFn, phi_ratio, substream
from dynsel.problems import (CardinalityCost, IcSpreadObjective,
                             InfluenceInstance, LinearCost, LinearObjective,
                             RoutingCost, SetCoverObjective,
                             gen_adversarial_knapsack, gen_bipartite_cover,
                             gen_er_graph, gen_random_digraph, outdegree_cost,
                             random_linear_cost)

from conftest import Calls, bits_of


# ---------------------------------------------------------------------------
# evaluation accounting


class TestEvaluate:
    def test_vector_cutoff_at_b_plus_one(self, g3_objective, card3):
        counter = EvalCounter()
        ok = evaluate(g3_objective, card3, bits_of(3, [0, 1]), counter,
                      1.0 + 1)  # cost 2 = B+1, kept
        assert ok == (3.0, 2.0)
        cut = evaluate(g3_objective, card3, bits_of(3, [0, 1, 2]), counter,
                       1.0 + 1)  # cost 3 > B+1
        assert cut == (NEG_INF, 3.0)
        assert counter.count == 2


# ---------------------------------------------------------------------------
# oracles


class TestBruteForce:
    def test_g3_budget_one(self, g3_objective, card3):
        assert brute_force_front(g3_objective, card3, [1.0]) == {1.0: 3.0}

    def test_adversarial_budget_three(self, knapsack4):
        # the special item plus one (2, 1) item: 3 + n/4 at n = 4
        assert brute_force_front(*knapsack4, [3.0]) == {3.0: 4.0}

    def test_zero_budget(self, g3_objective, card3):
        assert brute_force_front(g3_objective, card3, [0.0]) == {0.0: 0.0}

    def test_cap(self):
        f = LinearObjective(np.ones(25))
        with pytest.raises(TooLargeError):
            brute_force_front(f, CardinalityCost(25), [3.0])

    def test_subsets_in_mask_order(self):
        rows = list(all_subsets(13))  # two chunks of rows
        assert len(rows) == 1 << 13
        for mask, row in enumerate(rows):
            assert row.tolist() == [(mask >> i) & 1 for i in range(13)]

    def test_front_matches_pointwise(self, g3_objective, card3):
        front = brute_force_front(g3_objective, card3, [0.0, 1.0, 2.0, 3.0])
        for b, val in front.items():
            assert {b: val} == brute_force_front(g3_objective, card3, [b])

    @pytest.mark.parametrize("budget", [0.0, 1.0, 2.0, 3.0, 5.0])
    def test_knapsack_dp_agrees_with_enumeration(self, budget):
        f, c = gen_adversarial_knapsack(8)
        assert knapsack_opt_value(f, c, budget) == \
            brute_force_front(f, c, [budget])[budget]

    def test_knapsack_dp_rejects_fractional_costs(self):
        with pytest.raises(ValueError, match="integer costs"):
            knapsack_opt_value(LinearObjective([1.0]), LinearCost([0.5]), 1.0)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 10), seed=st.integers(0, 2**32 - 1),
           linear=st.booleans(),
           budgets=st.lists(st.floats(-1.0, 6.0), max_size=4))
    @example(n=6, seed=0, linear=True, budgets=[])
    @example(n=6, seed=0, linear=False, budgets=[-0.5, 2.0])
    def test_pruned_scan_matches_a_plain_enumeration(self, n, seed, linear,
                                                     budgets):
        rng = substream(seed, "pruned-scan")
        f = SetCoverObjective.from_graph(gen_random_digraph(n, 0.3, rng))
        c = random_linear_cost(n, rng) if linear else CardinalityCost(n)
        rows = [np.array([(k >> i) & 1 for i in range(n)], dtype=np.uint8)
                for k in range(1 << n)]
        costs = [float(c(bits)) for bits in rows]
        values = [float(f(bits)) for bits in rows]
        front = {}
        for b in budgets:
            fits = [k for k in range(1 << n) if costs[k] <= b]
            front[b] = max((values[k] for k in fits), default=NEG_INF)
        assert brute_force_front(f, c, budgets) == front

    def test_front_under_a_monotone_cost_prices_few_subsets(self):
        n, budgets = 13, [0.5, 1.0, 1.5, 2.0]
        f = SetCoverObjective.from_graph(
            gen_random_digraph(n, 0.2, substream(1, "prune-f")))
        # the weights `dynsel generate random-costs --n 13 --seed 1` writes
        c = Calls(random_linear_cost(n, substream(1, "generate", "random-costs")))
        brute_force_front(f, c, budgets)
        assert c.calls == 1 << n  # Calls declares no monotone: every subset
        c.calls, c.monotone = 0, True  # as the linear cost it counts does
        brute_force_front(f, c, budgets)
        # priced: the sets whose every immediate subset fits the top budget
        fits = [float(c.fn(bits)) <= budgets[-1] for bits in all_subsets(n)]
        candidates = sum(all(fits[k ^ (1 << i)] for i in range(n) if k >> i & 1)
                         for k in range(1 << n))
        assert c.calls == candidates < 2000


# ---------------------------------------------------------------------------
# GGA


class TestGga:
    def test_g3_budget_one(self, g3_objective, card3):
        bits, fval, cost = gga(g3_objective, card3, 1.0)
        assert bits.tolist() == [1, 0, 0]
        assert (fval, cost) == (g3_objective(bits), card3(bits)) == (3.0, 1.0)

    def test_adversarial_budget_one(self, knapsack4):
        bits, _f, _cost = gga(*knapsack4, 1.0)
        assert bits.nonzero()[0].tolist() == [4]

    def test_zero_budget(self, knapsack4):
        bits, fval, cost = gga(*knapsack4, 0.0)
        assert bits.sum() == 0 and (fval, cost) == (0.0, 0.0)

    def test_result_feasible(self):
        for seed in range(5):
            f = SetCoverObjective.from_graph(
                gen_random_digraph(10, 0.2, substream(seed, "gga-f")))
            c = random_linear_cost(10, substream(seed, "gga-c"))
            bits, fval, cost = gga(f, c, 1.5)
            assert c(bits) == cost <= 1.5 and f(bits) == fval

    def test_phi_guarantee_small_instances(self):
        phi = phi_ratio(1.0)
        for seed in range(10):
            n = 8 + seed % 5
            f = SetCoverObjective.from_graph(
                gen_random_digraph(n, 0.2, substream(seed, "gga-phi")))
            c = CardinalityCost(n)
            opt = brute_force_front(f, c, [3.0])[3.0]
            got = gga(f, c, 3.0)[1]
            assert got >= phi * opt - 1e-9

    def test_decreasing_objective_does_not_crash(self):
        # every marginal ratio is -10: a noisy Monte-Carlo f can do this
        class Decreasing(ObjectiveFn):
            n = 4

            def __call__(self, bits):
                return -10.0 * float(bits.sum())

        bits, _f, _cost = gga(Decreasing(), CardinalityCost(4), 2.0)
        assert bits.nonzero()[0].tolist() == [0]

    def test_relabeling_invariance(self):
        # instance with a unique argmax at every step
        f = LinearObjective([5.0, 3.0, 2.0, 1.0])
        c = LinearCost([1.0, 1.0, 1.0, 1.0])
        perm = [2, 0, 3, 1]
        f2 = LinearObjective([f.values[p] for p in perm])
        c2 = LinearCost([1.0] * 4)
        bits = gga(f, c, 2.0)[0]
        bits2 = gga(f2, c2, 2.0)[0]
        assert sorted(perm[i] for i in bits2.nonzero()[0]) == \
               bits.nonzero()[0].tolist()

    def test_replay_saves_calls_not_evaluations(self):
        g = gen_random_digraph(12, 0.25, substream(4, "gga-memo"))
        f = Calls(SetCoverObjective.from_graph(g))
        c = random_linear_cost(12, substream(5, "gga-memo"))
        budgets = [1.0, 1.3, 0.9, 1.0, 1.4]
        plain = EvalCounter()
        solver = Gga(f, c, budgets[0])
        for b in budgets:
            want = gga(f, c, b, counter=plain)
            calls = f.calls
            solver.set_budget(b)
            assert solver.answer_value() == want[1:]
            assert solver.counter.count == plain.count
        # 1.0 -> 1.4 replays the epochs whose addition 1.4 leaves as it was,
        # calling nothing, and scans only the epochs after the first it changes
        assert f.calls - calls < 12

    def test_nan_ratio_is_refused_by_element(self):
        class NanAtTwo(ObjectiveFn):
            n = 4

            def __call__(self, bits):
                return math.nan if bits[2] else float(bits.sum())

        with pytest.raises(ValueError, match="element 2 is NaN"):
            gga(NanAtTwo(), CardinalityCost(4), 2.0)


def _greedy_instance(kind, n, seed):
    """(f, c) on n elements: coverage with an out-degree or a random-linear
    cost, or influence spread with a routing cost, which is not monotone."""
    rng = substream(seed, "gga-replay", kind)
    g = gen_random_digraph(n, 0.3, rng)
    if kind == "outdegree":
        return SetCoverObjective.from_graph(g), outdegree_cost(g, q=1)
    if kind == "random-linear":
        return SetCoverObjective.from_graph(g), random_linear_cost(n, rng)
    influence = InfluenceInstance(g, simulations=8,
                                  routing_graph=gen_er_graph(n, 1.0, rng))
    return IcSpreadObjective(influence, rng), RoutingCost(influence)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["outdegree", "random-linear", "routing"]),
       n=st.integers(3, 11), seed=st.integers(0, 10_000),
       walk=st.lists(st.tuples(st.sampled_from(["up", "down", "repeat",
                                                "tested"]),
                               st.floats(0.0, 1.0)), min_size=1, max_size=12))
def test_gga_replay_equals_a_fresh_gga_at_every_change(kind, n, seed, walk):
    """Over a budget walk of increases, decreases, repeated budgets and
    budgets equal to a cost the last fill tested, `Gga` answers and counts
    what a fresh `gga` does, and a repeated budget calls neither f nor c."""
    f, c = _greedy_instance(kind, n, seed)
    f, c = Calls(f), Calls(c)
    span = float(c(np.ones(n, dtype=np.uint8))) / 2
    solver = Gga(f, c, 0.0)
    b = span / 2
    for step, (move, u) in enumerate(walk):
        if step:
            if move == "up":
                b += u * span
            elif move == "down":
                b = max(0.0, b - u * span)
            elif move == "tested":
                tested = sorted({cost for epoch in solver._trace
                                 for _f, cost in epoch.scan})
                b = tested[min(int(u * len(tested)), len(tested) - 1)]
        fresh = EvalCounter()
        want = gga(f, c, b, counter=fresh)[1:]
        f_calls, c_calls, count = f.calls, c.calls, solver.counter.count
        solver.set_budget(b)
        assert solver.answer_value() == want
        assert solver.counter.count - count == fresh.count
        if step and move == "repeat":
            assert (f.calls, c.calls) == (f_calls, c_calls)


# ---------------------------------------------------------------------------
# AdGGA


class TestAdaptiveGreedy:
    def test_adversarial_increase_trace(self, knapsack4):
        solver = AdaptiveGreedy(*knapsack4, 1.0)
        solver.set_budget(1.0)  # the fill takes the special item alone
        assert solver.x.nonzero()[0].tolist() == [4]
        values = []
        for b in (2.0, 3.0):
            solver.set_budget(b)
            values.append(solver.answer_value()[0])
        assert values == [3.25, 3.5]
        assert sorted(solver.x.nonzero()[0].tolist()) == [0, 1, 4]

    def test_unchanged_budget_keeps_state(self, knapsack4):
        solver = AdaptiveGreedy(*knapsack4, 1.0)
        solver.set_budget(1.0)
        before = solver.x.copy()
        solver.set_budget(1.0)
        assert np.array_equal(solver.x, before)

    def test_bipartite_decrease(self):
        solver = AdaptiveGreedy(gen_bipartite_cover(16), CardinalityCost(16), 16.0)
        solver.set_budget(16.0)  # the fill takes the full set
        assert solver.x.sum() == 16
        for b in range(15, 3, -1):
            solver.set_budget(float(b))
        assert solver.answer_value() == (8.0, 4.0)

    def test_singleton_answer_does_not_overwrite_state(self):
        # the ratio-greedy fill takes element 0 (ratio 2) and then cannot
        # add element 1; the answer is the singleton {1} of value 3, but
        # the working set stays {0}
        solver = AdaptiveGreedy(LinearObjective([2.0, 3.0]),
                                LinearCost([1.0, 2.0]), 2.0)
        solver.set_budget(2.0)
        assert solver.answer_value() == (3.0, 2.0)
        assert solver.x.nonzero()[0].tolist() == [0]

    def test_nan_ratio_in_a_strip_is_refused_by_element(self):
        # the fill reaches {0, 1, 2, 3} without calling f on a 3-set that
        # lacks element 0; the strip's first scan removes 0 and sees NaN
        class NanWithoutZero(ObjectiveFn):
            n = 4

            def __call__(self, bits):
                if bits.sum() == 3 and not bits[0]:
                    return math.nan
                return float(bits.sum())

        solver = AdaptiveGreedy(NanWithoutZero(), CardinalityCost(4), 4.0)
        solver.set_budget(4.0)
        assert solver.answer_value() == (4.0, 4.0)
        with pytest.raises(ValueError, match="element 0 is NaN"):
            solver.set_budget(3.0)

    def test_answer_feasible_after_decrease(self):
        for seed in range(5):
            n = 10
            f = SetCoverObjective.from_graph(
                gen_random_digraph(n, 0.25, substream(seed, "ad-f")))
            c = random_linear_cost(n, substream(seed, "ad-c"))
            solver = AdaptiveGreedy(f, c, 3.0)
            for b in (3.0, 2.0, 1.0, 0.5):
                solver.set_budget(b)
                fval, cost = solver.answer_value()
                assert cost <= b + 1e-12

    def test_answers_only_its_current_bound(self, knapsack4):
        solver = AdaptiveGreedy(*knapsack4, 1.0)
        with pytest.raises(NoFeasibleMemberError):
            solver.answer_value()  # no change made yet
        solver.set_budget(1.0)
        assert solver.answer_value(1.0) == solver.answer_value()
        with pytest.raises(ValueError):
            solver.answer_value(2.0)


# ---------------------------------------------------------------------------
# POMC


class TestPomc:
    def make(self, g3_objective, card3, budget=3.0, seed=0):
        return Pomc(g3_objective, card3, budget, substream(seed, "pomc"))

    def test_initial_population_is_empty_set(self, g3_objective, card3):
        p = self.make(g3_objective, card3)
        assert len(p) == 1 and p._bits[0].sum() == 0

    def test_over_budget_offspring_rejected(self, g3_objective, card3):
        p = self.make(g3_objective, card3, budget=1.0)
        f1, cost = evaluate(g3_objective, card3, bits_of(3, [0, 1, 2]),
                            p.counter, p.budget + 1)  # cost 3 > B+1
        assert f1 == NEG_INF
        p._insert(bits_of(3, [0, 1, 2]), f1, cost)
        assert len(p) == 1  # dominated by the all-zeros member

    def test_duplicate_vector_newcomer_wins(self, g3_objective, card3):
        p = self.make(g3_objective, card3)
        a = bits_of(3, [1])
        b = bits_of(3, [2])  # same (f=1, cost=1) vector
        p._insert(a, 1.0, 1.0)
        p._insert(b, 1.0, 1.0)
        members = [bits.tolist() for bits in p._bits]
        assert b.tolist() in members and a.tolist() not in members

    def test_g3_front_and_answers(self, g3_objective, card3):
        p = self.make(g3_objective, card3, budget=3.0)
        p.run(500)
        vectors = sorted(zip(p._f1, p._cost))
        assert (0.0, 0.0) in vectors and (3.0, 1.0) in vectors
        assert p.answer_value(1.0) == (3.0, 1.0)  # {0}, the only value-3 single
        assert p.answer_value(0.0) == (0.0, 0.0)

    def test_answer_after_budget_collapse(self, g3_objective, card3):
        p = self.make(g3_objective, card3, budget=3.0)
        p.run(300)
        p.set_budget(0.0)
        assert p.answer_value() == (0.0, 0.0)  # all-zeros member is never removed

    def test_no_feasible_member_error(self, g3_objective, card3):
        p = self.make(g3_objective, card3)
        with pytest.raises(NoFeasibleMemberError):
            p.answer_value(-1.0)

    def test_budget_change_is_free_and_keeps_population(self, g3_objective, card3):
        p = self.make(g3_objective, card3, budget=3.0)
        p.run(200)
        count = p.counter.count
        state = [(b.tobytes(), f1, cost)
                 for b, f1, cost in zip(p._bits, p._f1, p._cost)]
        p.set_budget(1.0)
        after = [(b.tobytes(), f1, cost)
                 for b, f1, cost in zip(p._bits, p._f1, p._cost)]
        assert p.counter.count == count and state == after

    def test_evaluation_count_equals_steps(self, g3_objective, card3):
        p = self.make(g3_objective, card3)
        base = p.counter.count
        for _ in range(37):
            p.run(1)
        p.run(63)
        assert p.counter.count - base == 100

    def test_invariants_after_steps(self, g3_objective, card3):
        p = self.make(g3_objective, card3)
        for _ in range(200):
            p.run(1)
            p.check_invariants()

    @pytest.mark.parametrize("f1, cost", [
        ([0.0, 3.0, 2.0], [0.0, 2.0, 1.0]),  # non-dominated, but unsorted
        ([0.0, 3.0, 2.0], [0.0, 1.0, 2.0]),  # (2, 2) dominated by (3, 1)
        ([0.0, 1.0, 2.0], [0.0, 1.0, 1.0]),  # (1, 1) dominated by (2, 1)
        ([0.0, 1.0, 1.0], [0.0, 1.0, 2.0]),  # (1, 2) dominated by (1, 1)
        ([0.0, 1.0, NEG_INF], [0.0, 1.0, 3.0]),  # a -inf member
        ([NEG_INF], [0.0]),
    ])
    def test_invariants_refuse_a_broken_staircase(self, g3_objective, card3,
                                                  f1, cost):
        p = self.make(g3_objective, card3)
        p._bits = [np.zeros(3, dtype=np.uint8)] * len(f1)
        p._f1, p._cost = f1, cost
        with pytest.raises(AssertionError):
            p.check_invariants()


# ---------------------------------------------------------------------------
# zero-flip offspring: counted, without calling f or c


class ScriptedRng:
    """POMC's and EAMC's draws: every parent selection returns `sel`, every
    mutation mask flips nothing."""

    def __init__(self, sel):
        self.sel = sel

    def random(self, size):
        if isinstance(size, tuple):
            return np.full(size, 0.99)
        return np.full(size, self.sel)


def _zero_flips(seed, k, n):
    """Children among the first k of POMC's or EAMC's draws that flip no bit."""
    draws = _mutation_draws(substream(seed, "zero-flip"), k, n)
    return sum(not flipped for _u, _flips, flipped in draws)


@pytest.mark.parametrize("evals", [0, 1, 4095, 4097])
def test_mutation_draws_yield_evals_items_of_the_whole_chunk_stream(evals):
    """At n = 100 the blocks hold 327 rows, which does not divide 4096, so
    4097 draws cross a chunk edge and a partial last block."""
    n = 100
    got_rng = substream(14, "draws")
    want_rng = substream(14, "draws")
    got = list(_mutation_draws(got_rng, evals, n))
    assert len(got) == evals
    done = 0
    while done < evals:
        chunk = min(4096, evals - done)
        sel = want_rng.random(chunk)
        flips = want_rng.random((chunk, n)) < 1.0 / n
        for j, (u, row, flipped) in enumerate(got[done:done + chunk]):
            assert u == sel[j]
            assert row.tolist() == flips[j].tolist()
            assert flipped == bool(flips[j].any())
        done += chunk
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


class TestZeroFlip:
    N = 8

    def instance(self):
        g = gen_random_digraph(self.N, 0.3, substream(2, "zero-flip"))
        f = SetCoverObjective.from_graph(g)
        c = random_linear_cost(self.N, substream(3, "zero-flip"))
        return Calls(f), Calls(c)

    @pytest.mark.parametrize("budget", [0.5, 1.5, 4.0])
    def test_pomc_counts_every_child_and_skips_f_on_zero_flips(self, budget):
        f, c = self.instance()
        k = 1500
        p = Pomc(f, c, budget, substream(11, "zero-flip"))
        zero = _zero_flips(11, k, self.N)
        base, f0, c0 = p.counter.count, f.calls, c.calls
        p.run(k)
        assert zero > k // 4  # (1 - 1/8)^8 ~ 0.34 of the children
        assert p.counter.count - base == k
        assert c.calls - c0 == k - zero
        assert f.calls - f0 <= k - zero
        p.check_invariants()

    @pytest.mark.parametrize("budget", [0.5, 1.5, 4.0])
    def test_eamc_counts_every_child_and_skips_f_on_zero_flips(self, budget):
        f, c = self.instance()
        k = 1500
        e = Eamc(f, c, budget, substream(12, "zero-flip"))
        zero = _zero_flips(12, k, self.N)
        base, f0, c0 = e.counter.count, f.calls, c.calls
        e.run(k)
        assert zero > k // 4
        assert e.counter.count - base == k
        assert c.calls - c0 == k - zero
        assert f.calls - f0 <= k - zero
        e.check_invariants()

    def front_pomc(self):
        """POMC holding the whole front of values (1, 2, 4) under
        cardinality cost: {} , {2}, {1,2}, {0,1,2} at costs 0..3."""
        f, c = Calls(LinearObjective([1.0, 2.0, 4.0])), Calls(CardinalityCost(3))
        p = Pomc(f, c, 3.0, substream(13, "zero-flip"))
        p.run(400)
        assert sorted(zip(p._f1, p._cost)) == [(0.0, 0.0), (4.0, 1.0),
                                               (6.0, 2.0), (7.0, 3.0)]
        return p, f, c

    @pytest.mark.parametrize("parent_cost", [3.0, 2.0])
    def test_pomc_zero_flip_child_is_a_count(self, parent_cost):
        """Under a lowered bound a copy of a stale parent (cost 3 above
        B + 1 = 2) and of a parent within it (cost 2) alike are one counted
        evaluation with no f or c call, and the population is left exactly
        as it was."""
        p, f, c = self.front_pomc()
        p.set_budget(1.0)
        i = p._cost.index(parent_cost)
        p.rng = ScriptedRng((i + 0.5) / len(p))

        def state():
            return [(b.tobytes(), f1, cost)
                    for b, f1, cost in zip(p._bits, p._f1, p._cost)]

        before = state()
        base, f0, c0 = p.counter.count, f.calls, c.calls
        p.run(1)
        assert state() == before
        assert p.counter.count - base == 1
        assert (f.calls - f0, c.calls - c0) == (0, 0)

    def test_eamc_zero_flip_copy_of_v_can_become_u(self):
        """At B = 10, g ranks {0} (f 1, cost 0.5) above {1} (f 1.8, cost 1),
        so {0} is bin 1's U and {1} its V.  At B = 1, g ranks {1} higher;
        the bins are not re-ranked by the change, but a zero-flip copy of V
        is offered with V's stored (f, cost) and becomes U, with one
        counted evaluation and no f or c call."""
        f = Calls(LinearObjective([1.0, 1.8]))
        c = Calls(LinearCost([0.5, 1.0]))
        e = Eamc(f, c, 10.0, substream(0, "zero-flip"))
        e._insert(bits_of(2, [0]), 1.0, 0.5)
        e._insert(bits_of(2, [1]), 1.8, 1.0)
        u, v = e.bins[1]
        assert (u[0].tolist(), v[0].tolist()) == ([1, 0], [0, 1])
        e.set_budget(1.0)
        assert e.bins[1][0] is u and e._members[2] is v
        e.rng = ScriptedRng(2.5 / len(e))
        base, f0, c0 = e.counter.count, f.calls, c.calls
        e.run(1)
        new_u, new_v = e.bins[1]
        assert new_u[0] is v[0] and new_u[1:] == (1.8, 1.0) and new_v is v
        assert e.counter.count - base == 1
        assert (f.calls - f0, c.calls - c0) == (0, 0)


# ---------------------------------------------------------------------------
# EAMC


class TestEamc:
    def make(self, f, c, budget=2.0, seed=0):
        return Eamc(f, c, budget, substream(seed, "eamc"))

    def test_g_numeric(self):
        assert _eamc_g(3.0, 1.0, 1, 1.0) == pytest.approx(
            3.0 / (1.0 - math.exp(-1.0)), abs=1e-4)
        assert _eamc_g(3.0, 1.0, 1, 1.0) == pytest.approx(4.7464, abs=1e-3)

    def test_g_of_empty_is_f(self):
        assert _eamc_g(0.0, 0.0, 0, 2.0) == 0.0

    def test_infeasible_offspring_ignored(self, g3_objective, card3):
        e = self.make(g3_objective, card3, budget=0.0)
        before = len(e)
        e.run(50)
        assert len(e) == before == 1

    def test_tie_does_not_replace(self, g3_objective, card3):
        e = self.make(g3_objective, card3)
        entry0 = e.bins[0]
        e.run(1)  # whatever happens, bin(0) holds the original all-zeros
        assert e.bins[0][0] is entry0[0] or e.bins[0][0][1] > entry0[0][1]

    def test_set_budget_removes_infeasible(self, g3_objective):
        c = LinearCost([1.5, 0.5, 0.5])
        e = self.make(g3_objective, c, budget=2.0, seed=3)
        e.run(300)
        costs_before = [cost for (_b, _f, cost) in e._members]
        assert any(cost > 1.0 for cost in costs_before)
        e.set_budget(1.0)
        assert all(cost <= 1.0 for (_b, _f, cost) in e._members)

    def test_increase_removes_nothing(self, g3_objective, card3):
        e = self.make(g3_objective, card3, budget=1.0)
        e.run(200)
        before = len(e)
        e.set_budget(2.0)
        assert len(e) == before

    def test_change_to_zero_keeps_only_empty(self, g3_objective, card3):
        e = self.make(g3_objective, card3, budget=3.0)
        e.run(200)
        e.set_budget(0.0)
        assert list(e.bins) == [0]
        assert e.answer_value() == (0.0, 0.0)

    def test_zero_budget_with_zero_cost_element(self):
        # g's exp(-c / B) is 0 / 0 for a zero-cost member at B = 0
        f = LinearObjective([1.0, 2.0, 3.0])
        e = self.make(f, LinearCost([0.0, 1.0, 1.0]), budget=0.0)
        e.run(200)
        assert e.answer_value() == (1.0, 0.0)
        assert _eamc_g(1.0, 0.0, 1, 0.0) == math.inf

    def test_population_cap_and_feasibility(self, g3_objective):
        n = 12
        f = SetCoverObjective.from_graph(gen_random_digraph(n, 0.2, substream(1, "ec")))
        c = random_linear_cost(n, substream(2, "ec"))
        e = Eamc(f, c, 2.0, substream(3, "ec"))
        for _ in range(500):
            e.run(1)
            e.check_invariants()


# ---------------------------------------------------------------------------
# NSGA-II


def deb_sort(objs):
    """Deb's fast non-dominated sort, O(m²), the oracle for `_fronts`.
    objs: list of (maximize, minimize) pairs; returns every front (index
    lists) in Deb's order."""
    m = len(objs)
    dominated_by = [[] for _ in range(m)]
    dom_count = [0] * m
    fronts = [[]]
    for i in range(m):
        fi, ci = objs[i]
        for j in range(i + 1, m):
            fj, cj = objs[j]
            if fi >= fj and ci <= cj and (fi > fj or ci < cj):
                dominated_by[i].append(j)
                dom_count[j] += 1
            elif fj >= fi and cj <= ci and (fj > fi or cj < ci):
                dominated_by[j].append(i)
                dom_count[i] += 1
        if dom_count[i] == 0:
            fronts[0].append(i)
    k = 0
    while fronts[k]:
        nxt = []
        for i in fronts[k]:
            for j in dominated_by[i]:
                dom_count[j] -= 1
                if dom_count[j] == 0:
                    nxt.append(j)
        fronts.append(nxt)
        k += 1
    return fronts[:-1]


def two_sort_crowding(objs, front):
    """Crowding distances with one sort per objective, the oracle for
    `_crowding`; {index: distance}."""
    dist = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: math.inf for i in front}
    for dim in range(2):
        ordered = sorted(front, key=lambda i: objs[i][dim])
        lo, hi = objs[ordered[0]][dim], objs[ordered[-1]][dim]
        dist[ordered[0]] = dist[ordered[-1]] = math.inf
        span = hi - lo
        if span <= 0:
            continue
        for a in range(1, len(ordered) - 1):
            i = ordered[a]
            if dist[i] != math.inf:
                dist[i] += (objs[ordered[a + 1]][dim]
                            - objs[ordered[a - 1]][dim]) / span
    return dist


def random_pools(count):
    """Seeded (f, c) pools of 2-40 pairs from few levels, so ties and
    duplicate pairs are common; about a third of the raw costs exceed the
    cap B + delta = 2 and are penalised as `Nsga2._penalized` does."""
    f3 = LinearObjective([3.0, 1.0, 1.0])
    solver = Nsga2(f3, CardinalityCost(3), 1.0, substream(0, "pools"),
                   delta_cap=1.0)
    rng = substream(1, "pools")
    for _ in range(count):
        m = int(rng.integers(2, 41))
        levels = int(rng.integers(1, 7))
        raw_f = rng.integers(0, levels, size=m).tolist()
        raw_c = rng.integers(0, levels, size=m).tolist()
        pairs = [solver._penalized(float(fv), float(cv))
                 for fv, cv in zip(raw_f, raw_c)]
        yield [p[0] for p in pairs], [p[1] for p in pairs]


class TestNsga2:
    def make(self, f, c, budget=2.0, seed=0, **kw):
        kw.setdefault("delta_cap", 1.0)
        return Nsga2(f, c, budget, substream(seed, "nsga"), **kw)

    def test_sort_two_point_front(self):
        fronts = _fronts([3.0, 2.0], [1.0, 2.0], 2)
        assert fronts == [[0], [1]] == deb_sort([(3.0, 1.0), (2.0, 2.0)])

    def test_sort_incomparable(self):
        fronts = _fronts([3.0, 2.0], [2.0, 1.0], 2)
        assert fronts == [[0, 1]] == deb_sort([(3.0, 2.0), (2.0, 1.0)])

    def test_sort_stops_at_the_front_that_reaches_size(self):
        f, c = [4.0, 3.0, 2.0, 1.0], [1.0, 1.0, 1.0, 1.0]  # a chain
        assert _fronts(f, c, 1) == [[0]]
        assert _fronts(f, c, 3) == [[0], [1], [2]]
        assert _fronts(f, c, 9) == [[0], [1], [2], [3]]

    def test_sweep_matches_deb_order_on_random_pools(self):
        """Ranks and Deb's order within each front, on pools with
        duplicates and penalised pairs: the result is the prefix of the
        oracle's fronts that first holds `size` members."""
        checked = 0
        for f, c in random_pools(3000):
            want = deb_sort(list(zip(f, c)))
            m = len(f)
            for size in (1, m // 2, 20, m):
                got = _fronts(f, c, size)
                assert got == want[:len(got)]
                held = [len(front) for front in got]
                assert sum(held) >= min(size, m)
                assert sum(held[:-1]) < size
            checked += len(want) > 2
        assert checked > 1000  # most pools hold three fronts or more

    def test_one_sort_crowding_equals_two_sorts(self):
        for f, c in random_pools(1000):
            objs = list(zip(f, c))
            out = [None] * len(f)
            for front in deb_sort(objs):
                _crowding(f, c, front, out)
                want = two_sort_crowding(objs, front)
                assert [out[i] for i in front] == [want[i] for i in front]

    def test_penalty_beyond_cap(self, g3_objective, card3):
        solver = self.make(g3_objective, card3, budget=1.0)
        eps = 0.5
        f_raw, c_raw = 3.0, 1.0 + 1.0 + eps
        fN, cN = solver._penalized(f_raw, c_raw)
        assert cN == pytest.approx(c_raw + (3 * solver.c_max + 1) * eps)
        assert fN == pytest.approx(f_raw - (3 * solver.f_max + 1) * eps)

    def test_within_cap_unpenalized(self, g3_objective, card3):
        solver = self.make(g3_objective, card3, budget=1.0)
        assert solver._penalized(3.0, 2.0) == (3.0, 2.0)  # cost = B + delta

    def test_population_size_constant(self, g3_objective, card3):
        solver = self.make(g3_objective, card3)
        for _ in range(5):
            solver.generation()
            assert len(solver.parents) == solver.pop_size
            assert solver.parents.shape == (solver.pop_size, 3)
            for values in (solver.f_raw, solver.c_raw, solver.rank,
                           solver.crowding, solver.is_seed):
                assert len(values) == solver.pop_size

    @pytest.mark.parametrize("seed", range(6))
    def test_seed_copies_share_rank_and_crowding(self, seed):
        """The constructor's pop_size seed copies are one individual: every
        surviving copy has one rank and one crowding distance."""
        n = 10
        f = SetCoverObjective.from_graph(
            gen_random_digraph(n, 0.2, substream(seed, "ns-seed")))
        c = random_linear_cost(n, substream(seed, "ns-seed-c"))
        solver = Nsga2(f, c, 1.0, substream(seed, "ns-seed-run"),
                       delta_cap=0.5)
        for generation in range(4):
            solver.generation()
            copies = [i for i, s in enumerate(solver.is_seed) if s]
            assert all(solver.parents[i].sum() == 0 for i in copies)
            assert len({(solver.rank[i], solver.crowding[i])
                        for i in copies}) <= 1
            if generation == 0:
                assert len(copies) >= 2  # the first generation keeps copies

    def test_elitism_best_feasible_non_decreasing(self):
        n = 10
        f = SetCoverObjective.from_graph(gen_random_digraph(n, 0.2, substream(4, "ns")))
        c = random_linear_cost(n, substream(5, "ns"))
        solver = Nsga2(f, c, 1.5, substream(6, "ns"), delta_cap=0.5)
        best = solver.answer_value()[0]
        for _ in range(30):
            solver.generation()
            now = solver.answer_value()[0]
            assert now >= best
            best = now

    def test_generation_consumes_pop_size_evals(self, g3_objective, card3):
        solver = self.make(g3_objective, card3)
        base = solver.counter.count
        solver.generation()
        assert solver.counter.count - base == solver.pop_size

    def test_run_spends_exactly_evals(self, g3_objective, card3):
        solver = self.make(g3_objective, card3)
        base = solver.counter.count
        solver.run(37)  # one whole generation, then 17 offspring
        assert solver.counter.count - base == 37
        assert len(solver.parents) == solver.pop_size

    @pytest.mark.parametrize("count", [20, 7])
    def test_offspring_follow_the_scalar_operators(self, count):
        """Every child rebuilt from the same draws by the scalar rules:
        binary tournaments by rank, then crowding, ties to the first pick;
        uniform crossover at rate 0.9, else a copy of p1; bit flips at 1/n.
        The draws are taken here as three `random` calls, the stream of
        `_make_offspring`'s one."""
        n = 12
        f = SetCoverObjective.from_graph(gen_random_digraph(n, 0.2, substream(7, "ns")))
        solver = Nsga2(f, random_linear_cost(n, substream(8, "ns")), 1.5,
                       substream(9, "ns"), delta_cap=0.5)
        solver.run(60)
        # ranks 0-2 and crowdings with ties, +inf among them
        solver.rank = [i % 3 for i in range(solver.pop_size)]
        solver.crowding = [math.inf if i % 4 == 0 else i % 5
                           for i in range(solver.pop_size)]
        parents = solver.parents.copy()
        rng = copy.deepcopy(solver.rng)
        base = solver.counter.count
        children, child_f, child_c = solver._make_offspring(count)
        assert solver.counter.count - base == count
        picks = rng.integers(solver.pop_size, size=(count, 4))
        coins = rng.random(count)
        takes = rng.random((count, n)) < 0.5
        flips = rng.random((count, n)) < 1.0 / n
        assert rng.random() == solver.rng.random()

        def tournament(i, j):
            ri, rj = solver.rank[i], solver.rank[j]
            if ri != rj:
                return parents[i] if ri < rj else parents[j]
            return (parents[i] if solver.crowding[i] >= solver.crowding[j]
                    else parents[j])

        assert len(children) == len(child_f) == len(child_c) == count
        for k, child in enumerate(children):
            p1 = tournament(picks[k, 0], picks[k, 1])
            p2 = tournament(picks[k, 2], picks[k, 3])
            if coins[k] < 0.9:
                want = np.where(takes[k], p1, p2)
            else:
                want = p1.copy()
            want ^= flips[k]
            assert child.tolist() == want.tolist()
            assert (child_f[k], child_c[k]) == (float(f(want)),
                                                float(solver.c(want)))

    def test_whole_generations_draw_the_same_stream(self, g3_objective, card3):
        a = self.make(g3_objective, card3, seed=3)
        b = self.make(g3_objective, card3, seed=3)
        a.run(60)
        for _ in range(3):
            b.generation()
        assert a.parents.tolist() == b.parents.tolist()
        assert a.rng.random() == b.rng.random()

    def test_no_feasible_parent_falls_back_to_seed(self, g3_objective, card3):
        solver = self.make(g3_objective, card3, budget=2.0)
        solver.run(100)
        calls = solver.counter.count
        assert solver.answer_value(-1.0) == (0.0, 0.0)  # the empty set
        assert solver.counter.count == calls

    def test_answer_feasible(self, g3_objective, card3):
        solver = self.make(g3_objective, card3, budget=1.0)
        solver.run(200)
        _f, cost = solver.answer_value()
        assert cost <= 1.0
