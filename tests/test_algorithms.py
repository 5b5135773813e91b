import math

import numpy as np
import pytest

from dynsel.algorithms import (AdaptiveGreedy, Eamc, Gga,
                               NoFeasibleMemberError, Nsga2, Pomc, ScanMemo,
                               TooLargeError, _eamc_g,
                               _fast_nondominated_sort, all_subsets,
                               brute_force_front, brute_force_opt, evaluate,
                               gga, knapsack_opt_value)
from dynsel.core import NEG_INF, EvalCounter, ObjectiveFn, phi_ratio, substream
from dynsel.problems import (CardinalityCost, CoverageInstance, LinearCost,
                             LinearObjective, gen_adversarial_knapsack,
                             gen_bipartite_cover, gen_random_digraph,
                             random_linear_cost)

from conftest import bits_of


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
        bits, val = brute_force_opt(g3_objective, card3, 1.0)
        assert val == 3.0 and bits.tolist() == [1, 0, 0]

    def test_adversarial_budget_three(self, knapsack4):
        bits, val = brute_force_opt(knapsack4.objective, knapsack4.cost, 3.0)
        assert val == 4.0  # 3 + n/4 at n=4
        assert bits[4] == 1  # special item plus one (2,1) item

    def test_zero_budget(self, g3_objective, card3):
        bits, val = brute_force_opt(g3_objective, card3, 0.0)
        assert bits.sum() == 0 and val == 0.0

    def test_cap(self):
        f = LinearObjective(np.ones(25))
        with pytest.raises(TooLargeError):
            brute_force_opt(f, CardinalityCost(25), 3.0)

    def test_subsets_in_mask_order(self):
        rows = list(all_subsets(13))  # two chunks of rows
        assert len(rows) == 1 << 13
        for mask, row in enumerate(rows):
            assert row.tolist() == [(mask >> i) & 1 for i in range(13)]

    def test_front_matches_pointwise(self, g3_objective, card3):
        front = brute_force_front(g3_objective, card3, [0.0, 1.0, 2.0, 3.0])
        for b, val in front.items():
            assert val == brute_force_opt(g3_objective, card3, b)[1]

    @pytest.mark.parametrize("budget", [0.0, 1.0, 2.0, 3.0, 5.0])
    def test_knapsack_dp_agrees_with_enumeration(self, budget):
        inst = gen_adversarial_knapsack(8)
        dp = knapsack_opt_value(inst, budget)
        _sol, enum = brute_force_opt(inst.objective, inst.cost, budget)
        assert dp == enum

    def test_knapsack_dp_rejects_fractional_costs(self):
        from dynsel.problems import KnapsackInstance

        inst = KnapsackInstance([(0.5, 1.0)])
        with pytest.raises(ValueError):
            knapsack_opt_value(inst, 1.0)


# ---------------------------------------------------------------------------
# GGA


class TestGga:
    def test_g3_budget_one(self, g3_objective, card3):
        bits, fval, cost = gga(g3_objective, card3, 1.0)
        assert bits.tolist() == [1, 0, 0]
        assert (fval, cost) == (g3_objective(bits), card3(bits)) == (3.0, 1.0)

    def test_adversarial_budget_one(self, knapsack4):
        bits, _f, _cost = gga(knapsack4.objective, knapsack4.cost, 1.0)
        assert bits.nonzero()[0].tolist() == [4]

    def test_zero_budget(self, knapsack4):
        bits, fval, cost = gga(knapsack4.objective, knapsack4.cost, 0.0)
        assert bits.sum() == 0 and (fval, cost) == (0.0, 0.0)

    def test_result_feasible(self):
        for seed in range(5):
            f = CoverageInstance(
                gen_random_digraph(10, 0.2, substream(seed, "gga-f"))).objective
            c = random_linear_cost(10, substream(seed, "gga-c"))
            bits, fval, cost = gga(f, c, 1.5)
            assert c(bits) == cost <= 1.5 and f(bits) == fval

    def test_phi_guarantee_small_instances(self):
        phi = phi_ratio(1.0)
        for seed in range(10):
            n = 8 + seed % 5
            f = CoverageInstance(
                gen_random_digraph(n, 0.2, substream(seed, "gga-phi"))).objective
            c = CardinalityCost(n)
            _sol, opt = brute_force_opt(f, c, 3.0)
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

    def test_memo_saves_calls_not_evaluations(self):
        g = gen_random_digraph(12, 0.25, substream(4, "gga-memo"))
        f = Calls(CoverageInstance(g).objective)
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
        assert f.calls - calls < 12  # the last scan mostly repeats earlier ones

    def test_memo_keeps_two_changes(self):
        f = Calls(LinearObjective([1.0, 2.0, 3.0]))
        memo = ScanMemo()
        x = bits_of(3, [1])
        assert memo(f, CardinalityCost(3), x) == (2.0, 1.0)
        memo.next_change()
        assert memo(f, CardinalityCost(3), x) == (2.0, 1.0)  # from the previous
        memo.next_change()
        memo.next_change()  # two changes without x: dropped
        memo(f, CardinalityCost(3), x)
        assert f.calls == 2


# ---------------------------------------------------------------------------
# AdGGA


class TestAdaptiveGreedy:
    def test_adversarial_increase_trace(self, knapsack4):
        solver = AdaptiveGreedy(knapsack4.objective, knapsack4.cost, 1.0)
        solver.set_budget(1.0)  # the fill takes the special item alone
        assert solver.x.nonzero()[0].tolist() == [4]
        values = []
        for b in (2.0, 3.0):
            solver.set_budget(b)
            values.append(solver.answer_value()[0])
        assert values == [3.25, 3.5]
        assert sorted(solver.x.nonzero()[0].tolist()) == [0, 1, 4]

    def test_unchanged_budget_keeps_state(self, knapsack4):
        solver = AdaptiveGreedy(knapsack4.objective, knapsack4.cost, 1.0)
        solver.set_budget(1.0)
        before = solver.x.copy()
        solver.set_budget(1.0)
        assert np.array_equal(solver.x, before)

    def test_bipartite_decrease(self):
        inst = gen_bipartite_cover(16)
        solver = AdaptiveGreedy(inst.objective, CardinalityCost(16), 16.0)
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

    def test_answer_feasible_after_decrease(self):
        for seed in range(5):
            n = 10
            f = CoverageInstance(
                gen_random_digraph(n, 0.25, substream(seed, "ad-f"))).objective
            c = random_linear_cost(n, substream(seed, "ad-c"))
            solver = AdaptiveGreedy(f, c, 3.0)
            for b in (3.0, 2.0, 1.0, 0.5):
                solver.set_budget(b)
                fval, cost = solver.answer_value()
                assert cost <= b + 1e-12

    def test_answers_only_its_current_bound(self, knapsack4):
        solver = AdaptiveGreedy(knapsack4.objective, knapsack4.cost, 1.0)
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
        p._insert(bits_of(3, [0, 1, 2]), f1, -cost)
        assert len(p) == 1  # dominated by the all-zeros member

    def test_duplicate_vector_newcomer_wins(self, g3_objective, card3):
        p = self.make(g3_objective, card3)
        a = bits_of(3, [1])
        b = bits_of(3, [2])  # same (f=1, cost=1) vector
        p._insert(a, 1.0, -1.0)
        p._insert(b, 1.0, -1.0)
        members = [bits.tolist() for bits in p._bits]
        assert b.tolist() in members and a.tolist() not in members

    def test_g3_front_and_answers(self, g3_objective, card3):
        p = self.make(g3_objective, card3, budget=3.0)
        p.run(500)
        vectors = sorted(zip(p._f1, p._f2))
        assert (0.0, 0.0) in vectors and (3.0, -1.0) in vectors
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
        state = [(b.tobytes(), f1, f2)
                 for b, f1, f2 in zip(p._bits, p._f1, p._f2)]
        p.set_budget(1.0)
        after = [(b.tobytes(), f1, f2)
                 for b, f1, f2 in zip(p._bits, p._f1, p._f2)]
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


# ---------------------------------------------------------------------------
# zero-flip offspring: counted, but answered from the parent's stored values


class Calls:
    """Wraps f or c and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.n = fn.n
        self.calls = 0

    def __call__(self, bits):
        self.calls += 1
        return self.fn(bits)


class MaskSpy:
    """Passes random draws through and counts the 1-d mutation masks of
    length n that flip no bit (EAMC draws one such mask per offspring)."""

    def __init__(self, rng, n):
        self.rng = rng
        self.n = n
        self.zero_flips = 0

    def integers(self, *args, **kwargs):
        return self.rng.integers(*args, **kwargs)

    def random(self, size=None):
        out = self.rng.random(size)
        if size == self.n:
            self.zero_flips += not (out < 1.0 / self.n).any()
        return out


class ScriptedRng:
    """POMC draws: every parent selection returns `sel`, every mutation mask
    flips nothing."""

    def __init__(self, sel):
        self.sel = sel

    def random(self, size):
        if isinstance(size, tuple):
            return np.full(size, 0.99)
        return np.full(size, self.sel)


def _pomc_zero_flips(seed, k, n):
    rng = substream(seed, "zero-flip")
    rng.random(k)
    return int((~(rng.random((k, n)) < 1.0 / n).any(axis=1)).sum())


class TestZeroFlip:
    N = 8

    def instance(self):
        g = gen_random_digraph(self.N, 0.3, substream(2, "zero-flip"))
        f = CoverageInstance(g).objective
        c = random_linear_cost(self.N, substream(3, "zero-flip"))
        return Calls(f), Calls(c)

    @pytest.mark.parametrize("budget", [0.5, 1.5, 4.0])
    def test_pomc_counts_every_child_and_skips_f_on_zero_flips(self, budget):
        f, c = self.instance()
        k = 1500
        p = Pomc(f, c, budget, substream(11, "zero-flip"))
        zero = _pomc_zero_flips(11, k, self.N)
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
        spy = MaskSpy(substream(12, "zero-flip"), self.N)
        e = Eamc(f, c, budget, spy)
        base, f0, c0 = e.counter.count, f.calls, c.calls
        e.run(k)
        assert spy.zero_flips > k // 4
        assert e.counter.count - base == k
        assert c.calls - c0 == k - spy.zero_flips
        assert f.calls - f0 <= k - spy.zero_flips
        e.check_invariants()

    def front_pomc(self):
        """POMC holding the whole front of values (1, 2, 4) under
        cardinality cost: {} , {2}, {1,2}, {0,1,2} at costs 0..3."""
        f, c = Calls(LinearObjective([1.0, 2.0, 4.0])), Calls(CardinalityCost(3))
        p = Pomc(f, c, 3.0, substream(13, "zero-flip"))
        p.run(400)
        assert sorted(zip(p._f1, p._f2)) == [(0.0, 0.0), (4.0, -1.0),
                                             (6.0, -2.0), (7.0, -3.0)]
        return p, f, c

    def test_pomc_stale_parent_child_is_cut_off(self):
        p, f, c = self.front_pomc()
        p.set_budget(1.0)  # cutoff B + 1 = 2 < cost 3 of the full set
        i = p._f2.index(-3.0)
        p.rng = ScriptedRng((i + 0.5) / len(p))
        before = list(zip(p._f1, p._f2))
        base, f0, c0 = p.counter.count, f.calls, c.calls
        p.run(1)
        # a stored f of 7 would have replaced the parent and moved it last
        assert list(zip(p._f1, p._f2)) == before
        assert p.counter.count - base == 1
        assert (f.calls - f0, c.calls - c0) == (0, 0)

    def test_pomc_zero_flip_child_replaces_its_parent(self):
        p, f, c = self.front_pomc()
        p.set_budget(1.0)  # cost 2 is still within B + 1
        i = p._f2.index(-2.0)
        p.rng = ScriptedRng((i + 0.5) / len(p))
        before = list(zip(p._f1, p._f2))
        base, f0, c0 = p.counter.count, f.calls, c.calls
        p.run(1)
        assert list(zip(p._f1, p._f2)) == before[:i] + before[i + 1:] + [before[i]]
        assert p.counter.count - base == 1
        assert (f.calls - f0, c.calls - c0) == (0, 0)


# ---------------------------------------------------------------------------
# EAMC


class TestEamc:
    def make(self, f, c, budget=2.0, seed=0, alpha=1.0):
        return Eamc(f, c, budget, substream(seed, "eamc"), alpha=alpha)

    def test_g_numeric(self):
        assert _eamc_g(3.0, 1.0, 1, 1.0, 1.0) == pytest.approx(
            3.0 / (1.0 - math.exp(-1.0)), abs=1e-4)
        assert _eamc_g(3.0, 1.0, 1, 1.0, 1.0) == pytest.approx(4.7464, abs=1e-3)

    def test_g_of_empty_is_f(self):
        assert _eamc_g(0.0, 0.0, 0, 1.0, 2.0) == 0.0

    def test_invalid_alpha(self, g3_objective, card3):
        for alpha in (0.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                self.make(g3_objective, card3, alpha=alpha)

    def test_infeasible_offspring_ignored(self, g3_objective, card3):
        e = self.make(g3_objective, card3, budget=0.0)
        before = len(e)
        e.run(50)
        assert len(e) == before == 1

    def test_tie_does_not_replace(self, g3_objective, card3):
        e = self.make(g3_objective, card3)
        entry0 = e.bins[0]
        e.step()  # whatever happens, bin(0) holds the original all-zeros
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
        # g's exp(-alpha * c / B) is 0 / 0 for a zero-cost member at B = 0
        f = LinearObjective([1.0, 2.0, 3.0])
        e = self.make(f, LinearCost([0.0, 1.0, 1.0]), budget=0.0)
        e.run(200)
        assert e.answer_value() == (1.0, 0.0)
        assert _eamc_g(1.0, 0.0, 1, 1.0, 0.0) == math.inf

    def test_population_cap_and_feasibility(self, g3_objective):
        n = 12
        f = CoverageInstance(gen_random_digraph(n, 0.2, substream(1, "ec"))).objective
        c = random_linear_cost(n, substream(2, "ec"))
        e = Eamc(f, c, 2.0, substream(3, "ec"))
        for _ in range(500):
            e.step()
            e.check_invariants()


# ---------------------------------------------------------------------------
# NSGA-II


class TestNsga2:
    def make(self, f, c, budget=2.0, seed=0, **kw):
        kw.setdefault("delta_cap", 1.0)
        return Nsga2(f, c, budget, substream(seed, "nsga"), **kw)

    def test_sort_two_point_front(self):
        fronts = _fast_nondominated_sort([(3.0, 1.0), (2.0, 2.0)])
        assert fronts == [[0], [1]]

    def test_sort_incomparable(self):
        fronts = _fast_nondominated_sort([(3.0, 2.0), (2.0, 1.0)])
        assert fronts == [[0, 1]]

    def test_penalty_beyond_cap(self, g3_objective, card3):
        solver = self.make(g3_objective, card3, budget=1.0)
        from dynsel.algorithms import _Individual

        eps = 0.5
        ind = _Individual(bits_of(3, [0, 1, 2]), 3.0, 1.0 + 1.0 + eps)
        fN, cN = solver._penalized(ind)
        assert cN == pytest.approx(ind.c_raw + (3 * solver.c_max + 1) * eps)
        assert fN == pytest.approx(ind.f_raw - (3 * solver.f_max + 1) * eps)

    def test_within_cap_unpenalized(self, g3_objective, card3):
        solver = self.make(g3_objective, card3, budget=1.0)
        from dynsel.algorithms import _Individual

        ind = _Individual(bits_of(3, [0, 1]), 3.0, 2.0)  # = B + delta
        assert solver._penalized(ind) == (3.0, 2.0)

    def test_population_size_constant(self, g3_objective, card3):
        solver = self.make(g3_objective, card3)
        for _ in range(5):
            solver.generation()
            assert len(solver.parents) == solver.pop_size

    def test_elitism_best_feasible_non_decreasing(self):
        n = 10
        f = CoverageInstance(gen_random_digraph(n, 0.2, substream(4, "ns"))).objective
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

    def test_whole_generations_draw_the_same_stream(self, g3_objective, card3):
        a = self.make(g3_objective, card3, seed=3)
        b = self.make(g3_objective, card3, seed=3)
        a.run(60)
        for _ in range(3):
            b.generation()
        assert [ind.bits.tolist() for ind in a.parents] == \
               [ind.bits.tolist() for ind in b.parents]
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
