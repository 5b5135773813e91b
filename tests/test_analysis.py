import math

import numpy as np
import pytest

from dynsel.algorithms import Pomc, brute_force_front
from dynsel.analysis import (ErrorSeries, _ranks, bonferroni_posthoc,
                             brute_force_baseline, check_phi_approx,
                             chi2_sf, format_marks,
                             kruskal_wallis, norm_sf, offline_errors,
                             partial_offline_error)
from dynsel.core import substream
from dynsel.dynamics import BudgetSchedule, run_dynamic
from dynsel.problems import (CardinalityCost, SetCoverObjective,
                             gen_random_digraph, random_linear_cost)


# ---------------------------------------------------------------------------
# offline errors


class TestPartialOfflineError:
    def test_all_zero(self):
        assert partial_offline_error([0.0, 0.0, 0.0], 1, 3) == 0.0

    def test_full_interval_mean(self):
        assert partial_offline_error([1.0, 2.0, 3.0, 4.0], 1, 4) == 2.5

    def test_sub_interval_mean(self):
        assert partial_offline_error([1.0, 2.0, 3.0, 4.0], 3, 4) == 3.5

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            partial_offline_error([1.0], 1, 2)
        with pytest.raises(ValueError):
            partial_offline_error([1.0, 2.0], 2, 1)

    def test_full_range_is_length_weighted_mean_of_parts(self):
        e = list(np.arange(12, dtype=float))
        parts = [(1, 3), (4, 6), (7, 12)]
        weighted = sum(partial_offline_error(e, lo, hi) * (hi - lo + 1)
                       for lo, hi in parts) / 12
        assert partial_offline_error(e, 1, 12) == pytest.approx(weighted)

    def test_accepts_error_series(self):
        s = ErrorSeries(np.array([2.0, 4.0]))
        assert partial_offline_error(s, 1, 2) == 3.0


class TestOfflineErrors:
    def test_brute_force_baseline_non_negative(self):
        f = SetCoverObjective.from_graph(gen_random_digraph(8, 0.25, substream(0, "oe")))
        c = CardinalityCost(8)
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0, -1.0, 1.0, 1.0], tau=100, r=1.0)
        records = run_dynamic("eamc", f, c, s, seed=1)
        series = offline_errors(records, brute_force_baseline(f, c))
        assert (series.errors >= 0).all()
        assert len(series) == len(records)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_pass_baseline_matches_per_budget_opt(self, seed):
        n = 9
        f = SetCoverObjective.from_graph(
            gen_random_digraph(n, 0.25, substream(seed, "bl")))
        c = random_linear_cost(n, substream(seed, "bl-cost"))
        budgets = [-0.5, 0.0, 0.05, 0.4, 0.4000000000000001, 1.0, 2.5, 10.0]
        one_pass = brute_force_baseline(f, c, budgets)
        # nothing fits -0.5, which the baseline answers with f(empty)
        empty = f(np.zeros(n, dtype=np.uint8))
        # 0.7 is not among the budgets given: enumerated on its own
        for b in budgets + [0.7]:
            assert one_pass(b) == max(brute_force_front(f, c, [b])[b], empty)


# ---------------------------------------------------------------------------
# closed-form distributions and ranks, cross-checked against scipy


class TestClosedForms:
    @pytest.mark.parametrize("df", range(1, 11))
    def test_chi2_sf_matches_scipy(self, df):
        from scipy.stats import chi2

        xs = [0.0, 1e-300, 1e-12, 1e-6, 0.01, 0.3, 1.0, 2.5, df, 7.0, 20.0,
              50.0, 120.0, 300.0, 700.0]
        for x in xs:
            ref = chi2.sf(x, df)
            assert ref > 0
            assert abs(chi2_sf(x, df) - ref) <= 1e-12 * ref, x
        assert chi2_sf(0.0, df) == 1.0

    def test_chi2_sf_rejects_bad_df(self):
        for df in (0, -1, 2.5):
            with pytest.raises(ValueError):
                chi2_sf(1.0, df)

    def test_norm_sf_matches_scipy(self):
        from scipy.stats import norm

        for z in np.concatenate([np.linspace(-8, 8, 161), [0.0, 1e-9, 12, 20, 30]]):
            ref = norm.sf(z)
            assert abs(norm_sf(z) - ref) <= 1e-12 * ref, z

    def test_ranks_match_scipy_with_heavy_ties(self):
        from scipy.stats import rankdata

        rng = substream(5, "ranks")
        for _ in range(300):
            size = int(rng.integers(1, 60))
            values = rng.integers(0, int(rng.integers(1, 6)), size=size) * 0.5
            ranks, tie_sum = _ranks(values)
            assert np.array_equal(ranks, rankdata(values))
            _uniq, counts = np.unique(values, return_counts=True)
            assert tie_sum == float((counts**3 - counts).sum())


# ---------------------------------------------------------------------------
# Kruskal-Wallis


class TestKruskalWallis:
    def test_identical_groups_degenerate(self):
        h, p = kruskal_wallis([[1.0, 1.0], [1.0, 1.0]])
        assert h == 0.0 and p == 1.0

    def test_hand_computed_h(self):
        h, _p = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
        assert abs(h - 3.857) < 1e-3

    def test_matches_scipy(self):
        from scipy.stats import kruskal

        rng = substream(1, "kw-scipy")
        groups = [rng.normal(size=12), rng.normal(size=15), rng.normal(size=9)]
        h, p = kruskal_wallis(groups)
        ref = kruskal(*groups)
        assert h == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue)

    def test_tie_correction_matches_scipy(self):
        from scipy.stats import kruskal

        groups = [[1, 1, 2, 3], [2, 2, 3, 3], [1, 3, 3, 4]]
        h, p = kruskal_wallis(groups)
        ref = kruskal(*groups)
        assert h == pytest.approx(ref.statistic)
        assert p == pytest.approx(ref.pvalue)

    def test_monotone_transform_invariance(self):
        rng = substream(2, "kw-mono")
        groups = [rng.normal(size=10), rng.normal(loc=1.0, size=10)]
        h1, p1 = kruskal_wallis(groups)
        h2, p2 = kruskal_wallis([np.exp(g) for g in groups])
        assert h1 == h2 and p1 == p2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0, 2.0]])
        with pytest.raises(ValueError):
            kruskal_wallis([[1.0], []])


class TestBonferroniPosthoc:
    def test_identical_groups_no_marks(self):
        marks = bonferroni_posthoc([[1.0, 1.0, 1.0]] * 3)
        assert not marks.any()

    def test_separated_pair_marked(self):
        rng = substream(3, "ph")
        a = rng.normal(loc=0.0, scale=0.1, size=30)
        b = rng.normal(loc=0.05, scale=0.1, size=30)
        c = rng.normal(loc=10.0, scale=0.1, size=30)
        marks = bonferroni_posthoc([a, b, c])
        assert marks[0, 2] == 1 and marks[2, 0] == -1  # a lower than c
        assert marks[1, 2] == 1 and marks[2, 1] == -1
        assert marks[0, 1] == 0 and marks[1, 0] == 0
        assert (marks == -marks.T).all()

    def test_single_pair_unadjusted(self):
        rng = substream(4, "ph2")
        a = rng.normal(size=25)
        b = rng.normal(loc=2.0, size=25)
        marks = bonferroni_posthoc([a, b])
        assert marks[0, 1] == 1  # correction factor 1: plain Dunn comparison

    def test_format_marks(self):
        marks = np.array([[0, 1, -1], [-1, 0, 0], [1, 0, 0]])
        assert format_marks(marks, 0) == "2(+),3(-)"
        assert format_marks(marks, 1) == "1(-)"


# ---------------------------------------------------------------------------
# the phi-approximation check


class TestCheckPhiApprox:
    def test_brute_force_answers_always_pass(self, g3_objective, card3):
        front = brute_force_front(g3_objective, card3, [0.0, 1.0, 2.0, 3.0])
        rep = check_phi_approx(front.__getitem__, g3_objective, card3, 3.0)
        assert rep.all_pass
        assert rep.phi == pytest.approx(0.31606, abs=1e-5)

    def test_g3_pomc_after_1000_steps(self, g3_objective, card3):
        p = Pomc(g3_objective, card3, 2.0, substream(5, "phi"))
        p.run(1000)
        rep = check_phi_approx(lambda b: p.answer_value(b)[0], g3_objective,
                               card3, 2.0)
        assert rep.all_pass
        assert [ch.budget for ch in rep.checks] == [0.0, 1.0, 2.0]

    def test_failing_answers_flagged(self, g3_objective, card3):
        answers = {0.0: 0.0, 1.0: 0.0, 2.0: 0.0}  # worthless answers
        rep = check_phi_approx(answers.__getitem__, g3_objective, card3, 2.0)
        assert not rep.all_pass
        assert rep.checks[0].passed  # opt at b=0 is 0

    def test_precomputed_optima_reused(self, g3_objective, card3):
        front = brute_force_front(g3_objective, card3, [0.0, 1.0, 2.0])
        rep = check_phi_approx(front.__getitem__, g3_objective, card3, 2.0,
                               optima=front)
        assert rep.all_pass

    def test_rejects_zero_increment(self, g3_objective):
        class ZeroCost:
            n = 3
            min_increment = 0.0

            def __call__(self, bits):
                return 0.0

        with pytest.raises(ValueError):
            check_phi_approx({}.__getitem__, g3_objective, ZeroCost(), 1.0)
