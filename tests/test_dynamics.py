import math

import numpy as np
import pytest

from dynsel.algorithms import brute_force_front
from dynsel.core import substream
from dynsel.dynamics import (BudgetSchedule, RunRecord, gen_schedule,
                             load_schedule, make_solver, preset_schedule,
                             read_run_csv, run_dynamic, save_schedule,
                             write_run_csv)
from dynsel.problems import (CardinalityCost, SetCoverObjective,
                             gen_adversarial_knapsack, gen_random_digraph,
                             random_linear_cost)


# ---------------------------------------------------------------------------
# schedules


class TestSchedules:
    def test_presets(self):
        rng = substream(7, "sched")
        s = preset_schedule("influence", rng, count=200)
        assert (s.b_init, s.b_min, s.b_max, s.r) == (10, 5, 30, 1)
        assert len(s.deltas) == 200
        assert all(d in (-1.0, 1.0) for d in s.deltas)

        s = preset_schedule("outdegree", rng, count=50)
        assert (s.b_init, s.b_min, s.b_max, s.r) == (500, 250, 750, 20)
        assert all(d == int(d) and d != 0 and abs(d) <= 20 for d in s.deltas)

        s = preset_schedule("random-cost", rng, count=50)
        assert (s.b_init, s.b_min, s.b_max) == (1.0, 0.0, 3.0)
        assert all(abs(d) == pytest.approx(0.1) for d in s.deltas)

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset_schedule("nope", substream(0, "x"))

    def test_budgets_clamped(self):
        s = BudgetSchedule(b_init=1.0, b_min=0.0, b_max=2.0,
                           deltas=[1.0, 1.0, 1.0, -1.0], tau=10, r=1.0)
        assert s.budgets() == [1.0, 2.0, 2.0, 2.0, 1.0]

    def test_trajectory_stays_in_bounds(self):
        for seed in range(5):
            s = gen_schedule(10, 5, 30, 1, 200, 100, substream(seed, "clamp"))
            assert all(5 <= b <= 30 for b in s.budgets())

    def test_delta_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BudgetSchedule(b_init=1, b_min=0, b_max=2, deltas=[3.0], tau=1, r=1.0)

    def test_init_outside_bounds_rejected(self):
        with pytest.raises(ValueError):
            gen_schedule(31, 5, 30, 1, 10, 100, substream(0, "b"))

    def test_negative_b_min_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="b_min"):
            BudgetSchedule(b_init=0.0, b_min=-1.0, b_max=3.0, deltas=[0.5],
                           tau=1, r=0.5)
        with pytest.raises(ValueError, match="b_min"):
            gen_schedule(0, -1, 3, 0.5, 10, 100, substream(0, "neg"))
        with pytest.raises(ValueError, match="b_min"):
            preset_schedule("random-cost", substream(0, "neg"), count=10,
                            b_min=-0.5)
        path = tmp_path / "sched.txt"
        path.write_text("binit=0.0\nbmin=-1.0\nbmax=3.0\nr=0.5\ntau=10\n"
                        "seed=\n-0.5\n")
        with pytest.raises(ValueError, match="b_min"):
            load_schedule(path)

    def test_schedule_file_without_a_key_refused(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("bmin=1.0\nbmax=3.0\nr=0.5\ntau=10\nseed=\n0.5\n")
        with pytest.raises(ValueError, match="has no binit= line") as err:
            load_schedule(path)
        assert str(path) in str(err.value)

    def test_schedule_file_bad_delta_line_refused(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("binit=1.0\nbmin=1.0\nbmax=3.0\nr=0.5\ntau=10\n"
                        "seed=\n0.5\n\nabc\n")
        with pytest.raises(ValueError, match="line 9: 'abc'") as err:
            load_schedule(path)
        assert str(path) in str(err.value)

    def test_negative_tau_refused(self, tmp_path):
        with pytest.raises(ValueError, match="tau must be non-negative"):
            BudgetSchedule(2.0, 1.0, 3.0, [1.0], tau=-5, r=1.0)
        path = tmp_path / "sched.txt"
        path.write_text("binit=2.0\nbmin=1.0\nbmax=3.0\nr=1.0\ntau=-5\n1.0\n")
        with pytest.raises(ValueError, match="tau must be non-negative") as err:
            load_schedule(path)
        assert str(path) in str(err.value)

    def test_schedule_file_bad_header_value_refused(self, tmp_path):
        path = tmp_path / "sched.txt"
        path.write_text("binit=1.0\nbmin=1.0\nbmax=3.0\nr=0.5\ntau=1.5\n")
        with pytest.raises(ValueError, match="tau='1.5' is not an integer"):
            load_schedule(path)

    @pytest.mark.parametrize("text, message", [
        ("binit=2\nbmin=1\nbmax=3\nr=nan\ntau=5\n1\n",
         "line 4: r='nan' is not a finite number"),
        ("binit=2\nbmin=1\nbmax=inf\nr=1\ntau=5\n1\n",
         "line 3: bmax='inf' is not a finite number"),
        ("binit=nan\nbmin=1\nbmax=3\nr=1\ntau=5\n1\n",
         "line 1: binit='nan' is not a finite number"),
        ("binit=2\nbmin=-inf\nbmax=3\nr=1\ntau=5\n1\n",
         "line 2: bmin='-inf' is not a finite number"),
        ("binit=2\nbmin=1\nbmax=3\nr=1\ntau=5\n1\nnan\n",
         "line 7: 'nan' is not a finite budget change")])
    def test_schedule_file_non_finite_value_refused_by_line(
            self, tmp_path, text, message):
        """r = nan passed every |delta| > r check and reached NSGA-II's
        delta_cap; a nan delta failed every task; bmax = inf was taken."""
        path = tmp_path / "sched.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_schedule(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("text, message", [
        ("binit=2\nbmin=1\nbmax=3\nr=1\ntau=5\nseed=\nr=5\n1\n",
         "line 7: r= repeats line 4"),
        ("binit=2\nbmin=1\nbmax=3\nr=1\ntau=5\n1\ncolour=blue\n",
         "line 7: unknown key 'colour'; a schedule file holds binit, bmin, "
         "bmax, r, tau, seed")])
    def test_schedule_file_repeated_or_unknown_key_refused_by_line(
            self, tmp_path, text, message):
        """The last of repeated keys was taken (r = 5 here) and an unknown
        key was ignored, both without a word."""
        path = tmp_path / "sched.txt"
        path.write_text(text)
        with pytest.raises(ValueError) as err:
            load_schedule(path)
        assert str(err.value) == f"{path}: {message}"

    @pytest.mark.parametrize("field", ["r", "b_init", "b_min", "b_max"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_schedule_refuses_a_non_finite_number(self, field, value):
        fields = dict(b_init=2.0, b_min=1.0, b_max=3.0, r=1.0)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be a finite "
                                             f"number, got {value!r}"):
            BudgetSchedule(deltas=[1.0], tau=5, **fields)

    def test_save_load_round_trip(self, tmp_path):
        s = preset_schedule("random-cost", substream(3, "rt"), count=20,
                            tau=500, seed=3)
        path = tmp_path / "sched.txt"
        save_schedule(s, path)
        back = load_schedule(path)
        assert back.deltas == s.deltas
        assert (back.b_init, back.b_min, back.b_max, back.tau, back.r,
                back.seed) == (s.b_init, s.b_min, s.b_max, s.tau, s.r, s.seed)

    def test_saved_text_is_pinned(self, tmp_path):
        """Key order and number format of a schedule file."""
        path = tmp_path / "sched.txt"
        save_schedule(BudgetSchedule(b_init=1.0, b_min=0.0, b_max=3.0,
                                     deltas=[0.1, -0.1, 0.1], tau=500, r=0.1,
                                     seed=7), path)
        assert path.read_text() == ("binit=1.0\nbmin=0.0\nbmax=3.0\nr=0.1\n"
                                    "tau=500\nseed=7\n0.1\n-0.1\n0.1\n")
        save_schedule(BudgetSchedule(b_init=2, b_min=1, b_max=3, deltas=[1.0],
                                     tau=0, r=1), path)
        assert path.read_text() == ("binit=2\nbmin=1\nbmax=3\nr=1\ntau=0\n"
                                    "seed=\n1.0\n")

    def test_integer_deltas_below_one_refused(self):
        # rng.integers(0, 1) is always 0, so this drew forever
        with pytest.raises(ValueError, match="r"):
            gen_schedule(1, 0, 3, 0.5, 3, 10, substream(0, "int"),
                         integer_deltas=True)

    def test_no_preset_needs_every_bound(self):
        with pytest.raises(ValueError, match="bmax, r"):
            preset_schedule(None, substream(0, "x"), b_init=1, b_min=0)

    def test_schedule_deterministic_given_seed(self):
        a = gen_schedule(10, 5, 30, 1, 50, 100, substream(9, "det"))
        b = gen_schedule(10, 5, 30, 1, 50, 100, substream(9, "det"))
        assert a.deltas == b.deltas


# ---------------------------------------------------------------------------
# run harness


def coverage_setup(n=8, seed=0):
    f = SetCoverObjective.from_graph(
        gen_random_digraph(n, 0.25, substream(seed, "dyn")))
    c = CardinalityCost(n)
    return f, c


class TestRunDynamic:
    def test_record_count_is_changes_plus_one(self):
        f, c = coverage_setup()
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0, -1.0, 1.0], tau=50, r=1.0)
        for alg in ("gga", "adgga", "pomc", "eamc", "nsga2"):
            records = run_dynamic(alg, f, c, s, seed=1)
            assert len(records) == 4
            assert [r.change_index for r in records] == [0, 1, 2, 3]

    def test_budget_column_matches_trajectory(self):
        f, c = coverage_setup()
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0, 1.0, -1.0], tau=20, r=1.0)
        records = run_dynamic("pomc", f, c, s, seed=2)
        assert [r.budget for r in records] == s.budgets()

    def test_records_feasible(self):
        f = SetCoverObjective.from_graph(
            gen_random_digraph(8, 0.25, substream(3, "feas")))
        c = random_linear_cost(8, substream(4, "feas"))
        s = BudgetSchedule(1.0, 0.0, 3.0, [0.1, -0.1] * 5, tau=100, r=0.1)
        for alg in ("gga", "adgga", "pomc", "eamc", "nsga2"):
            for rec in run_dynamic(alg, f, c, s, seed=5):
                assert rec.best_cost <= rec.budget + 1e-12

    def test_tau_accounting_exact(self):
        f, c = coverage_setup()
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0, -1.0], tau=37, r=1.0)
        for alg in ("pomc", "eamc", "nsga2"):
            records = run_dynamic(alg, f, c, s, seed=6)
            assert [r.evaluations for r in records] == [37, 74, 111]
            # the same epochs driven by hand: the counter itself moves by tau
            solver = make_solver(alg, f, c, s.b_init, substream(6, "run", alg))
            for b in s.budgets():
                before = solver.counter.count
                solver.set_budget(b)
                solver.run(s.tau)
                assert solver.counter.count - before == s.tau, alg

    def test_pomc_tau_zero_frozen(self):
        f, c = coverage_setup()
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0, -1.0], tau=0, r=1.0)
        records = run_dynamic("pomc", f, c, s, seed=7)
        # with zero evaluations the population never leaves the empty set
        assert all(r.best_f == 0.0 for r in records)

    def test_adgga_adversarial_trace(self):
        f, c = gen_adversarial_knapsack(4)
        s = BudgetSchedule(1.0, 1.0, 3.0, [1.0, 1.0], tau=0, r=1.0)
        records = run_dynamic("adgga", f, c, s, seed=0)
        assert [r.best_f for r in records] == [3.0, 3.25, 3.5]

    def test_gga_rerun_per_budget_matches_static(self):
        from dynsel.algorithms import gga

        f, c = coverage_setup()
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0, -1.0], tau=0, r=1.0)
        records = run_dynamic("gga", f, c, s, seed=0)
        for rec in records:
            assert (rec.best_f, rec.best_cost) == gga(f, c, rec.budget)[1:]

    def test_replay_bit_identical(self):
        f, c = coverage_setup(n=10, seed=8)
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0, -1.0, 1.0], tau=200, r=1.0)
        for alg in ("pomc", "pomc-wp", "eamc", "nsga2"):
            a = run_dynamic(alg, f, c, s, seed=9, params={"warmup_evals": 500})
            b = run_dynamic(alg, f, c, s, seed=9, params={"warmup_evals": 500})
            assert [(r.best_f, r.best_cost, r.evaluations) for r in a] == \
                   [(r.best_f, r.best_cost, r.evaluations) for r in b]

    def test_unknown_algorithm(self):
        f, c = coverage_setup()
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0], tau=1, r=1.0)
        with pytest.raises(ValueError):
            run_dynamic("simulated-annealing", f, c, s, seed=0)

    def test_warmed_pomc_reaches_optimum_after_one_change(self, g3_objective, card3):
        s = BudgetSchedule(2.0, 1.0, 3.0, [1.0], tau=10_000, r=1.0)
        records = run_dynamic("pomc-wp", g3_objective, card3, s, seed=1,
                              params={"warmup_evals": 10_000})
        budget = records[-1].budget
        opt = brute_force_front(g3_objective, card3, [budget])[budget]
        assert records[-1].best_f == opt


class TestWarmup:
    def test_zero_evals_plain_solver(self, g3_objective, card3):
        s = BudgetSchedule(2.0, 1.0, 3.0, [1.0], tau=0, r=1.0)
        records = run_dynamic("pomc-wp", g3_objective, card3, s, seed=0,
                              params={"warmup_evals": 0})
        # the untouched initial population answers the empty set
        assert [(r.best_f, r.evaluations) for r in records] == [(0.0, 0)] * 2

    def test_negative_evals_rejected(self, g3_objective, card3):
        s = BudgetSchedule(2.0, 1.0, 3.0, [1.0], tau=1, r=1.0)
        with pytest.raises(ValueError, match="warmup"):
            run_dynamic("pomc", g3_objective, card3, s, seed=0,
                        params={"warmup_evals": -1})

    def test_warmup_excluded_from_epoch_accounting(self):
        f, c = coverage_setup()
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0], tau=25, r=1.0)
        records = run_dynamic("pomc-wp", f, c, s, seed=3,
                              params={"warmup_evals": 1000})
        assert records[0].evaluations == 25  # tau only, warm-up kept separate


# ---------------------------------------------------------------------------
# run CSV


class TestRunCsv:
    def test_round_trip(self, tmp_path):
        f, c = coverage_setup()
        s = BudgetSchedule(2.0, 1.0, 4.0, [1.0, -1.0], tau=50, r=1.0)
        records = run_dynamic("eamc", f, c, s, seed=4)
        path = tmp_path / "run.csv"
        write_run_csv(path, "eamc_s4", 4, records)
        back = read_run_csv(path)
        assert [(r.change_index, r.budget, r.algorithm, r.best_f, r.best_cost,
                 r.evaluations) for r in back] == \
               [(r.change_index, r.budget, r.algorithm, r.best_f, r.best_cost,
                 r.evaluations) for r in records]

    @pytest.mark.parametrize("column", ["budget", "best_f", "best_cost"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_refused_by_line_and_column(
            self, tmp_path, column, value):
        """A nan best_f used to pass the read and reach report.csv as a
        `nan,nan` row."""
        path = tmp_path / "run.csv"
        records = [RunRecord(k, 2.0, "gga", 3.0, 1.0, 10 * k, 0.5)
                   for k in range(3)]
        setattr(records[1], column, float(value))
        write_run_csv(path, "gga_s0", 0, records)
        with pytest.raises(ValueError) as err:
            read_run_csv(path)
        assert str(err.value) == (f"{path}: line 3: {column} {value!r} "
                                  f"is not a finite number")

    def test_header_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_run_csv(path, "x", 0, [])
        header = path.read_text().splitlines()[0]
        assert header == "run_id,seed,change_index,budget,algorithm,best_f,best_cost,evaluations,wall_ms"
