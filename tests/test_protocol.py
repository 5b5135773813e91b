"""Property tests of the solver protocol: random budget walks through
set_budget(b) + run(k) + answer_value() on all six algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsel.algorithms import Eamc, gga
from dynsel.analysis import check_phi_approx
from dynsel.core import substream
from dynsel.dynamics import ALL_ALGORITHMS, make_solver
from dynsel.problems import (CardinalityCost, CoverageInstance,
                             gen_random_digraph, random_linear_cost)

from conftest import Calls

N = 8
F = CoverageInstance(gen_random_digraph(N, 0.25, substream(0, "protocol"))).objective
C = random_linear_cost(N, substream(1, "protocol"))
GREEDY = ("gga", "adgga")

budget_walks = st.lists(st.tuples(st.floats(0.0, 3.0), st.integers(0, 45)),
                        min_size=1, max_size=6)


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
@settings(max_examples=25, deadline=None)
@given(walk=budget_walks, seed=st.integers(0, 2**16))
def test_budget_walk_keeps_the_protocol(name, walk, seed):
    solver = make_solver(name, F, C, walk[0][0], substream(seed, name))
    counter = solver.counter
    for budget, k in walk:
        solver.set_budget(budget)
        before = counter.count
        solver.run(k)
        # greedy evaluations are counted in set_budget, never charged to run
        assert counter.count - before == (0 if name in GREEDY else k)
        value = solver.answer_value()
        assert value == solver.answer_value(solver.budget)
        assert value[1] <= budget
        if name == "gga":
            assert value == gga(F, C, budget)[1:]
        if name not in GREEDY:
            # one answer rule over stored pairs: a larger bound never
            # reads a worse answer
            values = [solver.answer_value(budget * i / 8)[0] for i in range(9)]
            assert values == sorted(values)
        if hasattr(solver, "check_invariants"):
            solver.check_invariants()


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_negative_evals_refused(name):
    solver = make_solver(name, F, C, 2.0, substream(0, name))
    solver.set_budget(2.0)
    before = solver.counter.count
    with pytest.raises(ValueError, match="evals must be non-negative"):
        solver.run(-5)
    assert solver.counter.count == before


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
@pytest.mark.parametrize("seed", range(3))
def test_every_f_and_c_call_is_a_counted_evaluation(name, seed):
    """Over a budget walk that rises and falls, a solver never calls f
    more often than c, nor c more often than it counts evaluations."""
    f, c = Calls(F), Calls(C)
    rng = substream(seed, "calls")
    solver = make_solver(name, f, c, 2.0, substream(seed, name))
    for budget in (2.0, 0.5, 3.0, 1.0, 2.5, 0.0, 1.5, 3.0):
        solver.set_budget(budget)
        solver.run(int(rng.integers(0, 60)))
        assert f.calls <= c.calls <= solver.counter.count


@pytest.mark.parametrize("name", ALL_ALGORITHMS)
def test_negative_bound_refused(name):
    with pytest.raises(ValueError, match="budget must be non-negative, "
                                         "got -0.5"):
        make_solver(name, F, C, -0.5, substream(0, name))
    solver = make_solver(name, F, C, 2.0, substream(0, name))
    solver.set_budget(2.0)
    solver.run(5)
    with pytest.raises(ValueError, match="budget must be non-negative, "
                                         "got -0.5"):
        solver.set_budget(-0.5)
    assert solver.budget == 2.0
    solver.run(5)
    assert solver.answer_value()[1] <= 2.0


def test_phi_check_reads_any_solver():
    """The phi check takes an answer callable, so EAMC's answers are checked
    as POMC's are; whether they pass is not asserted."""
    c = CardinalityCost(N)
    eamc = Eamc(F, c, 3.0, substream(0, "protocol-phi"))
    eamc.run(500)
    rep = check_phi_approx(lambda b: eamc.answer_value(b)[0], F, c, 3.0)
    assert [ch.budget for ch in rep.checks] == [0.0, 1.0, 2.0, 3.0]
    assert [ch.answer_f for ch in rep.checks] == \
        [eamc.answer_value(b)[0] for b in (0.0, 1.0, 2.0, 3.0)]
