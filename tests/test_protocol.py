"""Property tests of the solver protocol: random budget walks through
set_budget(b) + run(k) + answer_value() on all six algorithms."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynsel.algorithms import gga
from dynsel.core import EvalCounter, substream
from dynsel.dynamics import ALL_ALGORITHMS, make_solver
from dynsel.problems import (CoverageInstance, gen_random_digraph,
                             random_linear_cost)

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
    counter = EvalCounter()
    solver = make_solver(name, F, C, walk[0][0], substream(seed, name),
                         counter=counter)
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
        if hasattr(solver, "check_invariants"):
            solver.check_invariants()
