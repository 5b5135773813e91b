"""The paper's theory traces: adaptive greedy's worst cases under budget
increases (adversarial knapsack) and decreases (bipartite cover), and the
phi-approximation check of one POMC run.  `dynsel verify-theory` and the
acceptance tests both run these."""

from __future__ import annotations

import math
from typing import NamedTuple

from .algorithms import AdaptiveGreedy, Pomc, knapsack_opt_value
from .analysis import check_phi_approx
from .problems import CardinalityCost, gen_adversarial_knapsack, gen_bipartite_cover


class Trace(NamedTuple):
    """Adaptive greedy's final answer value against the optimum at the final
    budget, with the instance it ran on."""

    objective: object
    cost: object
    budget: float
    value: float
    optimum: float


def knapsack_increase_trace(n) -> Trace:
    """AdGGA at B = 1, where its fill takes the special item alone, then
    n/2 unit increases: the answer stays at 7/2 while the optimum grows to
    3 + n/4 (DP oracle)."""
    inst = gen_adversarial_knapsack(n)
    budget = 1.0
    solver = AdaptiveGreedy(inst.objective, inst.cost, budget)
    solver.set_budget(budget)
    for _ in range(n // 2):
        budget += 1.0
        solver.set_budget(budget)
    return Trace(inst.objective, inst.cost, budget, solver.answer_value()[0],
                 knapsack_opt_value(inst, budget))


def bipartite_decrease_trace(n) -> Trace:
    """AdGGA at B = n, where its fill takes the full set, then unit
    decreases down to sqrt(n): the answer collapses to 2 sqrt(n) against
    the optimum n - sqrt(n), which the sqrt(n) hub nodes attain."""
    k = math.isqrt(n)
    inst = gen_bipartite_cover(n)
    cost = CardinalityCost(n)
    solver = AdaptiveGreedy(inst.objective, cost, float(n))
    for b in range(n, k - 1, -1):
        solver.set_budget(float(b))
    return Trace(inst.objective, cost, float(k), solver.answer_value()[0],
                 float(n - k))


def pomc_phi_trial(f, c, budget, rng, optima=None):
    """Run POMC for 25 n^2 B evaluations at `budget`, then check its answer
    at every budget level on the cost grid against phi times the optimum
    (`optima` as in `check_phi_approx`)."""
    pomc = Pomc(f, c, budget, rng)
    pomc.run(25 * f.n * f.n * int(budget))
    return check_phi_approx(pomc, f, c, budget, alpha=1.0, optima=optima)
