"""Shared fixtures: the tiny hand-checkable coverage graph G3 and helpers."""

import numpy as np
import pytest

from dynsel.core import substream
from dynsel.problems import (CardinalityCost, CoverageInstance, DirectedGraph,
                             gen_adversarial_knapsack)


@pytest.fixture
def g3():
    """Three nodes, edges 0->1 and 0->2, so the cover sets are
    S_0 = {0,1,2}, S_1 = {1}, S_2 = {2}."""
    return DirectedGraph.from_edges(3, [(0, 1), (0, 2)])


@pytest.fixture
def g3_coverage(g3):
    return CoverageInstance(g3)


@pytest.fixture
def g3_objective(g3_coverage):
    return g3_coverage.objective


@pytest.fixture
def card3():
    return CardinalityCost(3)


@pytest.fixture
def knapsack4():
    return gen_adversarial_knapsack(4)


class Calls:
    """Wraps f or c and counts its calls."""

    def __init__(self, fn):
        self.fn = fn
        self.n = fn.n
        self.calls = 0

    def __call__(self, bits):
        self.calls += 1
        return self.fn(bits)


def bits_of(n, indices):
    out = np.zeros(n, dtype=np.uint8)
    out[list(indices)] = 1
    return out


@pytest.fixture
def rng():
    return substream(12345, "tests")
