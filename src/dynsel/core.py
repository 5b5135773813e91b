"""The objective/cost contracts and the evaluation counter shared by every
solver.

A solution is its characteristic vector over a ground set of size n: a 1-d
uint8 numpy array of 0/1 entries.  Solvers never write to a vector they have
stored; a child is always a new array.
"""

from __future__ import annotations

import math
import zlib

import numpy as np

NEG_INF = float("-inf")
POS_INF = float("inf")


def substream(seed, *labels):
    """Derive an independent, reproducible generator from a master seed.

    Labels are hashed with crc32, so the stream only depends on (seed, labels)
    and never on call order or thread scheduling.
    """
    keys = [zlib.crc32(str(label).encode("utf-8")) for label in labels]
    return np.random.default_rng(np.random.SeedSequence([int(seed) & 0xFFFFFFFF, *keys]))


class ObjectiveFn:
    """Monotone objective f over bit vectors. Subclasses set `n` and implement
    __call__(bits) -> float."""

    n: int

    def __call__(self, bits: np.ndarray) -> float:
        raise NotImplementedError


class CostFn:
    """Monotone cost with c(empty) = 0.  `min_increment` is the smallest
    possible single-element cost increase on the instance."""

    min_increment = 0.0
    n: int

    def __call__(self, bits: np.ndarray) -> float:
        raise NotImplementedError


class EvalCounter:
    """Counts objective evaluations, the unit of the experimental budget.

    Every counted evaluation increments once, also one answered from stored
    values (a zero-flip offspring, a reused greedy scan) without calling f.
    """

    def __init__(self):
        self.count = 0

    def increment(self, k: int = 1) -> None:
        self.count += k


def phi_ratio(alpha: float) -> float:
    """Approximation guarantee (alpha/2) * (1 - e^-alpha)."""
    return (alpha / 2.0) * (1.0 - math.exp(-alpha))
