"""Bit-vector solutions, the objective/cost contracts and the evaluation
counter shared by every solver.

Solutions are characteristic vectors over a ground set of size n.  They are
immutable after construction, so they can be stored in populations and shared
across runs without defensive copies.
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


class Solution:
    """Immutable subset of the ground set, stored as a 0/1 vector."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        b = np.ascontiguousarray(bits, dtype=np.uint8)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("bits must be a non-empty 1-d vector")
        if b.max(initial=0) > 1:
            raise ValueError("bits must be 0/1")
        b.setflags(write=False)
        object.__setattr__(self, "bits", b)

    def __setattr__(self, name, value):
        raise AttributeError("Solution is immutable")

    @classmethod
    def empty(cls, n: int) -> "Solution":
        if n < 1:
            raise ValueError("ground set must have n >= 1")
        return cls(np.zeros(n, dtype=np.uint8))

    @classmethod
    def from_indices(cls, n: int, indices) -> "Solution":
        bits = np.zeros(n, dtype=np.uint8)
        idx = np.asarray(list(indices), dtype=np.intp)
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError("index out of range")
        bits[idx] = 1
        return cls(bits)

    @property
    def n(self) -> int:
        return self.bits.size

    def indices(self) -> np.ndarray:
        return np.flatnonzero(self.bits)

    def size(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other):
        return isinstance(other, Solution) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.bits.tobytes())

    def __repr__(self):
        return f"Solution({''.join(map(str, self.bits.tolist()))})"


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
