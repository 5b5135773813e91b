import math

import numpy as np
import pytest

from dynsel.core import Solution, phi_ratio, substream


# ---------------------------------------------------------------------------
# Solution


class TestSolution:
    def test_immutable(self):
        s = Solution.from_indices(4, [1])
        with pytest.raises(AttributeError):
            s.bits = np.zeros(4, dtype=np.uint8)
        with pytest.raises(ValueError):
            s.bits[0] = 1  # read-only buffer

    def test_from_indices_and_back(self):
        s = Solution.from_indices(5, [0, 3])
        assert s.indices().tolist() == [0, 3]
        assert s.size() == 2

    def test_from_indices_out_of_range(self):
        with pytest.raises(ValueError):
            Solution.from_indices(3, [3])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Solution(np.array([0, 2, 1], dtype=np.uint8))

    def test_eq_hash(self):
        a = Solution.from_indices(4, [2])
        b = Solution.from_indices(4, [2])
        assert a == b and hash(a) == hash(b)
        assert a != Solution.from_indices(4, [1])


# ---------------------------------------------------------------------------
# substream / phi


def test_substream_reproducible():
    a = substream(42, "x", 1).random(5)
    b = substream(42, "x", 1).random(5)
    assert np.array_equal(a, b)


def test_substream_label_independent():
    a = substream(42, "x").random(5)
    b = substream(42, "y").random(5)
    assert not np.array_equal(a, b)


def test_phi_ratio_at_alpha_one():
    assert abs(phi_ratio(1.0) - 0.5 * (1 - math.exp(-1))) < 1e-15
    assert abs(phi_ratio(1.0) - 0.31606) < 1e-5
