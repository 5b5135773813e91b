import math

import numpy as np

from dynsel.core import phi_ratio, substream


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
