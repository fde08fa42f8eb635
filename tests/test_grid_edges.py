"""Grid sizes the shipped configs never build: the padded size for
N = 2 (mod 4) and Clenshaw-Curtis weights for an odd number of points."""

import numpy as np
import pytest

from slabflow.fourier import TorusGrid
from slabflow.geometry import clenshaw_curtis


def test_padding_rounds_an_odd_size_up():
    assert TorusGrid(2, 10).padded().N == 16  # 3 * 10 / 2 = 15 is odd


@pytest.mark.parametrize("m", range(8, 14))
def test_clenshaw_curtis_integrates_polynomials_exactly(m):
    x = np.cos(np.pi * np.arange(m) / (m - 1))
    w = clenshaw_curtis(m)
    for d in range(m):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(w @ x**d - exact) <= 1e-14
