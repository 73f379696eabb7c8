from __future__ import annotations

import numpy as np
import pytest

from perfbench.stats import (
    MIN_BEYOND,
    samples_beyond,
    tail_percentile,
)


@pytest.mark.parametrize("count, pct", [
    (20, 50.0),
    (39, 50.0),
    (40, 75.0),
    (100, 90.0),
    (199, 90.0),
    (200, 95.0),
    (999, 95.0),
    (1000, 99.0),
    (10_000, 99.9),
    (100_000, 99.99),
])
def test_tail_percentile_is_highest_with_ten_beyond(count, pct):
    got_pct, value = tail_percentile([float(i) for i in range(count)])
    assert got_pct == pct
    assert samples_beyond(count, got_pct) >= MIN_BEYOND
    assert value == pytest.approx(np.percentile(np.arange(count), pct))


def test_tail_percentile_needs_twenty_samples():
    assert tail_percentile([1.0] * 19) is None
    assert tail_percentile([1.0] * 20) == (50.0, 1.0)

