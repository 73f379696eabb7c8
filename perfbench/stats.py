"""Tail percentiles.

A tail figure is reported at the highest percentile that still has at
least :data:`MIN_BEYOND` samples beyond it, so it is never read off one
or two outliers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy

#: Samples a tail percentile needs beyond it before it is reported.
MIN_BEYOND = 10

#: Candidate percentiles, highest first.
PERCENTILE_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def samples_beyond(count: int, pct: float) -> int:
    """Samples strictly above the ``pct`` percentile of ``count`` samples."""
    return math.floor(count * (100.0 - pct) / 100.0 + 1e-9)


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """``(pct, value)`` for the highest ladder percentile with at least
    :data:`MIN_BEYOND` samples beyond it, or None when even the median
    lacks that many (fewer than 20 samples)."""
    for pct in PERCENTILE_LADDER:
        if samples_beyond(len(values), pct) >= MIN_BEYOND:
            return pct, float(numpy.percentile(values, pct))
    return None
