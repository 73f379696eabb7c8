from __future__ import annotations

import pytest

from perfbench.common import REFERENCE_S, HostSpeed


def test_scaled_divides_by_the_reference_samples_of_its_window():
    speed = HostSpeed()
    speed.samples = [REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]
    assert speed.scaled(3.0, since=0) == pytest.approx(3.0 * 3 / 5)
    # A host twice as slow as the reference host: half the host seconds.
    assert speed.scaled(3.0, since=1) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        speed.scaled(1.0, since=3)


def test_measure_samples_the_given_reference_around_the_call():
    calls = []
    speed = HostSpeed(lambda: calls.append(1), reference_s=1.0)
    result, seconds = speed.measure(sum, [1, 2, 3])
    assert result == 6
    assert len(calls) == len(speed.samples) == 2
    assert seconds > 0
    speed.samples = [2.0, 2.0]
    assert speed.scaled(3.0, since=0) == pytest.approx(1.5)
