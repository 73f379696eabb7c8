from __future__ import annotations

import copy

from perfbench import engine_day, serve_sessions
from perfbench.common import Checks


def _short_record():
    horizon = 900.0
    built = engine_day.build_cells([engine_day.CELLS[1]])[0]
    return engine_day.cell_record(built, built.system.run(horizon), horizon)


def test_wrong_expected_digest_is_counted_in_error_rate():
    record = _short_record()
    expected = copy.deepcopy(record)
    channel = sorted(expected["signals"])[0]
    expected["signals"][channel] = "0" * 64
    checks = Checks()
    checks.record("good", lambda: engine_day.golden_mismatch(record, record))
    checks.record("bad", lambda: engine_day.golden_mismatch(record, expected))
    assert (checks.attempted, checks.failed) == (2, 1)
    assert checks.error_rate == 0.5
    assert channel in checks.failures[0]


def test_a_raising_check_is_a_failure_not_a_crash():
    checks = Checks()

    def broken():
        raise KeyError("missing golden record")

    checks.record("broken", broken)
    checks.record("fine", lambda: None)
    assert (checks.attempted, checks.failed) == (2, 1)
    assert "KeyError" in checks.failures[0]


def _events(*kinds, golden_ok=True):
    import json

    events = []
    for i, kind in enumerate(kinds, start=1):
        data = "{}"
        if kind == "summary":
            data = json.dumps({"golden": {"ok": golden_ok, "mismatches": {}}})
        events.append((i, kind, data))
    return events


def test_session_problem_flags_each_bad_stream():
    good = _events("hello", "metrics", "summary", "state", "end")
    assert serve_sessions.session_problem(good) is None
    assert "golden" in serve_sessions.session_problem(
        _events("hello", "summary", "end", golden_ok=False))
    assert "error" in serve_sessions.session_problem(
        _events("hello", "error", "end"))
    assert "end" in serve_sessions.session_problem(_events("hello", "summary"))
    reordered = [good[1], good[0], *good[2:]]
    assert "increasing" in serve_sessions.session_problem(reordered)
