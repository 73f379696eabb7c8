"""Reduced-size runs of every workload, untraced and traced, checked
against the names ``BENCHMARK.json`` declares."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

from perfbench import catalogue, engine_day, fleet_batch, serve_sessions
from perfbench.common import DEFAULT_SEED, ROOT

SMALL_FLEET = (("n16", 4, 600.0), ("n1024", 8, 300.0))


def _small_run(name: str, trace: bool):
    if name == engine_day.NAME:
        return engine_day.run(seed=DEFAULT_SEED + 1, seconds=0, trace=trace,
                              horizon_s=1800.0)
    if name == fleet_batch.NAME:
        return fleet_batch.run(seed=5, seconds=0, trace=trace,
                               sizes=SMALL_FLEET)
    return serve_sessions.run(seed=3, seconds=0, trace=trace,
                              inprocess_sessions=1)


@pytest.fixture(scope="module")
def untraced():
    return {name: _small_run(name, False) for name in catalogue.WORKLOADS}


@pytest.fixture(scope="module")
def traced():
    return {name: _small_run(name, True) for name in catalogue.WORKLOADS}


def _assert_clean(result):
    assert result.checks.attempted >= 1
    assert result.checks.failed == 0, result.checks.failures


def test_untraced_runs_are_clean_and_give_every_end_to_end_metric(untraced):
    declared = [m["name"] for m in catalogue.load_spec()["end_to_end"]]
    for result in untraced.values():
        _assert_clean(result)
        assert sorted(result.metrics) == sorted(declared)
        assert all(m.value > 0 for m in result.metrics.values())
    assert untraced[serve_sessions.NAME].checks.attempted == serve_sessions.CALLERS


def test_traced_runs_are_clean_and_cover_every_per_layer_metric(traced):
    declared = [m["name"] for m in catalogue.load_spec()["per_layer"]]
    produced = [name for result in traced.values() for name in result.metrics
                if name in declared]
    assert sorted(produced) == sorted(declared)
    for result in traced.values():
        _assert_clean(result)


def test_traced_layer_shares_sum_to_one(traced):
    groups = [(engine_day.NAME, [f"engine.{layer}.share"
                                 for layer in engine_day.LAYERS])]
    groups += [(fleet_batch.NAME, [f"fleet.{label}.{phase}.share"
                                   for phase in fleet_batch.PHASES])
               for label, _sites, _horizon in SMALL_FLEET]
    groups += [(serve_sessions.NAME, [f"serve.{layer}.share"
                                      for layer in serve_sessions.LAYERS])]
    for workload, names in groups:
        shares = [traced[workload].metrics[name].value for name in names]
        assert sum(shares) == pytest.approx(1.0)
    assert traced[engine_day.NAME].metrics["cache.hit_ratio"].value == 0.5


def test_result_line_declares_exactly_the_spec():
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         "fleet-batch", "--seed", "2", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    line = json.loads(out.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    declared = [m["name"] for m in catalogue.load_spec()["per_layer"]]
    assert list(line["metrics"]) == declared
    assert line["metrics"]["engine.ticks"]["value"] == 0  # not this workload


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine-day",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
