"""The workloads, and the metric declarations read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the checkout root is the one list of workload and
metric names, units, directions and bounds; the tests check that every
workload produces exactly the names declared there.
"""

from __future__ import annotations

import json
from types import ModuleType
from typing import Any

from perfbench import engine_day, fleet_batch, serve_sessions
from perfbench.common import ROOT

#: Workload name -> module whose ``run(seed, seconds, trace)`` measures it.
WORKLOADS: dict[str, ModuleType] = {
    module.NAME: module for module in (engine_day, fleet_batch, serve_sessions)
}


def load_spec() -> dict[str, Any]:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
