"""engine-day: full-day runs of pinned golden cells on the scalar engine.

Serial and in-process, observability and run cache off.  The cell set is
fixed; the seed only orders the cells in each cycle and picks the cell
re-run under the invariant checker.  Cycles over the whole set repeat
until ``--seconds`` have passed, so every cycle does the same work.
Times are in reference seconds (see :class:`perfbench.common.HostSpeed`),
with a reference sample before every simulated hour.
"""

from __future__ import annotations

import gc
import shutil
import tempfile
import time
from dataclasses import dataclass
from statistics import median
from typing import Any

from perfbench.common import (
    DEFAULT_SEED,
    WORK_DIR,
    Checks,
    HostSpeed,
    Metric,
    WorkloadResult,
    peak_rss_mb,
    rng_for,
)
from perfbench.tracing import LayerTracer

NAME = "engine-day"

#: (controller, workload, weather, scenario): both controllers, both
#: workloads, all three weathers, plus one policy scenario cell.
CELLS: tuple[tuple[str | None, str | None, str | None, str | None], ...] = (
    ("insure", "video", "sunny", None),
    ("baseline", "seismic", "cloudy", None),
    ("insure", "seismic", "rainy", None),
    (None, None, None, "grid-hybrid"),
)

#: Layers of the traced run, in report order.
LAYERS = (
    "solar", "core.sense", "core.decide", "policy", "cluster.rack",
    "power.bus", "plant", "telemetry.metrics", "sim.recorder", "sim.dispatch",
)
#: Cold builds of the whole cell set during set-up.
SETUP_REPEATS = 5
#: Ticks per timed slice of a day (one simulated hour at dt = 5 s); a
#: reference sample is taken before each.
SLICE_TICKS = 720
COUNTS = ("ticks", "core.power_ctrl_times", "core.vm_ctrl_times",
          "plant.shed_events")


@dataclass
class BuiltCell:
    name: str
    config: dict[str, Any]
    system: Any


def cell_id(cell) -> str:
    """The golden record name of ``cell``."""
    from repro.validate.golden import cell_name, scenario_cell_name

    controller, workload, weather, scenario = cell
    if scenario is not None:
        return scenario_cell_name(scenario)
    return cell_name(controller, workload, weather)


def _workload(cell) -> str:
    from repro.experiments.scenarios import get_scenario

    _controller, workload, _weather, scenario = cell
    return get_scenario(scenario).workload if scenario is not None else workload


def build_cell(cell, invariants: bool = False) -> BuiltCell:
    """Build one pinned cell exactly as the golden harness does."""
    from repro.core.system import build_system
    from repro.solar.traces import make_day_trace
    from repro.validate import golden

    (name, controller, workload, weather, seed, policies,
     extra) = golden._resolve_cell(*cell)
    trace = make_day_trace(weather, dt_seconds=golden.DT_SECONDS, seed=seed,
                           target_mean_w=golden.TARGET_MEAN_W)
    system = build_system(
        trace, golden._make_workload(workload), controller=controller,
        seed=seed, initial_soc=golden.INITIAL_SOC, dt=golden.DT_SECONDS,
        invariants=invariants, invariant_stride=golden.CHECK_STRIDE,
        policies=policies,
    )
    config = {
        "controller": controller, "workload": workload, "weather": weather,
        "seed": seed, "target_mean_w": golden.TARGET_MEAN_W,
        "initial_soc": golden.INITIAL_SOC, "dt": golden.DT_SECONDS,
        **extra,
    }
    return BuiltCell(name, config, system)


def build_cells(cells) -> list[BuiltCell]:
    """Build every cell from cold (the day-trace memo is emptied first, so
    each build pays for its traces)."""
    from repro.solar import traces

    traces._TRACE_MEMO.clear()
    return [build_cell(cell) for cell in cells]


def cell_record(built: BuiltCell, summary, horizon_s: float) -> dict[str, Any]:
    """The cell's comparable record, in the golden file's layout."""
    from repro.validate.golden import summary_fingerprint, trace_digests

    return {
        "cell": built.name,
        "config": {**built.config, "duration_s": horizon_s},
        "signals": trace_digests(built.system.recorder),
        "summary": summary_fingerprint(summary),
    }


def golden_mismatch(record: dict[str, Any],
                    expected: dict[str, Any]) -> str | None:
    """None when ``record`` equals the pinned ``expected`` record."""
    from repro.validate.golden import diff_records

    diffs = diff_records(expected, record)
    return "; ".join(diffs[:3]) if diffs else None


def invariant_rerun_mismatch(cell, horizon_s: float,
                             signals: dict[str, str]) -> str | None:
    """Re-run ``cell`` under the invariant checker: it must come out clean
    and with the same trace digests as the timed run."""
    from repro.validate.golden import trace_digests

    built = build_cell(cell, invariants=True)
    built.system.run(horizon_s)
    checker = built.system.checker
    if checker.checks_run == 0:
        return "invariant checker never ran"
    if checker.violations:
        return f"{len(checker.violations)} invariant violation(s): " \
            f"{checker.violations[0]}"
    if trace_digests(built.system.recorder) != signals:
        return "re-run trace digests differ from the timed run"
    return None


def _run_cell(built: BuiltCell, horizon_s: float, speed: HostSpeed,
              tracer: LayerTracer | None = None) -> tuple[Any, float]:
    """Run ``built`` for ``horizon_s`` in one-hour slices, with a reference
    sample before each slice; returns the summary and the run time in
    reference seconds.  Sliced stepping takes the same component steps
    as one ``run`` call, so the outputs are bit-identical."""
    system = built.system

    def step(fn, *args):
        return fn(*args) if tracer is None else tracer.call(
            "sim.dispatch", fn, *args)

    gc.collect()
    since = speed.mark()
    elapsed = 0.0
    start = time.perf_counter()
    step(system.begin_run, horizon_s)
    elapsed += time.perf_counter() - start
    while system.remaining_steps:
        speed.sample()
        start = time.perf_counter()
        step(system.advance, SLICE_TICKS)
        elapsed += time.perf_counter() - start
    start = time.perf_counter()
    summary = step(system.finalize)
    elapsed += time.perf_counter() - start
    speed.sample()
    return summary, speed.scaled(elapsed, since)


def _check_against_golden(checks: Checks, record: dict[str, Any],
                          full_day: bool) -> None:
    from repro.validate.golden import load_record

    if full_day:
        checks.record(record["cell"], lambda: golden_mismatch(
            record, load_record(record["cell"])))


def _wrap_layers(tracer: LayerTracer) -> None:
    from repro.cluster.rack import ServerRack
    from repro.core.baseline import BaselineController
    from repro.core.energy_manager import InsureController
    from repro.core.sensing import BatteryTelemetry
    from repro.core.system import PlantCoupler
    from repro.policy.policy import Policy
    from repro.power.bus import PowerBus
    from repro.power.plc import ProgrammableLogicController
    from repro.sim.trace import TraceRecorder
    from repro.solar.field import TracePlayer
    from repro.telemetry.metrics import MetricsCollector

    tracer.wrap_all([
        (TracePlayer, "step", "solar"),
        (BatteryTelemetry, "refresh", "core.sense"),
        (ProgrammableLogicController, "step", "core.sense"),
        (InsureController, "step", "core.decide"),
        (BaselineController, "step", "core.decide"),
        (Policy, "step", "policy"),
        (ServerRack, "step", "cluster.rack"),
        (PowerBus, "resolve", "power.bus"),
        (PlantCoupler, "step", "plant"),
        (MetricsCollector, "step", "telemetry.metrics"),
        (TraceRecorder, "__call__", "sim.recorder"),
    ])


def _cache_round_trip(summaries: dict[str, Any],
                      checks: Checks) -> dict[str, Metric]:
    """Put and get each summary through the public run-cache API in a
    fresh directory: miss, put, hit, and the payload must round-trip."""
    from repro.sim.cache import RunCache, cache_key, summary_to_payload

    WORK_DIR.mkdir(parents=True, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="cache-", dir=WORK_DIR)
    try:
        cache = RunCache(directory)
        put_ms, get_ms, hits, gets, lost = [], [], 0, 0, 0
        for name, summary in sorted(summaries.items()):
            key = cache_key("perfbench.engine-day", cell=name)
            payload = summary_to_payload(summary)
            for phase in ("before", "after"):
                start = time.perf_counter()
                got = cache.get(key)
                get_ms.append((time.perf_counter() - start) * 1e3)
                gets += 1
                hits += got is not None
                if phase == "before":
                    start = time.perf_counter()
                    cache.put(key, payload)
                    put_ms.append((time.perf_counter() - start) * 1e3)
                elif got != payload:
                    lost += 1
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    checks.record("cache round-trip", lambda: (
        f"{lost} cached summaries did not round-trip" if lost else None))
    return {
        "cache.put_ms": Metric(median(put_ms), "ms", len(put_ms)),
        "cache.get_ms": Metric(median(get_ms), "ms", len(get_ms)),
        "cache.hit_ratio": Metric(hits / gets, "ratio", gets),
    }


def run(seed: int, seconds: float, trace: bool,
        horizon_s: float | None = None) -> WorkloadResult:
    speed = HostSpeed()
    start = time.perf_counter()
    from repro.validate.golden import DURATION_S

    speed.sample()
    import_s = speed.scaled(time.perf_counter() - start, 0)
    horizon_s = DURATION_S if horizon_s is None else float(horizon_s)
    full_day = horizon_s == DURATION_S
    params = {"cells": [list(c) for c in CELLS], "horizon_s": horizon_s,
              "slice_ticks": SLICE_TICKS}
    checks = Checks()
    if trace:
        report = _traced(seed, horizon_s, full_day, checks)
        return WorkloadResult(report, report, checks, params)

    build_s = [speed.measure(build_cells, CELLS)[1]
               for _ in range(SETUP_REPEATS)]

    # Whole cycles over the cell set until ``seconds`` pass; the last
    # cycle may stop early, since every figure is per cell.
    begin = time.perf_counter()
    day_s: dict[str, list[float]] = {}
    ticks: dict[str, int] = {}
    signals: dict[str, dict[str, str]] = {}
    cycle = 0
    done = False
    while not done:
        order = list(CELLS)
        rng_for(seed, NAME, "order", cycle).shuffle(order)
        for built in build_cells(order):
            summary, elapsed = _run_cell(built, horizon_s, speed)
            day_s.setdefault(built.name, []).append(elapsed)
            ticks[built.name] = built.system.engine.clock.step_index
            record = cell_record(built, summary, horizon_s)
            signals.setdefault(built.name, record["signals"])
            _check_against_golden(checks, record, full_day)
            done = time.perf_counter() - begin >= seconds \
                and len(ticks) == len(CELLS)
            if done:
                break
        cycle += 1

    if seed != DEFAULT_SEED or not full_day:
        cell = rng_for(seed, NAME, "rerun").choice(list(CELLS))
        name = cell_id(cell)
        checks.record(f"{name} invariants", lambda: invariant_rerun_mismatch(
            cell, horizon_s, signals[name]))

    # Each cell's median day, in reference seconds.
    cell_s = {name: median(times) for name, times in day_s.items()}
    runs = sum(len(times) for times in day_s.values())
    seismic = [cell_id(cell) for cell in CELLS if _workload(cell) == "seismic"]
    report = {
        "setup_s": Metric(import_s + median(build_s), "s", len(build_s)),
        "engine_ticks_per_s": Metric(
            sum(ticks.values()) / sum(cell_s.values()), "1/s", runs),
        "engine_seismic_day_ms": Metric(
            sum(cell_s[name] for name in seismic) / len(seismic) * 1e3, "ms",
            sum(len(day_s[name]) for name in seismic)),
        "reference_s_median": Metric(
            median(speed.samples), "s", len(speed.samples)),
    }
    report["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    metrics = {
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "ticks_per_s": report["engine_ticks_per_s"],
        "latency_ms": report["engine_seismic_day_ms"],
    }
    return WorkloadResult(metrics, report, checks, params)


def _traced(seed: int, horizon_s: float, full_day: bool,
            checks: Checks) -> dict[str, Metric]:
    """Untraced and traced passes over the same cells, in the order
    untraced, traced, traced, untraced; every pass must reproduce the
    first bit for bit."""
    order = list(CELLS)
    rng_for(seed, NAME, "order", 0).shuffle(order)
    speed = HostSpeed()
    tracer = LayerTracer()
    expected: dict[str, dict[str, Any]] = {}
    summaries: dict[str, Any] = {}
    counts = dict.fromkeys(COUNTS, 0)
    elapsed_s = {False: 0.0, True: 0.0}
    for traced in (False, True, True, False):
        built_cells = build_cells(order)
        with tracer:
            if traced:
                _wrap_layers(tracer)
            for built in built_cells:
                summary, elapsed = _run_cell(built, horizon_s, speed,
                                             tracer if traced else None)
                elapsed_s[traced] += elapsed
                record = cell_record(built, summary, horizon_s)
                want = expected.setdefault(built.name, record)
                checks.record(f"{built.name} pass", lambda r=record, w=want: (
                    None if r == w else "pass differs from the first pass"))
                if traced and built.name not in summaries:
                    summaries[built.name] = summary
                    counts["ticks"] += built.system.engine.clock.step_index
                    counts["core.power_ctrl_times"] += summary.power_ctrl_times
                    counts["core.vm_ctrl_times"] += summary.vm_ctrl_times
                    counts["plant.shed_events"] += built.system.plant.shed_events
    for record in expected.values():
        _check_against_golden(checks, record, full_day)

    report: dict[str, Metric] = {}
    shares = tracer.shares(LAYERS)
    for layer in LAYERS:
        calls = tracer.calls.get(layer, 0)
        report[f"engine.{layer}.self_s"] = Metric(
            tracer.self_s.get(layer, 0.0), "s", calls)
        report[f"engine.{layer}.share"] = Metric(shares[layer], "ratio", calls)
    for name, value in counts.items():
        report[f"engine.{name}"] = Metric(value, "count")
    report["engine.trace_overhead"] = Metric(
        elapsed_s[True] / elapsed_s[False] - 1.0, "ratio", 2 * len(order))
    report.update(_cache_round_trip(summaries, checks))
    return report
