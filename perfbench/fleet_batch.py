"""fleet-batch: seed-varied insure/video sites through the numpy fleet kernel.

Two batch sizes: n = 16, where the fixed per-tick dispatch cost dominates,
and n = 1024, where the array work in bus resolve, charger and sensing
dominates.  Sites cycle over the pinned insure/video sunny, cloudy and
rainy day traces, so the per-site control masks diverge, and each site has
its own pinned noise seed; the seed orders the sites in the batch and
picks the sites re-run on the scalar engine.  (Seed-built traces made the
n = 1024 cost differ by about 25 % between seeds, and seed-drawn noise
seeds the n = 16 cost by about 10 %.)  Rounds of calls over
both sizes repeat until ``--seconds`` have passed.  Times are in reference
seconds (see :class:`perfbench.common.HostSpeed`, with the reference work of
:func:`fleet_reference`), sampled before and after every call.
"""

from __future__ import annotations

import gc
import time
from statistics import median
from typing import Any

from perfbench.common import (
    REFERENCE_S,
    Checks,
    HostSpeed,
    Metric,
    WorkloadResult,
    peak_rss_mb,
    reference_loop,
    rng_for,
)
from perfbench.tracing import LayerTracer

NAME = "fleet-batch"

#: (label, sites, simulated horizon in seconds) per batch size.
SIZES = (("n16", 16, 1800.0), ("n1024", 1024, 3600.0))
#: Calls of a size per round (default 1): an n = 16 call is about a
#: seventh of an n = 1024 call, and both sizes need enough calls in a run
#: for their medians to repeat between runs.
CALLS_PER_ROUND = {"n16": 5}
WEATHERS = ("sunny", "cloudy", "rainy")
CONTROLLER = "insure"
WORKLOAD = "video"
INITIAL_SOC = 0.55
DT_S = 5.0
MEAN_W = 800.0
#: Horizon of the warm-up call made during set-up.
WARMUP_S = 60.0
#: Sites per size re-run on the scalar engine as the output check.
SCALAR_CHECKS = {"n16": 2, "n1024": 1}
#: Set-up repetitions; set-up time is their median.
SETUP_REPEATS = 5

#: Rounds of numpy work on 16-element arrays in a reference sample, and
#: the sample's time on the reference host (half of it the Python loop).
NUMPY_REFERENCE_ROUNDS = 1200
FLEET_REFERENCE_S = 2 * REFERENCE_S

#: Kernel phases of the traced run, in report order.
PHASES = ("sense", "controller", "rack", "bus_resolve", "charger",
          "workload", "metrics", "dispatch")


def fleet_reference() -> None:
    """The Python reference loop plus fixed numpy calls on 16-element
    arrays.  The kernel's time is split between the interpreter and
    numpy's per-call overhead, and the host's drift slows the two by
    different amounts (an n = 16 call slowed by 2.2x where the Python
    loop slowed by 1.8x)."""
    import numpy

    reference_loop()
    x = numpy.linspace(0.0, 1.0, 16)
    y = x[::-1].copy()
    for _ in range(NUMPY_REFERENCE_ROUNDS):
        x = numpy.minimum(numpy.maximum(x * 1.0001 + y, 0.0), 5.0)


def build_inputs(seed: int, sizes=SIZES) -> tuple[list, dict[str, list]]:
    """Day traces and per-size site specs.  The sites are pinned; ``seed``
    only orders them in the batch."""
    from repro.experiments.runner import derive_seed
    from repro.sim.fleet.kernel import SiteSpec
    from repro.solar import traces
    from repro.validate.golden import BASE_SEED

    traces._TRACE_MEMO.clear()
    day_traces = [
        traces.make_day_trace(
            weather, dt_seconds=DT_S, target_mean_w=MEAN_W,
            seed=derive_seed(BASE_SEED, CONTROLLER, WORKLOAD, weather))
        for weather in WEATHERS
    ]
    powers = [tuple(trace.power_w) for trace in day_traces]
    specs: dict[str, list] = {}
    for label, sites, horizon_s in sizes:
        pinned = rng_for(NAME, "sites", label)  # not the workload seed
        specs[label] = [
            SiteSpec(controller=CONTROLLER, workload=WORKLOAD,
                     seed=pinned.randrange(2**31), initial_soc=INITIAL_SOC,
                     trace_power_w=powers[i % len(powers)], trace_dt_s=DT_S,
                     dt_s=DT_S, duration_s=horizon_s)
            for i in range(sites)
        ]
        rng_for(seed, NAME, "order", label).shuffle(specs[label])
    return day_traces, specs


def trace_of(day_traces, spec):
    """The day trace ``spec`` replays."""
    return next(trace for trace in day_traces
                if tuple(trace.power_w) == spec.trace_power_w)


def _setup(seed: int, sizes) -> tuple[list, dict[str, list]]:
    """Build the inputs and warm each batch size up with a short call."""
    import dataclasses

    from repro.sim.fleet.kernel import simulate_fleet

    day_traces, specs = build_inputs(seed, sizes)
    for label, _sites, _horizon in sizes:
        simulate_fleet([dataclasses.replace(spec, duration_s=WARMUP_S)
                        for spec in specs[label]])
    return day_traces, specs


def scalar_mismatch(day_trace, spec, fleet_summary: dict[str, Any],
                    name: str) -> str | None:
    """Run one site on the scalar engine and compare its summary with the
    fleet's at the FleetValidator tolerances."""
    from repro.core.system import build_system
    from repro.sim.fleet.validator import compare_summaries
    from repro.validate.golden import _make_workload

    system = build_system(
        day_trace, _make_workload(spec.workload), controller=spec.controller,
        seed=spec.seed, initial_soc=spec.initial_soc, dt=spec.dt_s,
        battery_count=spec.battery_count, server_count=spec.server_count,
    )
    summary = vars(system.run(spec.duration_s))
    verdict = compare_summaries(name, fleet_summary, summary)
    return None if verdict.ok else verdict.describe()


def _call(speed: HostSpeed, specs, tracer: LayerTracer | None = None):
    """One ``simulate_fleet`` call; returns its summaries and its time in
    reference seconds."""
    from repro.sim.fleet.kernel import simulate_fleet

    def call():
        if tracer is None:
            return simulate_fleet(specs)
        with tracer:
            _wrap_phases(tracer)
            return simulate_fleet(specs)

    gc.collect()
    return speed.measure(call)


def _wrap_phases(tracer: LayerTracer) -> None:
    from repro.sim.fleet import controllers
    from repro.sim.fleet.kernel import _FleetBatch

    tracer.wrap_all([
        (_FleetBatch, "__init__", "init"),
        (_FleetBatch, "step_tick", "dispatch"),
        (_FleetBatch, "_sense", "sense"),
        (_FleetBatch, "_update_ema", "sense"),
        (controllers, "insure_step", "controller"),
        (controllers, "baseline_step", "controller"),
        (_FleetBatch, "_policy_step", "controller"),
        (_FleetBatch, "_rack_step", "rack"),
        (_FleetBatch, "_bus_resolve", "bus_resolve"),
        (_FleetBatch, "_charger_step", "charger"),
        (_FleetBatch, "_workload_step", "workload"),
        (_FleetBatch, "_emergency_shed", "workload"),
        (_FleetBatch, "_metrics_step", "metrics"),
    ])


def _scalar_checks(seed: int, checks: Checks, day_traces, specs, outputs,
                   sizes) -> None:
    for label, _sites, _horizon in sizes:
        rng = rng_for(seed, NAME, "check", label)
        picks = rng.sample(range(len(specs[label])),
                           min(SCALAR_CHECKS.get(label, 1), len(specs[label])))
        for index in picks:
            name = f"{label} site {index}"
            spec = specs[label][index]
            checks.record(f"{name} scalar", lambda sp=spec, i=index, n=name,
                          s=label: scalar_mismatch(trace_of(day_traces, sp), sp,
                                                   outputs[s][i], n))


def run(seed: int, seconds: float, trace: bool, sizes=SIZES) -> WorkloadResult:
    speed = HostSpeed(fleet_reference, FLEET_REFERENCE_S)
    start = time.perf_counter()
    import repro.sim.fleet.kernel  # noqa: F401  (import cost is set-up)

    speed.sample()
    import_s = speed.scaled(time.perf_counter() - start, 0)
    params = {"sizes": [list(size) for size in sizes],
              "controller": CONTROLLER, "workload": WORKLOAD,
              "weathers": list(WEATHERS)}
    checks = Checks()
    if trace:
        report = _traced(seed, sizes, checks)
        return WorkloadResult(report, report, checks, params)

    setup_s = []
    for _ in range(SETUP_REPEATS):
        (day_traces, specs), elapsed = speed.measure(_setup, seed, sizes)
        setup_s.append(elapsed)

    call_s: dict[str, list[float]] = {label: [] for label, _, _ in sizes}
    first: dict[str, list] = {}
    begin = time.perf_counter()
    while True:
        for label, _sites, _horizon in sizes:
            for _ in range(CALLS_PER_ROUND.get(label, 1)):
                out, elapsed = _call(speed, specs[label])
                call_s[label].append(elapsed)
                want = first.setdefault(label, out)
                checks.record(f"{label} call", lambda o=out, w=want: (
                    None if o == w else "repeat call gave different summaries"))
        if time.perf_counter() - begin >= seconds:
            break
    _scalar_checks(seed, checks, day_traces, specs, first, sizes)

    (small, _, _), (large, large_n, _) = sizes[0], sizes[-1]
    small_ticks = specs[small][0].steps()
    large_ticks = specs[large][0].steps()
    # The median call of each size, in reference seconds.
    report = {
        "setup_s": Metric(import_s + median(setup_s), "s", len(setup_s)),
        f"fleet_tick_us_{small}": Metric(
            median(call_s[small]) / small_ticks * 1e6, "us",
            len(call_s[small])),
        f"fleet_site_ticks_per_s_{large}": Metric(
            large_n * large_ticks / median(call_s[large]), "1/s",
            len(call_s[large])),
        "reference_s_median": Metric(
            median(speed.samples), "s", len(speed.samples)),
    }
    report["peak_rss_mb"] = Metric(peak_rss_mb(), "MB")
    tick_us = report[f"fleet_tick_us_{small}"]
    metrics = {
        "setup_s": report["setup_s"],
        "peak_rss_mb": report["peak_rss_mb"],
        "ticks_per_s": report[f"fleet_site_ticks_per_s_{large}"],
        "latency_ms": Metric(tick_us.value / 1e3, "ms", tick_us.samples),
    }
    return WorkloadResult(metrics, report, checks, params)


def _traced(seed: int, sizes, checks: Checks) -> dict[str, Metric]:
    """Per size, untraced and traced calls over the same sites in the order
    untraced, traced, traced, untraced; every call must return the same
    summaries."""
    day_traces, specs = _setup(seed, sizes)
    speed = HostSpeed(fleet_reference, FLEET_REFERENCE_S)
    report: dict[str, Metric] = {}
    untraced_s = traced_s = 0.0
    outputs = {}
    for label, _sites, _horizon in sizes:
        tracer = LayerTracer()
        for traced_call in (False, True, True, False):
            out, elapsed = _call(speed, specs[label],
                                 tracer if traced_call else None)
            if traced_call:
                traced_s += elapsed
            else:
                untraced_s += elapsed
            plain = outputs.setdefault(label, out)
            checks.record(f"{label} call", lambda a=plain, b=out: (
                None if a == b else "calls gave different summaries"))
        ticks = tracer.calls.get("dispatch", 0)
        shares = tracer.shares(PHASES)
        for phase in PHASES:
            report[f"fleet.{label}.{phase}.us_per_tick"] = Metric(
                tracer.self_s.get(phase, 0.0) / max(ticks, 1) * 1e6, "us",
                ticks)
            report[f"fleet.{label}.{phase}.share"] = Metric(
                shares[phase], "ratio", ticks)
        inits = tracer.calls.get("init", 0)
        report[f"fleet.{label}.init_s"] = Metric(
            tracer.self_s.get("init", 0.0) / max(inits, 1), "s", inits)
    report["fleet.trace_overhead"] = Metric(
        traced_s / untraced_s - 1.0, "ratio", len(sizes))
    _scalar_checks(seed, checks, day_traces, specs, outputs, sizes)
    return report
