"""serve-sessions: a closed loop of served full-day sessions.

The daemon (``repro serve --port 0``) runs in a child process.  Two
caller threads each create a pinned-cell session (autostart), stream its
SSE events to ``end``, delete it and create the next, until ``--seconds``
have passed; sessions still running then are streamed to their end.  The
seed picks each caller's cell sequence from the seismic cells (matrix and
scenario), whose served days cost within about 10% of each other; video
days cost 2.8-5.0 s each, so in a short run a seed-picked video mix would
move throughput by more than any bound.  Throughput is the simulated
ticks of all sessions per second of the daemon's CPU time; session times
are taken at the client.  Both are in reference seconds (see
:class:`perfbench.common.HostSpeed`), sampled on the main thread while
the callers run.

The traced run adds in-process replays of the same session mix, two
sessions interleaved by ``SessionManager.step_once``: untraced, traced,
traced and untraced again.
"""

from __future__ import annotations

import gc
import json
import resource
import select
import subprocess
import sys
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from statistics import median
from typing import Any

from perfbench.common import (
    ROOT,
    Checks,
    HostSpeed,
    Metric,
    WorkloadResult,
    child_env,
    peak_rss_mb,
    rng_for,
)
from perfbench.stats import tail_percentile
from perfbench.tracing import LayerTracer

NAME = "serve-sessions"

CALLERS = 2
#: Daemon spawns during set-up; set-up time is their median.
SETUP_REPEATS = 5
#: Sessions per caller in the in-process replay of the traced run.
INPROCESS_SESSIONS = 2
SPAWN_TIMEOUT_S = 30.0
#: Seconds between reference samples while the callers run.
SAMPLE_PERIOD_S = 0.1
SESSION_TIMEOUT_S = 60.0

#: Layers of the in-process traced run, in report order.
LAYERS = ("session.build", "engine.components", "engine.observers",
          "obs.tap", "sse.buffer", "sse.encode", "manager.other")


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def serve_cells() -> list[str]:
    """The pinned seismic cells (matrix and scenario) sessions draw from."""
    from repro.experiments.scenarios import get_scenario
    from repro.validate.golden import available_cell_ids

    def workload(cell: str) -> str:
        if cell.startswith("scenario-"):
            return get_scenario(cell[len("scenario-"):]).workload
        return cell.split(":")[1]

    return [cell for cell in available_cell_ids()
            if workload(cell) == "seismic"]


def caller_cells(seed: int, caller: int) -> Iterator[str]:
    """Caller ``caller``'s endless, seed-picked cell sequence."""
    cells = serve_cells()
    rng = rng_for(seed, NAME, "caller", caller)
    while True:
        yield rng.choice(cells)


def manifest_for(cell: str) -> dict[str, Any]:
    """A full-day session of ``cell`` with the daemon's default slicing
    (one ``metrics`` event per slice)."""
    return {"cell": cell}


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
def session_problem(events: list[tuple[int | None, str, str]]) -> str | None:
    """None when a session's event stream is right: strictly increasing
    ids, no ``error`` event, a ``summary`` whose golden verdict is ok,
    and ``end`` last."""
    ids = [event_id for event_id, _, _ in events]
    if any(i is None for i in ids):
        return "event without an id"
    if any(b <= a for a, b in zip(ids, ids[1:])):
        return "event ids not strictly increasing"
    kinds = [kind for _, kind, _ in events]
    if "error" in kinds:
        data = events[kinds.index("error")][2]
        return f"error event: {data[:200]}"
    if not kinds or kinds[-1] != "end":
        return "stream did not finish with end"
    if "summary" not in kinds:
        return "no summary event"
    golden = json.loads(events[kinds.index("summary")][2]).get("golden")
    if not golden:
        return "summary has no golden verdict"
    if not golden.get("ok"):
        return f"golden mismatch: {golden.get('mismatches')}"
    return None


# ----------------------------------------------------------------------
# Daemon
# ----------------------------------------------------------------------
@dataclass
class Daemon:
    proc: subprocess.Popen
    port: int

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def spawn_daemon() -> Daemon:
    """Start ``repro serve --port 0`` and wait until ``/healthz`` answers."""
    from repro.serve.client import ServeClient

    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, text=True,
    )
    daemon = Daemon(proc, 0)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], SPAWN_TIMEOUT_S)
        line = proc.stdout.readline() if ready else ""
        if "http://" not in line:
            raise RuntimeError(f"daemon did not announce its port: {line!r}")
        daemon.port = int(line.split("http://", 1)[1].split()[0]
                          .rsplit(":", 1)[1])
        ServeClient(port=daemon.port).wait_ready(timeout=SPAWN_TIMEOUT_S)
    except BaseException:
        daemon.stop()
        raise
    return daemon


def scrape_counter(prometheus_text: str, name: str) -> float:
    for line in prometheus_text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise KeyError(f"{name} not exported")


# ----------------------------------------------------------------------
# Closed loop against the daemon
# ----------------------------------------------------------------------
@dataclass
class SessionSample:
    cell: str
    create_s: float = 0.0
    stream_open_s: float = 0.0
    first_metrics_s: float | None = None
    session_s: float = 0.0
    ended_at: float = 0.0
    gaps_s: list[float] = field(default_factory=list)
    #: Simulated ticks of the session (from its ``hello`` event).
    ticks: int = 0
    events: int = 0
    sse_bytes: int = 0
    problem: str | None = None


def run_session(client, cell: str) -> SessionSample:
    from repro.serve.sse import encode_event

    sample = SessionSample(cell)
    events: list[tuple[int | None, str, str]] = []
    try:
        start = time.perf_counter()
        session_id = client.create_session(manifest_for(cell))["session"]
        opened = time.perf_counter()
        sample.create_s = opened - start
        last_metrics = None
        for event in client.stream(session_id):
            now = time.perf_counter()
            events.append((event.id, event.event, event.data))
            sample.sse_bytes += len(encode_event(event.data, event=event.event,
                                                 id=event.id))
            if event.event == "hello":
                sample.stream_open_s = now - opened
                sample.ticks = json.loads(event.data)["total_ticks"]
            elif event.event == "metrics":
                if last_metrics is None:
                    sample.first_metrics_s = now - start
                else:
                    sample.gaps_s.append(now - last_metrics)
                last_metrics = now
        sample.ended_at = time.perf_counter()
        sample.session_s = sample.ended_at - start
        sample.events = len(events)
        client.delete_session(session_id)
        sample.problem = session_problem(events)
    except Exception as exc:  # counted as a failed operation
        sample.problem = f"{type(exc).__name__}: {exc}"
    return sample


def closed_loop(port: int, seed: int, seconds: float, speed: HostSpeed
                ) -> tuple[list[SessionSample], float]:
    """Run the callers, taking reference samples on this thread meanwhile;
    returns their samples and when they started."""
    from repro.serve.client import ServeClient

    samples: list[list[SessionSample]] = [[] for _ in range(CALLERS)]
    begin = time.perf_counter()
    window_end = begin + seconds

    def caller(index: int) -> None:
        client = ServeClient(port=port, timeout=SESSION_TIMEOUT_S)
        cells = caller_cells(seed, index)
        while True:  # at least one session per caller
            samples[index].append(run_session(client, next(cells)))
            if time.perf_counter() >= window_end:
                break

    threads = [threading.Thread(target=caller, args=(i,), daemon=True)
               for i in range(CALLERS)]
    for thread in threads:
        thread.start()
    deadline = window_end + 4 * SESSION_TIMEOUT_S
    for thread in threads:
        while thread.is_alive() and time.perf_counter() < deadline:
            speed.sample()
            thread.join(timeout=SAMPLE_PERIOD_S)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a caller did not finish")
    return [s for per_caller in samples for s in per_caller], begin


def children_cpu_s() -> float:
    """CPU seconds of every child process waited for so far."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _daemon_report(seed: int, seconds: float, checks: Checks,
                   ) -> tuple[dict[str, Metric], dict[str, Metric]]:
    """Set up, drive and stop the daemon; returns the end-to-end and the
    client-side per-layer figures.

    The daemon's CPU time comes from ``RUSAGE_CHILDREN`` once it has been
    waited for.  The set-up daemons, spawned and stopped without work,
    give the CPU cost of a daemon's start and stop, which is taken off
    the measured daemon's total."""
    from repro.serve.client import ServeClient

    speed = HostSpeed()
    setup_s = []
    idle_cpu_s = []
    daemon = None
    try:
        for _ in range(SETUP_REPEATS):
            if daemon is not None:
                cpu_before = children_cpu_s()
                daemon.stop()
                idle_cpu_s.append(children_cpu_s() - cpu_before)
            daemon, elapsed = speed.measure(spawn_daemon)
            setup_s.append(elapsed)
        since = speed.mark()
        samples, begin = closed_loop(daemon.port, seed, seconds, speed)
        scraped = ServeClient(port=daemon.port).metrics()
    finally:
        if daemon is not None:
            cpu_before = children_cpu_s()
            daemon.stop()
    daemon_cpu_s = children_cpu_s() - cpu_before - median(idle_cpu_s)

    for i, sample in enumerate(samples):
        checks.record(f"session {i} {sample.cell}", lambda s=sample: s.problem)
    good = [s for s in samples if s.problem is None] or samples
    ticks = sum(s.ticks for s in good)
    span_s = speed.scaled(max(s.ended_at for s in samples) - begin, since)
    gaps = [gap for s in good for gap in s.gaps_s]
    first = [s.first_metrics_s for s in good if s.first_metrics_s is not None]
    tail = tail_percentile(gaps)
    end_to_end = {
        "setup_s": Metric(median(setup_s), "s", len(setup_s)),
        "peak_rss_mb": Metric(peak_rss_mb(children=True), "MB", len(setup_s)),
        "serve_ticks_per_cpu_s": Metric(
            ticks / speed.scaled(daemon_cpu_s, since), "1/s", len(good)),
        "serve_ticks_per_s": Metric(ticks / span_s, "1/s", len(good)),
        "serve_sessions_per_s": Metric(len(good) / span_s, "1/s", len(good)),
        "serve_session_s_p50": Metric(speed.scaled(
            median([s.session_s for s in good]), since), "s", len(good)),
        "serve_session_s_mean": Metric(speed.scaled(
            sum(s.session_s for s in good) / len(good), since), "s",
            len(good)),
        "serve_first_event_ms_p50": Metric(
            speed.scaled(median(first), since) * 1e3 if first
            else float("nan"), "ms", len(first)),
        "reference_s_median": Metric(
            median(speed.samples), "s", len(speed.samples)),
    }
    if tail is not None:
        pct, value = tail
        end_to_end[f"serve_event_gap_ms_p{pct:g}"] = Metric(
            value * 1e3, "ms", len(gaps))
    layers = {
        "serve.create_ms_p50": Metric(
            median([s.create_s for s in good]) * 1e3, "ms", len(good)),
        "serve.stream_open_ms_p50": Metric(
            median([s.stream_open_s for s in good]) * 1e3, "ms", len(good)),
        "serve.events_per_session": Metric(
            median([s.events for s in good]), "count", len(good)),
        "serve.sse_kb_per_session": Metric(
            median([s.sse_bytes for s in good]) / 1e3, "kB", len(good)),
        "serve.slices_total": Metric(
            scrape_counter(scraped, "serve_slices_total"), "count"),
        "serve.sessions_failed_total": Metric(
            scrape_counter(scraped, "serve_sessions_failed_total"), "count"),
    }
    return end_to_end, layers


# ----------------------------------------------------------------------
# In-process replay (traced run)
# ----------------------------------------------------------------------
def inprocess_mix(seed: int, per_caller: int,
                  tracer: LayerTracer | None = None
                  ) -> dict[str, list[tuple[int | None, str, str]]]:
    """Replay the session mix in-process: ``CALLERS`` slots, each running
    ``per_caller`` sessions back to back, all interleaved by
    ``SessionManager.step_once``.  Returns each session's events, keyed
    by slot and position; delivery encodes every event as the daemon
    would for a subscriber."""
    from repro.serve.manager import SessionManager
    from repro.serve.manifest import parse_manifest
    from repro.serve.session import SessionState

    def charged(fn, *args):
        return fn(*args) if tracer is None else tracer.call(
            "manager.other", fn, *args)

    manager = SessionManager()
    queues = [
        [next(cells) for _ in range(per_caller)]
        for cells in (caller_cells(seed, i) for i in range(CALLERS))
    ]
    streams: dict[str, list[tuple[int | None, str, str]]] = {}
    active: dict[int, tuple[Any, str, int]] = {}

    def start_next(slot: int) -> None:
        if queues[slot]:
            position = per_caller - len(queues[slot])
            manifest = parse_manifest(manifest_for(queues[slot].pop(0)))
            session = charged(manager.create, manifest, True)
            key = f"slot{slot}.{position}"
            streams[key] = []
            active[slot] = (session, key, 0)

    def deliver() -> None:
        for slot, (session, key, last_id) in list(active.items()):
            for event in session.events.events_after(last_id):
                event.encode()
                streams[key].append((event.id, event.event, event.data))
                last_id = event.id
            active[slot] = (session, key, last_id)

    for slot in range(CALLERS):
        start_next(slot)
    while active:
        charged(manager.step_once)
        charged(deliver)
        for slot, (session, _key, _last) in list(active.items()):
            if session.state in (SessionState.DONE, SessionState.FAILED):
                manager.remove(session.id)
                del active[slot]
                start_next(slot)
    return streams


def _wrap_layers(tracer: LayerTracer) -> None:
    from repro.cluster.rack import ServerRack
    from repro.core.baseline import BaselineController
    from repro.core.energy_manager import InsureController
    from repro.core.system import InSituSystem, PlantCoupler
    from repro.obs.stream import StreamTap
    from repro.serve import session
    from repro.serve.sse import BufferedEvent, EventBuffer
    from repro.solar.field import TracePlayer
    from repro.telemetry.metrics import MetricsCollector

    tracer.wrap_all([
        (session, "build_session_system", "session.build"),
        (InSituSystem, "advance", "engine.observers"),
        *((component, "step", "engine.components") for component in (
            TracePlayer, InsureController, BaselineController, ServerRack,
            PlantCoupler, MetricsCollector)),
        (StreamTap, "poll", "obs.tap"),
        (EventBuffer, "append", "sse.buffer"),
        (BufferedEvent, "encode", "sse.encode"),
    ])


def _inprocess_report(seed: int, per_caller: int,
                      checks: Checks) -> dict[str, Metric]:
    """Replays in the order untraced, traced, traced, untraced (so a
    drifting host speed cancels out of the overhead); every replay must
    stream exactly what the first did."""
    tracer = LayerTracer()
    elapsed_s = {False: 0.0, True: 0.0}
    first = None
    for traced in (False, True, True, False):
        gc.collect()
        with tracer:
            if traced:
                _wrap_layers(tracer)
            start = time.perf_counter()
            streams = inprocess_mix(seed, per_caller,
                                    tracer if traced else None)
            elapsed_s[traced] += time.perf_counter() - start
        if first is None:
            first = streams
            for key, events in sorted(streams.items()):
                checks.record(f"in-process {key}",
                              lambda e=events: session_problem(e))
        else:
            checks.record("in-process replay", lambda s=streams: (
                None if s == first else "replay streamed other events"))

    report: dict[str, Metric] = {}
    shares = tracer.shares(LAYERS)
    for layer in LAYERS:
        calls = tracer.calls.get(layer, 0)
        report[f"serve.{layer}.self_s"] = Metric(
            tracer.self_s.get(layer, 0.0), "s", calls)
        report[f"serve.{layer}.share"] = Metric(shares[layer], "ratio", calls)
    report["serve.trace_overhead"] = Metric(
        elapsed_s[True] / elapsed_s[False] - 1.0, "ratio", 2 * len(first))
    return report


def run(seed: int, seconds: float, trace: bool,
        inprocess_sessions: int = INPROCESS_SESSIONS) -> WorkloadResult:
    from repro.serve.manifest import DEFAULT_TICK_SLICE

    params = {"callers": CALLERS, "tick_slice": DEFAULT_TICK_SLICE,
              "cells": serve_cells(),
              "inprocess_sessions_per_caller": inprocess_sessions}
    checks = Checks()
    end_to_end, layers = _daemon_report(seed, seconds, checks)
    if trace:
        layers.update(_inprocess_report(seed, inprocess_sessions, checks))
        return WorkloadResult(layers, {**end_to_end, **layers}, checks, params)
    metrics = {
        "setup_s": end_to_end["setup_s"],
        "peak_rss_mb": end_to_end["peak_rss_mb"],
        "ticks_per_s": end_to_end["serve_ticks_per_cpu_s"],
        "latency_ms": Metric(
            end_to_end["serve_session_s_mean"].value * 1e3, "ms",
            end_to_end["serve_session_s_mean"].samples),
    }
    return WorkloadResult(metrics, {**end_to_end, **layers}, checks, params)
