"""Profiling harness: instrumented full-system runs.

``repro profile run`` (and :func:`profile_run` underneath) builds one
full-system cell with observability attached, runs it, and reports:

* a per-component wall-time breakdown (span self-times, hottest first),
* the hottest sampled ticks with their per-span breakdowns,
* the controller decision-event totals,
* optionally a ``cProfile`` dump (``.pstats``, loadable by ``snakeviz``
  or ``flameprof``) capturing the whole run at function granularity.

The harness itself never touches simulation state; a profiled run's
traces stay bit-identical to the unprofiled same-seed run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.cell import CellSpec
from repro.obs.hub import Observability
from repro.obs.spans import DEFAULT_STRIDE
from repro.telemetry.metrics import RunSummary


@dataclass
class ProfileResult:
    """Everything one instrumented run produced."""

    summary: RunSummary
    obs: Observability
    wall_s: float
    ticks: int
    cprofile_path: Path | None = None

    @property
    def breakdown(self) -> list[dict[str, Any]]:
        return self.obs.tracer.report_rows()

    @property
    def hottest(self) -> list[dict[str, Any]]:
        return self.obs.tracer.hottest()

    @property
    def decision_counts(self) -> dict[str, int]:
        return self.obs.decisions.counts()


def profile_run(
    controller: str = "insure",
    workload: str = "seismic",
    weather: str = "sunny",
    mean_w: float = 800.0,
    seed: int = 1,
    initial_soc: float = 0.55,
    dt: float = 5.0,
    duration_s: float | None = None,
    stride: int = DEFAULT_STRIDE,
    cprofile_path=None,
) -> ProfileResult:
    """Run one instrumented full-system cell and collect its profile."""
    obs = Observability(trace_stride=stride)
    system = CellSpec(controller, workload, weather, mean_w, seed, initial_soc,
                      dt).build(observability=obs)
    profiler = None
    if cprofile_path is not None:
        import cProfile

        profiler = cProfile.Profile()
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    summary = system.run(duration_s)
    if profiler is not None:
        profiler.disable()
    wall_s = time.perf_counter() - t0
    dumped = None
    if profiler is not None:
        dumped = Path(cprofile_path)
        dumped.parent.mkdir(parents=True, exist_ok=True)
        profiler.dump_stats(dumped)
    return ProfileResult(
        summary=summary,
        obs=obs,
        wall_s=wall_s,
        ticks=system.engine.clock.step_index,
        cprofile_path=dumped,
    )


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_breakdown(result: ProfileResult) -> str:
    """The per-component time-breakdown table."""
    tracer = result.obs.tracer
    lines = [
        f"per-component time breakdown "
        f"({tracer.sampled_ticks} of {result.ticks} ticks sampled, "
        f"stride {tracer.stride})",
        f"{'span':28s} {'calls':>7s} {'self ms':>9s} {'total ms':>9s} "
        f"{'mean us':>9s} {'max us':>9s} {'share':>7s}",
    ]
    for row in result.breakdown:
        lines.append(
            f"{row['span']:28s} {row['calls']:7d} {row['self_s'] * 1e3:9.2f} "
            f"{row['total_s'] * 1e3:9.2f} {row['mean_us']:9.1f} "
            f"{row['max_us']:9.1f} {row['share'] * 100:6.1f}%"
        )
    return "\n".join(lines)


def render_hottest(result: ProfileResult, top_spans: int = 3) -> str:
    """The hottest-tick report."""
    ticks = result.hottest
    if not ticks:
        return "hottest ticks: none sampled"
    lines = ["hottest sampled ticks"]
    for entry in ticks:
        top = list(entry["breakdown"].items())[:top_spans]
        detail = ", ".join(f"{name} {self_s * 1e6:.0f}us" for name, self_s in top)
        lines.append(
            f"  tick {entry['tick']:>7d}  t={entry['t']:9.1f}s  "
            f"{entry['wall_us']:8.1f}us  ({detail})"
        )
    return "\n".join(lines)


def render_decisions(result: ProfileResult) -> str:
    counts = result.decision_counts
    if not counts:
        return "decision events: none"
    lines = [f"decision events ({sum(counts.values())} total)"]
    for kind, count in counts.items():
        lines.append(f"  {kind:24s} {count:6d}")
    return "\n".join(lines)


def write_outputs(result: ProfileResult, out_dir) -> dict[str, Path]:
    """Export the run's observability artifacts plus the rendered report."""
    paths = result.obs.export(out_dir)
    report = Path(out_dir) / "breakdown.txt"
    report.write_text(
        render_breakdown(result)
        + "\n\n"
        + render_hottest(result)
        + "\n\n"
        + render_decisions(result)
        + "\n",
        encoding="utf-8",
    )
    paths["breakdown"] = report
    return paths
