"""Adapters that route experiment cells onto the vectorized fleet kernel.

The ``fleet`` backend of :func:`repro.experiments.runner.run_cells` needs
to turn a cell — a kwargs mapping for a scalar, picklable cell function —
into a :class:`~repro.sim.fleet.kernel.SiteSpec`, and the kernel's summary
dict back into the :class:`~repro.telemetry.metrics.RunSummary` the caller
expects.  Each supported cell function registers a spec builder here,
keyed by its dotted name so this module never imports the experiment
modules at import time (they import the runner, which imports us lazily).

Fleet results are memoised in the same on-disk run cache as scalar cells
but under ``fleet.``-prefixed keys: the vectorized kernel is only
tolerance-equal to the scalar reference (see
:mod:`repro.sim.fleet.validator`), so its summaries must never replay as
scalar ones, and vice versa.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any

from repro.sim.fleet import FleetUnsupported
from repro.sim.fleet.kernel import SiteSpec, simulate_fleet
from repro.telemetry.metrics import RunSummary


def _spec_fullsystem(cell: Mapping[str, Any]) -> tuple[SiteSpec, dict]:
    """repro.experiments.fullsystem.run_single."""
    from repro.experiments.fullsystem import cell_spec

    spec = cell_spec(**cell)
    return spec.to_site(), spec.key()


def _spec_table6(cell: Mapping[str, Any]) -> tuple[SiteSpec, dict]:
    """repro.experiments.table6.run_table6_cell."""
    from repro.solar.traces import table6_trace

    day = cell["day"]
    controller = cell["controller"]
    seed = cell.get("seed", 1)
    initial_soc = cell.get("initial_soc", 0.55)
    dt = cell.get("dt", 5.0)
    trace = table6_trace(day, dt_seconds=dt, seed=seed)
    spec = SiteSpec(
        controller=controller,
        workload="seismic",
        seed=seed,
        initial_soc=initial_soc,
        trace_power_w=tuple(trace.power_w),
        trace_dt_s=dt,
        dt_s=dt,
    )
    key_params = dict(day=day, controller=controller, seed=seed,
                      initial_soc=initial_soc, dt=dt)
    return spec, key_params


def _spec_provisioning(cell: Mapping[str, Any]) -> tuple[SiteSpec, dict]:
    """repro.experiments.provisioning.run_provisioning_cell."""
    from repro.experiments.provisioning import _day_and_night_trace

    battery_count = cell["battery_count"]
    solar_scale = cell["solar_scale"]
    seed = cell["seed"]
    mean_w = cell.get("mean_w", 900.0)
    trace = _day_and_night_trace(seed, mean_w * solar_scale)
    spec = SiteSpec(
        controller="insure",
        workload="video",
        seed=seed,
        initial_soc=0.55,
        trace_power_w=tuple(trace.power_w),
        trace_dt_s=trace.dt_seconds,
        battery_count=battery_count,
        dt_s=trace.dt_seconds,
    )
    key_params = dict(battery_count=battery_count, solar_scale=solar_scale,
                      seed=seed, mean_w=mean_w)
    return spec, key_params


def _spec_scenario(cell: Mapping[str, Any]) -> tuple[SiteSpec, dict]:
    """repro.experiments.scenarios.run_scenario_cell."""
    from repro.experiments.scenarios import cell_spec

    try:
        spec = cell_spec(**cell)
    except ValueError as exc:
        raise FleetUnsupported(str(exc)) from None
    return spec.to_site(), spec.key()


#: Dotted cell-function name -> (cache namespace, spec builder).
_ADAPTERS: dict[str, tuple[str, Callable[[Mapping[str, Any]],
                                         tuple[SiteSpec, dict]]]] = {
    "repro.experiments.fullsystem.run_single":
        ("fleet.fullsystem.run_single", _spec_fullsystem),
    "repro.experiments.table6.run_table6_cell":
        ("fleet.table6.cell", _spec_table6),
    "repro.experiments.provisioning.run_provisioning_cell":
        ("fleet.provisioning.cell", _spec_provisioning),
    "repro.experiments.scenarios.run_scenario_cell":
        ("fleet.scenarios.cell", _spec_scenario),
}


def _fn_name(fn: Callable[..., Any]) -> str:
    return f"{getattr(fn, '__module__', '?')}.{getattr(fn, '__qualname__', '?')}"


def has_adapter(fn: Callable[..., Any]) -> bool:
    """Whether run_cells_fleet can route this cell function."""
    return _fn_name(fn) in _ADAPTERS


def run_cells_fleet(
    fn: Callable[..., Any], cells: Sequence[Mapping[str, Any]]
) -> list[RunSummary]:
    """Run every cell through the fleet kernel; results in input order.

    Raises :class:`FleetUnsupported` when the cell function has no
    adapter or any cell cannot be expressed as a :class:`SiteSpec` — the
    runner treats it as a routing signal back to the pool/serial path.
    """
    name = _fn_name(fn)
    if name not in _ADAPTERS:
        raise FleetUnsupported(f"no fleet adapter for cell function {name}")
    namespace, builder = _ADAPTERS[name]

    from repro.sim.cache import (
        cache_key,
        default_cache,
        summary_from_payload,
        summary_to_payload,
    )

    specs: list[SiteSpec] = []
    keys: list[str | None] = []
    results: list[RunSummary | None] = [None] * len(cells)
    pending: list[int] = []
    cache = default_cache()
    for index, cell in enumerate(cells):
        params = {k: v for k, v in cell.items() if k != "use_cache"}
        try:
            spec, key_params = builder(params)
        except (KeyError, TypeError) as exc:
            raise FleetUnsupported(
                f"cell #{index} does not fit {name}: {exc}"
            ) from exc
        use_cache = bool(cell.get("use_cache", True)) and cache.enabled
        key = cache_key(namespace, **key_params) if use_cache else None
        if key is not None:
            cached = cache.get(key)
            if cached is not None:
                results[index] = summary_from_payload(cached)
                continue
        specs.append(spec)
        keys.append(key)
        pending.append(index)

    if pending:
        summaries = simulate_fleet(specs)
        for index, key, summary in zip(pending, keys, summaries, strict=True):
            run = RunSummary(**summary)
            if key is not None:
                cache.put(key, summary_to_payload(run))
            results[index] = run
    return results  # type: ignore[return-value]
