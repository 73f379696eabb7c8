"""One description of a day cell, the unit of every pinned experiment.

The paper's evaluation is a matrix of cells: controller × workload ×
solar day (Figs. 20/21, Table 6).  A :class:`CellSpec` is one such cell
as a frozen value — plant axes, solar scaling, seed, horizon and policy
overlays — so the whole run is one config value.  Every day-cell caller
builds from it: the golden harness, the figure and scenario experiments
and their fleet adapters, the fleet validator and lockstep debugger,
served sessions, the profiler, the flight report and the CLI.

Pinned cells are addressed by id: ``controller:workload:weather`` for
the golden matrix, ``scenario-<name>`` for the policy scenarios of
:mod:`repro.experiments.scenarios`.  :meth:`CellSpec.pinned` is the one
resolver from id to configuration.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Any

from repro.core.system import InSituSystem, build_system
from repro.obs.hub import Observability
from repro.policy.policy import Policy
from repro.policy.registry import make_control, make_governor, make_signal
from repro.solar.traces import DayTrace, make_day_trace
from repro.telemetry.metrics import RunSummary
from repro.workloads import SeismicAnalysis, VideoSurveillance, Workload

if TYPE_CHECKING:
    from repro.sim.fleet.kernel import SiteSpec

#: The pinned experiment matrix.
CONTROLLERS = ("insure", "baseline")
WORKLOADS = ("video", "seismic")
WEATHERS = ("sunny", "cloudy", "rainy")

#: Fixed run configuration of every pinned cell.
BASE_SEED = 1
TARGET_MEAN_W = 800.0
INITIAL_SOC = 0.55
DT_SECONDS = 5.0
#: One full simulated day: 17 280 ticks at dt=5 (the solar trace covers
#: the daylight window; the tail exercises night-time battery operation).
DURATION_S = 24 * 3600.0

SCENARIO_PREFIX = "scenario-"


def make_workload(name: str) -> Workload:
    """A fresh workload of kind ``video`` or ``seismic``."""
    if name == "video":
        return VideoSurveillance()
    if name == "seismic":
        return SeismicAnalysis()
    raise ValueError(f"unknown workload kind {name!r}")


def cell_name(controller: str, workload: str, weather: str) -> str:
    """Golden record name of a matrix cell."""
    return f"{controller}-{workload}-{weather}"


def scenario_cell_name(scenario: str) -> str:
    """Golden record name (and cell id) of a scenario cell."""
    return SCENARIO_PREFIX + scenario


def available_cell_ids() -> list[str]:
    """Every pinned cell id: the matrix in controller, workload, weather
    order, then the scenario cells."""
    from repro.experiments.scenarios import scenario_names

    ids = [f"{c}:{w}:{x}" for c in CONTROLLERS for w in WORKLOADS for x in WEATHERS]
    return ids + [scenario_cell_name(name) for name in scenario_names()]


@dataclass(frozen=True)
class PolicyDef:
    """One policy overlay in the :mod:`repro.policy` registry vocabulary:
    signal and control names plus a governor rule string.  Scenario
    tables and serve manifests both speak it."""

    name: str
    signal: str
    governor: str
    control: str
    interval_s: float = 300.0

    def build_policy(self, seed: int) -> Policy:
        """Instantiate the overlay for a concrete site seed."""
        return Policy(
            name=self.name,
            signal=make_signal(self.signal, seed=seed),
            governor=make_governor(self.governor),
            control=make_control(self.control),
            interval_s=self.interval_s,
        )


@dataclass(frozen=True)
class CellSpec:
    """One day cell: everything a run depends on, nothing it does not."""

    controller: str = "insure"
    workload: str = "seismic"
    weather: str = "sunny"
    mean_w: float = TARGET_MEAN_W
    seed: int = BASE_SEED
    initial_soc: float = INITIAL_SOC
    dt: float = DT_SECONDS
    #: Run horizon; None runs the trace length (the daylight window).
    duration_s: float | None = DURATION_S
    #: The policy scenario a pinned scenario cell replays.
    scenario: str | None = None
    policies: tuple[PolicyDef, ...] = ()

    @classmethod
    def pinned(cls, cell_id: str) -> CellSpec:
        """Resolve a pinned cell id; ValueError (listing every available
        id) when there is no such cell."""
        from repro.experiments.runner import derive_seed
        from repro.experiments.scenarios import SCENARIOS, scenario_seed

        if cell_id.startswith(SCENARIO_PREFIX):
            scenario = SCENARIOS.get(cell_id[len(SCENARIO_PREFIX):])
            if scenario is None:
                raise _unknown_cell(cell_id)
            return cls(scenario.controller, scenario.workload, scenario.weather,
                       seed=scenario_seed(scenario.name),
                       scenario=scenario.name, policies=scenario.policies)
        axes = cell_id.split(":")
        if (len(axes) != 3 or axes[0] not in CONTROLLERS
                or axes[1] not in WORKLOADS or axes[2] not in WEATHERS):
            raise _unknown_cell(cell_id)
        return cls(*axes, seed=derive_seed(BASE_SEED, *axes))

    @property
    def cell_id(self) -> str:
        """The id :meth:`pinned` resolves back to this cell."""
        if self.scenario is not None:
            return scenario_cell_name(self.scenario)
        return f"{self.controller}:{self.workload}:{self.weather}"

    @property
    def record_name(self) -> str:
        """The golden record file stem."""
        if self.scenario is not None:
            return scenario_cell_name(self.scenario)
        return cell_name(self.controller, self.workload, self.weather)

    def trace(self) -> DayTrace:
        return make_day_trace(self.weather, dt_seconds=self.dt, seed=self.seed,
                              target_mean_w=self.mean_w)

    def build(
        self,
        *,
        invariants: bool = False,
        invariant_stride: int = 12,
        observability: Observability | bool | None = None,
    ) -> InSituSystem:
        """Assemble the cell's system with its policies attached."""
        return build_system(
            self.trace(), make_workload(self.workload),
            controller=self.controller,
            seed=self.seed, initial_soc=self.initial_soc, dt=self.dt,
            invariants=invariants, invariant_stride=invariant_stride,
            observability=observability,
            policies=[p.build_policy(self.seed) for p in self.policies],
        )

    def to_site(self) -> SiteSpec:
        """The fleet kernel's description of this cell.  The kernel
        attaches a scenario's policies by name, so unnamed overlays are
        unsupported."""
        from repro.sim.fleet.kernel import FleetUnsupported, SiteSpec

        if self.policies and self.scenario is None:
            raise FleetUnsupported("policy overlays batch only as a named scenario")
        return SiteSpec(
            controller=self.controller, workload=self.workload,
            seed=self.seed, initial_soc=self.initial_soc,
            trace_power_w=tuple(self.trace().power_w), trace_dt_s=self.dt,
            dt_s=self.dt, duration_s=self.duration_s, scenario=self.scenario,
        )

    def config(self) -> dict[str, Any]:
        """The ``config`` block of the cell's golden record."""
        config: dict[str, Any] = {
            "controller": self.controller,
            "workload": self.workload,
            "weather": self.weather,
            "seed": self.seed,
            "target_mean_w": self.mean_w,
            "initial_soc": self.initial_soc,
            "dt": self.dt,
            "duration_s": self.duration_s,
        }
        if self.scenario is not None:
            config["scenario"] = self.scenario
        return config

    def key(self) -> dict[str, Any]:
        """Cache-key parts: every field, so no two distinct cells collide."""
        return asdict(self)


def run_cell(spec: CellSpec, namespace: str, use_cache: bool = True) -> RunSummary:
    """Run ``spec`` to its horizon, memoised in the run cache under
    ``namespace`` (scalar namespaces only; fleet results live under
    ``fleet.``-prefixed ones, see :mod:`repro.experiments.adapters`)."""
    from repro.sim.cache import (
        cache_key,
        default_cache,
        summary_from_payload,
        summary_to_payload,
    )

    cache = default_cache() if use_cache else None
    key = cache_key(namespace, **spec.key()) if cache is not None and cache.enabled else None
    if key is not None:
        cached = cache.get(key)
        if cached is not None:
            return summary_from_payload(cached)
    summary = spec.build().run(spec.duration_s)
    if key is not None:
        cache.put(key, summary_to_payload(summary))
    return summary


def _unknown_cell(cell_id: str) -> ValueError:
    listing = "\n  ".join(available_cell_ids())
    return ValueError(f"unknown cell {cell_id!r}; available cells:\n  {listing}")
