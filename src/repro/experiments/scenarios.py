"""Policy scenario cells: sustainability overlays on the golden plant.

Each scenario pins one (controller, workload, weather) plant configuration
and attaches a set of :class:`repro.policy.policy.Policy` overlays — the
signal × governor × control-method compositions of :mod:`repro.policy` —
turning the paper's solar-only installation into a grid-aware one:

* ``carbon-chasing`` — a step governor over the synthetic grid carbon
  intensity caps the rack DVFS duty cycle when the grid runs dirty, so
  compute concentrates in the low-carbon midday window.
* ``price-arbitrage`` — a linear governor over the synthetic day-ahead
  energy price ramps the VM target down as the price climbs through the
  morning and evening demand peaks.
* ``grid-hybrid`` — a carbon zone table caps duty *and* a price staircase
  caps the solar charge current (high-price surplus is exported rather
  than stored), the grid-assisted hybrid of the two.

Scenarios are deterministic cells exactly like the golden matrix: the
seed derives from the scenario name, the synthetic signals are pure
functions of (seed, t), and ``repro validate`` pins their trace digests
alongside the 12 matrix cells.  :func:`run_scenario_cell` is the
picklable experiment entry point (memoised in the run cache, fleet
adapter in :mod:`repro.experiments.adapters`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.cell import (
    BASE_SEED,
    DT_SECONDS,
    INITIAL_SOC,
    TARGET_MEAN_W,
    CellSpec,
    PolicyDef,
    run_cell,
    scenario_cell_name,
)
from repro.experiments.runner import derive_seed
from repro.policy.policy import Policy
from repro.telemetry.metrics import RunSummary


@dataclass(frozen=True)
class ScenarioSpec:
    """A pinned plant configuration plus its policy overlays."""

    name: str
    controller: str
    workload: str
    weather: str
    policies: tuple[PolicyDef, ...]
    description: str


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec
    for spec in (
        ScenarioSpec(
            name="carbon-chasing",
            controller="insure",
            workload="seismic",
            weather="sunny",
            policies=(
                PolicyDef(
                    name="carbon-duty",
                    signal="carbon",
                    governor="step:420=80%:560=60%",
                    control="duty_cap",
                ),
            ),
            description=(
                "Cap the DVFS duty cycle when grid carbon intensity runs "
                "above its daily mean; batch compute chases the clean "
                "midday window."
            ),
        ),
        ScenarioSpec(
            name="price-arbitrage",
            controller="insure",
            workload="video",
            weather="sunny",
            policies=(
                PolicyDef(
                    name="price-vms",
                    signal="price",
                    governor="linear:20:48:max:40%",
                    control="vm_retarget",
                ),
            ),
            description=(
                "Ramp the VM target down as the day-ahead energy price "
                "climbs through the morning and evening demand peaks."
            ),
        ),
        ScenarioSpec(
            name="grid-hybrid",
            controller="insure",
            workload="seismic",
            weather="cloudy",
            policies=(
                PolicyDef(
                    name="carbon-duty",
                    signal="carbon",
                    governor="list:green=max:yellow=90%:red=70%:black=50%",
                    control="duty_cap",
                ),
                PolicyDef(
                    name="price-charge",
                    signal="price",
                    governor="step:30=70%:45=40%",
                    control="charge_current_cap",
                    interval_s=900.0,
                ),
            ),
            description=(
                "Grid-assisted hybrid: carbon zones cap compute duty while "
                "expensive-hour solar surplus is exported instead of "
                "stored (charge-current cap)."
            ),
        ),
    )
}


def scenario_names() -> list[str]:
    return sorted(SCENARIOS)


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name!r}; known: {scenario_names()}"
        ) from None


def scenario_seed(name: str) -> int:
    """The pinned per-scenario seed (golden cells and fleet use the same)."""
    get_scenario(name)
    return derive_seed(BASE_SEED, "scenario", name)


def build_policies(name: str, seed: int) -> list[Policy]:
    """Instantiate every policy of scenario ``name`` for ``seed``."""
    return [pdef.build_policy(seed) for pdef in get_scenario(name).policies]


def cell_spec(
    scenario: str,
    seed: int | None = None,
    initial_soc: float = INITIAL_SOC,
    dt: float = DT_SECONDS,
    target_mean_w: float = TARGET_MEAN_W,
) -> CellSpec:
    """The cell one :func:`run_scenario_cell` call runs; the horizon is
    the trace length."""
    spec = CellSpec.pinned(scenario_cell_name(scenario))
    return replace(spec, seed=spec.seed if seed is None else seed,
                   initial_soc=initial_soc, dt=dt, mean_w=target_mean_w,
                   duration_s=None)


def run_scenario_cell(
    scenario: str,
    seed: int | None = None,
    initial_soc: float = INITIAL_SOC,
    dt: float = DT_SECONDS,
    target_mean_w: float = TARGET_MEAN_W,
    use_cache: bool = True,
) -> RunSummary:
    """One deterministic scenario run, memoised in the run cache.

    Module-level and picklable, so the runner can fan scenario sweeps out
    across processes; the fleet backend routes it through its own adapter
    (``fleet.scenarios.cell`` cache namespace).
    """
    spec = cell_spec(scenario, seed, initial_soc, dt, target_mean_w)
    return run_cell(spec, "scenarios.run_scenario_cell", use_cache)
