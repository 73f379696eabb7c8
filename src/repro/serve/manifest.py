"""Session manifests: the JSON wire schema a session is created from.

A manifest is one JSON object.  Two forms:

**Cell form** — replay a pinned cell by id, the determinism-guaranteed
path (``repro validate`` pins these exact configurations)::

    {"cell": "insure:seismic:cloudy"}
    {"cell": "scenario-grid-hybrid", "tick_slice": 480}

The plant axes, seed and policies come from the pinned configuration;
only the pacing knobs (``duration_s``, ``tick_slice``, ``trace_stride``)
may be overridden.  A full-length, injection-free session over a cell
manifest reproduces the stored golden summary within the
:class:`~repro.sim.fleet.validator.FleetValidator` tolerances.

**Explicit form** — spell out the configuration::

    {"controller": "insure", "workload": "video", "weather": "sunny",
     "mean_w": 800.0, "seed": 7, "duration_s": 43200.0,
     "policies": [{"name": "carbon-duty", "signal": "carbon",
                   "governor": "step:420=80%:560=60%",
                   "control": "duty_cap", "interval_s": 300.0}]}

Policy entries use the :mod:`repro.policy` registry grammar verbatim —
``signal``/``control`` are registry names, ``governor`` is a
``parse_governor`` rule string — so the wire format and the Python API
share one vocabulary.  Every field is validated at parse time; parsing
is total over rendered manifests (``parse(render(m)) == m``, property
tested in ``tests/serve/test_manifest.py``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from collections.abc import Mapping
from typing import Any

from repro.cell import (
    CONTROLLERS,
    DURATION_S,
    WEATHERS,
    WORKLOADS,
    CellSpec,
    PolicyDef,
)

#: Default ticks per cooperative slice — ~10 ms of engine work, so a
#: few hundred live sessions still turn the event loop over quickly.
DEFAULT_TICK_SLICE = 240
DEFAULT_TRACE_STRIDE = 16

#: Keys a cell-form manifest may carry besides ``cell`` itself.
_CELL_OVERRIDES = frozenset({"duration_s", "tick_slice", "trace_stride"})
_EXPLICIT_KEYS = frozenset({
    "controller", "workload", "weather", "mean_w", "seed", "initial_soc",
    "dt", "duration_s", "tick_slice", "trace_stride", "policies",
})
_POLICY_KEYS = frozenset({"name", "signal", "governor", "control", "interval_s"})

#: Controls that turn the DVFS duty knob, which only the insure
#: controller exposes (the baseline controller has no duty cycling).
DVFS_CONTROLS = frozenset({"duty_cap"})


class ManifestError(ValueError):
    """Raised on any invalid manifest payload (maps to HTTP 400)."""


@dataclass(frozen=True)
class SessionManifest:
    """A fully resolved session: the cell it runs plus its pacing."""

    spec: CellSpec = CellSpec()
    tick_slice: int = DEFAULT_TICK_SLICE
    trace_stride: int = DEFAULT_TRACE_STRIDE
    #: The pinned cell id this manifest was resolved from (None for the
    #: explicit form).  Cell-backed sessions get a golden verdict in
    #: their final ``summary`` event.
    cell: str | None = None


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ManifestError(message)


def _number(payload: Mapping[str, Any], key: str, default: float) -> float:
    value = payload.get(key, default)
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(payload: Mapping[str, Any], key: str, default: int) -> int:
    value = payload.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool),
             f"{key} must be an integer, got {value!r}")
    return int(value)


def _positive(payload: Mapping[str, Any], key: str, default: float) -> float:
    value = _number(payload, key, default)
    _require(value > 0, f"{key} must be positive, got {value}")
    return value


def _pacing(payload: Mapping[str, Any]) -> dict[str, int]:
    """The pacing knobs both manifest forms accept."""
    pacing: dict[str, int] = {}
    for key, default in (("tick_slice", DEFAULT_TICK_SLICE),
                         ("trace_stride", DEFAULT_TRACE_STRIDE)):
        pacing[key] = _integer(payload, key, default)
        _require(pacing[key] >= 1, f"{key} must be >= 1, got {pacing[key]}")
    return pacing


def parse_policy(payload: Mapping[str, Any]) -> PolicyDef:
    """Validate one policy entry against the :mod:`repro.policy` registry."""
    from repro.policy.registry import (
        control_names,
        make_governor,
        signal_names,
    )

    _require(isinstance(payload, Mapping), f"policy must be an object, got {payload!r}")
    unknown = set(payload) - _POLICY_KEYS
    _require(not unknown, f"unknown policy keys {sorted(unknown)}")
    for key in ("name", "signal", "governor", "control"):
        _require(isinstance(payload.get(key), str) and payload.get(key),
                 f"policy {key} must be a non-empty string")
    _require(payload["signal"] in signal_names(),
             f"unknown signal {payload['signal']!r}; known: {signal_names()}")
    _require(payload["control"] in control_names(),
             f"unknown control {payload['control']!r}; known: {control_names()}")
    try:
        make_governor(payload["governor"])
    except ValueError as exc:
        raise ManifestError(f"bad governor spec: {exc}") from None
    return PolicyDef(
        name=payload["name"],
        signal=payload["signal"],
        governor=payload["governor"],
        control=payload["control"],
        interval_s=_positive(payload, "interval_s", 300.0),
    )


def parse_manifest(payload: Mapping[str, Any]) -> SessionManifest:
    """Validate a JSON manifest object into a :class:`SessionManifest`.

    Raises :class:`ManifestError` (a ``ValueError``) naming the offending
    field; unknown-cell errors list every available cell id.
    """
    _require(isinstance(payload, Mapping),
             f"manifest must be a JSON object, got {type(payload).__name__}")
    if "cell" in payload:
        cell_id = payload["cell"]
        _require(isinstance(cell_id, str), f"cell must be a string, got {cell_id!r}")
        extras = set(payload) - {"cell"} - _CELL_OVERRIDES
        _require(
            not extras,
            f"cell manifests pin the plant configuration; remove {sorted(extras)} "
            f"(only {sorted(_CELL_OVERRIDES)} may be overridden)",
        )
        try:
            spec = CellSpec.pinned(cell_id)
        except ValueError as exc:
            raise ManifestError(str(exc)) from None
        spec = replace(spec, duration_s=_positive(payload, "duration_s", DURATION_S))
        return SessionManifest(spec, **_pacing(payload), cell=cell_id)

    unknown = set(payload) - _EXPLICIT_KEYS
    _require(not unknown, f"unknown manifest keys {sorted(unknown)}")
    default = CellSpec()
    controller = payload.get("controller", default.controller)
    _require(controller in CONTROLLERS,
             f"controller must be one of {CONTROLLERS}, got {controller!r}")
    workload = payload.get("workload", default.workload)
    _require(workload in WORKLOADS,
             f"workload must be one of {WORKLOADS}, got {workload!r}")
    weather = payload.get("weather", default.weather)
    _require(weather in WEATHERS,
             f"weather must be one of {WEATHERS}, got {weather!r}")
    seed = _integer(payload, "seed", default.seed)
    _require(seed >= 0, f"seed must be non-negative, got {seed}")
    initial_soc = _number(payload, "initial_soc", default.initial_soc)
    _require(0.0 < initial_soc <= 1.0,
             f"initial_soc must be in (0, 1], got {initial_soc}")

    raw_policies = payload.get("policies", [])
    _require(isinstance(raw_policies, (list, tuple)),
             f"policies must be a list, got {raw_policies!r}")
    policies = tuple(parse_policy(p) for p in raw_policies)
    if controller != "insure":
        for pdef in policies:
            _require(
                pdef.control not in DVFS_CONTROLS,
                f"control {pdef.control!r} (policy {pdef.name!r}) requires "
                f"the insure controller; {controller!r} has no DVFS duty knob",
            )
    spec = CellSpec(
        controller=controller, workload=workload, weather=weather,
        mean_w=_positive(payload, "mean_w", default.mean_w), seed=seed,
        initial_soc=initial_soc, dt=_positive(payload, "dt", default.dt),
        duration_s=_positive(payload, "duration_s", DURATION_S),
        policies=policies,
    )
    return SessionManifest(spec, **_pacing(payload))


def render_manifest(manifest: SessionManifest) -> dict[str, Any]:
    """The canonical JSON form; ``parse_manifest`` round-trips it exactly.

    Cell manifests render as their compact cell form (the pinned fields
    are re-derived on parse); explicit manifests render every field.
    """
    spec = manifest.spec
    pacing = {"duration_s": spec.duration_s, "tick_slice": manifest.tick_slice,
              "trace_stride": manifest.trace_stride}
    if manifest.cell is not None:
        return {"cell": manifest.cell, **pacing}
    return {
        "controller": spec.controller,
        "workload": spec.workload,
        "weather": spec.weather,
        "mean_w": spec.mean_w,
        "seed": spec.seed,
        "initial_soc": spec.initial_soc,
        "dt": spec.dt,
        **pacing,
        "policies": [asdict(p) for p in spec.policies],
    }


def golden_verdict(manifest: SessionManifest, summary: Mapping[str, Any]):
    """Compare a served summary against the manifest's pinned golden record.

    Returns a :class:`~repro.sim.fleet.validator.CellVerdict`, or None
    when the manifest is not cell-backed, the session ran a non-pinned
    horizon, or no record exists on disk.
    """
    if manifest.cell is None or manifest.spec.duration_s != DURATION_S:
        return None
    from repro.sim.fleet.validator import compare_summaries
    from repro.validate.golden import load_record

    name = manifest.spec.record_name
    try:
        record = load_record(name)
    except FileNotFoundError:
        return None
    return compare_summaries(name, dict(summary), record["summary"])
