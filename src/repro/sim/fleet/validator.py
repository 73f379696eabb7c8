"""Gate the vectorized fleet kernel against golden-matrix summaries.

The scalar chunked kernel is the bit-exact reference for the physics; the
fleet kernel re-derives every expression in SoA form and is allowed only
ulp-level drift.  :class:`FleetValidator` replays the 12 golden-matrix
cells plus the policy scenario cells through
:func:`repro.sim.fleet.kernel.simulate_fleet` and compares
each run summary against the stored golden record using the same
tolerance model as the physics-invariant checker (relative ``REL_TOL``
with an absolute floor ``ABS_TOL``), applied to the 6-significant-digit
fingerprints that the golden harness itself stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Mapping, Sequence
from typing import Any

from repro.cell import SCENARIO_PREFIX, CellSpec, available_cell_ids
from repro.sim.fleet.kernel import simulate_fleet
from repro.validate.golden import (
    DEFAULT_GOLDEN_DIR,
    SUMMARY_SIG_DIGITS,
    load_record,
)

#: Tolerance model shared with the invariant checker: a summary variable
#: matches when |fleet - golden| <= max(REL_TOL * |golden|, ABS_TOL).
REL_TOL = 1e-6
ABS_TOL = 1e-3

#: Integer-valued summary variables must match exactly — they count
#: discrete controller decisions (switch ops, crashes, on/off cycles).
EXACT_VARS = frozenset(
    {"power_ctrl_times", "vm_ctrl_times", "on_off_cycles", "crash_count"}
)


@dataclass(frozen=True)
class CellVerdict:
    """Outcome of validating one golden cell against the fleet kernel."""

    cell: str
    ok: bool
    mismatches: dict[str, tuple[Any, Any]] = field(default_factory=dict)

    def describe(self) -> str:
        if self.ok:
            return f"{self.cell}: OK"
        parts = ", ".join(
            f"{var} fleet={got!r} golden={want!r}"
            for var, (got, want) in sorted(self.mismatches.items())
        )
        return f"{self.cell}: MISMATCH ({parts})"


def fingerprint_dict(summary: Mapping[str, Any]) -> dict[str, Any]:
    """Apply the golden fingerprint rounding to a plain summary dict.

    Mirrors :func:`repro.validate.golden.summary_fingerprint`, which takes
    a RunSummary dataclass; fleet summaries are already plain dicts.
    """
    out: dict[str, Any] = {}
    for var, value in sorted(summary.items()):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            out[var] = value
        elif isinstance(value, int):
            out[var] = value
        else:
            out[var] = float(f"{value:.{SUMMARY_SIG_DIGITS}g}")
    return out


def _values_match(got: Any, want: Any, *, exact: bool) -> bool:
    if isinstance(want, bool) or isinstance(got, bool):
        return bool(got) == bool(want)
    if exact or (isinstance(want, int) and isinstance(got, int)):
        return int(got) == int(want)
    try:
        gf = float(got)
        wf = float(want)
    except (TypeError, ValueError):
        return got == want
    return abs(gf - wf) <= max(REL_TOL * abs(wf), ABS_TOL)


def compare_summaries(
    cell: str,
    fleet_summary: Mapping[str, Any],
    golden_summary: Mapping[str, Any],
) -> CellVerdict:
    """Compare a fleet summary against a golden one at fingerprint precision."""
    got_fp = fingerprint_dict(fleet_summary)
    want_fp = fingerprint_dict(golden_summary)
    mismatches: dict[str, tuple[Any, Any]] = {}
    for var in sorted(set(got_fp) | set(want_fp)):
        if var not in got_fp or var not in want_fp:
            mismatches[var] = (got_fp.get(var, "<missing>"),
                               want_fp.get(var, "<missing>"))
            continue
        if not _values_match(got_fp[var], want_fp[var], exact=var in EXACT_VARS):
            mismatches[var] = (got_fp[var], want_fp[var])
    return CellVerdict(cell=cell, ok=not mismatches, mismatches=mismatches)


class FleetValidator:
    """Validate the fleet kernel against the stored golden matrix.

    The validator is the acceptance gate for the vectorized path: all 12
    cells must match their golden summaries within the invariant
    tolerance before the ``fleet`` backend is trusted for sweeps.
    """

    def __init__(self, golden_dir: Path | None = None) -> None:
        self.golden_dir = Path(golden_dir) if golden_dir else DEFAULT_GOLDEN_DIR

    def cells(self) -> list[str]:
        """The 12 golden-matrix cell ids (scenario cells are separate — see
        :meth:`scenario_cells` / :meth:`all_cells`)."""
        return [c for c in available_cell_ids() if not c.startswith(SCENARIO_PREFIX)]

    def scenario_cells(self) -> list[str]:
        """The policy scenario cell ids."""
        return [c for c in available_cell_ids() if c.startswith(SCENARIO_PREFIX)]

    def all_cells(self) -> list[str]:
        return available_cell_ids()

    def validate_cells(
        self, cells: Sequence[str] | None = None
    ) -> list[CellVerdict]:
        """Run the fleet kernel over the pinned *cells* (ids; default: the
        matrix plus every scenario) and compare against goldens.

        All requested cells run in a single ``simulate_fleet`` batch so
        the validator also exercises the mixed-group scatter path.
        """
        specs = [CellSpec.pinned(c)
                 for c in (self.all_cells() if cells is None else cells)]
        summaries = simulate_fleet([spec.to_site() for spec in specs])
        verdicts: list[CellVerdict] = []
        for spec, summary in zip(specs, summaries, strict=True):
            record = load_record(spec.record_name, self.golden_dir)
            verdicts.append(
                compare_summaries(spec.record_name, summary, record["summary"])
            )
        return verdicts

    def validate(
        self, cells: Sequence[str] | None = None
    ) -> CellVerdict | None:
        """Return the first failing verdict, or None when every cell matches."""
        for verdict in self.validate_cells(cells):
            if not verdict.ok:
                return verdict
        return None

    def assert_valid(
        self, cells: Sequence[str] | None = None
    ) -> None:
        """Raise AssertionError naming every mismatched variable."""
        failures = [v for v in self.validate_cells(cells) if not v.ok]
        if failures:
            detail = "; ".join(v.describe() for v in failures)
            raise AssertionError(f"fleet kernel diverged from goldens: {detail}")
