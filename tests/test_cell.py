"""CellSpec: the one description of a day cell that every caller builds from.

Pins that each pinned cell id resolves to the configuration stored in its
golden record, that the golden harness, the serve manifest and the fleet
validator all resolve an id to the *same* spec, that a spec renders back
to its id, and that unknown ids fail with the full list of known ones.
"""

import pytest

from repro.cell import CellSpec, PolicyDef, available_cell_ids
from repro.serve.manifest import parse_manifest, render_manifest
from repro.sim.fleet import FleetUnsupported
from repro.sim.fleet.validator import FleetValidator
from repro.validate import golden

CELL_IDS = available_cell_ids()


def test_fifteen_pinned_cells():
    assert len(CELL_IDS) == len(set(CELL_IDS)) == 15
    assert FleetValidator().all_cells() == CELL_IDS


@pytest.mark.parametrize("cell_id", CELL_IDS)
class TestPinnedCell:
    def test_config_matches_the_golden_record(self, cell_id):
        spec = CellSpec.pinned(cell_id)
        assert spec.config() == golden.load_record(spec.record_name)["config"]

    def test_manifest_golden_and_fleet_share_one_spec(self, cell_id):
        spec = CellSpec.pinned(cell_id)
        assert parse_manifest({"cell": cell_id}).spec == spec
        golden_cell = golden.all_cells()[CELL_IDS.index(cell_id)]
        assert golden.cell_spec(**golden_cell) == spec
        name, _c, _w, _x, seed, _p, _extra = golden._resolve_cell(
            golden_cell.get("controller"), golden_cell.get("workload"),
            golden_cell.get("weather"), golden_cell.get("scenario"))
        assert (name, seed) == (spec.record_name, spec.seed)

    def test_renders_back_to_its_id(self, cell_id):
        assert CellSpec.pinned(cell_id).cell_id == cell_id
        manifest = parse_manifest({"cell": cell_id})
        assert render_manifest(manifest)["cell"] == cell_id


@pytest.mark.parametrize("cell_id", [
    "bogus:video:sunny", "insure:video", "insure:video:sunny:noon",
    "scenario-nope", "scenario-", "",
])
def test_unknown_id_lists_every_available_id(cell_id):
    with pytest.raises(ValueError) as excinfo:
        CellSpec.pinned(cell_id)
    message = str(excinfo.value)
    assert repr(cell_id) in message
    for known in CELL_IDS:
        assert known in message


def test_scenario_cell_builds_with_its_policies():
    spec = CellSpec.pinned("scenario-grid-hybrid")
    assert spec.scenario == "grid-hybrid" and spec.policies
    system = spec.build()
    assert [p.name for p in system.controller.policies] == \
        [p.name for p in spec.policies]
    assert spec.to_site().scenario == "grid-hybrid"


def test_unnamed_overlays_do_not_batch():
    spec = CellSpec(policies=(PolicyDef("cap", "carbon", "const:0.8",
                                        "duty_cap"),))
    with pytest.raises(FleetUnsupported, match="scenario"):
        spec.to_site()


def test_cache_key_covers_every_field():
    spec = CellSpec.pinned("insure:video:sunny")
    assert set(spec.key()) == {
        "controller", "workload", "weather", "mean_w", "seed",
        "initial_soc", "dt", "duration_s", "scenario", "policies",
    }
    other = CellSpec.pinned("insure:video:cloudy")
    assert spec.key() != other.key()
