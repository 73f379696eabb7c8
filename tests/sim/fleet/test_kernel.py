"""Fleet kernel unit tests: specs, routing, grouping, short lockstep."""

import dataclasses

import pytest

from repro.cell import CellSpec
from repro.sim.fleet import FleetUnsupported, SiteSpec, simulate_fleet

np = pytest.importorskip("numpy")


def _spec(**overrides) -> SiteSpec:
    base = dict(
        controller="insure",
        workload="video",
        seed=11,
        initial_soc=0.55,
        trace_power_w=tuple(800.0 for _ in range(120)),
        trace_dt_s=5.0,
    )
    base.update(overrides)
    return SiteSpec(**base)


class TestSiteSpec:
    def test_duration_defaults_to_trace_length(self):
        assert _spec().resolved_duration_s() == 120 * 5.0

    def test_explicit_duration_wins(self):
        assert _spec(duration_s=60.0).resolved_duration_s() == 60.0

    def test_steps_rounds_like_the_engine(self):
        # Engine.run computes steps = max(1, round(duration / dt)).
        assert _spec(duration_s=12.4).steps() == 2
        assert _spec(duration_s=1.0).steps() == 1

    def test_unknown_controller_rejected(self):
        with pytest.raises(FleetUnsupported, match="controller"):
            simulate_fleet([_spec(controller="mppt")])

    def test_unknown_workload_rejected(self):
        with pytest.raises(FleetUnsupported, match="workload"):
            simulate_fleet([_spec(workload="batch")])

    def test_trace_dt_mismatch_rejected(self):
        with pytest.raises(FleetUnsupported, match="trace_dt_s"):
            simulate_fleet([_spec(trace_dt_s=1.0)])

    def test_degenerate_bank_rejected(self):
        with pytest.raises(FleetUnsupported, match="degenerate"):
            simulate_fleet([_spec(battery_count=0)])


class TestGrouping:
    def test_mixed_groups_return_in_input_order(self):
        # Two heterogeneous specs (different controllers) form two batch
        # groups; the scatter must restore input order exactly.
        a = _spec(controller="insure", seed=3)
        b = _spec(controller="baseline", seed=4)
        mixed = simulate_fleet([a, b, a])
        alone = [simulate_fleet([s])[0] for s in (a, b, a)]
        assert mixed == alone

    def test_identical_specs_are_deterministic(self):
        spec = _spec(seed=9)
        first = simulate_fleet([spec, spec])
        again = simulate_fleet([spec, spec])
        assert first == again
        assert first[0] == first[1]

    def test_distinct_seeds_get_distinct_noise_streams(self):
        # Summaries can coincide over short runs (ADC quantisation absorbs
        # small noise deltas), so assert at the RNG layer: each site's
        # sensor-noise stream is seeded from its own spec seed.
        from repro.sim.fleet.kernel import _FleetBatch

        spec = CellSpec.pinned("insure:video:sunny").to_site()
        other = dataclasses.replace(spec, seed=spec.seed + 1)
        batch = _FleetBatch([spec, other])
        batch._refill_noise()  # blocks are lazily filled on tick 0
        assert not np.array_equal(batch._blk_v[:, 0, :], batch._blk_v[:, 1, :])
        # Same seed twice must reproduce the identical stream.
        twin = _FleetBatch([spec, spec])
        twin._refill_noise()
        assert np.array_equal(twin._blk_v[:, 0, :], twin._blk_v[:, 1, :])

    def test_summary_has_the_run_summary_fields(self):
        from repro.telemetry.metrics import RunSummary

        summary = simulate_fleet([_spec()])[0]
        run = RunSummary(**summary)  # field names must match exactly
        assert run.elapsed_s == pytest.approx(120 * 5.0)


class TestLockstep:
    def test_tracks_scalar_engine_for_an_hour(self):
        # 720 ticks of the golden insure/video/sunny cell; every visible
        # state variable must match the scalar engine each tick (ints and
        # modes exactly, floats to ulp-level 1e-9).
        from repro.sim.fleet.debug import run_lockstep

        divergence = run_lockstep("insure", "video", "sunny",
                                  max_ticks=720, atol=1e-9, verbose=False)
        assert divergence is None, f"diverged: {divergence}"

    def test_baseline_controller_tracks_scalar(self):
        from repro.sim.fleet.debug import run_lockstep

        divergence = run_lockstep("baseline", "seismic", "cloudy",
                                  max_ticks=720, atol=1e-9, verbose=False)
        assert divergence is None, f"diverged: {divergence}"
