from __future__ import annotations

import types

import pytest

from perfbench import engine_day, fleet_batch, serve_sessions
from perfbench.common import HostSpeed
from perfbench.tracing import LayerTracer


class _Base:
    def inherited(self):
        return "base"


class _Thing(_Base):
    def own(self, x):
        return x + 1


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_wrappers_restore_class_and_module_attributes():
    module = types.ModuleType("fake")
    module.fn = lambda: 7
    own, fn = _Thing.__dict__["own"], module.fn
    with LayerTracer() as tracer:
        tracer.wrap(_Thing, "own", "a")
        tracer.wrap(_Thing, "inherited", "b")
        tracer.wrap(module, "fn", "c")
        assert _Thing.__dict__["own"] is not own
        assert _Thing().own(1) == 2
        assert _Thing().inherited() == "base"
        assert module.fn() == 7
    assert _Thing.__dict__["own"] is own
    assert "inherited" not in _Thing.__dict__
    assert module.fn is fn
    assert dict(tracer.calls) == {"a": 1, "b": 1, "c": 1}


def test_wrappers_restore_after_an_exception():
    own = _Thing.__dict__["own"]
    with pytest.raises(RuntimeError), LayerTracer() as tracer:
        tracer.wrap(_Thing, "own", "a")
        raise RuntimeError
    assert _Thing.__dict__["own"] is own


def test_static_methods_are_refused():
    class Holder:
        @staticmethod
        def helper():
            return 1

    with LayerTracer() as tracer, pytest.raises(TypeError):
        tracer.wrap(Holder, "helper", "x")


def test_self_time_excludes_nested_layers():
    clock = _FakeClock()
    tracer = LayerTracer(clock=clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 3.0

    wrapped_inner = tracer._timed(inner, "inner")
    tracer.call("outer", outer)
    assert tracer.self_s == {"inner": 2.0, "outer": 4.0}
    shares = tracer.shares(["outer", "inner"])
    assert shares == {"outer": pytest.approx(2 / 3), "inner": pytest.approx(1 / 3)}
    assert sum(shares.values()) == pytest.approx(1.0)


def test_engine_layers_leave_outputs_bit_identical():
    from repro.core.system import PowerBus

    resolve = PowerBus.__dict__["resolve"]
    horizon = 1800.0
    cell = engine_day.CELLS[-1]  # the scenario cell: every layer runs
    plain = engine_day.build_cells([cell])[0]
    want = engine_day.cell_record(plain, plain.system.run(horizon), horizon)
    built = engine_day.build_cells([cell])[0]
    with LayerTracer() as tracer:
        engine_day._wrap_layers(tracer)
        summary, _ = engine_day._run_cell(built, horizon, HostSpeed(), tracer)
    assert engine_day.cell_record(built, summary, horizon) == want
    assert PowerBus.__dict__["resolve"] is resolve
    assert all(tracer.calls[layer] > 0 for layer in engine_day.LAYERS)
    shares = tracer.shares(engine_day.LAYERS)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_fleet_phases_leave_outputs_bit_identical():
    from repro.sim.fleet import controllers
    from repro.sim.fleet.kernel import _FleetBatch

    step_tick, insure_step = _FleetBatch.__dict__["step_tick"], controllers.insure_step
    sizes = (("n16", 6, 900.0),)
    _, specs = fleet_batch.build_inputs(3, sizes)
    plain, _ = fleet_batch._call(HostSpeed(), specs["n16"])
    tracer = LayerTracer()
    traced, _ = fleet_batch._call(HostSpeed(), specs["n16"], tracer)
    assert traced == plain
    assert _FleetBatch.__dict__["step_tick"] is step_tick
    assert controllers.insure_step is insure_step
    assert tracer.calls["dispatch"] == specs["n16"][0].steps()
    assert sum(tracer.shares(fleet_batch.PHASES).values()) == pytest.approx(1.0)


def test_serve_layers_leave_streams_bit_identical(monkeypatch):
    from repro.serve import session

    build = session.build_session_system
    monkeypatch.setattr(serve_sessions, "manifest_for", lambda cell: {
        "cell": cell, "tick_slice": 240, "duration_s": 3600.0})
    plain = serve_sessions.inprocess_mix(seed=4, per_caller=1)
    with LayerTracer() as tracer:
        serve_sessions._wrap_layers(tracer)
        traced = serve_sessions.inprocess_mix(4, 1, tracer)
    assert traced == plain
    assert session.build_session_system is build
    assert all(tracer.calls[layer] > 0 for layer in serve_sessions.LAYERS)
    assert sum(tracer.shares(serve_sessions.LAYERS).values()) == pytest.approx(1.0)
