"""Fixed-step simulation engine.

The engine owns the clock and a registry of components.  Each tick it steps
every component in registration order, then fires any per-tick observers
(used by the trace recorder).  Runs are bounded by a duration and may end
early via a stop condition (e.g. "battery bank exhausted and no solar").

The tick loop is a *chunked kernel*: component ``step`` methods, observers
and stop conditions are pre-bound into flat lists once per run, the clock is
advanced inline, and the loop is specialised for the common case of no stop
conditions.  A day-long full-system run executes ~17k ticks, so shaving the
per-tick dispatch overhead is a first-order win for every experiment.

When a span tracer is attached (``engine.tracer``, see
:mod:`repro.obs.spans`) the run switches to an instrumented kernel that
attributes wall time to each component on sampled ticks.  The tracer only
*observes* — with it attached or not, same-seed runs take the identical
sequence of component steps and produce bit-identical traces.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable

from repro.sim.clock import Clock
from repro.sim.component import Component


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Engine:
    """Steps registered components against a shared clock.

    Parameters
    ----------
    dt:
        Step size in seconds.
    start_hour:
        Wall-clock hour of day at ``t == 0``.
    stop_check_stride:
        Evaluate stop conditions once every this many ticks.  The default
        of 1 preserves exact early-stop semantics; raise it for runs where
        a few ticks of overshoot are acceptable in exchange for speed.
    """

    def __init__(
        self,
        dt: float = 1.0,
        start_hour: float = 7.0,
        stop_check_stride: int = 1,
    ) -> None:
        if stop_check_stride < 1:
            raise ValueError(
                f"stop_check_stride must be >= 1, got {stop_check_stride}"
            )
        self.clock = Clock(dt=dt, start_hour=start_hour)
        self.stop_check_stride = int(stop_check_stride)
        #: Optional span tracer (duck-typed, see repro.obs.spans).  None
        #: keeps the untraced fast path.
        self.tracer = None
        self._components: list[Component] = []
        self._by_name: dict[str, Component] = {}
        self._observers: list[tuple[str, Callable[[Clock], None]]] = []
        self._stop_conditions: list[Callable[[Clock], bool]] = []
        self._started = False
        self._finished = False

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add(self, component: Component) -> Component:
        """Register a component; returns it for fluent assembly."""
        if self._started:
            raise SimulationError("cannot add components after the run started")
        if component.name in self._by_name:
            raise SimulationError(f"duplicate component name: {component.name!r}")
        self._components.append(component)
        self._by_name[component.name] = component
        return component

    def add_all(self, components: Iterable[Component]) -> None:
        for component in components:
            self.add(component)

    def get(self, name: str) -> Component:
        """Look up a registered component by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SimulationError(f"no component named {name!r}") from None

    def observe(self, callback: Callable[[Clock], None],
                name: str | None = None) -> None:
        """Register a per-tick observer fired after all components step.

        ``name`` labels the observer's span in the traced kernel (so the
        profile attributes recorder/checker/alert cost individually);
        unnamed observers are labelled after their class.
        """
        if name is None:
            name = type(callback).__name__.lower()
        self._observers.append((f"obs.{name}", callback))

    def stop_when(self, condition: Callable[[Clock], bool]) -> None:
        """Register a predicate that ends the run early when it returns True."""
        self._stop_conditions.append(condition)

    @property
    def components(self) -> tuple[Component, ...]:
        return tuple(self._components)

    @property
    def finished(self) -> bool:
        """Whether component ``finish`` hooks have fired."""
        return self._finished

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, duration: float) -> Clock:
        """Run for ``duration`` simulated seconds (or until a stop condition).

        Returns the clock so callers can inspect how far the run got.

        ``run`` may be called again to extend a run (e.g. multi-day
        operation); ``start`` and ``finish`` hooks each fire exactly once,
        the first time the engine starts and finishes respectively.
        """
        steps = self.begin(duration)
        self._run_kernel(steps)
        self.end()
        return self.clock

    def begin(self, duration: float) -> int:
        """Open a (possibly sliced) run: fire ``start`` hooks, size the run.

        Returns the tick count covering ``duration``.  Together with
        :meth:`advance` and :meth:`end` this is the non-blocking face of
        the engine: a host may interleave many engines on one thread by
        advancing each a bounded slice of ticks at a time.  ``run`` is
        exactly ``begin`` + one full-length ``advance`` + ``end``, so
        sliced stepping takes the identical sequence of component steps
        and produces bit-identical traces.
        """
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        if not self._components:
            raise SimulationError("no components registered")
        clock = self.clock
        if not self._started:
            self._started = True
            for component in self._components:
                component.start(clock)
        return max(1, round(duration / clock.dt))

    def advance(self, ticks: int) -> int:
        """Step up to ``ticks`` ticks; returns the count actually executed.

        A shortfall (return value < ``ticks``) means a stop condition
        ended the run early — callers should stop advancing and call
        :meth:`end`.  Requires a prior :meth:`begin` (or :meth:`run`).
        """
        if ticks <= 0:
            return 0
        if not self._started:
            raise SimulationError("advance() before begin()")
        return self._run_kernel(int(ticks))

    def end(self) -> None:
        """Close the run: fire ``finish`` hooks (exactly once)."""
        if not self._finished:
            self._finished = True
            for component in self._components:
                component.finish(self.clock)

    def _run_kernel(self, steps: int) -> int:
        """The chunked tick loop: pre-bound dispatch, inline clock advance.

        Returns the number of ticks executed (< ``steps`` only when a
        stop condition ended the run early).
        """
        if self.tracer is not None:
            return self._run_kernel_traced(steps)
        clock = self.clock
        dt = clock.dt
        step_fns = [component.step for component in self._components]
        observers = [callback for _, callback in self._observers]
        conditions = list(self._stop_conditions)
        stride = self.stop_check_stride
        index = clock.step_index

        # Run stride-sized chunks of ticks, then evaluate stop conditions
        # once per chunk (after every tick with the default stride of 1);
        # with no stop condition the whole run is one chunk.
        remaining = steps
        while remaining > 0:
            ticks = min(stride, remaining) if conditions else remaining
            for _ in range(ticks):
                for step_fn in step_fns:
                    step_fn(clock)
                for observer in observers:
                    observer(clock)
                index += 1
                clock.step_index = index
                clock.t = index * dt
            remaining -= ticks
            stop = False
            for condition in conditions:
                if condition(clock):
                    stop = True
                    break
            if stop:
                break
        return steps - remaining

    def _run_kernel_traced(self, steps: int) -> int:
        """Instrumented tick loop: per-component spans on sampled ticks.

        Mirrors ``_run_kernel`` exactly — same step order, same chunked
        stop-condition cadence — but routes each tick through the tracer.
        On unsampled ticks the only extra work is one ``begin_tick`` call.
        """
        clock = self.clock
        dt = clock.dt
        tracer = self.tracer
        pairs = [(component.name, component.step) for component in self._components]
        observer_pairs = list(self._observers)
        observers = [callback for _, callback in observer_pairs]
        conditions = list(self._stop_conditions)
        stride = self.stop_check_stride
        index = clock.step_index

        remaining = steps
        while remaining > 0:
            ticks = min(stride, remaining) if conditions else remaining
            for _ in range(ticks):
                if tracer.begin_tick(index, clock.t):
                    for name, step_fn in pairs:
                        with tracer.span(name):
                            step_fn(clock)
                    for name, observer in observer_pairs:
                        with tracer.span(name):
                            observer(clock)
                    tracer.end_tick()
                else:
                    for _, step_fn in pairs:
                        step_fn(clock)
                    for observer in observers:
                        observer(clock)
                index += 1
                clock.step_index = index
                clock.t = index * dt
            remaining -= ticks
            if conditions:
                stop = False
                for condition in conditions:
                    if condition(clock):
                        stop = True
                        break
                if stop:
                    break
        return steps - remaining
