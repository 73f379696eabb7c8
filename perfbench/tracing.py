"""In-process layer tracing by wrapping entry points.

A :class:`LayerTracer` replaces chosen functions (class methods or module
attributes) with timing wrappers for the duration of a ``with`` block and
puts the originals back on exit.  Each wrapper charges its call to one
named layer; nested wrapped calls are subtracted from the caller, so a
layer's figure is its *self* time.  A layer that is defined as "X minus
Y" is therefore simply X wrapped with Y wrapped inside it.

The wrappers only read the clock: the wrapped code takes the same steps
on the same data, so traced and untraced runs give identical outputs.
"""

from __future__ import annotations

import functools
import time
import types
from collections import defaultdict
from collections.abc import Callable, Iterable
from typing import Any

_MISSING = object()


class LayerTracer:
    """Self-time and call counts per layer, from wrapped entry points."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list[float]] = []
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        """Charge every call of ``owner.attr`` to ``layer`` until exit.

        ``owner`` is a class (the method is wrapped for every instance,
        including bound methods looked up later) or a module.
        """
        raw = vars(owner).get(attr, _MISSING)
        target = getattr(owner, attr)
        if isinstance(owner, type) and raw is not _MISSING \
                and not isinstance(raw, types.FunctionType):
            raise TypeError(f"{owner.__name__}.{attr} is not a plain method")
        if not callable(target):
            raise TypeError(f"{attr} on {owner!r} is not callable")
        setattr(owner, attr, self._timed(target, layer))
        self._patches.append((owner, attr, raw))

    def wrap_all(self, spec: Iterable[tuple[Any, str, str]]) -> None:
        for owner, attr, layer in spec:
            self.wrap(owner, attr, layer)

    def restore(self) -> None:
        """Put every original back, last patch first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            if raw is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    def __enter__(self) -> LayerTracer:
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def _timed(self, fn: Callable[..., Any], layer: str) -> Callable[..., Any]:
        clock = self.clock
        stack = self._stack
        self_s = self.self_s
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                elapsed = clock() - frame[0]
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed

        return wrapper

    def call(self, layer: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Run ``fn(*args)`` from the benchmark's own code, charged to
        ``layer`` (used for the root of a layer tree)."""
        return self._timed(fn, layer)(*args)

    def shares(self, layers: Iterable[str]) -> dict[str, float]:
        """Each layer's share of the summed self time of ``layers``."""
        layers = list(layers)
        total = sum(self.self_s.get(layer, 0.0) for layer in layers)
        return {
            layer: (self.self_s.get(layer, 0.0) / total if total > 0 else 0.0)
            for layer in layers
        }

