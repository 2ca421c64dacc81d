"""In-memory span tracer that wraps library functions from the outside.

The benchmark patches the public module-level functions of the traced
modules with thin wrappers; each call records a span (name, start, end,
parent, trace id).  Spans stay in memory until the benchmark writes them
out.  A span's self time is its duration minus the durations of its
direct child spans: calls run on one thread and nest, so the children of
one span never overlap.
"""

from __future__ import annotations

import functools
import inspect
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    id: int
    parent: int | None
    trace: int
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    trace_id: int = 0
    _stack: list[Span] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, self.trace_id, name, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = self.clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, fn, name: str, namer=None, observer=None):
        """Return ``fn`` wrapped in a span.

        ``namer(args, kwargs)`` may refine the span name per call;
        ``observer(tracer, result, args, kwargs)`` may add counts read
        from the return value.
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(span)
            if observer is not None:
                observer(self, result, args, kwargs)
            return result
        return wrapper

    def install(self, modules: dict[str, object], namers=None, observers=None) -> list[str]:
        """Wrap every public function defined in ``modules`` (short name ->
        module).  Bindings of the same function object in the other
        modules (``from .x import f``) are patched as well.  Returns the
        wrapped names; ``uninstall`` restores the originals."""
        namers = namers or {}
        observers = observers or {}
        wrappers = {}
        for short, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[obj] = (name, self.wrap(obj, name, namers.get(name),
                                                     observers.get(name)))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj][1])
        return sorted(name for name, _ in wrappers.values())

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)


def blind_spots(modules: dict[str, object]) -> list[str]:
    """Public functions also held in a module-level dict (a dispatch
    table): calls made through the table bypass the wrappers."""
    out = []
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if isinstance(obj, dict):
                for key, val in obj.items():
                    if inspect.isfunction(val) and not val.__name__.startswith("_"):
                        home = val.__module__.rsplit(".", 1)[-1]
                        out.append(f"{short}.{attr}[{key!r}] -> {home}.{val.__name__}")
    return sorted(out)


def self_times(spans: list[Span]) -> dict[str, tuple[float, int]]:
    """Total self time and call count per span name."""
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    out: dict[str, tuple[float, int]] = {}
    for s in spans:
        total, calls = out.get(s.name, (0.0, 0))
        out[s.name] = (total + s.duration - child_time.get(s.id, 0.0), calls + 1)
    return out
