"""Benchmark-side tracing: wrap the public functions of each hypoflow module.

Nothing under ``src/`` changes.  :func:`install` replaces every public
function of the traced modules wherever the name is bound (module
attributes, the package namespace and ``from`` imports inside other
modules), so internal calls such as ``verify`` -> ``heisenberg.cc_distance_batch``
are traced too.  Each call records a span (name, start, end, parent) in
memory; the spans are written out once the run ends.  Hot inner helpers
(``asian.g``, ``asian.g_prime``) and classes are left unwrapped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from dataclasses import dataclass, field

MODULES = ("cli", "verify", "montecarlo", "heisenberg", "asian", "kolmogorov",
           "harnack", "paths", "quadratic", "models")

# Called many times per public call; their cost stays in the caller's self time.
HOT_HELPERS = frozenset({"asian.g", "asian.g_prime"})


@dataclass
class Span:
    name: str
    parent: int
    start: float
    end: float = 0.0
    work: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for calls made on the thread that created it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def call(self, name, fn, extract, args, kwargs):
        if not self.enabled or threading.get_ident() != self._thread:
            return fn(*args, **kwargs)
        span = Span(name, self._stack[-1] if self._stack else -1, self.clock())
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = self.clock()
            self._stack.pop()
        if extract is not None:
            span.work = extract(args, kwargs, result)
        return result

    def mark(self) -> int:
        """Index of the next span; spans[mark:] are those recorded after it."""
        return len(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(i, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.duration - covered)
    return out


def _public_functions(module, modname):
    for name, obj in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(obj):
            continue
        if obj.__module__ != module.__name__:
            continue
        if f"{modname}.{name}" in HOT_HELPERS:
            continue
        yield name, obj


def install(tracer: Tracer, extractors: dict):
    """Wrap every public function of MODULES; returns an undo function."""
    import hypoflow

    modules = {m: importlib.import_module(f"hypoflow.{m}") for m in MODULES}
    wrapped = {}
    for modname, module in modules.items():
        for name, fn in _public_functions(module, modname):
            qual = f"{modname}.{name}"

            def wrapper(*args, _fn=fn, _qual=qual, _ex=extractors.get(qual), **kwargs):
                return tracer.call(_qual, _fn, _ex, args, kwargs)

            wrapped[fn] = functools.wraps(fn)(wrapper)
    patched = []
    for mod in (hypoflow, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrapped:
                setattr(mod, attr, wrapped[value])
                patched.append((mod, attr, value))

    def undo():
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return undo
