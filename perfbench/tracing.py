"""In-memory per-function tracing of the anosovcheck layers.

Each layer's public functions are wrapped in every module that binds them
by name (``subgroup.factored_coords_pair`` and ``dynamics.factored_coords_pair``
share one wrapper), together with ``numpy.linalg.svd/qr/inv`` and the
``FaceType.blocks`` property.  Spans are aggregated per function as they
close: call count, inclusive seconds, self seconds (the span minus its
child spans) and the number of calls that raised; ``Tracer.snapshot``
returns them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

PACKAGE = "anosovcheck"
LAYERS = ("chamber", "flags", "symmspace", "dynamics", "subgroup", "reports", "cli")
NUMPY_LINALG = ("svd", "qr", "inv")
_DONE = object()


class Stat:
    __slots__ = ("calls", "s", "self_s", "raised", "active")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.active = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "s": self.s, "self_s": self.self_s, "raised": self.raised}


class Tracer:
    """Wraps the package in place; use as a context manager to restore it."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._stack: list[list[float]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _span(self, stat: Stat, fn, counted: bool = True):
        stack = self._stack
        clock = time.perf_counter
        step = 1 if counted else 0

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += step
            stat.active += 1
            children = [0.0]
            stack.append(children)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stat.raised += 1
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                stat.active -= 1
                if stat.active == 0:  # recursive calls count once in the inclusive time
                    stat.s += dt
                stat.self_s += dt - children[0]
                if stack:
                    stack[-1][0] += dt

        return wrapper

    def _gen_span(self, stat: Stat, fn):
        # A generator's span is the time spent inside its body, summed over
        # resumptions; the consumer's work between items is not charged.
        step = self._span(stat, lambda it: next(it, _DONE), counted=False)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat.calls += 1
            it = fn(*args, **kwargs)
            while (item := step(it)) is not _DONE:
                yield item

        return wrapper

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, Stat())
        if inspect.isgeneratorfunction(fn):
            return self._gen_span(stat, fn)
        return self._span(stat, fn)

    def _set(self, owner, attr: str, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        import numpy.linalg

        from anosovcheck.chamber import FaceType

        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == PACKAGE or k.startswith(PACKAGE + "."))]
        wrappers = {}  # id of a public layer function -> its wrapper
        for layer in LAYERS:
            home = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(home).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == home.__name__):
                    wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    self._set(mod, attr, wrappers[id(value)])
        for attr in NUMPY_LINALG:
            self._set(numpy.linalg, attr, self._span(self.stats.setdefault(
                f"numpy.linalg.{attr}", Stat()), getattr(numpy.linalg, attr)))
        blocks = FaceType.__dict__["blocks"]
        self._set(FaceType, "blocks", property(self._span(
            self.stats.setdefault("chamber.FaceType.blocks", Stat()), blocks.fget)))
        return self

    def __exit__(self, *exc):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
        return False

    def snapshot(self) -> dict[str, dict]:
        return {name: st.as_dict() for name, st in sorted(self.stats.items())}
