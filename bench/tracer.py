"""Span tracer that times calls into a package's public functions from outside.

The program is not instrumented: ``Tracer`` replaces each target function
with a timing wrapper for the duration of a ``with`` block, in every module
of the package that binds it, and puts the originals back on exit. A parent
stack gives each span's self time (its duration minus the time its child
spans cover), so the self times of all spans under a root span add up to the
root span's duration.

Run ``python3 bench/tracer.py`` for the tracer's self-test.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types
from collections import defaultdict


class Tracer:
    """Context manager timing calls to ``targets``.

    ``targets`` lists ``(span, owner, attribute)``: ``owner`` is a module or
    a class and ``attribute`` names the function in its ``__dict__``. Several
    targets may share one span name (one method defined by several classes).
    A module-level function is patched in every module of ``package`` that
    binds the same object, and wrapped once however many modules bind it; a
    method is patched on its class only, which covers subclasses that inherit
    it. ``counters`` maps a span name to ``fn(result) -> {name: amount}``,
    added up over the calls. Calls must come from the thread that entered.
    """

    def __init__(self, package: str, targets, counters=None):
        self.package = package
        self.targets = list(targets)
        self.counters = dict(counters or {})
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # span -> [calls, total_s, self_s]
        self.counts = defaultdict(float)
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self._thread = None

    def _modules(self):
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if isinstance(mod, types.ModuleType) and (name == self.package or name.startswith(prefix))
        ]

    def _wrap(self, span: str, fn):
        spans, counts, stack = self.spans, self.counts, self._stack
        counter = self.counters.get(span)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            if threading.get_ident() != self._thread:
                raise RuntimeError(f"{span} called from another thread; the tracer keeps one parent stack")
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                record = spans[span]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - child
            if counter is not None:
                for name, amount in counter(result).items():
                    counts[name] += amount
            return result

        return timed

    def _patch(self, owner, attribute: str, value) -> None:
        self._patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, value)

    def __enter__(self) -> "Tracer":
        self._thread = threading.get_ident()
        modules = self._modules()
        try:
            for span, owner, attribute in self.targets:
                original = vars(owner)[attribute]
                if id(original) in self._wrappers:
                    raise ValueError(f"{span}: {attribute} is listed twice")
                wrapper = self._wrappers[id(original)] = self._wrap(span, original)
                if isinstance(owner, type):
                    self._patch(owner, attribute, wrapper)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)
            self.check_bindings(installed=True)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()
        self.check_bindings(installed=False)

    def _restore(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def check_bindings(self, installed: bool) -> None:
        """Raise unless every binding is wrapped (installed) or original (not)."""
        wrappers = {id(w) for w in self._wrappers.values()}
        stray = []
        for module in self._modules():
            for name, value in vars(module).items():
                if installed and id(value) in self._wrappers:
                    stray.append(f"{module.__name__}.{name} still bound to the original")
                if not installed and id(value) in wrappers:
                    stray.append(f"{module.__name__}.{name} still bound to a wrapper")
        for _, owner, attribute in self.targets:
            value = vars(owner)[attribute]
            if (id(value) in wrappers) != installed:
                stray.append(f"{owner.__name__}.{attribute} is {'not ' if installed else ''}wrapped")
        if stray:
            raise RuntimeError("tracer bindings: " + "; ".join(stray))

    def self_total(self) -> float:
        return sum(record[2] for record in self.spans.values())


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError("tracer self-test: " + message)


def selftest() -> None:
    """Check span accounting and restoration on a throwaway package.

    ``demo.inner`` is bound in two modules and called through both; it must
    be wrapped once and counted once per call. The self times must add up to
    the outer call's wall time, and every original must be back afterwards.
    """
    base = types.ModuleType("tracer_demo")
    other = types.ModuleType("tracer_demo.other")

    def inner(delay):
        time.sleep(delay)
        return delay

    def outer():
        time.sleep(0.01)
        return base.inner(0.02) + other.inner(0.01)

    class Shape:
        def area(self):
            time.sleep(0.005)
            return 1.0

    class Square(Shape):
        pass

    area = vars(Shape)["area"]

    base.inner, base.outer, base.Shape = inner, outer, Shape
    other.inner, other.base = inner, base
    sys.modules.update({"tracer_demo": base, "tracer_demo.other": other})
    try:
        targets = [("demo.outer", base, "outer"), ("demo.inner", base, "inner"), ("demo.area", Shape, "area")]
        counters = {"demo.inner": lambda result: {"demo.delay": result}}
        with Tracer("tracer_demo", targets, counters) as tracer:
            start = time.perf_counter()
            base.outer()
            Square().area()
            wall = time.perf_counter() - start
        spans = tracer.spans
        _expect(spans["demo.outer"][0] == 1 and spans["demo.inner"][0] == 2, f"call counts {dict(spans)}")
        _expect(spans["demo.area"][0] == 1, f"inherited method calls {dict(spans)}")
        _expect(abs(tracer.counts["demo.delay"] - 0.03) < 1e-12, f"counter {dict(tracer.counts)}")
        _expect(spans["demo.outer"][2] < spans["demo.outer"][1] - 0.029, f"outer self time {dict(spans)}")
        _expect(0.0 <= wall - tracer.self_total() < 1e-3, f"self times {tracer.self_total()} vs wall {wall}")
        _expect(base.inner is inner and other.inner is inner and base.outer is outer, "functions not restored")
        _expect(vars(Shape)["area"] is area and "area" not in vars(Square), "method not restored")
    finally:
        del sys.modules["tracer_demo"], sys.modules["tracer_demo.other"]


if __name__ == "__main__":
    selftest()
    print("tracer self-test passed")
