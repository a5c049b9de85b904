"""Outside-in tracing of blaschke_lab: spans and work counters.

Every public module-level function of every ``blaschke_lab.*`` module is
wrapped in a span while a ``Tracer`` is installed.  A function is replaced
at every module namespace that bound it by name (found by an identity scan
over ``sys.modules``), so calls made through ``from .x import f`` copies
are timed as well as calls made through the home module.  The
``FiniteSequence.zs`` property is wrapped too, since it rebuilds an array
on every access, and so is ``__call__`` of the package's callable classes
(``AnalyticFunction``, ``MoebiusMap``, ...).

A span's self time is its duration minus the durations of its direct
child spans.  Work counters are read from the arguments of the wrapped
calls, never from program internals, so they repeat exactly for a given
input and survive changes to how the program computes:

  blaschke.factor_evals   listed zeros x points, per evaluate and
                          log_abs_evaluate call
  bergman.quad_nodes      points passed to the integrand of area_integral
                          (the integrand is wrapped, the grid is not read)
  carleson.uniform_blaschke_sup.centers   probe centres passed
  io.bytes_written        UTF-8 bytes of the text the io.format_* functions
                          return; every sequence file and report goes
                          through them

Spans nest through a single stack, which assumes the program runs on one
thread; the benchmark pins BLASCHKE_LAB_THREADS to 1.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from collections import Counter, defaultdict

PACKAGE = "blaschke_lab"


def package_modules() -> list:
    return [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def public_functions() -> list:
    """(span name, function) for every public function defined at module level."""
    out = []
    for mod in package_modules():
        if mod.__name__ == PACKAGE:
            continue
        short = mod.__name__.rsplit(".", 1)[1]
        for attr, val in list(vars(mod).items()):
            if (not attr.startswith("_") and isinstance(val, types.FunctionType)
                    and val.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", val))
    return out


def package_classes() -> list:
    """Classes defined in the package that define their own ``__call__``."""
    return [
        val for mod in package_modules() if mod.__name__ != PACKAGE
        for val in list(vars(mod).values())
        if isinstance(val, type) and val.__module__ == mod.__name__
        and "__call__" in vars(val)
    ]


def patch_everywhere(func, replacement):
    """Rebind ``func`` to ``replacement`` at every package namespace that
    holds it; returns a function that undoes the rebinding."""
    sites = [
        (mod, attr) for mod in package_modules()
        for attr, val in list(vars(mod).items()) if val is func
    ]
    for mod, attr in sites:
        setattr(mod, attr, replacement)

    def undo():
        for mod, attr in sites:
            setattr(mod, attr, func)

    return undo


def _arg(args, kwargs, names, i):
    return args[i] if len(args) > i else kwargs[names[i]]


def _size(z) -> int:
    shape = getattr(z, "shape", None)
    if shape is None:
        return 1
    n = 1
    for d in shape:
        n *= d
    return n


class Tracer:
    """Per-span call counts, inclusive and self times, and named counters."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.total: dict = defaultdict(float)
        self.self_time: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list = []

    def _wrap(self, name, func, before=None, after=None):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                self.calls[name] += 1
                self.total[name] += dur
                self.self_time[name] += dur - child
                if stack:
                    stack[-1] += dur
            if after is not None:
                after(result)
            return result

        return functools.update_wrapper(wrapper, func)

    def _hooks(self, name, func):
        """Counters taken from the arguments or result of one function."""
        counts = self.counts
        try:
            names = list(inspect.signature(func).parameters)
        except (TypeError, ValueError):
            names = []
        if name in ("blaschke.evaluate", "blaschke.log_abs_evaluate"):
            def before(args, kwargs):
                b = _arg(args, kwargs, names, 0)
                z = _arg(args, kwargs, names, 1)
                counts["blaschke.factor_evals"] += len(b.zeros) * _size(z)
                return args, kwargs
            return before, None
        if name == "bergman.area_integral":
            def before(args, kwargs):
                fn = _arg(args, kwargs, names, 0)

                def counted(z, *a, **k):
                    counts["bergman.quad_nodes"] += _size(z)
                    return fn(z, *a, **k)

                if args:
                    return (counted,) + tuple(args[1:]), kwargs
                return args, {**kwargs, names[0]: counted}
            return before, None
        if name == "carleson.uniform_blaschke_sup":
            def before(args, kwargs):
                centers = _arg(args, kwargs, names, 1)
                if not hasattr(centers, "__len__"):
                    centers = list(centers)
                    if len(args) > 1:
                        args = args[:1] + (centers,) + tuple(args[2:])
                    else:
                        kwargs = {**kwargs, names[1]: centers}
                counts["carleson.uniform_blaschke_sup.centers"] += len(centers)
                return args, kwargs
            return before, None
        if name.startswith("io.format_"):
            def after(result):
                counts["io.bytes_written"] += len(str(result).encode())
            return None, after
        return None, None

    def _wrap_call(self, cls):
        """Span around ``cls.__call__``.  A function object that carries an
        ``evaluator`` closure is named after that closure, so its work counts
        toward the module that built it rather than toward its caller."""
        orig = vars(cls)["__call__"]
        default = f"{cls.__module__.rsplit('.', 1)[1]}.{cls.__name__}.__call__"
        spans = {}

        def span_for(obj):
            ev = getattr(obj, "evaluator", None)
            key = ev.__code__ if isinstance(ev, types.FunctionType) else None
            if key not in spans:
                name = (default if key is None
                        else f"{ev.__module__.rsplit('.', 1)[-1]}.{ev.__qualname__}")
                spans[key] = self._wrap(name, orig)
            return spans[key]

        def call(obj, *args, **kwargs):
            return span_for(obj)(obj, *args, **kwargs)

        cls.__call__ = functools.update_wrapper(call, orig)
        return lambda: setattr(cls, "__call__", orig)

    def install(self):
        """Wrap every public function, callable class and
        ``FiniteSequence.zs``; returns the undo."""
        undos = []
        for name, func in public_functions():
            before, after = self._hooks(name, func)
            undos.append(patch_everywhere(func, self._wrap(name, func, before, after)))
        for cls in package_classes():
            undos.append(self._wrap_call(cls))
        disk = sys.modules.get(PACKAGE + ".disk")
        seq_cls = getattr(disk, "FiniteSequence", None)
        prop = vars(seq_cls).get("zs") if seq_cls is not None else None
        if isinstance(prop, property):
            seq_cls.zs = property(self._wrap("disk.FiniteSequence.zs", prop.fget))
            undos.append(lambda: setattr(seq_cls, "zs", prop))

        def undo():
            for u in reversed(undos):
                u()

        return undo

    def module_self(self, module: str) -> float:
        prefix = module + "."
        return sum(v for k, v in self.self_time.items() if k.startswith(prefix))
