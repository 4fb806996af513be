"""Outside-in layer tracing: wrap rscatter's public functions from outside.

Every public function defined in a traced module becomes a span named
`<module>.<function>`.  The wrapper replaces the function under every name
that binds it in any loaded rscatter module, so a function reached through
an imported name (`channel` binds `traffic.pareto_sample`, `codesearch`
binds `channel.markov_from_stats`) is still counted.  Methods are wrapped
on their class, which covers every binding of the class.

Spans are aggregated as they close rather than stored: a span's self time
is its duration minus the durations of the spans it called.
"""

import functools
import inspect
import sys
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class Span:
    calls: int = 0
    self_s: float = 0.0
    none_returns: int = 0
    raised: Counter = field(default_factory=Counter)

    def clear(self):
        self.calls = self.none_returns = 0
        self.self_s = 0.0
        self.raised.clear()


class Tracer:
    """Installs wrappers on a package's functions and aggregates their spans."""

    def __init__(self, package):
        self.package = package
        self.spans = {}
        self._stack = []  # time spent in child spans, one entry per open span
        self._undo = []  # (owner, attribute, original), in install order

    def _span(self, name):
        return self.spans.setdefault(name, Span())

    def _timed(self, fn, name):
        span = self._span(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.raised[type(exc).__name__] += 1
                raise
            finally:
                elapsed = perf_counter() - t0
                span.calls += 1
                span.self_s += elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
            if result is None:
                span.none_returns += 1
            return result

        return wrapper

    def _counted(self, fn, name):
        span = self._span(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span.calls += 1
            return fn(*args, **kwargs)

        return wrapper

    def _package_modules(self):
        prefix = self.package + "."
        return [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_functions(self, module_names):
        """Time every public function defined in the named submodules, under
        every binding in the package."""
        wrappers = {}
        for mod in self._package_modules():
            short = mod.__name__[len(self.package) + 1:]
            if short not in module_names:
                continue
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._timed(obj, f"{short}.{attr}")
        for mod in self._package_modules():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

    def wrap_method(self, cls, attr, name, count_only=False):
        """Wrap a method on its class: a timed span, or a bare call count
        for methods too hot to time without distorting their callers."""
        fn = getattr(cls, attr)
        self._set(cls, attr, (self._counted if count_only else self._timed)(fn, name))

    def reset(self):
        for span in self.spans.values():
            span.clear()

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
