"""Per-function spans for a package, recorded from outside it.

``Tracer`` wraps every public function defined in the given modules.
Callers inside the package bind their callees with ``from .x import f``,
so ``install`` replaces every attribute of every module of the package
that refers to an original function object, not just the attribute of the
defining module, and ``uninstall`` puts each one back.

Spans are folded into per-function totals as they close instead of being
kept one by one (a sweep makes close to a million calls): the number of
calls, the inclusive seconds, and the self seconds, which are the
inclusive seconds minus the part of the interval covered by child spans.
Optional hooks turn a call's arguments and result into work counters.

Standard library only.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time


class Stat:
    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Spans and work counters for the public functions of ``modules``.

    ``hooks`` maps a qualified name ``"<module>.<function>"`` to a callable
    ``hook(tracer, bound_arguments, result)`` that runs after a successful
    call, outside every span's self time.
    """

    def __init__(self, package, modules, hooks=None):
        self.package = package
        self.hooks = dict(hooks or {})
        self._originals = {}          # id(original) -> (original, wrapper)
        self._wrapper_ids = set()
        self._stack = []
        self._patched = []
        self.names = []
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, obj in sorted(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                qual = f"{short}.{name}"
                self.names.append(qual)
                wrapper = self._wrap(obj, qual)
                self._originals[id(obj)] = (obj, wrapper)
                self._wrapper_ids.add(id(wrapper))
        unknown = set(self.hooks) - set(self.names)
        if unknown:
            raise ValueError(f"hooks for untraced functions: {sorted(unknown)}")
        self.reset()

    def reset(self):
        """Forget every recorded span and counter."""
        self.stats = {qual: Stat() for qual in self.names}
        self.work = {}

    # -- work counters, for hooks -------------------------------------------

    def add(self, name, value):
        self.work[name] = self.work.get(name, 0) + value

    def maximum(self, name, value):
        self.work[name] = max(self.work.get(name, value), value)

    def minimum(self, name, value):
        self.work[name] = min(self.work.get(name, value), value)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, qual):
        stack = self._stack
        clock = time.perf_counter
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]             # seconds covered by child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                stat = self.stats[qual]
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            hook = self.hooks.get(qual)
            if hook is not None:
                h0 = clock()
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
                if stack:             # keep hook time out of the caller's self time
                    stack[-1][0] += clock() - h0
            return result

        return wrapper

    def _package_modules(self):
        prefix = self.package + "."
        return [mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == self.package
                                        or name.startswith(prefix))]

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod in self._package_modules():
            for attr, value in list(vars(mod).items()):
                entry = self._originals.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(mod, attr, entry[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        while self._patched:
            mod, attr, value = self._patched.pop()
            setattr(mod, attr, value)

    def leftovers(self):
        """(module, attribute) pairs of the package that still hold a wrapper."""
        return [(mod.__name__, attr) for mod in self._package_modules()
                for attr, value in vars(mod).items()
                if id(value) in self._wrapper_ids]

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
