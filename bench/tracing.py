"""Outside-in tracing of the leoris layers.

Every public function of every ``leoris`` module is replaced, at each
module attribute that refers to it, by a wrapper. Callers look those
names up at call time (``runner.gamma_approx``, ``channel.envelope_moment``,
``metrics.capacity_quadrature`` ...), so each call into a layer records a
span without any change to the package itself. Spans are kept in compact
arrays in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import sys
import types
from array import array
from time import perf_counter

import numpy as np


def _package_modules(package: types.ModuleType) -> list[types.ModuleType]:
    prefix = package.__name__ + "."
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package.__name__ or name.startswith(prefix))]


def patch_public(package: types.ModuleType, make_wrapper):
    """Replace each public function of ``package`` at every name that refers
    to it by ``make_wrapper(layer_name, fn)``; ``layer_name`` is
    ``<module>.<function>`` (e.g. ``channel.gamma_approx``). A wrapper
    factory that returns ``fn`` itself leaves that function alone.

    Returns a function that puts every original back.
    """
    prefix = package.__name__ + "."
    wrappers: dict = {}
    undo: list[tuple[types.ModuleType, str, object]] = []
    for mod in _package_modules(package):
        for attr, value in list(vars(mod).items()):
            if (not isinstance(value, types.FunctionType)
                    or not value.__module__.startswith(prefix)
                    or value.__name__.startswith("_")):
                continue
            if value not in wrappers:
                layer = f"{value.__module__[len(prefix):]}.{value.__name__}"
                wrappers[value] = make_wrapper(layer, value)
            if wrappers[value] is not value:
                setattr(mod, attr, wrappers[value])
                undo.append((mod, attr, value))

    def restore() -> None:
        for mod, attr, value in reversed(undo):
            setattr(mod, attr, value)

    return restore


class Tracer:
    """Span recorder: one span per wrapped call, with its parent span.

    ``observe`` maps a layer name to a function of the call's result whose
    value is summed per layer (sampler output sizes, fallback flags).
    """

    def __init__(self, observe: dict | None = None) -> None:
        self.layers: list[str] = []
        self._layer_ids: dict[str, int] = {}
        self.layer_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._observe = observe or {}
        self.observed: dict[str, float] = {}

    def wrap(self, layer: str, fn):
        layer_id = self._layer_ids.setdefault(layer, len(self.layers))
        if layer_id == len(self.layers):
            self.layers.append(layer)
        observe = self._observe.get(layer)
        stack, start, end = self._stack, self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(start)
            self.layer_of.append(layer_id)
            self.parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(index)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[index] = t0
                end[index] = t1
            if observe is not None:
                self.observed[layer] = self.observed.get(layer, 0.0) + float(observe(result))
            return result

        return traced

    def install(self, package: types.ModuleType):
        """Wrap every public function of ``package``; returns the restorer."""
        return patch_public(package, self.wrap)

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, total (inclusive) seconds, self seconds (total
        minus the time covered by its direct child spans) and the array of
        per-call durations."""
        layer_of = np.frombuffer(self.layer_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        duration = np.frombuffer(self.end) - np.frombuffer(self.start)
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=duration[has_parent],
                                 minlength=duration.size)
        self_time = duration - child_time
        out = {}
        for layer_id, layer in enumerate(self.layers):
            mask = layer_of == layer_id
            out[layer] = {
                "calls": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": duration[mask],
            }
        return out

    def write(self, path) -> None:
        """Write every span (layer, parent index, start, end) to ``path``."""
        np.savez(path, layers=np.array(self.layers, dtype=str),
                 layer=np.frombuffer(self.layer_of, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end))
