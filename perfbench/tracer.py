"""Per-layer tracing of genosc by wrapping its public functions from outside.

A layer is a genosc module.  Entering a `Tracer` wraps every public function
the layer modules define, plus `QuantumOperator.commutator`, and rebinds the
wrapper in every genosc namespace that holds the function: `from .geometry
import metric_at` copies the binding into `symplectic`, `campaigns` and `cli`,
and `AlgebraElement.as_field` looks `evaluate` up in `observables` globals.
`ComplexRational` arithmetic is counted, not timed, because it is too hot to
time.  Leaving the tracer restores every binding.

Each wrapper records a span's call count, its inclusive time (outermost
activation only, so recursion through e.g. `wirtinger` is not counted twice)
and its self time (inclusive time minus the time of the wrapped calls made
inside it).  Spans are aggregated as they close rather than kept, because a
single m=4 `verify` makes about 10^5 wrapped calls.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter

LAYERS = ("cli", "campaigns", "geometry", "symplectic", "observables", "quantization", "exact")

# ComplexRational methods counted as exact.complex_rational_ops; __rsub__ is
# left out because it delegates to __sub__.
_EXACT_OPS = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.depth = 0


class Tracer:
    """Context manager that traces every layer of the imported genosc package."""

    def __init__(self):
        self.spans: dict[str, SpanStats] = {}
        self.complex_rational_ops = 0
        self.geometry_errors = 0
        self.metric_points: set = set()
        self._last_error = None
        self._child_time: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = {name: importlib.import_module(f"genosc.{name}") for name in LAYERS}
        errors = importlib.import_module("genosc.errors")
        self._geometry_errors = (errors.DomainError, errors.ConditioningError)
        try:
            wrappers = {}
            for layer, module in modules.items():
                for attr, obj in vars(module).items():
                    if (
                        inspect.isfunction(obj)
                        and obj.__module__ == module.__name__
                        and not attr.startswith("_")
                    ):
                        wrappers[obj] = self._timed(f"{layer}.{attr}", obj)
            for name, module in list(sys.modules.items()):
                if name == "genosc" or name.startswith("genosc."):
                    for attr, obj in list(vars(module).items()):
                        if inspect.isfunction(obj) and obj in wrappers:
                            self._patch(module, attr, wrappers[obj])
            operator = modules["quantization"].QuantumOperator
            self._patch(
                operator,
                "commutator",
                self._timed("quantization.QuantumOperator.commutator", operator.commutator),
            )
            rational = modules["exact"].ComplexRational
            for op in _EXACT_OPS:
                self._patch(rational, op, self._counted(vars(rational)[op]))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self._restore()

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _counted(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.complex_rational_ops += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, key: str, fn):
        stats = self.spans.setdefault(key, SpanStats())
        child_time = self._child_time
        is_geometry = key.startswith("geometry.")
        records_point = key == "geometry.metric_at"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            if records_point:
                point = args[1] if len(args) > 1 else kwargs["p"]
                self.metric_points.add(point.z)
            stats.depth += 1
            children = [0.0]
            child_time.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except self._geometry_errors as exc:
                if is_geometry and exc is not self._last_error:
                    self.geometry_errors += 1
                    self._last_error = exc
                raise
            finally:
                elapsed = perf_counter() - start
                child_time.pop()
                if child_time:
                    child_time[-1][0] += elapsed
                stats.self_s += elapsed - children[0]
                stats.depth -= 1
                if stats.depth == 0:
                    stats.total_s += elapsed

        return wrapper

    def metric(self, name: str, samples: int) -> float:
        """Value of one per-layer metric, e.g. `geometry.metric_at.self_s`.

        `samples` is the number of sample points verified while tracing, the
        base of the `calls_per_sample` ratios (0 when no point was verified).
        """
        if name == "geometry.errors":
            return self.geometry_errors
        if name == "exact.complex_rational_ops":
            return self.complex_rational_ops
        key, field = name.rsplit(".", 1)
        stats = self.spans.get(key, SpanStats())
        if field == "calls":
            return stats.calls
        if field == "s":
            return stats.total_s
        if field == "self_s":
            return stats.self_s
        if field == "calls_per_sample":
            return stats.calls / samples if samples else 0.0
        if field == "unique_frac":
            return len(self.metric_points) / stats.calls if stats.calls else 0.0
        raise KeyError(f"unknown per-layer metric {name!r}")
