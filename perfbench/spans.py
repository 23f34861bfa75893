"""Span recording around balchain's public functions, from the outside.

``install`` wraps every public function of each layer module and rebinds the
wrapper at every import site: modules such as ``verify`` and ``cli`` bind
``solve_exact`` and friends at import time, so patching the defining module
alone would miss their calls.  Each span records its parent, so a layer's
self time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = ("sequences", "chains", "steady", "quadratic", "verify", "cli")

# the functions whose self time the benchmark reports; tracing refuses to
# start if one of them is gone, so a refactor cannot silently drop a layer
TRACED = {
    "sequences": ("term", "sequence", "balancing_matrix_power"),
    "chains": ("build", "validate", "matrix_to_json", "matrix_from_json"),
    "steady": ("solve_exact", "n_step", "simulate", "power_iteration"),
    "quadratic": ("beta_power_identity", "infinite_steady_state", "gap_bound", "silver_ratio_gap"),
    "verify": ("closed_form", "verify_family", "q_invariance", "truncation_gap_bound"),
    "cli": ("main",),
}


class LayerMissing(Exception):
    """A function the benchmark reports on is gone from its layer."""


class Recorder:
    """Spans kept in memory as [name, parent index, start, end]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, result)
            return result

        return traced

    def drain(self) -> tuple[dict[str, list], dict[str, float]]:
        """Self time and calls per span name, plus counters; then start afresh."""
        totals = self_times(self.spans)
        counts = self.counts
        self.spans.clear()
        self.counts = {}
        return totals, counts


def self_times(spans) -> dict[str, list]:
    """{name: [self seconds, calls]} for spans given as (name, parent, start, end)."""
    covered = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        entry = totals.setdefault(name, [0.0, 0])
        entry[0] += end - start - covered[i]
        entry[1] += 1
    return totals


# counters read off a layer's return value
HOOKS = {
    "steady.simulate": lambda rec, result: rec.count("steady.simulate.steps", result.steps),
    "steady.power_iteration": lambda rec, result: rec.count("steady.power_iteration.iterations", result[1]),
}


def public_functions(module) -> dict[str, object]:
    """Functions a layer defines and exports in ``__all__``; classes excluded."""
    out = {}
    for name in module.__all__:
        obj = getattr(module, name, None)
        if callable(obj) and not isinstance(obj, type) and getattr(obj, "__module__", None) == module.__name__:
            out[name] = obj
    return out


def install(recorder: Recorder, package: str, required: dict[str, tuple[str, ...]]):
    """Wrap each layer's public functions wherever they are bound; return an undo."""
    modules = [m for name, m in list(sys.modules.items()) if name == package or name.startswith(package + ".")]
    missing = []
    for layer, names in required.items():
        module = sys.modules.get(f"{package}.{layer}")
        for name in names:
            if module is None or name not in public_functions(module):
                missing.append(f"{layer}.{name}")
    if missing:
        raise LayerMissing("public functions the benchmark traces are gone: " + ", ".join(missing))

    wrappers = {}
    for layer in LAYERS:
        for name, fn in public_functions(sys.modules[f"{package}.{layer}"]).items():
            span = f"{layer}.{name}"
            wrappers[id(fn)] = (fn, recorder.wrap(span, fn, HOOKS.get(span)))
    undo = []
    for module in modules:
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                undo.append((module, attr, value))

    def restore() -> None:
        for module, attr, value in undo:
            setattr(module, attr, value)

    return restore, sorted({f"{m.__name__}.{a}" for m, a, _ in undo})
