"""Span tracing of the vlasov_ap package from outside, and the per-layer metrics.

``Tracer.install`` replaces every public function and public method of the
seven modules (plus the few private calls named in ``EXTRA``) with a wrapper
that records a span: name, start, end and the span that was open when it was
called.  A function is replaced wherever the package holds it, so calls made
through ``from .fields import radial_field`` are traced as well as calls made
through ``fields.radial_field``.  Spans stay in memory until ``dump``.

A span is named ``<module>.<function>`` or ``<module>.<Class>.<method>``; its
layer is the module.  ``layer_metrics`` turns the dumped spans of one traced
round into the per-layer metrics listed in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
import tracemalloc

import numpy as np

LAYERS = ("averaging", "stepper", "fields", "reference", "harness", "domain", "cli")
# private calls that mark a layer boundary the public names do not show
EXTRA = {
    "fields.FrameRotator.__init__",
    "reference.SplittingSolver._drift",
    "reference.SplittingSolver._kick",
    "harness._splitting_reference",
    "harness._write_outputs",
    "harness._write_snapshot",
    "harness._atomic_savetxt",
}
ADVANCE = "stepper.APSolver.advance"
ROTATOR_INIT = "fields.FrameRotator.__init__"
# the advance call whose allocations are traced; the first one may still fill caches
ALLOC_CALL = 2


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.fft_in_advance = 0
        self.gauges: dict[str, float] = {}
        self._in_advance = 0
        self._advance_calls = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        hook = {ADVANCE: self._advance, ROTATOR_INIT: self._rotator_init}.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(i)
            try:
                if hook is not None:
                    return hook(fn, args, kwargs)
                return fn(*args, **kwargs)
            finally:
                spans[i][2] = clock()
                stack.pop()

        return traced

    def _advance(self, fn, args, kwargs):
        self._advance_calls += 1
        self._in_advance += 1
        try:
            if self._advance_calls != ALLOC_CALL:
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.gauges["stepper.advance.alloc_bytes"] = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        finally:
            self._in_advance -= 1

    def _rotator_init(self, fn, args, kwargs):
        out = fn(*args, **kwargs)
        held = sum(v.nbytes for v in vars(args[0]).values() if isinstance(v, np.ndarray))
        self.gauges["fields.FrameRotator.table_bytes"] = held
        return out

    def _count_fft(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self._in_advance:
                self.fft_in_advance += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap the package in place; call once, before the traced call."""
        package = importlib.import_module("vlasov_ap")
        modules = [importlib.import_module(f"vlasov_ap.{m}") for m in LAYERS]
        replaced = {}
        for mod, layer in zip(modules, LAYERS):
            for name, obj in list(vars(mod).items()):
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if name.startswith("_"):
                        continue
                    for attr, fn in list(vars(obj).items()):
                        span = f"{layer}.{name}.{attr}"
                        if _traceable(fn) and (not attr.startswith("_") or span in EXTRA):
                            setattr(obj, attr, self.wrap(span, fn))
                elif _traceable(obj) and (not name.startswith("_") or f"{layer}.{name}" in EXTRA):
                    replaced[id(obj)] = (obj, self.wrap(f"{layer}.{name}", obj))
        # rebind every module-level alias, e.g. names imported with `from .x import y`
        for mod in [package, *modules]:
            for name, obj in list(vars(mod).items()):
                if id(obj) in replaced and replaced[id(obj)][0] is obj:
                    setattr(mod, name, replaced[id(obj)][1])
        np.fft.rfft = self._count_fft(np.fft.rfft)
        np.fft.irfft = self._count_fft(np.fft.irfft)

    def dump(self, path: str):
        with open(path, "w") as fh:
            json.dump(
                {"spans": self.spans, "fft_in_advance": self.fft_in_advance, "gauges": self.gauges},
                fh,
            )


def _traceable(obj) -> bool:
    return inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj)


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


class _Process:
    """Spans of one traced process with their durations and self times."""

    def __init__(self, dumped: dict):
        self.spans = dumped["spans"]
        self.fft_in_advance = dumped["fft_in_advance"]
        self.gauges = dumped["gauges"]
        n = len(self.spans)
        self.dur = [s[2] - s[1] for s in self.spans]
        child = [0.0] * n
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = [self.dur[i] - child[i] for i in range(n)]

    def has_ancestor(self, i: int, names) -> bool:
        p = self.spans[i][3]
        while p >= 0:
            if self.spans[p][0] in names:
                return True
            p = self.spans[p][3]
        return False

    def total(self, *names) -> float:
        """Wall time inside any of the named calls, nested calls counted once."""
        return sum(
            self.dur[i]
            for i, s in enumerate(self.spans)
            if s[0] in names and not self.has_ancestor(i, names)
        )

    def durations(self, name) -> list[float]:
        return [self.dur[i] for i, s in enumerate(self.spans) if s[0] == name]

    def cache_misses(self) -> int:
        return sum(
            1
            for i, s in enumerate(self.spans)
            if s[0] == "reference.SplittingSolver.solve"
            and self.has_ancestor(i, ("harness._splitting_reference",))
        )

    def root_time(self) -> float:
        return sum(self.dur[i] for i, s in enumerate(self.spans) if s[3] < 0)


def _median_ms(values) -> float:
    return float(np.median(values)) * 1e3 if values else 0.0


def layer_metrics(span_paths: list[str]) -> dict[str, float]:
    """Per-layer metrics of one traced round, made of one or more processes.

    Times and counts add up over the processes; per-call medians pool the
    calls of all of them.  ``trace.run_s`` is the time inside the root spans
    (the ``cli.main`` calls), which the layer self times add up to.
    """
    procs = [_Process(_load(p)) for p in span_paths]

    def total(*names):
        return sum(r.total(*names) for r in procs)

    def calls(name):
        return sum(len(r.durations(name)) for r in procs)

    def pooled(name):
        return [d for r in procs for d in r.durations(name)]

    advance_calls = calls(ADVANCE)
    referenced = calls("harness._splitting_reference")
    misses = sum(r.cache_misses() for r in procs)
    m = {
        "averaging.solve_implicit_tau.s": total("averaging.solve_implicit_tau"),
        "averaging.spectral_derivative.s": total("averaging.spectral_derivative"),
        "averaging.eval_at_tau.s": total("averaging.eval_at_tau"),
        "averaging.fft_calls_per_step": (
            sum(r.fft_in_advance for r in procs) / advance_calls if advance_calls else 0.0
        ),
        "stepper.advance.calls": advance_calls,
        "stepper.advance.ms": _median_ms(pooled(ADVANCE)),
        "stepper.advance.alloc_mb": max(
            (r.gauges.get("stepper.advance.alloc_bytes", 0) for r in procs), default=0
        ) / 2**20,
        "stepper.flux.s": total("stepper.flux"),
        "stepper.four_point_average.s": total("stepper.four_point_average"),
        "stepper.readout.s": total("stepper.APSolver.readout", "stepper.APSolver.readout_at"),
        "stepper.initial_state.s": total("stepper.APSolver.initial_state"),
        "fields.self_field.calls": calls("fields.self_field"),
        "fields.self_field.ms": _median_ms(pooled("fields.self_field")),
        "fields.state_to_rv.s": total("fields.FrameRotator.state_to_rv"),
        "fields.radial_field.s": total("fields.radial_field"),
        "fields.sample_radial.s": total("fields.FrameRotator.sample_radial"),
        "fields.FrameRotator.init.s": total(ROTATOR_INIT),
        "fields.FrameRotator.table_mb": max(
            (r.gauges.get("fields.FrameRotator.table_bytes", 0) for r in procs), default=0
        ) / 2**20,
        "fields.sample_plane.s": total("fields.sample_plane"),
        "reference.drift.calls": calls("reference.SplittingSolver._drift"),
        "reference.drift.s": total("reference.SplittingSolver._drift"),
        "reference.kick.calls": calls("reference.SplittingSolver._kick"),
        "reference.kick.s": total("reference.SplittingSolver._kick"),
        "reference.filtered_from_rv.s": total("reference.filtered_from_rv"),
        "reference.models.s": total("reference.second_order_solution", "reference.limit_solution"),
        "harness.diagnostics.s": total(
            "harness.rms", "harness.negative_part", "harness.boundary_mass_fraction", "harness.total_mass"
        ),
        "harness.output.s": total("harness._write_outputs", "harness._write_snapshot", "harness._atomic_savetxt"),
        "harness.reference_cache.hits": referenced - misses,
        "harness.reference_cache.misses": misses,
        "domain.initial_distribution.s": total("domain.initial_distribution"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            r.self_time[i] for r in procs for i, s in enumerate(r.spans) if s[0].split(".", 1)[0] == layer
        )
    m["trace.run_s"] = sum(r.root_time() for r in procs)
    return m
