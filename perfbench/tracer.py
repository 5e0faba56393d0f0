"""Spans around the calls into each ``anisolap`` layer, recorded from outside.

``Tracer.install()`` wraps every public function of the layer modules and
rebinds the wrapper under every name that refers to the original in any
``anisolap`` module, because ``cli`` and ``analysis`` bind ``tempered_symbol``
and others at import.  A span records the layer, the function, its start and
end, its parent span and the check it belongs to.  Spans stay in memory until
the pass ends.

Only calls made on the thread that installed the tracer are recorded; calls
from the sampler's worker threads run inside the span of the ensemble call
that started them.  With ``memory=True``, ``tracemalloc`` runs inside the
outermost ``symbols`` and ``realspace`` spans for their peak allocation; it
slows Python-heavy code several times over, so timed traced passes leave it
off and a separate pass measures memory.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("measures", "symbols", "realspace", "sampler", "evolve", "multistate",
          "analysis", "cli")
_MEMORY_LAYERS = ("symbols", "realspace")
_FFT_NAMES = ("fft", "ifft", "fftn", "ifftn", "rfft", "irfft", "rfftn", "irfftn")
_APPLY = ("apply_caseI", "apply_caseII", "apply_general", "apply_gaussian_nonlocal")
_ENSEMBLES = ("ensemble_endpoints_parallel", "compound_poisson_endpoints")
_MULTISTATE_PATHS = ("multistate_endpoints", "validate_multistate")


@dataclass
class Span:
    sid: int
    layer: str
    name: str
    parent: int | None
    check: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


def _public_functions(module):
    """Functions defined in the module whose names do not start with ``_``
    (``__all__`` leaves some of them out, such as the ensemble functions)."""
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


def _n_points(arr, dim: int | None) -> int:
    a = np.asarray(arr)
    if a.ndim == 0:
        return 1
    if dim is None:
        return a.shape[0] if a.ndim > 1 else a.size
    return a.size // max(dim, 1)


def _dim_of(bound: dict) -> int | None:
    measure = bound.get("measure")
    if measure is not None:
        return measure.dimension
    for key in ("n", "dimension"):
        if isinstance(bound.get(key), int):
            return bound[key]
    field_ = bound.get("field")
    return getattr(field_, "dimension", None)


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.check: int | None = None
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._memory_depth = 0
        self._evolve_depth = 0
        self._restore: list = []

    # -- installation -----------------------------------------------------

    def install(self):
        import anisolap

        modules = [anisolap] + [importlib.import_module(f"anisolap.{layer}")
                                for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules[1:]):
            for name, fn in _public_functions(module):
                wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        for module in modules:
            for name, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._restore.append((module, name, value))
                    setattr(module, name, hit[1])
        for name in _FFT_NAMES:
            fn = getattr(np.fft, name)
            self._restore.append((np.fft, name, fn))
            setattr(np.fft, name, self._wrap_fft(fn))

    def uninstall(self):
        for module, name, value in reversed(self._restore):
            setattr(module, name, value)
        self._restore.clear()
        if tracemalloc.is_tracing():
            tracemalloc.stop()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        signature = inspect.signature(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer._thread:
                return fn(*args, **kwargs)
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(len(tracer.spans), layer, name, parent, tracer.check, 0.0)
            tracer.spans.append(span)
            tracer._stack.append(span.sid)
            memory = (tracer.memory and layer in _MEMORY_LAYERS
                      and tracer._memory_depth == 0)
            if memory:
                tracemalloc.start()
            if layer in _MEMORY_LAYERS:
                tracer._memory_depth += 1
            if layer == "evolve":
                tracer._evolve_depth += 1
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if layer == "evolve":
                    tracer._evolve_depth -= 1
                if layer in _MEMORY_LAYERS:
                    tracer._memory_depth -= 1
                if memory:
                    span.attrs["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
            try:
                bound = signature.bind(*args, **kwargs).arguments
            except TypeError:
                bound = {}
            tracer._count(span, bound, result)
            return result

        return wrapper

    def _wrap_fft(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer._evolve_depth and threading.get_ident() == tracer._thread:
                owner = tracer.spans[tracer._stack[-1]]
                owner.attrs["fft_points"] = owner.attrs.get("fft_points", 0) + np.size(a)
            return fn(a, *args, **kwargs)

        return wrapper

    # -- counts at the layer boundary -------------------------------------

    def _count(self, span: Span, bound: dict, result):
        layer, name = span.layer, span.name
        if layer == "measures" and name in ("band_nodes", "measure_nodes"):
            span.attrs["nodes"] = len(result[1])
        elif layer == "symbols" and "k" in bound:
            span.attrs["kpoints"] = _n_points(bound["k"], _dim_of(bound))
        elif layer == "realspace" and name in _APPLY:
            span.attrs["points"] = _n_points(bound["x"], _dim_of(bound))
        elif layer == "sampler" and name in _ENSEMBLES:
            span.attrs["paths"] = int(bound["n_paths"])
            span.attrs["jumps"] = float(bound["zeta"]) * float(bound["t"]) * int(bound["n_paths"])
        elif layer == "multistate" and name in _MULTISTATE_PATHS:
            span.attrs["paths"] = int(bound["n_paths"])

    # -- reduction --------------------------------------------------------

    def dump(self) -> list:
        return [{"id": s.sid, "layer": s.layer, "name": s.name, "parent": s.parent,
                 "check": s.check, "start": s.start, "end": s.end, "attrs": s.attrs}
                for s in self.spans]


def layer_metrics(spans: list, cli_io: dict, wall: float) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass, and each layer's share of self time.

    busy_s is the time at least one span of the layer is open; self_s
    subtracts the time covered by child spans of any layer."""
    by_id = {s["id"]: s for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def outermost_in_layer(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["layer"] == s["layer"]:
                return False
            p = by_id[p]["parent"]
        return True

    # quadrature nodes built inside each outermost symbols span
    nodes_in = {}
    for s in spans:
        if s["layer"] == "measures" and outermost_in_layer(s):
            p = s["parent"]
            while p is not None:
                if by_id[p]["layer"] == "symbols" and outermost_in_layer(by_id[p]):
                    nodes_in[p] = nodes_in.get(p, 0) + s["attrs"].get("nodes", 0)
                    break
                p = by_id[p]["parent"]

    agg = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0} for layer in LAYERS}
    extra = {"nodes": 0, "kpoints": 0, "pm_products": 0, "sym_peak": 0, "rs_points": 0,
             "apply_s": 0.0, "rs_peak": 0, "paths": 0, "jumps": 0.0, "ensemble_s": 0.0,
             "jump_cf_calls": 0, "jump_cf_s": 0.0, "symbol_evals": 0, "fft_points": 0,
             "ms_paths": 0}
    for s in spans:
        layer, dur, attrs = s["layer"], s["end"] - s["start"], s["attrs"]
        a = agg[layer]
        a["calls"] += 1
        a["self_s"] += dur - child_time[s["id"]]
        top = outermost_in_layer(s)
        if top:
            a["busy_s"] += dur
        extra["fft_points"] += attrs.get("fft_points", 0)
        if layer == "measures" and top:
            extra["nodes"] += attrs.get("nodes", 0)
        elif layer == "symbols":
            if s["parent"] is not None and by_id[s["parent"]]["layer"] == "evolve":
                extra["symbol_evals"] += 1
            if top:
                kp = attrs.get("kpoints", 0)
                extra["kpoints"] += kp
                extra["pm_products"] += kp * nodes_in.get(s["id"], 0)
                extra["sym_peak"] = max(extra["sym_peak"], attrs.get("peak_alloc", 0))
        elif layer == "realspace":
            if top:
                extra["rs_peak"] = max(extra["rs_peak"], attrs.get("peak_alloc", 0))
            if "points" in attrs and top:
                extra["rs_points"] += attrs["points"]
                extra["apply_s"] += dur
        elif layer == "sampler":
            if s["name"] == "jump_cf":
                extra["jump_cf_calls"] += 1
                if top:
                    extra["jump_cf_s"] += dur
            if "paths" in attrs and top:
                extra["paths"] += attrs["paths"]
                extra["jumps"] += attrs["jumps"]
                extra["ensemble_s"] += dur
        elif layer == "multistate" and "paths" in attrs and top:
            extra["ms_paths"] += attrs["paths"]

    mb = 1.0 / (1024 * 1024)
    m = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = agg[layer]["calls"]
        m[f"{layer}.busy_s"] = agg[layer]["busy_s"]
        m[f"{layer}.self_s"] = agg[layer]["self_s"]
    m["measures.nodes"] = extra["nodes"]
    m["symbols.kpoints"] = extra["kpoints"]
    m["symbols.pm_products"] = extra["pm_products"]
    busy = agg["symbols"]["busy_s"]
    m["symbols.kpoints_per_s"] = extra["kpoints"] / busy if busy > 0 else 0.0
    m["symbols.peak_alloc_mb"] = extra["sym_peak"] * mb
    m["realspace.points"] = extra["rs_points"]
    m["realspace.s_per_point"] = extra["apply_s"] / extra["rs_points"] if extra["rs_points"] else 0.0
    m["realspace.peak_alloc_mb"] = extra["rs_peak"] * mb
    m["sampler.paths"] = extra["paths"]
    m["sampler.jumps_expected"] = extra["jumps"]
    m["sampler.jumps_per_s"] = extra["jumps"] / extra["ensemble_s"] if extra["ensemble_s"] > 0 else 0.0
    m["sampler.jump_cf_calls"] = extra["jump_cf_calls"]
    m["sampler.jump_cf_s"] = extra["jump_cf_s"]
    m["evolve.symbol_evals"] = extra["symbol_evals"]
    m["evolve.fft_points"] = extra["fft_points"]
    m["multistate.paths"] = extra["ms_paths"]
    m["cli.bytes_written"] = cli_io["written"]
    m["cli.bytes_read"] = cli_io["read"]
    shares = {layer: agg[layer]["self_s"] / wall for layer in LAYERS}
    shares["untraced"] = 1.0 - sum(shares.values())
    return m, shares

