"""Span tracing of the interlacepoly layers, installed from outside.

Every public function, and the constructor of every public class, of each
layer module is replaced by a wrapper that records a span (name, start,
end, parent).  The wrapper goes on the defining module and on every
package module that imported the same object by name, so calls made
inside the suites or the CLI are seen as well.  Methods called on an
instance are not wrapped: their time is self time of the span that called
them.  Generator functions are not wrapped either, because the work they
do happens while the caller iterates.

Spans are kept in memory.  Past ``SPAN_CAP_PER_NAME`` spans of one name
(``Graph.__init__`` and ``graph_of_mask`` reach 10^5 calls per sweep) only
the per-name aggregate is updated.  One tracer records one round, in a
process of its own.  A span's self time is its duration
minus the durations of its child spans; calls are strictly nested within
one thread, so the children never overlap.

A few wrappers also count work where it happens:

* ``interlace_polynomial`` runs with a ``CountingCache`` around the public
  ``cache`` argument, which counts memo lookups, hits and new entries;
* the mask kernels count the rows they transform;
* ``CoefficientTable`` construction adds the bytes of its arrays;
* the suite runners add ``report.checked``.

Nothing is recorded while ``Tracer.active`` is false, so the benchmark's
own verification calls are not attributed to the layers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections.abc import MutableMapping

PACKAGE = "interlacepoly"
LAYERS = ("interlace", "enumeration", "graphs", "euler", "polynomials", "suites", "cli")
SPAN_CAP_PER_NAME = 2000
# Index arithmetic called millions of times per sweep; a span would cost
# more than the call, so their time stays with the caller.
UNTRACED = {"enumeration": {"pair_count", "pair_index", "pair_of_bit", "incident_bits"}}

MASK_KERNELS = ("delete_vertex_masks", "pivot_masks", "label_swap_masks")
STRUCTURE_TABLES = (
    "edge_count_table",
    "isolated_count_table",
    "independence_number_table",
    "component_count_table",
)
SUITE_RUNNERS = {
    "run_extremal_suite": "extremal",
    "run_conjecture_suite": "conjectures",
    "run_identity_suite": "identities",
}


class CountingCache(MutableMapping):
    """Memo mapping for ``interlace_polynomial`` that counts lookups and hits.

    It writes through to ``data``, so a cache the caller passed in still
    receives every entry.
    """

    def __init__(self, data):
        self.data = data
        self.lookups = 0
        self.hits = 0

    def get(self, key, default=None):
        self.lookups += 1
        if key in self.data:
            self.hits += 1
            return self.data[key]
        return default

    def __getitem__(self, key):
        return self.data[key]

    def __setitem__(self, key, value):
        self.data[key] = value

    def __delitem__(self, key):
        del self.data[key]

    def __iter__(self):
        return iter(self.data)

    def __len__(self):
        return len(self.data)


class Tracer:
    """In-memory span recorder with per-name aggregates and counters."""

    def __init__(self):
        self.active = False
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self._kept: dict[str, int] = {}
        self._next_id = 0
        self.aggregates: dict[str, list[int]] = {}  # name -> [calls, total_ns, self_ns]
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []  # [span_id, name, start_ns, child_ns]

    def count(self, name: str, amount: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def open(self, name: str) -> list:
        frame = [self._next_id, name, 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        frame[2] = time.perf_counter_ns()
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter_ns()
        span_id, name, start, child_ns = frame
        self._stack.pop()
        duration = end - start
        parent = None
        if self._stack:
            outer = self._stack[-1]
            outer[3] += duration
            parent = outer[0]
        agg = self.aggregates.get(name)
        if agg is None:
            agg = self.aggregates[name] = [0, 0, 0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - child_ns
        kept = self._kept.get(name, 0)
        if kept < SPAN_CAP_PER_NAME:
            self._kept[name] = kept + 1
            self.spans.append((span_id, name, start, end, parent))

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call while active records a span."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(frame)

        return traced

    # -- per-layer metrics --------------------------------------------------

    def _sum(self, names, index: int) -> int:
        return sum(self.aggregates[n][index] for n in names if n in self.aggregates)

    def _layer_names(self, layer: str) -> list[str]:
        return [n for n in self.aggregates if n.split(".", 1)[0] == layer]

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer figures for everything recorded."""
        s = 1e-9
        c = self.counters
        m: dict[str, float] = {}
        for layer in LAYERS:
            names = self._layer_names(layer)
            m[f"{layer}.self_s"] = self._sum(names, 2) * s
            m[f"{layer}.calls"] = self._sum(names, 0)
        lookups = c.get("interlace.memo_lookups", 0)
        hits = c.get("interlace.memo_hits", 0)
        m.update({
            "interlace.q_s": self._sum(["interlace.interlace_polynomial"], 1) * s,
            "interlace.memo_entries": c.get("interlace.memo_entries", 0),
            "interlace.memo_lookups": lookups,
            "interlace.memo_hits": hits,
            "interlace.memo_hit_ratio": hits / lookups if lookups else 0.0,
            "enumeration.table_build_s":
                self._sum(["enumeration.CoefficientTable.__init__"], 1) * s,
            "enumeration.mask_kernel_s":
                self._sum([f"enumeration.{k}" for k in MASK_KERNELS], 1) * s,
            "enumeration.mask_rows": c.get("enumeration.mask_rows", 0),
            "enumeration.structure_table_s":
                self._sum([f"enumeration.{k}" for k in STRUCTURE_TABLES], 1) * s,
            "enumeration.graph_of_mask_calls":
                self._sum(["enumeration.graph_of_mask"], 0),
            "enumeration.table_bytes": c.get("enumeration.table_bytes", 0),
            "euler.circuit_partition_s":
                self._sum(["euler.circuit_partition_polynomial"], 1) * s,
            "euler.transition_systems": self._sum(["euler.circuit_partition_of"], 0),
            "euler.best_s": self._sum(["euler.euler_circuit_count_best"], 1) * s,
            "euler.anti_circuit_s": self._sum(["euler.anti_circuit_count"], 1) * s,
            "suites.checked": c.get("suites.checked", 0),
        })
        for runner, short in SUITE_RUNNERS.items():
            m[f"suites.{short}_s"] = self._sum([f"suites.{runner}"], 1) * s
        return m

    def dump(self) -> dict:
        """Spans and aggregates in a JSON-ready form (times in ns)."""
        return {
            "span_fields": ["id", "name", "start_ns", "end_ns", "parent"],
            "span_cap_per_name": SPAN_CAP_PER_NAME,
            "spans": self.spans,
            "aggregates": {
                n: {"calls": a[0], "total_ns": a[1], "self_ns": a[2]}
                for n, a in sorted(self.aggregates.items())
            },
            "counters": dict(sorted(self.counters.items())),
        }


# -- counting hooks ------------------------------------------------------------


def _engine_hook(tracer: Tracer, fn):
    def interlace_polynomial(g, cache=None):
        counting = CountingCache({} if cache is None else cache)
        before = len(counting)
        try:
            return fn(g, counting)
        finally:
            tracer.count("interlace.memo_entries", len(counting) - before)
            tracer.count("interlace.memo_lookups", counting.lookups)
            tracer.count("interlace.memo_hits", counting.hits)

    return interlace_polynomial


def _mask_rows_hook(tracer: Tracer, fn):
    def kernel(masks, *args, **kwargs):
        tracer.count("enumeration.mask_rows", len(masks))
        return fn(masks, *args, **kwargs)

    return kernel


def _table_bytes_hook(tracer: Tracer, fn):
    def __init__(self, n_max, *args, **kwargs):
        fn(self, n_max, *args, **kwargs)
        built = sum(self.table(k).nbytes for k in range(self.n_max + 1))
        tracer.count("enumeration.table_bytes", built)

    return __init__


def _checked_hook(tracer: Tracer, fn):
    def runner(*args, **kwargs):
        report = fn(*args, **kwargs)
        tracer.count("suites.checked", report.checked)
        return report

    return runner


def _hook_for(layer: str, qualname: str):
    if layer == "interlace" and qualname == "interlace_polynomial":
        return _engine_hook
    if layer == "enumeration" and qualname in MASK_KERNELS:
        return _mask_rows_hook
    if layer == "enumeration" and qualname == "CoefficientTable.__init__":
        return _table_bytes_hook
    if layer == "suites" and qualname in SUITE_RUNNERS:
        return _checked_hook
    return None


# -- installation ----------------------------------------------------------------


def _public_callables(module, skip=frozenset()):
    """(owner, attribute, qualname, callable) for each entry point to wrap."""
    for name, obj in sorted(vars(module).items()):
        if name.startswith("_") or name in skip:
            continue
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
            yield module, name, name, obj
        elif inspect.isclass(obj) and not issubclass(obj, BaseException):
            for attr, raw in sorted(vars(obj).items()):
                if attr == "__init__" and inspect.isfunction(raw):
                    yield obj, attr, f"{name}.{attr}", raw
                elif not attr.startswith("_") and isinstance(raw, (classmethod, staticmethod)):
                    yield obj, attr, f"{name}.{attr}", raw


def install(tracer: Tracer):
    """Wrap every layer's entry points; returns a function that undoes it."""
    layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    undo: list[tuple[object, str, object]] = []
    replaced: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
    for layer, module in layers.items():
        for owner, attr, qualname, raw in list(
            _public_callables(module, UNTRACED.get(layer, frozenset()))
        ):
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            fn = raw.__func__ if kind else raw
            hook = _hook_for(layer, qualname)
            body = functools.wraps(fn)(hook(tracer, fn)) if hook else fn
            wrapper = tracer.span(f"{layer}.{qualname}", body)
            undo.append((owner, attr, raw))
            setattr(owner, attr, kind(wrapper) if kind else wrapper)
            if owner is module:
                replaced[id(fn)] = (fn, wrapper)
    # rebind names that other package modules imported with "from .x import f"
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(mod).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                undo.append((mod, attr, value))
                setattr(mod, attr, hit[1])

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
