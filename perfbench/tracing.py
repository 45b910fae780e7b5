"""Span tracing of echcap's public entry points, from outside the package.

``Tracer.install`` replaces every module attribute in ``echcap.*`` that is
bound to a wrapped function with a recording wrapper, so calls made by the
package's own modules (``distance`` calling ``multiset_capacity_fast``,
``capacities`` calling ``dp_round``) are recorded as well as the
benchmark's.  ``uninstall`` puts the original functions back.  Each call
adds one span ``[name, start, end, parent, info]`` to an in-memory list;
``layer_metrics`` derives counts, busy and self times from them.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

# (module, function, span name); the span name's prefix is the layer.
ENTRY_POINTS = [
    ("echcap._kernels", "dp_round", "kernel"),
    ("echcap.capacities", "multiset_capacity_sweep", "sweep"),
    ("echcap.capacities", "multiset_capacity_oracle", "oracle"),
    ("echcap.capacities", "multiset_capacity_fast", "fast"),
    ("echcap.capacities", "ellipsoid_capacity", "ellipsoid"),
    ("echcap.capacities", "exact_capacity", "capacities.exact_capacity"),
    ("echcap.capacities", "capacity_interval", "capacities.capacity_interval"),
    ("echcap.distance", "certificate", "distance.certificate"),
    ("echcap.distance", "capacity_lower_bound", "distance.capacity_lower_bound"),
    ("echcap.distance", "inclusion_distance", "distance.inclusion_distance"),
    ("echcap.weights", "weight_expansion", "weights.weight_expansion"),
    ("echcap.weights", "realize", "weights.realize"),
    ("echcap.weights", "ellipsoid_weights", "weights.ellipsoid_weights"),
    ("echcap.geometry", "inclusion_scale", "geometry.inclusion_scale"),
    ("echcap.quasiflat", "build_weights", "quasiflat.build_weights"),
    ("echcap.quasiflat", "q_metric", "quasiflat.q_metric"),
    ("echcap.quasiflat", "chart_embed", "quasiflat.chart_embed"),
]

CAPACITY_SPANS = {
    "sweep",
    "oracle",
    "fast",
    "ellipsoid",
    "capacities.exact_capacity",
    "capacities.capacity_interval",
}
DISTANCE_SPANS = {
    "distance.certificate",
    "distance.capacity_lower_bound",
    "distance.inclusion_distance",
}
QUASIFLAT_SPANS = {"quasiflat.build_weights", "quasiflat.q_metric", "quasiflat.chart_embed"}

# Per-layer metrics: name -> (unit, span names the metric needs).
METRICS = {
    "kernel.calls": ("count", {"kernel"}),
    "kernel.busy_s": ("s", {"kernel"}),
    "kernel.cells": ("count", {"kernel"}),
    "kernel.cells_per_s": ("1/s", {"kernel"}),
    "sweep.calls": ("count", {"sweep"}),
    "sweep.self_s": ("s", {"sweep"}),
    "oracle.calls": ("count", {"oracle"}),
    "oracle.self_s": ("s", {"oracle"}),
    "fast.calls": ("count", {"fast"}),
    "fast.self_s": ("s", {"fast"}),
    "fast.kernel_s": ("s", {"fast", "kernel"}),
    "fast.exact_ratio": ("ratio", {"fast"}),
    "distance.pairs": ("count", {"distance.capacity_lower_bound"}),
    "distance.pair_s": ("s", {"distance.certificate", "distance.capacity_lower_bound"}),
    "distance.self_s": ("s", DISTANCE_SPANS),
    "distance.queries": ("count", {"distance.capacity_lower_bound"}),
    "distance.distinct_ratio": ("ratio", {"distance.capacity_lower_bound"}),
    "ellipsoid.calls": ("count", {"ellipsoid"}),
    "ellipsoid.busy_s": ("s", {"ellipsoid"}),
    "weights.expansion_s": ("s", {"weights.weight_expansion"}),
    "weights.realize_s": ("s", {"weights.realize"}),
    "geometry.inclusion_s": ("s", {"geometry.inclusion_scale"}),
    "quasiflat.busy_s": ("s", QUASIFLAT_SPANS),
    "trace.overhead_s": ("s", set()),
    "pass.wall_s": ("s", set()),
    "host.sample_s": ("s", set()),
}


def _kernel_cells(args, kwargs, result):
    """Candidate cells of one DP round: every option of cost c < n updates
    the n - c cells dp_out[c:]."""
    dp_in, costs = args[0], args[3]
    n = dp_in.shape[0]
    c = np.asarray(costs[1:], dtype=np.int64)
    return int(np.maximum(n - c, 0).sum())


def _query(args, kwargs, result):
    # (domain, k) of a capacity query; domains are hashable values.
    return (args[0], args[1])


def _fast_info(args, kwargs, result):
    return (args[0], args[1], bool(result.exact))


INFO = {
    "kernel": _kernel_cells,
    "fast": _fast_info,
    "oracle": _query,
    "ellipsoid": _query,
    "capacities.exact_capacity": _query,
    "capacities.capacity_interval": _query,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._bound = []  # (module, attribute, original)
        self.missing = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        info = INFO.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Rebind every echcap module attribute that holds an entry point.
        Entry points that no longer exist are listed in ``missing``."""
        modules = [m for n, m in list(sys.modules.items()) if n.startswith("echcap")]
        self.missing = []
        for module_name, attr, span_name in ENTRY_POINTS:
            try:
                original = getattr(importlib.import_module(module_name), attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(span_name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bound.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._bound):
            setattr(module, key, original)
        self._bound = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()

    def missing_spans(self):
        names = {span for module, attr, span in ENTRY_POINTS if f"{module}.{attr}" in self.missing}
        return names


def layer_metrics(spans) -> dict:
    """Per-layer numbers for one traced pass (``trace.overhead_s``,
    ``pass.wall_s`` and ``host.sample_s`` are left to the caller, which
    times the passes and samples the host's speed)."""
    n = len(spans)
    duration = [s[2] - s[1] for s in spans]
    child_time = [0.0] * n
    for s, d in zip(spans, duration):
        if s[3] >= 0:
            child_time[s[3]] += d

    def named(names):
        return [i for i, s in enumerate(spans) if s[0] in names]

    def outermost(names):
        """Spans in ``names`` with no ancestor in ``names``: their summed
        durations are the layer's busy time, counting nested calls once."""
        out = []
        for i in named(names):
            p = spans[i][3]
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                out.append(i)
        return out

    def busy(names):
        return sum(duration[i] for i in outermost(names))

    def self_time(names):
        return sum(duration[i] - child_time[i] for i in named(names))

    def ratio(num, den):
        return num / den if den else 0.0

    kernel = named({"kernel"})
    kernel_busy = busy({"kernel"})
    cells = sum(spans[i][4] for i in kernel)
    fast = named({"fast"})
    pair_spans = named({"distance.capacity_lower_bound"})
    queries = [
        spans[i][4][:2]
        for i, s in enumerate(spans)
        if s[0] in CAPACITY_SPANS
        and s[3] >= 0
        and spans[s[3]][0] == "distance.capacity_lower_bound"
    ]
    return {
        "kernel.calls": len(kernel),
        "kernel.busy_s": kernel_busy,
        "kernel.cells": cells,
        "kernel.cells_per_s": ratio(cells, kernel_busy),
        "sweep.calls": len(named({"sweep"})),
        "sweep.self_s": self_time({"sweep"}),
        "oracle.calls": len(named({"oracle"})),
        "oracle.self_s": self_time({"oracle"}),
        "fast.calls": len(fast),
        "fast.self_s": self_time({"fast"}),
        "fast.kernel_s": sum(
            duration[i] for i in kernel if spans[i][3] >= 0 and spans[spans[i][3]][0] == "fast"
        ),
        "fast.exact_ratio": ratio(sum(spans[i][4][2] for i in fast), len(fast)),
        "distance.pairs": len(pair_spans),
        "distance.pair_s": ratio(busy({"distance.certificate"}), len(pair_spans)),
        "distance.self_s": self_time(DISTANCE_SPANS),
        "distance.queries": len(queries),
        "distance.distinct_ratio": ratio(len(set(queries)), len(queries)),
        "ellipsoid.calls": len(named({"ellipsoid"})),
        "ellipsoid.busy_s": busy({"ellipsoid"}),
        "weights.expansion_s": busy({"weights.weight_expansion"}),
        "weights.realize_s": busy({"weights.realize"}),
        "geometry.inclusion_s": busy({"geometry.inclusion_scale"}),
        "quasiflat.busy_s": busy(QUASIFLAT_SPANS),
    }
