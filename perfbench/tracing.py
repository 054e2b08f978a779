"""Benchmark-side spans around the package's layer entry points.

The tracer replaces module attributes with timing wrappers, so only calls
that look the name up at call time are seen: the benchmark's own calls
through the package namespace, and the helpers that ``scenarios``,
``engine`` and ``design`` import by name. Spans are kept in memory as
(name, start_ns, end_ns, parent index, op id) and written out at the end.
"""

from __future__ import annotations

import functools
import json
import time
import tracemalloc
from collections import Counter, defaultdict

# (module attribute path, span name); the span name's prefix is the layer
SPANNED = (
    ("ScenarioConfig.from_dict", "scenarios.parse"),
    ("has_spanning_tree", "graph.spanning_tree"),
    ("normalized_laplacian", "graph.spectrum"),
    ("scenarios.normalized_laplacian", "graph.spectrum"),
    ("design_controller", "design.controller"),
    ("scenarios.design_controller", "design.controller"),
    ("design.design_gain", "design.gain"),
    ("simulate", "engine.simulate"),
    ("engine.simulate", "engine.simulate"),
    ("engine.signal_series", "attacks.series"),
    ("engine.global_performance", "metrics.gamma"),
    ("engine.analyze_growth", "metrics.growth"),
    ("engine.destabilization_verdict", "metrics.verdict"),
    ("dtilde_bound", "defense.dtilde"),
    ("consensus_error_threshold", "defense.threshold"),
    ("write_csv", "trace.csv"),
    ("write_summary", "trace.summary"),
)
# called hundreds of times per design: counted, and timed as part of the caller
COUNTED = (
    ("design.baseline_radius", "design.baseline_radius_calls"),
    ("design.joint_radius", "design.joint_radius_calls"),
)


def _resolve(pkg, path):
    owner = pkg
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counters while ``active``; with ``alloc`` set it also
    records the allocation peak of each simulate call in ``alloc_probe``."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.active = False
        self.alloc = False
        self.alloc_probe = _AllocProbe()
        self._stack = []
        self.op_labels = []
        self._op = -1
        self._saved = []

    def install(self, pkg):
        for path, span in SPANNED:
            self._patch(pkg, path, self._spanned(span))
        for path, counter in COUNTED:
            self._patch(pkg, path, self._counted(counter))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _patch(self, pkg, path, make_wrapper):
        owner, attr = _resolve(pkg, path)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            wrapped = classmethod(make_wrapper(original.__func__))
        else:
            wrapped = make_wrapper(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _counted(self, counter):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.active:
                    self.counts[self._op, counter] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _spanned(self, name):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                if self.alloc:
                    self._alloc_event(name)
                try:
                    with self.span(name):
                        result = fn(*args, **kwargs)
                finally:
                    if self.alloc and name == "engine.simulate":
                        self.alloc_probe.exit()
                if name == "design.controller" and any("grid fallback" in note
                                                       for note in result.notes):
                    self.counts[self._op, "design.grid_fallback_runs"] += 1
                return result
            return wrapper
        return make

    def _alloc_event(self, name):
        if name == "engine.simulate":
            self.alloc_probe.enter()
        elif name == "metrics.gamma":
            self.alloc_probe.loop_started()
        elif name == "metrics.growth":
            self.alloc_probe.loop_ended()

    def span(self, name):
        return _Span(self, name)

    def next_op(self, label):
        """Start a new op; later spans belong to it. Returns its id."""
        self.op_labels.append(label)
        self._op += 1
        return self._op

    def totals(self, op_ids):
        """Self time in ns (duration minus children), call count per span
        name, and counter totals, over the given ops."""
        child = defaultdict(int)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns, calls = Counter(), Counter()
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if op in op_ids:
                self_ns[name] += end - start - child[idx]
                calls[name] += 1
        counted = Counter()
        for (op, name), value in self.counts.items():
            if op in op_ids:
                counted[name] += value
        return self_ns, calls, counted

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "ops": self.op_labels, "spans": self.spans}, fh)


class _AllocProbe:
    """Largest ``tracemalloc`` peak of a simulate call, with its per-step loop
    untraced, since tracing every step's small temporaries makes the loop
    about ten times slower. Tracing stops at the first stored step, when
    every up-front buffer exists, and restarts at the growth test after the
    loop. The peak is the larger of the head's peak and the memory live at
    the loop start plus the tail's peak."""

    def __init__(self):
        self.peak = 0
        self._live = self._head = None

    def enter(self):
        self._live = self._head = None
        tracemalloc.start()

    def loop_started(self):
        if self._head is None and tracemalloc.is_tracing():
            self._live, self._head = tracemalloc.get_traced_memory()
            tracemalloc.stop()

    def loop_ended(self):
        if self._head is not None and not tracemalloc.is_tracing():
            tracemalloc.start()

    def exit(self):
        tail = tracemalloc.get_traced_memory()[1] if tracemalloc.is_tracing() else 0
        tracemalloc.stop()
        peak = tail if self._head is None else max(self._head, self._live + tail)
        self.peak = max(self.peak, peak)


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter_ns(), 0, parent, t._op])
        t._stack.append(self.index)
        return self

    def __exit__(self, *exc):
        t = self.tracer
        t.spans[self.index][2] = time.perf_counter_ns()
        t._stack.pop()
        return False
