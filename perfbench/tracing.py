"""In-memory span tracing around the library's public entry points.

A :class:`Tracer` records one span per call into a layer: name, start,
end, parent span and run id (the phase of the benchmark the call served),
in nanoseconds of ``time.perf_counter_ns``.  Spans stay in memory and are
written out once, when the benchmark ends.

Spans are recorded from the benchmark's own files: :func:`instrument`
replaces each entry point *where its callers look it up* — a module
global for functions imported by name, a class attribute for methods,
a registry entry for metric implementations — and restores everything
when the block exits.  Nothing in ``src/`` changes.

Self time
---------
A span's self time is the part of its interval that no deeper span
covers.  Calls on other threads (the engine's thread pool, the service
daemon's event loop) are parented to the innermost span open on the
main thread when they start, and re-parented to the nearest still-open
ancestor if that span closes first, so every span nests inside its
parent.  Self time is then attributed on one timeline: at every instant
the deepest open span (the latest started among equals) owns the time.
On one thread that is exactly "duration minus the children's cover";
with threads overlapping it splits wall time instead of double counting
it, so the self times of a phase always add up to its root span's wall
time, the root's own share being reported as ``other``.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import json
import statistics
import threading
import time
from collections import Counter, defaultdict

from common import MAPPERS

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Spans, counts and samples, kept in memory until :meth:`write`."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.hop_cut_returned = False
        self.run_id = ""
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = defaultdict(list)
        self._main = threading.get_ident()

    # -- recording -----------------------------------------------------
    def open(self, name: str) -> int:
        start = time.perf_counter_ns()
        with self._lock:
            stack = self._stacks[threading.get_ident()]
            main = self._stacks[self._main]
            parent = stack[-1] if stack else (main[-1] if main else None)
            index = len(self.spans)
            self.spans.append([name, start, None, parent, self.run_id])
            stack.append(index)
        return index

    def close(self, index: int) -> None:
        end = time.perf_counter_ns()
        with self._lock:
            span = self.spans[index]
            span[END] = end
            self._stacks[threading.get_ident()].remove(index)
            parent = span[PARENT]
            while parent is not None and self.spans[parent][END] is not None:
                parent = self.spans[parent][PARENT]
            span[PARENT] = parent

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    @contextlib.contextmanager
    def phase(self, run_id: str):
        """A root span; every span opened inside belongs to *run_id*."""
        previous, self.run_id = self.run_id, run_id
        try:
            with self.span("other") as index:
                yield index
        finally:
            self.run_id = previous

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[f"{self.run_id}/{name}"] += amount

    # -- analysis ------------------------------------------------------
    def duration_s(self, index: int) -> float:
        span = self.spans[index]
        return (span[END] - span[START]) / 1e9

    def self_ns(self, root: int) -> dict[int, int]:
        """Self time in ns of *root* and of every span below it."""
        members = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][PARENT] in members:
                members.add(i)
        depth = {root: 0}
        for i in sorted(members - {root}):
            depth[i] = depth[self.spans[i][PARENT]] + 1
        events = []
        for i in members:
            events.append((self.spans[i][START], 1, i))
            events.append((self.spans[i][END], 0, i))
        events.sort()
        owned = dict.fromkeys(members, 0)
        heap: list[tuple] = []
        closed: set[int] = set()
        previous = None
        for moment, opening, i in events:
            while heap and heap[0][2] in closed:
                heapq.heappop(heap)
            if heap:
                owned[heap[0][2]] += moment - previous
            previous = moment
            if opening:
                heapq.heappush(heap, (-depth[i], -self.spans[i][START], i))
            else:
                closed.add(i)
        return owned

    def self_seconds(self, root: int) -> dict[str, float]:
        """Self time per span name below *root*, in seconds."""
        totals: dict[str, float] = defaultdict(float)
        for i, ns in self.self_ns(root).items():
            totals[self.spans[i][NAME]] += ns / 1e9
        return dict(totals)

    # -- storage -------------------------------------------------------
    @classmethod
    def load(cls, path) -> Tracer:
        """A tracer holding what :meth:`write` saved."""
        doc = json.loads(path.read_text())
        tracer = cls()
        tracer.spans = doc["spans"]
        tracer.counters.update(doc["counters"])
        tracer.samples.update(doc["samples"])
        return tracer

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "run"],
            "spans": self.spans,
            "counters": dict(self.counters),
            "samples": dict(self.samples),
        }
        path.write_text(json.dumps(doc))


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------
def _traced(tracer: Tracer, name: str, fn, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if observe is not None:
            observe(tracer, args, kwargs, result)
        return result

    return wrapper


def _count_cut(tracer, args, kwargs, costs) -> None:
    perms, edges = args[2], kwargs["edges"]
    rows, pairs = perms.shape[0], edges.shape[0]
    tracer.count("kernels.edges_scored", rows * pairs)
    # Computed from array sizes, not measured: the edge list and the
    # permutations are read once, every row gathers two node ids per
    # edge and writes one cut count per node.
    nodes = len(costs[0].per_node) if costs else 0
    moved = edges.nbytes + perms.nbytes + rows * (2 * pairs + nodes) * 8
    tracer.count("kernels.bytes_computed", moved)


def _count_hop_cut(tracer, args, kwargs, per_node) -> None:
    edges, vertex_nodes, weights = args[0], args[1], args[2]
    rows, pairs = vertex_nodes.shape[0], edges.shape[0]
    tracer.count("kernels.edges_scored", rows * pairs)
    # As for the cut, plus one weight read per edge and the weight matrix.
    moved = edges.nbytes + vertex_nodes.nbytes + weights.nbytes
    moved += rows * (3 * pairs + per_node.shape[1]) * 8
    tracer.count("kernels.bytes_computed", moved)


def _count_frame(tracer, args, kwargs, frames) -> None:
    tracer.count("wire.bytes", sum(memoryview(part).nbytes for part in frames))


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Record spans around every layer's public entry points."""
    from repro import core, sweep, workloads
    from repro.engine import engine as engine_module
    from repro.engine import metrics as metrics_module
    from repro.engine.cluster import protocol
    from repro.service.backend import ServiceBackend
    from repro.service.client import JobHandle, ServiceClient

    undo = []

    def replace(owner, attribute: str, value) -> None:
        if isinstance(owner, type) and attribute not in vars(owner):
            undo.append(lambda: delattr(owner, attribute))
        else:
            original = vars(owner)[attribute]
            undo.append(lambda: setattr(owner, attribute, original))
        setattr(owner, attribute, value)

    def wrap(owner, attribute: str, name: str, observe=None) -> None:
        fn = getattr(owner, attribute)
        replace(owner, attribute, _traced(tracer, name, fn, observe))

    hop_cut = metrics_module.resolve_metric("topology_hop_cut")

    def traced_hop_cut(ctx, perms, spec):
        # Calls starting before the process's first call has returned pay
        # for the node-weight matrix (threads racing on it each build it).
        first = not tracer.hop_cut_returned
        with tracer.span("metrics.hop_cut_first" if first else "metrics.hop_cut"):
            rows = hop_cut(ctx, perms, spec)
        tracer.hop_cut_returned = True
        return rows

    results = JobHandle.results

    def traced_results(handle):
        with tracer.span("service.results") as index:
            job_start = tracer.spans[tracer.spans[index][PARENT]][START]
            for position, item in enumerate(results(handle)):
                if position == 0:
                    waited_ms = (time.perf_counter_ns() - job_start) / 1e6
                    tracer.samples["service.first_result_ms"].append(waited_ms)
                yield item

    try:
        wrap(sweep.SweepSpec, "cells", "sweep.compile")
        wrap(sweep.ResultSet, "to_rows", "sweep.assemble")
        wrap(engine_module.EvaluationEngine, "evaluate_batch", "engine.evaluate_batch")
        wrap(engine_module, "communication_edges", "grid.edges")
        wrap(workloads.base, "communication_edges", "grid.edges")
        for cls in (
            workloads.CartesianWorkload,
            workloads.StencilProgramWorkload,
            workloads.GraphWorkload,
        ):
            wrap(cls, "comm_edges", "workloads.comm_edges")
        for name in MAPPERS:
            wrap(type(core.get_mapper(name)), "map_ranks", f"core.map_ranks.{name}")
        wrap(engine_module, "evaluate_mappings_batch", "kernels.cut", _count_cut)
        wrap(
            metrics_module, "hop_weighted_cut_batch", "kernels.hop_cut", _count_hop_cut
        )
        metrics_module.register_metric("topology_hop_cut", traced_hop_cut, replace=True)
        undo.append(
            lambda: metrics_module.register_metric(
                "topology_hop_cut", hop_cut, replace=True
            )
        )
        wrap(protocol, "encode_frames", "wire.encode", _count_frame)
        wrap(protocol, "decode_payload", "wire.decode")
        wrap(ServiceClient, "submit", "service.submit")
        wrap(ServiceBackend, "evaluate_batch", "service.evaluate_batch")
        replace(JobHandle, "results", traced_results)
        yield tracer
    finally:
        while undo:
            undo.pop()()


# ----------------------------------------------------------------------
# Per-layer report
# ----------------------------------------------------------------------
#: Span name -> per-layer self-time metric.  Together these partition the
#: wall time of a traced phase; ``other`` is the root's own share.
SELF_TIMES = {
    "other": "trace.other_s",
    "sweep.run": "sweep.run_self_s",
    "sweep.compile": "sweep.compile_s",
    "sweep.assemble": "sweep.assemble_s",
    "engine.evaluate_batch": "engine.evaluate_batch_self_s",
    "grid.edges": "grid.edges_s",
    "workloads.comm_edges": "workloads.comm_edges_s",
    **{f"core.map_ranks.{name}": f"core.map_ranks_s.{name}" for name in MAPPERS},
    "kernels.cut": "kernels.cut_s",
    "kernels.hop_cut": "kernels.hop_cut_s",
    "metrics.hop_cut_first": "metrics.hop_cut_first_s",
    "metrics.hop_cut": "metrics.hop_cut_s",
    "wire.encode": "wire.encode_s",
    "wire.decode": "wire.decode_s",
    "service.evaluate_batch": "service.evaluate_batch_self_s",
    "service.submit": "service.submit_self_s",
    "service.results": "service.results_self_s",
}


def layer_metrics(tracer: Tracer, root: int) -> dict[str, float]:
    """Self time per layer in the phase rooted at *root*, plus the counts
    and samples recorded at the same boundaries."""
    report = dict.fromkeys(SELF_TIMES.values(), 0.0)
    for name, seconds in tracer.self_seconds(root).items():
        report[SELF_TIMES[name]] += seconds
    run_id = tracer.spans[root][RUN]
    names = Counter(span[NAME] for span in tracer.spans if span[RUN] == run_id)
    submits = [
        tracer.duration_s(i) * 1e3
        for i, span in enumerate(tracer.spans)
        if span[RUN] == run_id and span[NAME] == "service.submit"
    ]
    first_results = tracer.samples["service.first_result_ms"]
    maps = sum(n for name, n in names.items() if name.startswith("core.map_ranks."))
    prefix = f"{run_id}/"
    counts = {
        key[len(prefix) :]: value
        for key, value in tracer.counters.items()
        if key.startswith(prefix)
    }
    report.update(
        {
            "trace.wall_s": tracer.duration_s(root),
            "grid.edges_built": names["grid.edges"],
            "core.map_calls": maps,
            "kernels.edges_scored": counts.get("kernels.edges_scored", 0),
            "kernels.bytes_computed": counts.get("kernels.bytes_computed", 0),
            "wire.bytes": counts.get("wire.bytes", 0),
            "service.submit_ms": statistics.median(submits) if submits else 0.0,
            "service.first_result_ms": (
                statistics.median(first_results) if first_results else 0.0
            ),
        }
    )
    return report
