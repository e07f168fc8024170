"""``paper_sweep``: the paper's Figure 8 sweep, as a user regenerating it runs it.

The 144 Figure 8 instances (N in {10..31}, n in {10..32}, d in {2, 3})
x the three stencil families x the six fast mappers: 2592 cells, run
with :func:`repro.sweep.run` on the library's default engine and no disk
cache.  Instances have at most 1024 processes, so spec compilation,
engine grouping and caching, the mappers and ``ResultSet`` assembly do
the work, the batch kernels do little, and there is no wire.

A *pass* is one job: build the spec, run it, read every row.  A cycle
is one cold pass on a fresh engine followed by two warm repeat passes on
the same engine.  The seed only shuffles the mapper order; the cells are
the paper's.
"""

from __future__ import annotations

import random

import repro
from repro.experiments.instances import instance_set
from repro.sweep import InstanceSpec, SweepSpec

import tracing
from common import (
    MAPPERS,
    CacheTally,
    Ledger,
    cold_probe,
    job_check,
    median,
    now,
    percentile,
    rows_digest,
    settle,
    timed_job,
    trace_path,
    traced_layers,
)

NAME = "paper_sweep"
FAMILIES = ("nearest_neighbor", "nearest_neighbor_with_hops", "component")
WARM_PASSES = 2
COLD_PROCESSES = 4
SETUPS = 5
#: Per-layer question: the same sweep on each execution backend.
BACKENDS = {"serial": "serial", "thread-2": "thread:2", "process-2": "process:2"}


def spec_maker(seed: int, tiny: bool):
    shapes = [(i.num_nodes, i.processes_per_node, i.ndims) for i in instance_set()]
    if tiny:
        shapes = shapes[::24]
    mappers = list(MAPPERS)
    random.Random(seed).shuffle(mappers)

    def make() -> SweepSpec:
        return SweepSpec(
            [InstanceSpec.from_nodes(*shape) for shape in shapes],
            stencils=FAMILIES,
            mappers=mappers,
        )

    return make


def cycle(make, tracer=None, tally=None) -> list[tuple]:
    """One cold pass on a fresh engine, then the warm repeat passes."""
    engine = repro.EvaluationEngine()
    try:
        passes = [("cold pass", *timed_job(make, engine, tracer))]
        for _ in range(WARM_PASSES):
            passes.append(("warm pass", *timed_job(make, engine, tracer)))
    finally:
        engine.close()
    if tally is not None:
        tally.add(engine)
    return passes


def reference(make) -> dict[str, str]:
    with repro.EvaluationEngine(max_workers=1) as engine:
        return {NAME: rows_digest(repro.sweep.run(make(), engine))}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def probe(mode: str, seed: int, tiny: bool) -> dict:
    make = spec_maker(seed, tiny)
    if mode == "first":
        seconds, result = timed_job(make, None)
        return {"first_s": seconds, "checks": [job_check("first pass", NAME, result)]}
    if mode == "untraced":
        start = now()
        passes = cycle(make)
        wall = now() - start
        return {"wall_s": wall, "checks": [job_check(w, NAME, r) for w, _, r in passes]}
    tracer = tracing.Tracer()
    tally = CacheTally()
    with tracing.instrument(tracer), tracer.phase("main") as root:
        passes = cycle(make, tracer, tally)
    layers = tracing.layer_metrics(tracer, root)
    layers.update(tally.rates())
    checks = [job_check(w, NAME, r) for w, _, r in passes]
    for name, spec in BACKENDS.items():
        seconds, result = timed_job(make, spec)
        layers[f"backend.sweep_s.{name}"] = seconds
        checks.append(job_check(f"{spec} backend pass", NAME, result))
    tracer.write(trace_path(NAME, seed))
    return {"wall_s": layers["trace.wall_s"], "layers": layers, "checks": checks}


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------
def measure(seed: int, seconds: float, tiny: bool, ledger: Ledger) -> dict:
    make = spec_maker(seed, tiny)
    expected = reference(make)
    cells = len(make())
    stop = now() + seconds
    firsts, setups = [], []
    for _ in range(COLD_PROCESSES):
        reply = cold_probe(NAME, "first", seed, tiny)
        setups.append(reply["import_s"])
        firsts.append(reply["first_s"])
        settle(ledger, reply["checks"], expected)
    while len(setups) < SETUPS:
        setups.append(cold_probe(NAME, "import", seed, tiny)["import_s"])
    cold, warm = [], []
    while len(cold) < 2 or now() < stop:
        for what, elapsed, result in cycle(make):
            settle(ledger, [job_check(what, NAME, result)], expected)
            (cold if what == "cold pass" else warm).append(elapsed)
    passes = cold + warm
    return {
        "setup_s": median(setups),
        "first_map_s": median(firsts),
        "steady_map_s": median(cold),
        "cold_cells_per_s": cells / median(cold),
        "warm_cells_per_s": cells / median(warm),
        "job_p50_ms": percentile(passes, 50) * 1e3,
        "job_p90_ms": percentile(passes, 90) * 1e3,
        "jobs_per_s": len(passes) / sum(passes),
        "bulk_cells_per_s": cells / median(cold),
    }


def trace(seed: int, seconds: float, tiny: bool, ledger: Ledger) -> dict:
    expected = reference(spec_maker(seed, tiny))
    return traced_layers(NAME, seed, tiny, ledger, expected)
