"""``large_instances``: a one-shot ``MPI_Cart_create``-style caller in a cold process.

Maps and scores two 48,000-process instances,
``InstanceSpec.from_nodes(1000, 48, 2)`` and ``(1000, 48, 3)``, each x
``nearest_neighbor`` and ``component``, plus one three-stage
:class:`repro.StencilProgramWorkload` on the 3-D grid, all with the six
fast mappers.  Every cell also carries
``topology_cut_metric(Torus3DTopology((10, 10, 10)))``: following
"Mapping Matters", hop-weighted cost on a real 3-D torus is how users
judge a mapping on their machine.

Edge arrays hold about 10^5 rows, so ``grid`` edge build, the ``core``
mappers and the ``kernels`` (cut and hop-weighted cut) do the work and
per-cell overhead is small.  The first pass in a fresh process (no
process-level memo, no disk cache) also shows the first-call costs every
freshly spawned worker pays; repeat passes then run on a fresh engine in
the same process, each followed by warm passes on that engine.  The seed
only shuffles the mapper order.
"""

from __future__ import annotations

import random

import repro
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

NAME = "large_instances"
FAMILIES = ("nearest_neighbor", "component")
REPEATS = 3
#: Warm passes per fresh engine.  A warm pass takes about 1% of a fresh
#: one; with four of them the median job sits mid-way into the warm
#: passes and p90 mid-way into the fresh ones, not on either tail.
WARM_PASSES = 4
COLD_PROCESSES = 4
SETUPS = 5


def pass_makers(seed: int, tiny: bool) -> dict:
    """The two jobs of one pass, ``{key: make_spec}``."""
    nodes, per_node, torus = (27, 8, (3, 3, 3)) if tiny else (1000, 48, (10, 10, 10))
    mappers = list(MAPPERS)
    random.Random(seed).shuffle(mappers)
    metric = repro.topology_cut_metric(repro.Torus3DTopology(torus))

    def grids() -> SweepSpec:
        return SweepSpec(
            [InstanceSpec.from_nodes(nodes, per_node, ndims) for ndims in (2, 3)],
            stencils=FAMILIES,
            mappers=mappers,
            metrics=[metric],
        )

    def program() -> SweepSpec:
        grid = repro.CartesianGrid(repro.dims_create(nodes * per_node, 3))
        workload = repro.StencilProgramWorkload(
            grid,
            [
                ("halo", repro.nearest_neighbor(3)),
                ("transpose", repro.component(3)),
                ("advect", repro.nearest_neighbor_with_hops(3)),
            ],
        )
        alloc = repro.NodeAllocation.homogeneous(nodes, per_node)
        return SweepSpec(
            [InstanceSpec.from_workload(workload, alloc)],
            stencils=["workload"],
            mappers=mappers,
            metrics=[metric],
        )

    return {"grids": grids, "program": program}


def one_pass(makers: dict, engine, what: str, tracer=None) -> tuple[float, list]:
    """Both jobs on *engine*: total seconds, first call to last row."""
    total, checks = 0.0, []
    for key, make in makers.items():
        seconds, result = timed_job(make, engine, tracer)
        total += seconds
        checks.append(job_check(f"{what} ({key})", key, result))
    return total, checks


def cells(makers: dict) -> int:
    return sum(len(make()) for make in makers.values())


def reference(makers: dict) -> dict[str, str]:
    with repro.EvaluationEngine(max_workers=1) as engine:
        return {
            key: rows_digest(repro.sweep.run(make(), engine))
            for key, make in makers.items()
        }


def passes(makers: dict, tracer=None, tally=None) -> dict:
    """First pass, then repeats on fresh engines each with warm passes."""
    times = {"first": [], "fresh": [], "warm": []}
    checks = []
    for repeat in range(REPEATS + 1):
        kind = "fresh" if repeat else "first"
        engine = repro.EvaluationEngine()
        try:
            seconds, done = one_pass(makers, engine, f"{kind} pass", tracer)
            times[kind].append(seconds)
            checks += done
            for _ in range(WARM_PASSES if repeat else 0):
                seconds, done = one_pass(makers, engine, "warm pass", tracer)
                times["warm"].append(seconds)
                checks += done
        finally:
            engine.close()
        if tally is not None:
            tally.add(engine)
    return {"times": times, "checks": checks}


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def probe(mode: str, seed: int, tiny: bool) -> dict:
    makers = pass_makers(seed, tiny)
    if mode in ("first", "reference"):
        reply = passes(makers)
        if mode == "reference":
            reply["reference"] = reference(makers)
        return reply
    if mode == "untraced":
        start = now()
        reply = passes(makers)
        reply["wall_s"] = now() - start
        reply["reference"] = reference(makers)
        return reply
    tracer = tracing.Tracer()
    tally = CacheTally()
    with tracing.instrument(tracer):
        with tracer.phase("main") as root:
            reply = passes(makers, tracer, tally)
        layers = tracing.layer_metrics(tracer, root)
        for impl in repro.list_kernels():
            with (
                repro.use_kernels(impl),
                repro.EvaluationEngine() as engine,
                tracer.phase(f"kernels-{impl}") as kernel_root,
            ):
                _, checks = one_pass(makers, engine, f"{impl} kernel pass", tracer)
            reply["checks"] += checks
            own = tracer.self_seconds(kernel_root)
            layers[f"kernels.cut_s.{impl}"] = own.get("kernels.cut", 0.0)
            layers[f"kernels.hop_cut_s.{impl}"] = own.get("kernels.hop_cut", 0.0)
    layers.update(tally.rates())
    tracer.write(trace_path(NAME, seed))
    reply.update(wall_s=layers["trace.wall_s"], layers=layers)
    return reply


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------
def measure(seed: int, seconds: float, tiny: bool, ledger: Ledger) -> dict:
    makers = pass_makers(seed, tiny)
    total_cells = cells(makers)
    stop = now() + seconds
    expected = None
    setups = []
    times = {"first": [], "fresh": [], "warm": []}
    while len(setups) < COLD_PROCESSES or now() < stop:
        reply = cold_probe(NAME, "first" if expected else "reference", seed, tiny)
        expected = expected or reply["reference"]
        settle(ledger, reply["checks"], expected)
        setups.append(reply["import_s"])
        for kind, values in reply["times"].items():
            times[kind] += values
    while len(setups) < SETUPS:
        setups.append(cold_probe(NAME, "import", seed, tiny)["import_s"])
    fresh, warm = times["fresh"], times["warm"]
    jobs = fresh + warm
    return {
        "setup_s": median(setups),
        "first_map_s": median(times["first"]),
        "steady_map_s": median(fresh),
        "cold_cells_per_s": total_cells / median(fresh),
        "warm_cells_per_s": total_cells / median(warm),
        "job_p50_ms": percentile(jobs, 50) * 1e3,
        "job_p90_ms": percentile(jobs, 90) * 1e3,
        "jobs_per_s": len(jobs) / sum(jobs),
        "bulk_cells_per_s": total_cells / median(fresh),
    }


def trace(seed: int, seconds: float, tiny: bool, ledger: Ledger) -> dict:
    return traced_layers(NAME, seed, tiny, ledger, None)
