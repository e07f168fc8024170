"""Shared plumbing of the benchmark: paths, child processes, jobs,
statistics, row digests, the Figure 6 anchors and failure accounting.

Everything here runs from the root of a checkout: the library is
imported from ``src/`` next to this directory, and every file the
benchmark writes lands under ``.perfbench/`` in that root.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
PROBE = Path(__file__).resolve().parent / "probe.py"

#: The six fast mappers of the paper's evaluation, in paper order.
#: ``graphmap`` (VieM) stays out: its slowness is the Figure 9 result.
MAPPERS = ("blocked", "hyperplane", "kd_tree", "stencil_strips", "nodecart", "random")

#: Seconds any single operation may take before it counts as failed.
OPERATION_TIMEOUT = 60.0


def prepare_environment() -> None:
    """Import the library from this checkout with library defaults.

    Disk caches, kernel overrides and cluster secrets set in the caller's
    environment would change what is measured, so they are cleared;
    temporary files go under the checkout.
    """
    for name in ("REPRO_CACHE_DIR", "REPRO_KERNEL", "REPRO_CLUSTER_SECRET"):
        os.environ.pop(name, None)
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = str(SRC)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def library_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def now() -> float:
    return time.perf_counter()


def trace_path(workload: str, seed: int) -> Path:
    return WORK / f"trace-{workload}-seed{seed}.json"


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, pct: int) -> float:
    """The *pct*-th percentile, as ``statistics.quantiles(n=100)`` gives it."""
    values = list(values)
    if len(values) == 1:
        return float(values[0])
    return float(statistics.quantiles(values, n=100)[pct - 1])


# ----------------------------------------------------------------------
# Failure accounting
# ----------------------------------------------------------------------
class Ledger:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def fail(self, what: str, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(f"{what}: {reason}")

    @contextlib.contextmanager
    def operation(self, what: str):
        """Count one operation; an exception or a failed check fails it."""
        op = _Operation()
        self.attempted += 1
        try:
            yield op
        except Exception as exc:  # noqa: BLE001 - every failure is counted
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return
        if op.problems:
            self.fail(what, "; ".join(op.problems))

    def merge(self, other: dict) -> None:
        """Add the counts a child process reported with :meth:`as_dict`."""
        self.attempted += int(other["attempted"])
        for reason in other["reasons"]:
            self.fail("child", reason)
        self.failed += int(other["failed"]) - len(other["reasons"])

    def as_dict(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "reasons": list(self.reasons),
        }


class _Operation:
    def __init__(self):
        self.problems: list[str] = []

    def require(self, condition: bool, problem: str) -> None:
        if not condition:
            self.problems.append(problem)


@contextlib.contextmanager
def deadline(seconds: float = OPERATION_TIMEOUT):
    """Raise :class:`TimeoutError` in the main thread after *seconds*."""

    def expire(signum, frame):
        raise TimeoutError(f"no answer within {seconds:g}s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
def rows_digest(result_set) -> str:
    """One digest over every row of a :class:`repro.ResultSet`.

    Covers the serialized row (``jsum``, ``jmax``, ``ok``, ``error`` and
    every metric column, byte for byte as JSON) and the raw bytes of the
    per-node cut vector, in cell order.
    """
    digest = hashlib.sha256()
    for row, plain in zip(result_set.rows, result_set.to_rows()):
        digest.update(json.dumps(plain, sort_keys=True).encode())
        cost = None if row.result is None else row.result.cost
        digest.update(b"-" if cost is None else cost.per_node.tobytes())
    return digest.hexdigest()


def job_check(what: str, key: str, result) -> list:
    """A job's outcome, as :func:`settle` compares it to its reference."""
    errors = sum(1 for row in result.rows if not row.ok)
    return [what, key, rows_digest(result), errors]


def settle(ledger: Ledger, checks: list, expected) -> None:
    """Count each job against the serial reference digest of its key."""
    for what, key, digest, errors in checks:
        with ledger.operation(what) as op:
            op.require(errors == 0, f"{errors} error row(s)")
            op.require(
                digest == expected[key], "rows differ from the serial reference"
            )


#: Figure 6, nearest-neighbour panel, N=50 nodes x n=48 processes, 2-D.
ANCHORS = {"blocked": (4704, 96), "stencil_strips": (1244, 28)}


def check_anchors(ledger: Ledger) -> None:
    """The paper's calibration values through the serial scoring path."""
    import repro

    grid = repro.CartesianGrid(repro.dims_create(50 * 48, 2))
    stencil = repro.nearest_neighbor(2)
    alloc = repro.NodeAllocation.homogeneous(50, 48)
    for name, expected in ANCHORS.items():
        with ledger.operation(f"anchor {name}") as op:
            perm = repro.get_mapper(name).map_ranks(grid, stencil, alloc)
            cost = repro.evaluate_mapping(grid, stencil, perm, alloc)
            got = (int(cost.jsum), int(cost.jmax))
            op.require(got == expected, f"Jsum/Jmax {got} != {expected}")


# ----------------------------------------------------------------------
# Jobs and processes
# ----------------------------------------------------------------------
def timed_job(make_spec, backend, tracer=None):
    """One caller-visible job: build the spec, run it, read every row.

    Returns ``(seconds, result_set)``; the clock covers the first call
    to the last row, as a caller of :func:`repro.sweep.run` sees it.
    """
    from repro.sweep import run

    span = contextlib.nullcontext() if tracer is None else tracer.span("sweep.run")
    start = now()
    with span:
        result = run(make_spec(), backend)
        result.to_rows()
    return now() - start, result


def cold_probe(workload: str, mode: str, seed: int, tiny: bool) -> dict:
    """Run one probe of *workload* in a fresh interpreter; its JSON reply.

    The child imports the library afresh, so it pays every
    first-call cost a freshly spawned process pays.
    """
    command = [sys.executable, str(PROBE), workload, mode, str(seed), str(int(tiny))]
    done = subprocess.run(
        command,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
        check=False,
    )
    if done.returncode != 0:
        tail = done.stderr.strip().splitlines()[-3:]
        raise RuntimeError(f"probe {workload}/{mode} exited {done.returncode}: {tail}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def traced_layers(workload: str, seed: int, tiny: bool, ledger: Ledger, expected):
    """Per-layer metrics of *workload*: its phase run untraced, then traced,
    each in a fresh process; both are checked against *expected* (or the
    reference digests the untraced process computed)."""
    untraced = cold_probe(workload, "untraced", seed, tiny)
    traced = cold_probe(workload, "traced", seed, tiny)
    expected = expected or untraced["reference"]
    for reply in (untraced, traced):
        if "ledger" in reply:
            ledger.merge(reply["ledger"])
        settle(ledger, reply["checks"], expected)
    layers = dict(traced["layers"])
    layers["import.repro_s"] = traced["import_s"]
    layers["trace.untraced_wall_s"] = untraced["wall_s"]
    layers["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return layers


class CacheTally:
    """Engine LRU hit rates summed over every engine a phase used."""

    METRICS = {
        "edges": "engine.edge_hit_rate",
        "permutations": "engine.perm_hit_rate",
        "costs": "engine.cost_hit_rate",
        "metrics": "engine.metric_hit_rate",
    }

    def __init__(self):
        self.hits = dict.fromkeys(self.METRICS, 0)
        self.lookups = dict.fromkeys(self.METRICS, 0)

    def add(self, engine) -> None:
        for kind, stats in engine.cache_stats().items():
            self.hits[kind] += stats.hits
            self.lookups[kind] += stats.hits + stats.misses

    def rates(self) -> dict[str, float]:
        """Hit share per cache; 0 for a cache no lookup reached."""
        return {
            metric: self.hits[kind] / self.lookups[kind] if self.lookups[kind] else 0.0
            for kind, metric in self.METRICS.items()
        }
