"""``service_jobs``: small jobs from one closed-loop client through a standing service.

An in-process :class:`repro.ServiceDaemon` with a fresh result store and
two ``repro.engine.cluster.worker`` subprocesses.  One client sends small
jobs (one Figure 8 instance x one stencil family x the six mappers)
through :class:`repro.ServiceBackend`, each after the previous returned.
The seed draws the stream over the Figure 8 instances and the
``nearest_neighbor``/``component`` families: two in five jobs are
first-time cells, dispatched to the workers and written to the store;
the rest repeat earlier jobs and are answered from the store with zero
shards dispatched.  Each run ends with one cold bulk job, the whole
Figure 8 set under ``nearest_neighbor_with_hops``; fresh processes that
set up their own service and run the bulk job first give the set-up and
first-job times.

Per-job compute is under 2 ms, so latency comes from ``service`` and
``engine.cluster`` (wire, coordinator dispatch, result store); store
writes next to store reads show when a gain for one costs the other,
and the bulk job shows per-shard dispatch cost under throughput.
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
import tempfile
import threading

import repro
from repro.experiments.instances import instance_set
from repro.sweep import InstanceSpec, SweepSpec

import tracing
from common import (
    MAPPERS,
    OPERATION_TIMEOUT,
    ROOT,
    WORK,
    Ledger,
    cold_probe,
    deadline,
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

NAME = "service_jobs"
FAMILIES = ("nearest_neighbor", "component")
BULK_FAMILY = "nearest_neighbor_with_hops"
WORKER = "repro.engine.cluster.worker"
WORKERS = 2
#: p90 needs at least ten samples beyond it.
MIN_JOBS = 120
TRACED_JOBS = 100
STREAM_LENGTH = 2000
#: Two in five jobs are first-time cells: first-time and repeat jobs have
#: distinct latencies, and an even split would put the median job right
#: on the boundary between the two, where it swings from run to run.
FIRST_TIME_SHARE = 0.4
#: Fresh processes per run, each setting up a service and running the
#: bulk job first: a small job's latency alone is too noisy to compare.
COLD_PROCESSES = 5
ROUNDTRIPS = 20


def shapes(tiny: bool) -> list[tuple]:
    found = [(i.num_nodes, i.processes_per_node, i.ndims) for i in instance_set()]
    return found[::24] if tiny else found


def stream(seed: int, tiny: bool) -> list[tuple[str, tuple]]:
    """The seeded job stream: ``(kind, (shape, family))`` per job."""
    rng = random.Random(seed)
    unseen = [(shape, family) for shape in shapes(tiny) for family in FAMILIES]
    rng.shuffle(unseen)
    seen: list[tuple] = []
    jobs = []
    for _ in range(STREAM_LENGTH):
        if unseen and (not seen or rng.random() < FIRST_TIME_SHARE):
            seen.append(unseen.pop())
            jobs.append(("first-time job", seen[-1]))
        else:
            jobs.append(("repeat job", rng.choice(seen)))
    return jobs


def job_maker(key: tuple):
    shape, family = key
    return lambda: SweepSpec(
        [InstanceSpec.from_nodes(*shape)], stencils=[family], mappers=MAPPERS
    )


def bulk_maker(tiny: bool):
    return lambda: SweepSpec(
        [InstanceSpec.from_nodes(*shape) for shape in shapes(tiny)],
        stencils=[BULK_FAMILY],
        mappers=MAPPERS,
    )


class References:
    """Serial in-process digests of the run's specs, computed on first use."""

    def __init__(self, seed: int, tiny: bool):
        self._makers = {repr(key): job_maker(key) for _, key in stream(seed, tiny)}
        self._makers["bulk"] = bulk_maker(tiny)
        self._engine = repro.EvaluationEngine(max_workers=1)
        self._digests: dict[str, str] = {}

    def __getitem__(self, key: str) -> str:
        if key not in self._digests:
            spec = self._makers[key]()
            self._digests[key] = rows_digest(repro.sweep.run(spec, self._engine))
        return self._digests[key]


class Service:
    """A daemon with a fresh result store and its attached workers."""

    def __init__(self):
        self.store = tempfile.mkdtemp(prefix="store-", dir=WORK / "tmp")
        start = now()
        self.daemon = repro.ServiceDaemon(
            "127.0.0.1", 0, disk_cache_dir=self.store, history_limit=STREAM_LENGTH + 10
        )
        spawn = now()
        address = f"127.0.0.1:{self.daemon.port}"
        command = [sys.executable, "-m", WORKER, "--connect", address]
        quiet = subprocess.DEVNULL
        self.workers = [
            subprocess.Popen(command, cwd=ROOT, stdout=quiet, stderr=quiet)
            for _ in range(WORKERS)
        ]
        try:
            self.daemon.wait_for_workers(WORKERS, timeout=OPERATION_TIMEOUT)
        except BaseException:
            self.close()
            raise
        self.setup_s = now() - start
        self.spawn_s = now() - spawn
        self.backend = repro.ServiceBackend("127.0.0.1", self.daemon.port)

    def last_job_shards(self) -> int:
        return self.daemon.jobs()[-1]["shards"]

    def close(self, ledger: Ledger | None = None) -> None:
        """Stop the daemon, wait for every worker, drop the store."""
        alive = [worker.poll() is None for worker in self.workers]
        try:
            self.daemon.close()
        finally:
            for index, worker in enumerate(self.workers):
                try:
                    worker.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait()
                if ledger is not None:
                    code = worker.returncode
                    with ledger.operation(f"worker {index}") as op:
                        op.require(alive[index], "died during the run")
                        op.require(code == 0, f"exited {code}")
            shutil.rmtree(self.store, ignore_errors=True)


def run_job(ledger: Ledger, svc: Service, what: str, make):
    """One job, or ``None`` when it failed or timed out."""
    with ledger.operation(what):
        with deadline():
            return timed_job(make, svc.backend)
    return None


def run_stream(svc: Service, jobs, expected, ledger: Ledger, stop: float) -> dict:
    """Send *jobs* one after another until *stop* (at least ``MIN_JOBS``);
    the latencies by kind of job."""
    latencies: dict[str, list[float]] = {"first-time job": [], "repeat job": []}
    for count, (what, key) in enumerate(jobs):
        if count >= MIN_JOBS and now() >= stop:
            break
        done = run_job(ledger, svc, what, job_maker(key))
        if done is None:
            continue
        seconds, result = done
        latencies[what].append(seconds)
        settle(ledger, [job_check(what, repr(key), result)], expected)
        if what == "repeat job":
            with ledger.operation("repeat job dispatch") as op:
                shards = svc.last_job_shards()
                op.require(shards == 0, f"dispatched {shards} shard(s)")
    return latencies


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
class _QueueSampler(threading.Thread):
    """Polls the daemon's METRICS document for the oldest queued shard."""

    def __init__(self, daemon):
        super().__init__(daemon=True)
        self._service = daemon
        self._halt = threading.Event()
        self.oldest_age_s = 0.0

    def run(self) -> None:
        while not self._halt.wait(0.005):
            age = self._service.metrics()["queue"]["oldest_age"] or 0.0
            self.oldest_age_s = max(self.oldest_age_s, age)

    def stop(self) -> None:
        self._halt.set()
        self.join(timeout=10)


def _phase(svc: Service, seed: int, tiny: bool, tracer=None) -> tuple[list, float]:
    """The stream and the bulk job, as both trace probes run them."""
    checks = []
    for what, key in stream(seed, tiny)[:TRACED_JOBS]:
        _, result = timed_job(job_maker(key), svc.backend, tracer)
        checks.append(job_check(what, repr(key), result))
    sampler = _QueueSampler(svc.daemon)
    sampler.start()
    try:
        _, result = timed_job(bulk_maker(tiny), svc.backend, tracer)
    finally:
        sampler.stop()
    checks.append(job_check("bulk job", "bulk", result))
    return checks, sampler.oldest_age_s


def probe(mode: str, seed: int, tiny: bool) -> dict:
    ledger = Ledger()
    svc = Service()
    reply = {"setup_s": svc.setup_s}
    try:
        if mode == "first":
            seconds, result = timed_job(bulk_maker(tiny), svc.backend)
            reply["first_s"] = seconds
            reply["checks"] = [job_check("first bulk job", "bulk", result)]
            return reply
        if mode == "untraced":
            start = now()
            checks, _ = _phase(svc, seed, tiny)
            reply.update(wall_s=now() - start, checks=checks)
            return reply
        trips = []
        for _ in range(ROUNDTRIPS):
            start = now()
            svc.backend.client.status()
            trips.append(now() - start)
        tracer = tracing.Tracer()
        with tracing.instrument(tracer), tracer.phase("main") as root:
            checks, oldest_age = _phase(svc, seed, tiny, tracer)
        layers = tracing.layer_metrics(tracer, root)
        store = svc.daemon.metrics()["store"]
        layers.update(
            {
                "service.roundtrip_ms": median(trips) * 1e3,
                "service.shards_dispatched": sum(
                    job["shards"] for job in svc.daemon.jobs()
                ),
                "service.worker_spawn_s": svc.spawn_s,
                "store.hits": store["hits"],
                "store.misses": store["misses"],
                "store.hit_rate": store["hit_rate"] or 0.0,
                "queue.oldest_age_ms": oldest_age * 1e3,
            }
        )
        tracer.write(trace_path(NAME, seed))
        reply.update(wall_s=layers["trace.wall_s"], layers=layers, checks=checks)
        return reply
    finally:
        svc.close(ledger)
        reply["ledger"] = ledger.as_dict()


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------
def measure(seed: int, seconds: float, tiny: bool, ledger: Ledger) -> dict:
    expected = References(seed, tiny)
    bulk_cells = len(bulk_maker(tiny)())
    stop = now() + seconds
    setups, firsts, bulks = [], [], []
    for _ in range(COLD_PROCESSES):
        reply = cold_probe(NAME, "first", seed, tiny)
        ledger.merge(reply["ledger"])
        setups.append(reply["import_s"] + reply["setup_s"])
        firsts.append(reply["first_s"])
        bulks.append(bulk_cells / reply["first_s"])
        settle(ledger, reply["checks"], expected)
    svc = Service()
    try:
        latencies = run_stream(svc, stream(seed, tiny), expected, ledger, stop)
        done = run_job(ledger, svc, "bulk job", bulk_maker(tiny))
        if done is not None:
            bulks.append(bulk_cells / done[0])
            settle(ledger, [job_check("bulk job", "bulk", done[1])], expected)
    finally:
        svc.close(ledger)
    first_time, repeat = latencies["first-time job"], latencies["repeat job"]
    every = first_time + repeat
    cells = len(MAPPERS)
    return {
        "setup_s": median(setups),
        "first_map_s": median(firsts),
        "steady_map_s": median(first_time),
        "cold_cells_per_s": cells / median(first_time),
        "warm_cells_per_s": cells / median(repeat),
        "job_p50_ms": percentile(every, 50) * 1e3,
        "job_p90_ms": percentile(every, 90) * 1e3,
        "jobs_per_s": len(every) / sum(every),
        "bulk_cells_per_s": median(bulks),
    }


def trace(seed: int, seconds: float, tiny: bool, ledger: Ledger) -> dict:
    return traced_layers(NAME, seed, tiny, ledger, References(seed, tiny))
