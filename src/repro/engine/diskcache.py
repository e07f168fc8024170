"""Persistent on-disk caches: edge arrays plus typed memoized stores.

The engine's in-memory caches die with the process; sweeps sharded
across worker processes (or restarted after a crash) would rebuild the
same expensive intermediates once per process.  This module persists
them as one file per entry, keyed exactly like their in-memory
counterparts, so any process pointed at the same directory reads what
another already computed:

* :class:`DiskEdgeCache` — ``edges-<sha256>.npy`` communication-edge
  arrays keyed by grid dimensions/periodicity plus stencil offsets.
* :class:`DiskStore` — ``<kind>-<sha256>.pkl`` pickled values behind
  the permutation/cost/metric LRUs (kinds ``perm``/``cost``/``metric``)
  and the service daemon's content-addressed result store (``result``).

The cache directory is chosen per engine via the ``disk_cache_dir``
argument, or globally via the ``REPRO_CACHE_DIR`` environment variable;
with neither set the disk layer is disabled and the engine behaves as
before.  Writes are atomic (tmp file + ``os.replace``), so concurrent
writers on one POSIX filesystem can only ever publish complete entries;
a truncated or corrupt entry (e.g. a pre-atomic-write crash of an older
layout) reads back as a miss, never an error.

Stable content keys
-------------------
The in-memory caches key on live objects (``CartesianGrid`` instances,
mapper registry names, ``MetricSpec``); the disk tier needs keys that
are stable across processes and restarts.  :func:`request_payload`
derives such a key from a :class:`~repro.engine.request.MappingRequest`
— grids, stencils and allocations project to their defining integer
tuples, registry-name mappers to the name, explicit permutations to a
digest of their bytes — or returns ``None`` for requests with no stable
identity (configured :class:`Mapper` *instances* are identity-keyed in
memory and therefore uncacheable on disk, exactly mirroring the
in-memory ``spec_key`` semantics).
"""

from __future__ import annotations

import hashlib
import os
import pickle
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..grid.grid import CartesianGrid
from ..grid.stencil import Stencil

__all__ = [
    "DiskCacheStats",
    "DiskEdgeCache",
    "DiskStore",
    "MISSING",
    "STORE_KINDS",
    "CACHE_DIR_ENV",
    "prune",
    "resolve_cache_dir",
    "stable_digest",
    "instance_payload",
    "workload_payload",
    "mapper_payload",
    "metric_payload",
    "request_payload",
]

#: Environment variable naming the default on-disk cache directory.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Every store kind sharing one cache directory: the ``.npy`` edge
#: cache plus the pickled :class:`DiskStore` tiers.  The CLI ``cache``
#: verb reports/clears each kind separately.
STORE_KINDS = ("edges", "perm", "cost", "metric", "result")

#: File suffix of each store kind sharing a cache directory.
_KIND_SUFFIX = {
    kind: ".npy" if kind == "edges" else ".pkl" for kind in STORE_KINDS
}


class _Missing:
    """Sentinel distinguishing "no entry" from a stored ``None``."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "MISSING"


#: Returned by :meth:`DiskStore.load` when the key has no (readable) entry.
MISSING = _Missing()


def resolve_cache_dir(spec: str | os.PathLike | None) -> Path | None:
    """Turn a cache-dir spec into a concrete path, or ``None`` (disabled).

    An explicit *spec* wins; otherwise the ``REPRO_CACHE_DIR`` environment
    variable is consulted; an empty value in either place disables the
    disk layer.
    """
    if spec is None:
        spec = os.environ.get(CACHE_DIR_ENV) or None
    if spec is None or str(spec) == "":
        return None
    return Path(spec)


def _touch(path: Path) -> None:
    """Bump an entry's mtime so :func:`prune` sees it as recently used.

    Best-effort: a read-only cache directory (or an entry racing a
    concurrent eviction) silently keeps its old timestamp.
    """
    try:
        os.utime(path)
    except OSError:
        pass


def prune(
    cache_dir: str | os.PathLike,
    max_bytes: int | None = None,
    *,
    ttl: float | None = None,
) -> dict[str, int]:
    """Evict cache entries by age (*ttl*) and size budget (*max_bytes*).

    Scans every store kind sharing *cache_dir* — the ``.npy`` edge cache
    and the four pickled :class:`DiskStore` tiers.  Entries not used
    (mtime) for more than *ttl* seconds are unlinked unconditionally;
    the survivors are then unlinked oldest-mtime-first (both ``load``
    paths bump mtime on hit, so mtime order is recency-of-use order)
    until the combined size is at or under *max_bytes*.  Either policy
    may be ``None`` to skip it, but not both.  Returns
    ``{kind: removed_count}`` for every kind in :data:`STORE_KINDS`; a
    missing directory prunes nothing.

    Only recognised ``<kind>-*<suffix>`` entries are candidates: foreign
    files in a shared directory are never touched (and never counted
    against the budget).
    """
    if max_bytes is None and ttl is None:
        raise ValueError("prune needs max_bytes, ttl, or both")
    if max_bytes is not None and max_bytes < 0:
        raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
    if ttl is not None and ttl <= 0:
        raise ValueError(f"ttl must be positive, got {ttl}")
    directory = Path(cache_dir)
    removed = dict.fromkeys(STORE_KINDS, 0)
    entries: list[tuple[float, int, str, Path]] = []
    total = 0
    now = time.time()
    for kind in STORE_KINDS:
        try:
            paths = list(directory.glob(f"{kind}-*{_KIND_SUFFIX[kind]}"))
        except OSError:  # pragma: no cover - unreadable directory
            continue
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue  # racing a concurrent clear()/prune()
            if ttl is not None and now - stat.st_mtime > ttl:
                try:
                    path.unlink()
                except OSError:
                    continue  # racing another eviction, or permissions
                removed[kind] += 1
                continue
            entries.append((stat.st_mtime, stat.st_size, kind, path))
            total += stat.st_size
    if max_bytes is None:
        return removed
    entries.sort(key=lambda entry: entry[0])
    for _, size, kind, path in entries:
        if total <= max_bytes:
            break
        try:
            path.unlink()
        except OSError:
            continue  # racing another eviction, or permissions
        total -= size
        removed[kind] += 1
    return removed


# ----------------------------------------------------------------------
# Stable content keys
# ----------------------------------------------------------------------
def stable_digest(payload: str) -> str:
    """Hex sha256 of a payload string — the file-name key of one entry."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _stable_value(value):
    """Project a parameter value to a repr-stable form, or raise TypeError.

    Only values whose ``repr`` is identical in every process qualify:
    None, bools, ints, floats, strings, and tuples/lists thereof.
    Anything else (objects, arrays, dicts) has no stable textual
    identity and poisons the key.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (tuple, list)):
        return tuple(_stable_value(item) for item in value)
    raise TypeError(
        f"{type(value).__name__} has no process-stable representation"
    )


def instance_payload(grid, stencil, alloc) -> str:
    """Stable payload of one evaluation instance ``(grid, stencil, alloc)``.

    Mirrors the structural equality the in-memory caches rely on: same
    dimensions, periodicity, offset set and node sizes map to the same
    payload in every process.  Offsets are sorted because ``Stencil``
    equality is set-based.
    """
    return repr(
        (
            tuple(grid.dims),
            tuple(grid.periods),
            tuple(sorted(stencil.offsets)),
            tuple(alloc.node_sizes),
        )
    )


def workload_payload(workload, alloc) -> str | None:
    """Stable payload of a workload instance, or ``None`` (uncacheable).

    The workload's own :meth:`~repro.workloads.WorkloadBase.content_key`
    plus the allocation's node sizes — the workload analogue of
    :func:`instance_payload`.  Cartesian-equivalent workloads never
    reach this: :func:`request_payload` routes them through the classic
    Cartesian payload so both request forms share one content key.
    """
    content = workload.content_key()
    if content is None:
        return None
    return repr(("workload", content, tuple(alloc.node_sizes)))


def mapper_payload(mapper) -> str | None:
    """Stable payload of a mapper spec, or ``None`` when identity-keyed.

    Registry names (strings) are stable across processes; configured
    :class:`Mapper` instances are keyed by identity in memory and have
    no disk-stable counterpart.
    """
    if isinstance(mapper, str):
        return repr(("mapper", mapper))
    return None


def metric_payload(spec) -> str | None:
    """Stable payload of a :class:`MetricSpec`, or ``None``.

    Specs whose params contain only plain scalars/tuples (e.g. the
    built-in weighted-bytes metric) qualify; exotic params poison the
    key and the request falls back to compute.
    """
    try:
        return repr((spec.name, _stable_value(spec.params)))
    except (AttributeError, TypeError):
        return None


def request_payload(request) -> str | None:
    """Stable content payload of one mapping request, or ``None``.

    ``None`` marks the request uncacheable: a mapper *instance*, a
    metric with exotic params, a workload without a content key, or an
    object that is not a :class:`MappingRequest` at all (the service
    daemon calls this on opaque shard items and must pass them through
    untouched).  Workload requests key on the workload's content key;
    Cartesian requests — including Cartesian-equivalent workloads — keep
    the classic :func:`instance_payload`, byte-identical to before
    workloads existed.
    """
    try:
        workload = getattr(request, "workload", None)
        effective = request.effective_workload if workload is not None else None
        if effective is not None:
            instance = workload_payload(effective, request.alloc)
            if instance is None:
                return None
        else:
            instance = instance_payload(
                request.grid, request.stencil, request.alloc
            )
        perm = request.perm
        metrics = request.metrics
        mapper = request.mapper
    except (AttributeError, TypeError):
        return None
    if perm is not None:
        arr = np.ascontiguousarray(perm)
        mapped = repr(
            (
                "perm",
                str(arr.dtype),
                tuple(arr.shape),
                hashlib.sha256(arr.tobytes()).hexdigest(),
            )
        )
    else:
        mapped = mapper_payload(mapper)
        if mapped is None:
            return None
    parts = [instance, mapped]
    for spec in metrics:
        part = metric_payload(spec)
        if part is None:
            return None
        parts.append(part)
    return repr(tuple(parts))


@dataclass(frozen=True)
class DiskCacheStats:
    """Point-in-time counters of one on-disk cache.

    ``hits``/``misses``/``stores``/``corrupt`` are this process's
    handle counters (``corrupt`` counts the misses whose entry existed
    but could not be read); ``entries``/``total_bytes`` are a directory
    scan at call time, so they reflect every process sharing the cache.
    """

    hits: int
    misses: int
    stores: int
    entries: int = 0
    total_bytes: int = 0
    corrupt: int = 0


class _DiskCacheBase:
    """Shared machinery of the on-disk stores.

    One directory, one file per entry named ``<kind>-<key><suffix>``,
    atomic publishes, and lock-guarded counters: handles are shared
    between concurrent engine worker threads, so unguarded ``+= 1``
    bumps would lose updates.
    """

    _suffix: str

    def __init__(self, cache_dir: str | os.PathLike, kind: str):
        self._dir = Path(cache_dir)
        self._kind = str(kind)
        self._counter_lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._stores = 0
        self._corrupt = 0

    @property
    def cache_dir(self) -> Path:
        """The directory backing this cache."""
        return self._dir

    @property
    def kind(self) -> str:
        """File-name prefix distinguishing this store in a shared dir."""
        return self._kind

    @property
    def corrupt(self) -> int:
        """Entries this handle found present but unreadable (each also
        counted as a miss); cheap, unlike :meth:`stats`."""
        return self._corrupt

    def _path(self, key: str) -> Path:
        return self._dir / f"{self._kind}-{key}{self._suffix}"

    def _count(self, *, hit: bool = False, miss: bool = False,
               store: bool = False, corrupt: bool = False) -> None:
        with self._counter_lock:
            self._hits += hit
            self._misses += miss
            self._stores += store
            self._corrupt += corrupt

    def _publish(self, path: Path, write) -> bool:
        """Atomically write one entry via ``write(fh)``.

        Best-effort: an unwritable cache directory degrades to ``False``
        (callers still hold the in-memory copy).  Readers can only ever
        observe complete entries — the tmp file carries a ``.tmp``
        suffix no reader globs, and ``os.replace`` is atomic.
        """
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                prefix=path.stem + ".", suffix=".tmp", dir=self._dir
            )
            try:
                with os.fdopen(fd, "wb") as fh:
                    write(fh)
                os.replace(tmp, path)
            except BaseException:
                os.unlink(tmp)
                raise
        except OSError:
            return False
        self._count(store=True)
        return True

    def _entries(self):
        try:
            yield from self._dir.glob(f"{self._kind}-*{self._suffix}")
        except OSError:  # pragma: no cover - unreadable directory
            return

    def stats(self) -> DiskCacheStats:
        """This handle's hit/miss/store counters plus a directory scan."""
        entries = 0
        total_bytes = 0
        for path in self._entries():
            try:
                total_bytes += path.stat().st_size
            except OSError:
                continue  # racing a concurrent clear()
            entries += 1
        with self._counter_lock:
            hits, misses, stores = self._hits, self._misses, self._stores
            corrupt = self._corrupt
        return DiskCacheStats(
            hits=hits,
            misses=misses,
            stores=stores,
            entries=entries,
            total_bytes=total_bytes,
            corrupt=corrupt,
        )

    def clear(self) -> int:
        """Delete every entry of *this* store; returns how many removed.

        Only the store's own ``<kind>-*<suffix>`` files are touched, so
        a directory shared with other stores (or other data) is safe to
        clear.
        """
        removed = 0
        for path in self._entries():
            try:
                path.unlink()
            except OSError:
                continue  # racing another clear(), or permissions
            removed += 1
        return removed

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"{type(self).__name__}({str(self._dir)!r}, kind={self._kind!r}, "
            f"hits={s.hits}, misses={s.misses}, stores={s.stores})"
        )


class DiskEdgeCache(_DiskCacheBase):
    """File-per-entry ``np.save``/``np.load`` store of edge arrays.

    Parameters
    ----------
    cache_dir:
        Directory holding the ``edges-<sha256>.npy`` files; created on
        first use.  Many processes may share one directory.
    """

    _suffix = ".npy"

    def __init__(self, cache_dir: str | os.PathLike):
        super().__init__(cache_dir, "edges")

    @staticmethod
    def key_for(grid: CartesianGrid, stencil: Stencil) -> str:
        """Deterministic file-name key of ``(grid, stencil)``.

        Mirrors the in-memory edge-cache key: structurally equal
        instances — same dimensions, periodicity and offset set — map to
        the same file in every process, today and after a restart.
        Offsets are sorted because :class:`Stencil` equality is
        set-based; permuted insertion orders must share one entry.
        """
        payload = repr((grid.dims, grid.periods, tuple(sorted(stencil.offsets))))
        return stable_digest(payload)

    def _path_for(self, grid: CartesianGrid, stencil: Stencil) -> Path:
        return self._path(self.key_for(grid, stencil))

    def load(self, grid: CartesianGrid, stencil: Stencil) -> np.ndarray | None:
        """Read the cached edge array, or ``None`` when absent/corrupt.

        A truncated or unreadable file (e.g. from a pre-atomic-write
        crash of an older layout) counts as a ``corrupt`` miss rather
        than an error.
        """
        path = self._path_for(grid, stencil)
        try:
            arr = np.load(path)
        except FileNotFoundError:
            self._count(miss=True)
            return None
        except (OSError, ValueError, EOFError):
            # EOFError: np.load on a zero-byte/truncated-header file
            self._count(miss=True, corrupt=True)
            return None
        self._count(hit=True)
        _touch(path)
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        arr.setflags(write=False)
        return arr

    def store(self, grid: CartesianGrid, stencil: Stencil, edges: np.ndarray) -> None:
        """Atomically publish the edge array of ``(grid, stencil)``.

        Best-effort: an unwritable cache directory degrades to a no-op
        (the sweep still has the in-memory copy).
        """
        self._publish(
            self._path_for(grid, stencil),
            lambda fh: np.save(fh, np.asarray(edges, dtype=np.int64)),
        )


class DiskStore(_DiskCacheBase):
    """Typed file-per-entry pickle store for memoized values.

    The persistent tier behind the engine's permutation/cost/metric
    LRUs and the service daemon's content-addressed result store.  Keys
    are hex digests (see :func:`stable_digest` and the payload helpers
    above); values are arbitrary picklable objects stored as
    ``<kind>-<key>.pkl``.

    Parameters
    ----------
    cache_dir:
        Directory holding the entries; created on first use and safely
        shared between kinds, processes, and the edge cache.
    kind:
        File-name prefix namespacing this store within the directory
        (``perm``/``cost``/``metric``/``result``).
    """

    _suffix = ".pkl"

    def load(self, key: str):
        """The stored value of *key*, or :data:`MISSING`.

        Absent, truncated, corrupt or otherwise unreadable entries all
        count as misses rather than errors — a crashed writer or a
        stray file must never fail a sweep.  Entries present but
        unreadable are also counted as ``corrupt``.
        """
        path = self._path(key)
        try:
            with open(path, "rb") as fh:
                value = pickle.load(fh)
        except FileNotFoundError:
            self._count(miss=True)
            return MISSING
        except Exception:
            # pickle raises anything from EOFError to arbitrary
            # constructor errors on corrupt bytes; all mean "no entry".
            self._count(miss=True, corrupt=True)
            return MISSING
        self._count(hit=True)
        _touch(path)
        return value

    def store(self, key: str, value) -> bool:
        """Atomically publish *value* under *key*; ``False`` if unwritable."""
        return self._publish(
            self._path(key),
            lambda fh: pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL),
        )
