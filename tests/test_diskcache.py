"""The typed persistent store family and the engine's disk tiers.

Covers the persistence layer's failure modes — truncated/corrupt
entries count as misses (never errors) for every store kind, concurrent
writers publish only complete entries, ``clear`` removes exactly the
store's own files — plus counter consistency under a threaded hammer
and the perm/cost/metric disk tiers warming a fresh engine.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from repro import (
    CartesianGrid,
    EvaluationEngine,
    MappingRequest,
    NodeAllocation,
    nearest_neighbor,
)
from repro.engine import DiskEdgeCache, DiskStore, weighted_bytes_metric
from repro.engine.diskcache import (
    MISSING,
    STORE_KINDS,
    instance_payload,
    mapper_payload,
    metric_payload,
    request_payload,
    stable_digest,
)

KEY = "a" * 64


def _instance():
    grid = CartesianGrid([4, 12])
    return grid, nearest_neighbor(2), NodeAllocation.homogeneous(4, 12)


class TestDiskStore:
    def test_round_trip_and_missing(self, tmp_path):
        store = DiskStore(tmp_path, "perm")
        assert store.load(KEY) is MISSING
        perm = np.arange(8, dtype=np.int64)
        assert store.store(KEY, (perm, None)) is True
        value = store.load(KEY)
        np.testing.assert_array_equal(value[0], perm)
        assert value[1] is None
        stats = store.stats()
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        assert stats.corrupt == 0  # an absent entry is a plain miss
        assert stats.entries == 1 and stats.total_bytes > 0

    def test_stored_none_is_not_missing(self, tmp_path):
        store = DiskStore(tmp_path, "perm")
        store.store(KEY, None)
        assert store.load(KEY) is None  # a memoized rejection, not a miss

    @pytest.mark.parametrize("garbage", [b"", b"\x80", b"not a pickle at all"])
    def test_corrupt_entry_is_a_miss(self, tmp_path, garbage):
        store = DiskStore(tmp_path, "cost")
        store.store(KEY, {"x": 1})
        (path,) = tmp_path.glob("cost-*.pkl")
        path.write_bytes(garbage)
        assert store.load(KEY) is MISSING
        assert store.stats().misses == 1
        assert store.stats().corrupt == store.corrupt == 1

    def test_truncated_pickle_is_a_miss(self, tmp_path):
        store = DiskStore(tmp_path, "result")
        store.store(KEY, ("perm", np.arange(64), None, {"m": 1.0}))
        (path,) = tmp_path.glob("result-*.pkl")
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert store.load(KEY) is MISSING
        assert (store.stats().misses, store.corrupt) == (1, 1)

    def test_corrupt_npy_is_a_miss(self, tmp_path):
        cache = DiskEdgeCache(tmp_path)
        grid, stencil, _ = _instance()
        cache.store(grid, stencil, np.zeros((6, 2), dtype=np.int64))
        (path,) = tmp_path.glob("edges-*.npy")
        path.write_bytes(b"")
        assert cache.load(grid, stencil) is None
        assert cache.stats().misses == 1
        assert cache.stats().corrupt == 1

    def test_clear_removes_exactly_its_own_files(self, tmp_path):
        for kind in STORE_KINDS[1:]:
            DiskStore(tmp_path, kind).store(KEY, kind)
        grid, stencil, _ = _instance()
        edge_cache = DiskEdgeCache(tmp_path)
        edge_cache.store(grid, stencil, np.zeros((6, 2), dtype=np.int64))
        unrelated = tmp_path / "notes.txt"
        unrelated.write_text("keep me")
        decoy = tmp_path / "result-decoy.json"  # wrong suffix
        decoy.write_text("{}")

        assert DiskStore(tmp_path, "perm").clear() == 1
        assert DiskStore(tmp_path, "perm").stats().entries == 0
        for kind in ("cost", "metric", "result"):
            assert DiskStore(tmp_path, kind).stats().entries == 1
        assert edge_cache.stats().entries == 1
        assert edge_cache.clear() == 1
        assert unrelated.read_text() == "keep me"
        assert decoy.exists()

    def test_kinds_do_not_collide_on_one_key(self, tmp_path):
        DiskStore(tmp_path, "cost").store(KEY, "cost-value")
        DiskStore(tmp_path, "metric").store(KEY, "metric-value")
        assert DiskStore(tmp_path, "cost").load(KEY) == "cost-value"
        assert DiskStore(tmp_path, "metric").load(KEY) == "metric-value"

    def test_unwritable_directory_degrades_to_noop(self, tmp_path):
        target = tmp_path / "blocked"
        target.write_text("a file where the cache dir should be")
        store = DiskStore(target, "perm")
        assert store.store(KEY, 1) is False
        assert store.load(KEY) is MISSING
        assert store.stats().stores == 0


class TestCounterConsistency:
    """Satellite: ``_hits``/``_misses``/``_stores`` are bumped from
    concurrent engine worker threads; unguarded ``+= 1`` loses updates."""

    THREADS = 8
    OPS = 60

    def test_disk_store_counters_survive_a_threaded_hammer(self, tmp_path):
        store = DiskStore(tmp_path, "perm")
        hot = stable_digest("hot")
        store.store(hot, 0)
        barrier = threading.Barrier(self.THREADS)

        def hammer(worker: int) -> None:
            barrier.wait()
            for i in range(self.OPS):
                store.load(hot)  # hit
                store.load(stable_digest(f"absent-{worker}-{i}"))  # miss
                store.store(stable_digest(f"w{worker}-{i}"), i)

        threads = [
            threading.Thread(target=hammer, args=(w,))
            for w in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        stats = store.stats()
        total = self.THREADS * self.OPS
        assert stats.hits == total
        assert stats.misses == total
        assert stats.stores == total + 1
        assert stats.hits + stats.misses == 2 * total

    def test_edge_cache_counters_survive_a_threaded_hammer(self, tmp_path):
        cache = DiskEdgeCache(tmp_path)
        grid, stencil, _ = _instance()
        cache.store(grid, stencil, np.zeros((6, 2), dtype=np.int64))
        missing = CartesianGrid([3, 3])
        barrier = threading.Barrier(self.THREADS)

        def hammer() -> None:
            barrier.wait()
            for _ in range(self.OPS):
                assert cache.load(grid, stencil) is not None
                assert cache.load(missing, stencil) is None

        threads = [
            threading.Thread(target=hammer) for _ in range(self.THREADS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        stats = cache.stats()
        total = self.THREADS * self.OPS
        assert (stats.hits, stats.misses, stats.stores) == (total, total, 1)


def _process_writer(args) -> bool:
    directory, key, worker = args
    store = DiskStore(directory, "result")
    payload = (np.full(4096, worker, dtype=np.int64), None, None, {})
    ok = True
    for _ in range(20):
        ok &= store.store(key, payload)
        value = store.load(key)
        # Readers must only ever observe a complete published entry:
        # a homogeneous array from *some* writer, never torn bytes.
        if value is MISSING or len(set(value[0].tolist())) != 1:
            return False
    return ok


class TestConcurrentWriters:
    def test_multi_process_writers_publish_only_complete_entries(self, tmp_path):
        key = stable_digest("contested")
        with ProcessPoolExecutor(max_workers=4) as pool:
            outcomes = list(
                pool.map(
                    _process_writer,
                    [(str(tmp_path), key, w) for w in range(4)],
                )
            )
        assert all(outcomes)
        # and the survivor is a valid entry
        value = DiskStore(tmp_path, "result").load(key)
        assert value is not MISSING and len(value) == 4

    def test_tmp_files_never_linger_after_publish(self, tmp_path):
        store = DiskStore(tmp_path, "perm")
        for i in range(10):
            store.store(stable_digest(str(i)), i)
        assert list(tmp_path.glob("*.tmp")) == []


class TestStableKeys:
    def test_instance_payload_is_structural(self):
        grid, stencil, alloc = _instance()
        again = (
            CartesianGrid([4, 12]),
            nearest_neighbor(2),
            NodeAllocation.homogeneous(4, 12),
        )
        assert instance_payload(grid, stencil, alloc) == instance_payload(*again)

    def test_mapper_payload_rejects_instances(self):
        from repro.engine.registry import resolve_mapper

        assert mapper_payload("blocked") is not None
        assert mapper_payload(resolve_mapper("blocked")) is None

    def test_metric_payload_rejects_exotic_params(self):
        from repro.engine.metrics import MetricSpec
        from repro.workloads import halo_exchange_volume

        grid, stencil, _ = _instance()
        spec = weighted_bytes_metric(
            halo_exchange_volume(grid, stencil, (8, 8), 4)
        )
        assert metric_payload(spec) is not None
        exotic = MetricSpec("custom", (("fn", object()),))
        assert metric_payload(exotic) is None

    def test_request_payload_stability_and_uncacheables(self):
        from repro.engine.registry import resolve_mapper

        grid, stencil, alloc = _instance()
        request = MappingRequest(grid, stencil, alloc, "blocked")
        twin = MappingRequest(
            CartesianGrid([4, 12]),
            nearest_neighbor(2),
            NodeAllocation.homogeneous(4, 12),
            "blocked",
        )
        assert request_payload(request) == request_payload(twin)
        other = MappingRequest(grid, stencil, alloc, "hyperplane")
        assert request_payload(request) != request_payload(other)
        # explicit permutations key by content digest
        perm = np.arange(grid.size, dtype=np.int64)
        with_perm = MappingRequest(grid, stencil, alloc, "blocked", perm=perm)
        same_perm = MappingRequest(
            grid, stencil, alloc, "blocked", perm=perm.copy()
        )
        assert request_payload(with_perm) == request_payload(same_perm)
        assert request_payload(with_perm) != request_payload(request)
        # uncacheables
        instance_mapper = MappingRequest(
            grid, stencil, alloc, resolve_mapper("blocked")
        )
        assert request_payload(instance_mapper) is None
        assert request_payload(("opaque", 0)) is None
        assert request_payload("not a request") is None


class TestEngineDiskTiers:
    def _requests(self):
        grid, stencil, alloc = _instance()
        metric = weighted_bytes_metric(
            __import__("repro.workloads", fromlist=["halo_exchange_volume"])
            .halo_exchange_volume(grid, stencil, (8, 8), 4)
        )
        return [
            MappingRequest(
                grid, stencil, alloc, name, metrics=(metric,)
            )
            for name in ("blocked", "hyperplane", "nodecart")
        ]

    @staticmethod
    def _signature(result):
        return (
            None if result.cost is None else result.cost.jsum,
            None if result.cost is None else result.cost.jmax,
            None if result.perm is None else result.perm.tobytes(),
            result.error,
            tuple(sorted(result.metrics.items())),
        )

    def test_fresh_engine_serves_perm_cost_metric_from_disk(self, tmp_path):
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as cold:
            reference = [
                self._signature(r) for r in cold.evaluate_batch(self._requests())
            ]
            stores = cold.disk_store_stats()
            assert stores["perm"].stores == 3
            assert stores["cost"].stores == 3
            assert stores["metric"].stores == 3

        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as warm:
            warmed = [
                self._signature(r) for r in warm.evaluate_batch(self._requests())
            ]
            stores = warm.disk_store_stats()
        assert warmed == reference
        assert stores["perm"].hits == 3 and stores["perm"].stores == 0
        assert stores["cost"].hits == 3 and stores["cost"].stores == 0
        assert stores["metric"].hits == 3 and stores["metric"].stores == 0

    def test_mapper_rejections_are_memoized_on_disk(self, tmp_path):
        grid = CartesianGrid([5, 7])  # nodecart rejects non-factorable splits?
        stencil = nearest_neighbor(2)
        alloc = NodeAllocation.homogeneous(5, 7)
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            perm, error = engine.permutation(grid, stencil, alloc, "nodecart")
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as engine:
            again = engine.permutation(grid, stencil, alloc, "nodecart")
            stats = engine.disk_store_stats()["perm"]
        assert (perm is None) == (again[0] is None)
        assert again[1] == error
        assert stats.hits == 1

    def test_disabled_disk_layer_keeps_store_stats_empty(self):
        with EvaluationEngine(max_workers=1, disk_cache_dir=None) as engine:
            engine.evaluate_batch(self._requests()[:1])
            # None unless REPRO_CACHE_DIR leaks in from the environment
            stats = engine.disk_store_stats()
        assert set(stats) <= {"edges", "perm", "cost", "metric"}

    def test_corrupt_store_entry_falls_back_to_compute(self, tmp_path):
        requests = self._requests()
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as cold:
            reference = [
                self._signature(r) for r in cold.evaluate_batch(requests)
            ]
        for path in tmp_path.glob("perm-*.pkl"):
            path.write_bytes(b"\x00garbage")
        with EvaluationEngine(max_workers=1, disk_cache_dir=tmp_path) as warm:
            warmed = [
                self._signature(r) for r in warm.evaluate_batch(requests)
            ]
            stats = warm.disk_store_stats()["perm"]
        assert warmed == reference
        assert stats.misses == 3 and stats.stores == 3  # recomputed + republished


class TestSweepFingerprint:
    def _spec(self, mapper="blocked"):
        from repro.sweep import InstanceSpec, SweepSpec

        return SweepSpec(
            instances=[
                InstanceSpec.from_nodes(4, 12),
                InstanceSpec.from_nodes(6, 8),
            ],
            stencils=["nearest_neighbor"],
            mappers=[mapper, "hyperplane"],
        )

    def test_fingerprint_is_stable_across_specs(self):
        assert self._spec().fingerprint() == self._spec().fingerprint()

    def test_fingerprint_distinguishes_content(self):
        assert self._spec().fingerprint() != self._spec("nodecart").fingerprint()

    def test_fingerprint_covers_uncacheable_cells(self):
        from repro.engine.registry import resolve_mapper

        spec = self._spec(resolve_mapper("blocked"))
        digest = spec.fingerprint()
        assert isinstance(digest, str) and len(digest) == 64


class TestPrune:
    """LRU eviction across every store kind sharing one directory."""

    @staticmethod
    def _fill(tmp_path, ages):
        """One entry per store kind, mtimes spread by *ages* seconds ago."""
        import os
        import time

        from repro.engine.diskcache import prune  # noqa: F401 - import check

        grid, stencil, _ = _instance()
        edge = DiskEdgeCache(tmp_path)
        edge.store(grid, stencil, np.arange(40, dtype=np.int64).reshape(-1, 2))
        for kind in STORE_KINDS[1:]:
            DiskStore(tmp_path, kind).store(KEY, list(range(50)))
        now = time.time()
        paths = sorted(tmp_path.iterdir())
        assert len(paths) == len(STORE_KINDS)
        for path, age in zip(paths, ages):
            os.utime(path, (now - age, now - age))
        return edge, grid, stencil

    def test_prune_to_zero_clears_every_kind(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [10] * len(STORE_KINDS))
        removed = prune(tmp_path, 0)
        assert sum(removed.values()) == len(STORE_KINDS)
        assert set(removed) == set(STORE_KINDS)
        assert not list(tmp_path.iterdir())

    def test_prune_respects_budget_and_evicts_oldest_first(self, tmp_path):
        from repro.engine.diskcache import prune

        # ages descending with the edge entry oldest
        self._fill(tmp_path, [500, 400, 300, 200, 100])
        sizes = {p.name: p.stat().st_size for p in tmp_path.iterdir()}
        total = sum(sizes.values())
        oldest = max(tmp_path.iterdir(), key=lambda p: 500 - p.stat().st_mtime)
        budget = total - 1  # one eviction suffices
        prune(tmp_path, budget)
        left = {p.name for p in tmp_path.iterdir()}
        assert oldest.name not in left
        assert len(left) == len(STORE_KINDS) - 1
        assert sum(p.stat().st_size for p in tmp_path.iterdir()) <= budget

    def test_prune_under_budget_is_a_no_op(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [10] * len(STORE_KINDS))
        before = sorted(p.name for p in tmp_path.iterdir())
        removed = prune(tmp_path, 1 << 30)
        assert sum(removed.values()) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == before

    def test_load_refreshes_recency(self, tmp_path):
        """A hit bumps mtime, protecting the entry from the next prune."""
        from repro.engine.diskcache import prune

        edge, grid, stencil = self._fill(tmp_path, [500, 100, 100, 100, 100])
        # the edge entry is oldest; a load should move it to the front
        assert edge.load(grid, stencil) is not None
        total = sum(p.stat().st_size for p in tmp_path.iterdir())
        prune(tmp_path, total - 1)
        assert edge.load(grid, stencil) is not None  # survived

    def test_store_load_refreshes_recency(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [100, 500, 100, 100, 100])
        store = DiskStore(tmp_path, STORE_KINDS[1])
        assert store.load(KEY) is not MISSING  # bumps mtime
        total = sum(p.stat().st_size for p in tmp_path.iterdir())
        prune(tmp_path, total - 1)
        assert store.load(KEY) is not MISSING  # survived

    def test_foreign_files_never_touched(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [10] * len(STORE_KINDS))
        foreign = tmp_path / "notes.txt"
        foreign.write_text("keep me")
        prune(tmp_path, 0)
        assert foreign.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["notes.txt"]

    def test_missing_directory_prunes_nothing(self, tmp_path):
        from repro.engine.diskcache import prune

        removed = prune(tmp_path / "never-created", 0)
        assert sum(removed.values()) == 0

    def test_negative_budget_rejected(self, tmp_path):
        from repro.engine.diskcache import prune

        with pytest.raises(ValueError, match="max_bytes"):
            prune(tmp_path, -1)

    def test_ttl_evicts_only_expired_entries(self, tmp_path):
        from repro.engine.diskcache import prune

        # two entries well past the TTL, the rest recent
        self._fill(tmp_path, [5000, 4000, 10, 10, 10])
        removed = prune(tmp_path, ttl=3600)
        assert sum(removed.values()) == 2
        assert len(list(tmp_path.iterdir())) == len(STORE_KINDS) - 2

    def test_ttl_alone_ignores_size(self, tmp_path):
        from repro.engine.diskcache import prune

        self._fill(tmp_path, [10] * len(STORE_KINDS))
        removed = prune(tmp_path, ttl=3600)
        assert sum(removed.values()) == 0
        assert len(list(tmp_path.iterdir())) == len(STORE_KINDS)

    def test_ttl_combines_with_size_budget(self, tmp_path):
        import time

        from repro.engine.diskcache import prune

        # one expired entry; the budget then forces one more eviction
        # among the survivors (oldest first)
        self._fill(tmp_path, [5000, 400, 300, 200, 100])
        survivors_total = sum(
            p.stat().st_size
            for p in tmp_path.iterdir()
            if p.stat().st_mtime > time.time() - 3600
        )
        removed = prune(tmp_path, survivors_total - 1, ttl=3600)
        assert sum(removed.values()) == 2
        assert (
            sum(p.stat().st_size for p in tmp_path.iterdir())
            <= survivors_total - 1
        )

    def test_no_policy_rejected(self, tmp_path):
        from repro.engine.diskcache import prune

        with pytest.raises(ValueError, match="max_bytes, ttl"):
            prune(tmp_path)

    def test_non_positive_ttl_rejected(self, tmp_path):
        from repro.engine.diskcache import prune

        with pytest.raises(ValueError, match="ttl"):
            prune(tmp_path, ttl=0)
