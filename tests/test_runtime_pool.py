"""Persistent pool serving: the one multi-process batch path.

The pool contract: results identical to in-process detection, workers
reused across batches, deterministic shutdown, and worker failures
surfaced as :class:`~repro.errors.ShardError` naming the offending
chunk — never a hang.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.errors import ModelError, ShardError
from repro.runtime import DetectorPool
from repro.runtime.pool import MAX_CHUNK_SIZE


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


@pytest.fixture(scope="module")
def snapshot_path(compiled, tmp_path_factory):
    path = tmp_path_factory.mktemp("pool") / "model.hdms"
    compiled.save_snapshot(path)
    return path


@pytest.fixture(scope="module")
def queries(eval_examples):
    return [example.query for example in eval_examples[:24]]


class TestDetectorPool:
    def test_batches_match_serial_and_workers_persist(
        self, snapshot_path, compiled, queries
    ):
        serial = [compiled.detect(query) for query in queries]
        with DetectorPool(snapshot_path, workers=2) as pool:
            first = pool.detect_batch(queries)
            executor = pool._executor
            second = pool.detect_batch(queries)
            assert pool._executor is executor  # reused, not respawned
        assert first == serial
        assert second == serial

    def test_dedupes_and_preserves_order(self, snapshot_path):
        texts = ["hotel paris", "iphone 5s", "hotel paris"]
        with DetectorPool(snapshot_path, workers=2) as pool:
            out = pool.detect_batch(texts)
        assert [d.query for d in out] == texts
        assert out[0] is out[2]  # duplicate shares the Detection

    def test_empty_batch_never_spawns(self, snapshot_path):
        pool = DetectorPool(snapshot_path, workers=4)
        assert pool.detect_batch([]) == []
        assert pool._executor is None
        pool.close()

    def test_warm_spawns_eagerly(self, snapshot_path):
        with DetectorPool(snapshot_path, workers=2) as pool:
            pool.warm()
            assert pool._executor is not None
            assert pool.detect_batch(["iphone 5s"])[0].query == "iphone 5s"

    def test_close_is_idempotent_and_final(self, snapshot_path):
        pool = DetectorPool(snapshot_path, workers=2)
        pool.close()
        pool.close()
        assert pool.closed
        with pytest.raises(ShardError, match="closed"):
            pool.detect_batch(["x"])

    def test_invalid_arguments(self, snapshot_path):
        with pytest.raises(ValueError, match="workers"):
            DetectorPool(snapshot_path, workers=0)
        with pytest.raises(ValueError, match="chunksize"):
            DetectorPool(snapshot_path, workers=2, chunksize=0)

    def test_bad_snapshot_fails_in_parent(self, tmp_path):
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(b"not a snapshot")
        with pytest.raises(ModelError):
            DetectorPool(bad, workers=2)

    def test_worker_failure_raises_shard_error_and_closes(self, snapshot_path):
        pool = DetectorPool(snapshot_path, workers=2)
        with pytest.raises(ShardError, match="detection worker failed on chunk"):
            # a non-string text blows up inside the worker's detect()
            pool.detect_batch(["fine query", None])
        assert pool.closed

    def test_chunking_covers_input_in_order(self, snapshot_path):
        pool = DetectorPool(snapshot_path, workers=3)
        items = [f"q{i}" for i in range(500)]
        chunks = pool._chunk(items)
        assert [item for chunk in chunks for item in chunk] == items
        assert max(len(chunk) for chunk in chunks) <= MAX_CHUNK_SIZE
        assert len(chunks) >= pool.workers  # enough chunks to keep all busy
        pool.close()

    def test_explicit_chunksize_is_respected(self, snapshot_path):
        pool = DetectorPool(snapshot_path, workers=2, chunksize=3)
        assert [len(c) for c in pool._chunk(list(range(8)))] == [3, 3, 2]
        pool.close()


class TestDetectorPoolHotSwap:
    """swap_snapshot lifecycle: a running batch finishes on the old
    snapshot's workers; batches after the swap spawn fresh workers on
    the new file; a bad file never disturbs the serving pool."""

    @pytest.fixture()
    def second_snapshot(self, snapshot_path, tmp_path):
        # A byte-copy, not save_snapshot(): re-saving through the shared
        # `compiled` fixture would silently repoint its snapshot_path.
        path = tmp_path / "next.hdms"
        path.write_bytes(snapshot_path.read_bytes())
        return path

    def test_swap_points_new_batches_at_new_snapshot(
        self, snapshot_path, second_snapshot, compiled, queries
    ):
        with DetectorPool(snapshot_path, workers=2) as pool:
            before = pool.detect_batch(queries[:6])
            old_executor = pool._executor
            pool.swap_snapshot(second_snapshot)
            assert pool.snapshot_path == str(second_snapshot)
            assert pool._executor is None  # next batch spawns on the new file
            after = pool.detect_batch(queries[:6])
            assert pool._executor is not old_executor
        assert before == after == [compiled.detect(q) for q in queries[:6]]

    def test_swap_before_first_batch_is_cheap(
        self, snapshot_path, second_snapshot
    ):
        pool = DetectorPool(snapshot_path, workers=2)
        pool.swap_snapshot(second_snapshot)  # no executor to retire yet
        assert pool.detect_batch(["iphone 5s"])[0].query == "iphone 5s"
        pool.close()

    def test_bad_swap_leaves_pool_serving(self, snapshot_path, tmp_path):
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(b"not a snapshot")
        with DetectorPool(snapshot_path, workers=2) as pool:
            pool.detect_batch(["hotel paris"])
            executor = pool._executor
            with pytest.raises(ModelError):
                pool.swap_snapshot(bad)
            assert pool.snapshot_path == str(snapshot_path)
            assert pool._executor is executor  # untouched by the refusal
            assert pool.detect_batch(["hotel paris"])[0].query == "hotel paris"

    def test_swap_on_closed_pool_raises(self, snapshot_path, second_snapshot):
        pool = DetectorPool(snapshot_path, workers=2)
        pool.close()
        with pytest.raises(ShardError, match="closed"):
            pool.swap_snapshot(second_snapshot)


class TestCompiledDetectorServing:
    def test_workers_route_through_pool_and_match(self, model, queries):
        # a never-saved detector writes its own temp snapshot on demand
        fresh = model.compile()
        subset = queries[:8]
        with fresh:
            sharded = fresh.detect_batch(subset, workers=2)
            assert sharded == [fresh.detect(query) for query in subset]
            path = fresh.snapshot_path
            assert path is not None and Path(path).exists()
        # close() (via the context manager) removed the owned temp file
        assert not Path(path).exists()
        assert fresh.snapshot_path is None

    def test_explicit_save_backs_pools_without_ownership(
        self, compiled, snapshot_path, queries
    ):
        # the module detector was save_snapshot()-ed by the fixture, so
        # its pools map that file and close() must leave it in place
        out = compiled.detect_batch(queries[:6], workers=2)
        assert out == [compiled.detect(query) for query in queries[:6]]
        assert compiled.snapshot_path == str(snapshot_path)
        compiled.close()
        assert snapshot_path.exists()

    def test_pool_is_recreated_after_failure(self, compiled):
        with pytest.raises(ShardError):
            compiled.detect_batch(["ok", None], workers=2)
        # the failed pool closed itself; the next call must not reuse it
        out = compiled.detect_batch(["ok", "iphone 5s"], workers=2)
        assert [d.query for d in out] == ["ok", "iphone 5s"]
        compiled.close()

    def test_saved_snapshot_backs_the_pool(self, model, queries, tmp_path):
        path = tmp_path / "served.hdms"
        detector = model.compile(snapshot_path=path)
        with detector:
            assert detector.snapshot_path == str(path)
            out = detector.detect_batch(queries[:6], workers=2)
            assert out == [detector.detect(query) for query in queries[:6]]
        assert path.exists()  # close() never deletes a user-saved snapshot

    def test_pickle_roundtrip_drops_live_pools(self, compiled, queries):
        compiled.detect_batch(queries[:4], workers=2)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._pools == {}
        assert not clone._owns_snapshot  # must not delete the original's file
        assert clone.detect(queries[0]) == compiled.detect(queries[0])
        compiled.close()


class TestFinalizeGuards:
    """Abandoned detectors must release their pools and temp snapshot at
    garbage collection, not only via an explicit close()."""

    def test_abandoned_detector_releases_snapshot_and_pools(self, model):
        import gc
        import os

        detector = model.compile()
        detector.detect_batch(["iphone 5s case", "hotels in rome"], workers=2)
        path = detector.snapshot_path
        assert path is not None and os.path.exists(path)
        pools = detector._pools
        pool = next(iter(pools.values()))
        assert not pool.closed
        del detector
        gc.collect()
        assert not os.path.exists(path)  # temp snapshot removed
        assert pool.closed  # worker processes shut down
        assert pools == {}

    def test_close_fires_and_detaches_finalizers(self, model):
        detector = model.compile()
        detector.detect_batch(["iphone 5s case", "hotels in rome"], workers=2)
        snapshot_finalizer = detector._snapshot_finalizer
        pool_finalizer = detector._pool_finalizer
        assert snapshot_finalizer.alive and pool_finalizer.alive
        detector.close()
        assert not snapshot_finalizer.alive and not pool_finalizer.alive
        assert detector._snapshot_finalizer is None
        assert detector._pool_finalizer is None
        detector.close()  # idempotent

    def test_pools_respawn_after_close(self, model, queries):
        detector = model.compile()
        with detector:
            first = detector.detect_batch(queries[:4], workers=2)
            detector.close()
            # a fresh snapshot + pool come up transparently after close()
            second = detector.detect_batch(queries[:4], workers=2)
            assert first == second
            assert detector._pool_finalizer is not None

    def test_pickled_copy_carries_no_finalizers(self, compiled, queries):
        compiled.detect_batch(queries[:4], workers=2)
        clone = pickle.loads(pickle.dumps(compiled))
        assert clone._pool_finalizer is None
        assert clone._snapshot_finalizer is None
        compiled.close()
