"""Sharded, multi-process pair mining with deterministic merge.

A production log refresh cannot wait on a single-core mining pass, so the
log is sharded by a stable hash of the query string (a per-intent/session
proxy: one surface form always lands on the same shard) and each shard is
mined in its own worker process. Workers receive the log once, via the
executor initializer (pickled once per worker, not per task), and a
failed shard surfaces as a :class:`~repro.errors.ShardError` naming the
shard, mirroring :class:`~repro.runtime.pool.DetectorPool`.

Determinism is stronger than "same multiset of pairs": workers tag every
mined batch with the record's position in the log, and the parent replays
the batches miner-major in record order. That reproduces the exact
``PairCollection.add`` sequence of the sequential reference — identical
support sums (to the bit: float accumulation order is preserved) and
identical insertion order — for any worker count.
"""

from __future__ import annotations

import zlib
from collections.abc import Callable, Iterable, Sequence
from concurrent.futures import ProcessPoolExecutor

from repro.errors import ShardError
from repro.mining.pairs import (
    DeletionMiner,
    LexicalPatternMiner,
    MinedPair,
    MiningConfig,
    PairCollection,
)
from repro.querylog.models import QueryLog

#: A mined batch: (record position in the log, pairs mined from it).
RecordBatch = tuple[int, list[MinedPair]]

MinerFactory = Callable[[MiningConfig], Sequence]


def default_miners(config: MiningConfig) -> tuple:
    """The same miner lineup :func:`repro.mining.pairs.mine_pairs` uses."""
    return (DeletionMiner(config), LexicalPatternMiner(config))


def shard_of(query: str, num_shards: int) -> int:
    """Stable shard of a query string (crc32: identical across processes)."""
    return zlib.crc32(query.encode("utf-8")) % num_shards


def mine_shard(
    log: QueryLog,
    miners: Sequence,
    shard_index: int,
    num_shards: int,
) -> list[list[RecordBatch]]:
    """Mine one shard; per-miner record batches tagged for ordered replay."""
    batches: list[list[RecordBatch]] = [[] for _ in miners]
    for position, record in enumerate(log.records()):
        if shard_of(record.query, num_shards) != shard_index:
            continue
        for miner_index, miner in enumerate(miners):
            mined = list(miner.mine_record(log, record))
            if mined:
                batches[miner_index].append((position, mined))
    return batches


def merge_shard_batches(
    shard_results: Iterable[list[list[RecordBatch]]],
) -> PairCollection:
    """Replay shard outputs in the reference's exact ``add`` order.

    The sequential reference runs miner 0 over all records, then miner 1;
    so the merge concatenates each miner's batches across shards, sorts by
    record position, and replays. Sorting is total (positions are unique
    per miner), hence the result is independent of shard assignment.
    """
    per_miner: dict[int, list[RecordBatch]] = {}
    for shard_result in shard_results:
        for miner_index, batches in enumerate(shard_result):
            per_miner.setdefault(miner_index, []).extend(batches)
    collection = PairCollection()
    for miner_index in sorted(per_miner):
        for _, mined in sorted(per_miner[miner_index], key=lambda batch: batch[0]):
            for pair in mined:
                collection.add(pair)
    return collection


_WORKER_STATE: tuple[QueryLog, tuple] | None = None


def _init_mining_worker(
    log: QueryLog, config: MiningConfig, miner_factory: MinerFactory | None
) -> None:
    global _WORKER_STATE
    factory = miner_factory or default_miners
    _WORKER_STATE = (log, tuple(factory(config)))


def _mine_shard_in_worker(shard_index: int, num_shards: int) -> list[list[RecordBatch]]:
    assert _WORKER_STATE is not None, "worker initializer did not run"
    log, miners = _WORKER_STATE
    return mine_shard(log, miners, shard_index, num_shards)


def mine_pairs_sharded(
    log: QueryLog,
    config: MiningConfig | None = None,
    workers: int = 2,
    miner_factory: MinerFactory | None = None,
    mp_context=None,
) -> PairCollection:
    """Mine ``log`` across ``workers`` processes; output is bit-identical
    to :func:`repro.mining.pairs.mine_pairs` for any worker count.

    ``miner_factory`` must be a picklable callable building the miner
    lineup inside each worker (defaults to :func:`default_miners`). A
    worker failure cancels the remaining shards and raises
    :class:`ShardError` naming the failed shard.
    """
    config = config or MiningConfig()
    if workers < 1:
        raise ShardError(f"workers must be positive, got {workers}")
    executor = ProcessPoolExecutor(
        max_workers=workers,
        mp_context=mp_context,
        initializer=_init_mining_worker,
        initargs=(log, config, miner_factory),
    )
    futures = [
        executor.submit(_mine_shard_in_worker, shard, workers)
        for shard in range(workers)
    ]
    shard_results = []
    try:
        for shard, future in enumerate(futures):
            try:
                shard_results.append(future.result())
            except Exception as exc:
                for pending in futures:
                    pending.cancel()
                raise ShardError(
                    f"mining worker failed on shard {shard + 1}/{workers}: {exc}"
                ) from exc
    finally:
        executor.shutdown(wait=True, cancel_futures=True)
    return merge_shard_batches(shard_results).filtered(config.min_pair_support)
