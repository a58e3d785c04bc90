"""Untimed preparation: the model, training state, delta logs and probe
queries, plus the held-out query sets each run draws from.

The trained artifacts depend only on the program's source, so they are
built once per checkout and cached under ``.bench_build/perfbench``,
keyed by a digest of ``src/repro``. Held-out inputs are generated per run
from the run's seed; their log seed is offset so it can never be the
training seed.

Probe queries let ``refresh-routed`` prove that reads follow reloads:
for each refresh they are held-out queries (from a log of their own
seed) that the new generation answers differently from the one before,
so a server that applied the reload late, or never, fails the check.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path

TRAIN_SEED = 7
TRAIN_INTENTS = 6000
#: Share of the training log in the base build; the rest feeds deltas.
BASE_SHARE = 0.40
#: One delta per round of a run (``phases.ROUNDS``).
DELTA_COUNT = 12
#: Each workload's delta size, as a share of the training log: the 1% and
#: 5% deltas of the repo's incremental-training benchmark (R13). Twelve 5%
#: deltas use up the 60% the base leaves out.
WORKLOAD_DELTA = {"delta-1pct": 0.01, "delta-5pct": 0.05}
HELDOUT_INTENTS = 40000
HELDOUT_SEED_OFFSET = 1_000_000
#: The probe log: held out as well, and never a run's held-out log
#: (run seeds are not negative).
PROBE_SEED = HELDOUT_SEED_OFFSET - 1
PROBE_INTENTS = 10000
PROBES_PER_REFRESH = 8


@dataclass(frozen=True)
class Prepared:
    """Paths of the cached training artifacts."""

    snapshot: Path
    state: Path
    #: Workload name -> its delta logs, in the order they are folded.
    deltas: dict[str, tuple[Path, ...]]
    probes_file: Path

    def probes(self, workload: str) -> list[list[str]]:
        """For each refresh of ``workload``, the probe queries its new
        generation answers differently from the previous one."""
        return json.loads(self.probes_file.read_text())[workload]


@dataclass(frozen=True)
class Heldout:
    """One run's held-out queries: every distinct query in a seeded
    order, and the same queries with their log frequencies for weighted
    draws."""

    distinct: list[str]
    queries: list[str]
    cumulative: list[int]

    def sampler(self, seed: object):
        """A seeded function drawing queries by held-out log frequency."""
        rng = random.Random(f"{seed}")
        total = self.cumulative[-1]
        queries, cumulative = self.queries, self.cumulative

        def draw() -> str:
            return queries[bisect_left(cumulative, rng.random() * total)]

        return draw


def source_digest(repo_root: Path) -> str:
    """Digest of the program's source and of the prep recipe."""
    digest = hashlib.sha256()
    recipe = (TRAIN_SEED, TRAIN_INTENTS, BASE_SHARE, DELTA_COUNT, sorted(WORKLOAD_DELTA.items()),
              PROBE_SEED, PROBE_INTENTS, PROBES_PER_REFRESH)
    digest.update(repr(recipe).encode())
    package = repo_root / "src" / "repro"
    for path in sorted(package.rglob("*.py")):
        digest.update(path.relative_to(package).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_prepared(repo_root: Path, cache_root: Path) -> Prepared:
    """Build (once) and return the training artifacts for this source."""
    target = cache_root / f"prep-{source_digest(repo_root)}"
    prepared = Prepared(
        snapshot=target / "g1.hdms",
        state=target / "g1.hdmt",
        deltas={
            workload: tuple(target / f"{workload}.{k}.jsonl" for k in range(1, DELTA_COUNT + 1))
            for workload in WORKLOAD_DELTA
        },
        probes_file=target / "probes.json",
    )
    if (target / "DONE").exists():
        return prepared
    staging = cache_root / f"prep-staging-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir(parents=True)
    try:
        _build(staging)
        (staging / "DONE").write_text("ok\n")
        shutil.rmtree(target, ignore_errors=True)
        staging.rename(target)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return prepared


def _build(out: Path) -> None:
    from repro.core.pipeline import TrainingConfig
    from repro.querylog.generator import LogConfig, generate_log
    from repro.querylog.models import QueryLog
    from repro.querylog.storage import load_query_log, save_query_log
    from repro.runtime.compiled import CompiledDetector
    from repro.runtime.lineage import save_versioned_snapshot
    from repro.taxonomy.builder import build_from_seed
    from repro.training.incremental import IncrementalTrainer

    taxonomy = build_from_seed()
    log = generate_log(taxonomy, LogConfig(seed=TRAIN_SEED, num_intents=TRAIN_INTENTS))
    records = list(log.records())
    cut = int(len(records) * BASE_SHARE)

    def log_of(chunk) -> QueryLog:
        part = QueryLog()
        for record in chunk:
            part.add_record(record.query, record.frequency, record.clicks)
        return part

    base = log_of(records[:cut])
    trainer = IncrementalTrainer(base, taxonomy, TrainingConfig())
    trainer.save(out / "g1.hdmt")
    compiled = trainer.model.compile()
    try:
        save_versioned_snapshot(
            compiled, out / "g1.hdms", generation=1, record_count=base.num_queries
        )
    finally:
        compiled.close()
    for workload, share in WORKLOAD_DELTA.items():
        size = int(len(records) * share)
        for k in range(DELTA_COUNT):
            chunk = records[cut + k * size : cut + (k + 1) * size]
            save_query_log(log_of(chunk), out / f"{workload}.{k + 1}.jsonl", include_gold=False)

    probe_log = generate_log(taxonomy, LogConfig(seed=PROBE_SEED, num_intents=PROBE_INTENTS))
    candidates = sorted({record.query for record in probe_log.records()})
    first = _answers(CompiledDetector.load_snapshot(out / "g1.hdms"), candidates)
    probes = {}
    for workload in WORKLOAD_DELTA:
        trainer = IncrementalTrainer.load(out / "g1.hdmt")
        before = first
        probes[workload] = []
        for k in range(DELTA_COUNT):
            trainer.fold(load_query_log(out / f"{workload}.{k + 1}.jsonl", include_gold=False))
            after = _answers(trainer.model.compile(), candidates)
            changed = [query for query, old, new in zip(candidates, before, after) if old != new]
            probes[workload].append(changed[:PROBES_PER_REFRESH])
            before = after
    (out / "probes.json").write_text(json.dumps(probes, indent=1))


def _answers(compiled, queries: list[str]) -> list[str]:
    """A compiled detector's answer to each query, in the form answers
    are checked; closes the detector."""
    from repro.serving.http import detection_payload

    from perfbench.verify import canonical

    try:
        return [canonical(detection_payload(detection)) for detection in compiled.detect_batch(queries)]
    finally:
        compiled.close()


def heldout(seed: int) -> Heldout:
    """The held-out inputs of one run with ``seed``, at the training
    log's skew (the generator's default)."""
    from repro.querylog.generator import LogConfig, generate_log
    from repro.taxonomy.builder import build_from_seed

    log_seed = HELDOUT_SEED_OFFSET + seed
    if log_seed == TRAIN_SEED:
        raise ValueError(f"seed {seed} maps onto the training log's seed")
    config = LogConfig(seed=log_seed, num_intents=HELDOUT_INTENTS)
    records = list(generate_log(build_from_seed(), config).records())
    queries = [record.query for record in records]
    cumulative: list[int] = []
    total = 0
    for record in records:
        total += record.frequency
        cumulative.append(total)
    distinct = sorted(set(queries))
    random.Random(f"distinct-{seed}").shuffle(distinct)
    return Heldout(distinct=distinct, queries=queries, cumulative=cumulative)
