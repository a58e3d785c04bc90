"""The traced per-layer sweep: one query set pushed through each layer in
turn, engine → ``detect_batch`` → service → HTTP → replica → router(1),
with spans recorded around every call the benchmark makes into a layer.

Where a layer calls the next one in-process, the benchmark hands it a thin
wrapper (a detector for the service, a replica client for the router) that
records the inner call as a child span, so each layer's self time is its
span minus its children. Every answer is kept for checking.
"""

from __future__ import annotations

import asyncio
import shutil
from time import perf_counter

from perfbench import procs
from perfbench.client import HttpClient
from perfbench.phases import GEN1, Context, Phase, answer_of
from perfbench.stats import median
from perfbench.verify import canonical, canonical_body

SWEEP_QUERIES = 768
CHUNK = 256
REPEATS = 3


class _SpannedDetector:
    """Delegates to a detector; records each ``detect_batch`` as a child
    of the service span that is currently open (one caller, so at most
    one is)."""

    def __init__(self, detector, tracer) -> None:
        self._detector = detector
        self._tracer = tracer
        self.parent: int | None = None

    def detect_batch(self, texts, *args, **kwargs):
        started = perf_counter()
        try:
            return self._detector.detect_batch(texts, *args, **kwargs)
        finally:
            self._tracer.record("runtime.compiled.detect_batch", started, perf_counter(),
                                parent=self.parent)

    def __getattr__(self, name):
        return getattr(self._detector, name)


def sweep(ctx: Context) -> tuple[Phase, dict[str, float], dict[str, float]]:
    """Run the sweep; return its answers, the per-layer metrics it
    measures, and the waterfall (median µs per query per layer)."""
    from repro.runtime.compiled import CompiledDetector

    tracer = ctx.tracer
    queries = ctx.measured_queries()[:SWEEP_QUERIES]
    phase = Phase("layers")
    layer: dict[str, float] = {}
    spans_from = len(tracer.spans)

    def keep(query: str, payload: str | None) -> None:
        phase.sent += 1
        phase.failed += payload is None
        phase.answers.append((GEN1, query, payload))

    # Engine: one-shot detect on cold queries.
    detector = CompiledDetector.load_snapshot(ctx.snapshot)
    try:
        for index, query in enumerate(queries):
            with tracer.span("runtime.compiled.detect", request=f"sweep-{index}"):
                detection = detector.detect(query)
            keep(query, answer_of(detection))
    finally:
        detector.close()

    # Vectorized engine: build cost, then whole chunks.
    from repro.runtime.vectorized import VectorizedDetector

    builds = []
    for _ in range(REPEATS):
        detector = CompiledDetector.load_snapshot(ctx.snapshot)
        started = perf_counter()
        engine = VectorizedDetector(detector)
        builds.append(perf_counter() - started)
        detector.close()
    detector = CompiledDetector.load_snapshot(ctx.snapshot)
    try:
        engine = VectorizedDetector(detector)
        per_query = []
        for first in range(0, len(queries) - CHUNK + 1, CHUNK):
            chunk = queries[first : first + CHUNK]
            started = perf_counter()
            with tracer.span("runtime.vectorized.detect_batch", request=f"sweep-chunk-{first // CHUNK}"):
                detections = engine.detect_batch(chunk)
            per_query.append((perf_counter() - started) / len(chunk))
            for query, detection in zip(chunk, detections):
                keep(query, answer_of(detection))
    finally:
        detector.close()
    layer["runtime.vectorized.engine_build_ms"] = median(builds) * 1e3
    layer["runtime.vectorized.us_per_query.b256"] = median(per_query) * 1e6

    layer.update(_snapshot_io(ctx))
    service_layer = asyncio.run(_service_pass(ctx, queries, keep))
    layer.update(service_layer)
    layer.update(_http_pass(ctx, queries, keep))
    layer.update(asyncio.run(_replica_pass(ctx, queries, keep)))
    layer.update(asyncio.run(_router_pass(ctx, queries, keep)))
    layer.update(_training(ctx))

    spans = tracer.spans[spans_from:]
    own = tracer.self_time_by_name()
    durations: dict[str, list[float]] = {}
    for span in spans:
        durations.setdefault(span["name"], []).append(span["end"] - span["start"])
    detect_us = median(durations["runtime.compiled.detect"]) * 1e6
    service_us = median(durations["serving.service.detect"]) * 1e6
    http_us = median(durations["serving.http.detect"]) * 1e6
    replica_us = median(durations["serving.replica.request"]) * 1e6
    layer["runtime.compiled.detect_us"] = detect_us
    layer["serving.service.overhead_us"] = median(own["serving.service.detect"]) * 1e6
    layer["serving.http.overhead_us"] = http_us - service_us
    layer["serving.replica.frame_roundtrip_us"] = replica_us
    layer["serving.router.overhead_us"] = median(own["serving.router.detect"]) * 1e6
    waterfall = {
        "engine.detect": detect_us,
        "detect_batch.b256": layer["runtime.vectorized.us_per_query.b256"],
        "service": service_us,
        "http": http_us,
        "replica": replica_us,
        "router(1)": median(durations["serving.router.detect"]) * 1e6,
    }
    return phase, layer, waterfall


def _snapshot_io(ctx: Context) -> dict[str, float]:
    from repro.runtime.snapshot import load_snapshot, save_snapshot

    loads, saves = [], []
    for _ in range(REPEATS):
        started = perf_counter()
        detector = load_snapshot(ctx.snapshot)
        loads.append(perf_counter() - started)
        target = ctx.run_dir / "resaved.hdms"
        started = perf_counter()
        save_snapshot(detector, target)
        saves.append(perf_counter() - started)
        detector.close()
        target.unlink()
    return {"runtime.snapshot.load_ms": median(loads) * 1e3,
            "runtime.snapshot.save_ms": median(saves) * 1e3}


async def _service_pass(ctx: Context, queries, keep) -> dict[str, float]:
    from repro.runtime.compiled import CompiledDetector
    from repro.serving import DetectionService

    detector = CompiledDetector.load_snapshot(ctx.snapshot)
    spanned = _SpannedDetector(detector, ctx.tracer)
    service = DetectionService(spanned)
    try:
        for index, query in enumerate(queries):
            with ctx.tracer.span("serving.service.detect", request=f"sweep-{index}") as span_id:
                spanned.parent = span_id
                detection = await service.detect(query)
            keep(query, answer_of(detection))
        stages = service.stats().get("stages", {})
    finally:
        await service.close()
        detector.close()
    return {
        "serving.batcher.queue_wait_us": stages.get("queue_wait", {}).get("p50_us", 0.0),
        "serving.service.detect_stage_us": stages.get("detect", {}).get("p50_us", 0.0),
    }


def _http_pass(ctx: Context, queries, keep) -> dict[str, float]:
    """Requests over ``queries``, each followed by one untraced request
    for a fresh query: the ratio of their medians is the tracing
    overhead."""
    program = procs.Program(ctx.repo_root, ["serve", "--snapshot", str(ctx.snapshot), "--port", "0"],
                            ctx.log("sweep-serve"))
    fresh = ctx.measured_queries()[SWEEP_QUERIES : 2 * SWEEP_QUERIES]
    traced, untraced = [], []
    try:
        client = HttpClient(*program.wait_ready())
        try:
            for index, (query, other) in enumerate(zip(queries, fresh)):
                started = perf_counter()
                with ctx.tracer.span("serving.http.detect", request=f"sweep-{index}"):
                    status, body = client.detect(query)
                traced.append(perf_counter() - started)
                keep(query, canonical_body(body) if status == 200 else None)
                started = perf_counter()
                status, body = client.detect(other)
                untraced.append(perf_counter() - started)
                keep(other, canonical_body(body) if status == 200 else None)
        finally:
            client.close()
    finally:
        program.stop()
    return {"harness.tracing_overhead": median(traced) / median(untraced) - 1.0}


async def _start_replica(ctx: Context, name: str) -> tuple[procs.Program, str, int]:
    """Launch ``repro replica`` on the base snapshot; wait for its port."""
    program = procs.Program(ctx.repo_root, ["replica", "--snapshot", str(ctx.snapshot)],
                            ctx.log(name))
    try:
        host, port = await asyncio.to_thread(program.wait_ready, procs.REPLICA_READY)
    except BaseException:
        program.stop()
        raise
    return program, host, port


async def _replica_pass(ctx: Context, queries, keep) -> dict[str, float]:
    from repro.serving.replica import encode_frame, read_frame
    from repro.serving.router import ReplicaClient

    program, host, port = await _start_replica(ctx, "sweep-replica")
    codec = []
    try:
        client = ReplicaClient(host, port)
        await client.connect()
        try:
            for index, query in enumerate(queries):
                with ctx.tracer.span("serving.replica.request", request=f"sweep-{index}"):
                    response = await client.request({"op": "detect", "query": query}, timeout=30)
                result = response.get("result") if response.get("ok") else None
                keep(query, canonical(result) if isinstance(result, dict) else None)
                started = perf_counter()
                reader = asyncio.StreamReader()
                reader.feed_data(encode_frame(response))
                await read_frame(reader)
                codec.append(perf_counter() - started)
        finally:
            await client.close()
    finally:
        program.stop()
    return {"serving.replica.codec_us": median(codec) * 1e6}


async def _router_pass(ctx: Context, queries, keep) -> dict[str, float]:
    from repro.serving.router import ConsistentHashRing, Router

    program, host, port = await _start_replica(ctx, "sweep-router-replica")
    tracer = ctx.tracer
    try:
        router = Router()
        router.attach(host, port)
        await router.start()
        try:
            client = router.replicas[0].client
            request = client.request
            current: list[int | None] = [None]

            async def spanned_request(payload, timeout=None):
                started = perf_counter()
                try:
                    return await request(payload, timeout)
                finally:
                    if payload.get("op") == "detect":
                        tracer.record("serving.replica.request.routed", started, perf_counter(),
                                      parent=current[0])

            client.request = spanned_request
            for index, query in enumerate(queries):
                with tracer.span("serving.router.detect", request=f"sweep-{index}") as span_id:
                    current[0] = span_id
                    payload = await router.detect(query)
                keep(query, canonical(payload))
            reloads = []
            for _ in range(REPEATS):
                started = perf_counter()
                await router.reload(str(ctx.snapshot))
                reloads.append(perf_counter() - started)
        finally:
            await router.close()
    finally:
        program.stop()
    ring = ConsistentHashRing(["r0"])
    started = perf_counter()
    for query in queries:
        ring.node_for(query)
    ring_us = (perf_counter() - started) / len(queries) * 1e6
    return {"serving.router.ring_lookup_us": ring_us,
            "serving.router.reload_ms": median(reloads) * 1e3}


def _training(ctx: Context) -> dict[str, float]:
    from repro.querylog.storage import load_query_log
    from repro.training.incremental import IncrementalTrainer

    state = ctx.run_dir / "sweep-state.hdmt"
    shutil.copyfile(ctx.state, state)
    delta = load_query_log(ctx.deltas[0], include_gold=False)
    started = perf_counter()
    trainer = IncrementalTrainer.load(state)
    load_s = perf_counter() - started
    timings: dict[str, float] = {}
    started = perf_counter()
    trainer.fold(delta, timings=timings)
    fold_s = perf_counter() - started
    started = perf_counter()
    trainer.save(state)
    save_s = perf_counter() - started
    state.unlink()
    layer = {"training.incremental.load_s": load_s,
             "training.incremental.fold_s": fold_s,
             "training.incremental.save_s": save_s}
    for stage in ("mine", "derive", "features", "classifier"):
        layer[f"training.incremental.fold.{stage}_s"] = timings.get(stage, 0.0)
    return layer
