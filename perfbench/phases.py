"""The four workloads every run executes.

- ``lone-http``: one closed-loop client, ``POST /detect`` to
  ``repro serve``, no query repeated. Pays every per-request cost
  (connection, batcher wait, executor hop, scalar detect, JSON); the
  result cache, coalescing, vectorized engine and router do no work.
- ``zipf-open``: seeded Poisson arrivals into an in-process
  ``DetectionService`` at fixed offered rates, queries drawn by held-out
  log frequency, plus the ``max_qps`` ladder. The only workload where the
  result cache, single-flight dedup, admission control and batch
  coalescing work. No HTTP, router or replica.
- ``refresh-routed``: two closed-loop HTTP readers through
  ``repro route --replicas 1``; once a round one of them runs
  ``repro train --append ... --emit-snapshot`` and ``POST /reload``. The
  only workload crossing the router, replica frames, snapshot save/load
  and incremental training. After each reload's ack the refreshing reader
  also sends the probe queries its new generation answers differently
  from the old one, so the generation check can catch a stale server.
- ``batch-offline``: in-process ``detect_batch`` over distinct queries in
  chunks of 8 and of 256, each chunk size on its own freshly loaded
  detector. The only workload where the vectorized engine does most of
  the work.

Every workload first sets its program up :data:`SETUP_REPEATS` times
(the median is its set-up time) and keeps the last one running. The run
then takes :data:`ROUNDS` rounds, giving each workload one slice of its
time budget per round, so every metric samples the whole run rather than
one stretch of it: a few seconds of interference on the shared host
touch every metric a little instead of one metric a lot. The two
closed-loop workloads do a fixed number of requests per round instead of
measuring for their slice. Answers are kept for checking after the run.

CPU-bound figures are reported at the reference host's speed
(``perfbench/speed.py``): each request's latency, set-up, refresh, reload
and batch chunk is scaled by the slowdown the speed probes measured over
its stretch of the run. Memory and the open-loop latencies are not; the
open-loop rates are (see :class:`ZipfOpen`).
"""

from __future__ import annotations

import asyncio
import gc
import json
import math
import shutil
import threading
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from time import perf_counter

from perfbench import procs
from perfbench.client import HttpClient, open_loop, poisson_schedule
from perfbench.speed import HostSpeed
from perfbench.stats import (
    FAILED_LATENCY_S,
    allowed_generations,
    capacity,
    interquartile_mean,
    highest_passing,
    median,
    percentile,
    rung_passes,
)
from perfbench.verify import canonical, canonical_body

SETUP_REPEATS = 3

#: Share of ``--seconds`` each workload measures for, over all rounds.
BUDGET = {
    "lone-http": 0.17,
    "zipf-open.r1k": 0.11,
    "zipf-open.r4k": 0.11,
    "zipf-open.ladder": 0.14,
    "refresh-routed": 0.27,
    "batch-offline": 0.20,
}

FIXED_RATES = {"r1k": 1000.0, "r4k": 4000.0}
#: Requests each fixed-rate service answers, untimed, before the first
#: round, 64 at a time: its result cache starts warm, so the rounds
#: measure one steady state instead of a cache filling up (where the
#: median jumps from a miss's latency to a hit's).
CACHE_WARMUP = 8000
LATENCY_LIMIT_MS = 5.0
#: Offered rates of the ``max_qps`` ladder; every round searches it anew.
LADDER = tuple(float(rate) for rate in range(2000, 14001, 1000))
#: Rounds per run. Every latency metric pools its rounds' requests (the
#: closed loops' scaled by their round's slowdown): a slow stretch of the
#: host touches every metric a little.
ROUNDS = 12
#: Outstanding requests at which an open-loop step stops sending; below
#: the service's default admission limit, so the ladder never makes the
#: program refuse work.
BACKLOG_CAP = 512
#: Requests per second of budget of the two closed-loop workloads. Their
#: rounds are a fixed amount of work (about their budget at the pace the
#: 2-vCPU VM the benchmark was built on usually keeps), so the programs'
#: caches, and their memory, fill the same way in every run.
REQUEST_RATE = {"lone-http": 400.0, "refresh-routed": 480.0}
#: Share of a round's reads the refreshing reader sends before it folds
#: that round's delta and reloads (one delta per round); the other reader
#: sends the rest, beside the refresh.
REFRESH_AT = 0.2
#: Reloads per refresh: the new snapshot, then the same file again, so a
#: run times three hot swaps per refresh.
RELOADS_PER_REFRESH = 3
CHUNK_SIZES = (8, 256)
#: Speed probes taken before and after a set-up, which the benchmark
#: cannot probe inside, and before an open-loop step.
BRACKET_PROBES = 5
#: An open-loop step offers its rate at the speed the probes of this many
#: seconds before it measured (the workload before it probes all along).
RATE_LOOKBACK_S = 0.5
#: Held-out queries reserved at the end of the distinct list for warm-up.
WARMUP = 256

#: Allowed generations are kept as sorted tuples of ints: the collector
#: stops tracking those, and the answer records holding them.
GEN1 = (1,)


def per_round(rounds: list[list[float]], q: float) -> list[float]:
    """The ``q``-th percentile of each round's samples."""
    return [percentile(samples, q) for samples in rounds if samples]


def scaled_percentile(rounds: list[list[float]], slowdowns: list[float], q: float) -> float:
    """The ``q``-th percentile of every round's latencies at the reference
    speed: each divided by the slowdown measured over its round."""
    return percentile([x / slow for samples, slow in zip(rounds, slowdowns) for x in samples], q)


def pooled_percentile(rounds: list[list[float]], q: float) -> float:
    """The ``q``-th percentile of every round's latencies as measured."""
    return percentile([x for samples in rounds for x in samples], q)


def probe_before(speed: HostSpeed) -> float:
    """Open a stretch the benchmark cannot probe inside (a set-up) with a
    burst of speed probes; return its start."""
    since = perf_counter()
    speed.probe(BRACKET_PROBES)
    return since


def probe_after(speed: HostSpeed, since: float) -> float:
    """Close the stretch opened at ``since`` with another burst; return
    the slowdown over both bursts."""
    speed.probe(BRACKET_PROBES)
    return speed.slowdown(since, perf_counter())


@dataclass
class Phase:
    """What one workload measured and the answers it received."""

    name: str
    metrics: dict[str, float] = field(default_factory=dict)
    #: The scaled metrics as measured, before scaling (for the record).
    unscaled: dict[str, float] = field(default_factory=dict)
    #: Each set-up's time at the reference speed (as measured in notes).
    setup_s: list[float] = field(default_factory=list)
    sent: int = 0
    failed: int = 0
    #: ``(allowed generations, query, canonical answer or None)``.
    answers: list[tuple[tuple[int, ...], str, str | None]] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)
    notes: dict[str, object] = field(default_factory=dict)

    def add_setup(self, seconds: float, slowdown: float) -> None:
        self.setup_s.append(seconds / slowdown)
        self.notes.setdefault("setup_s.measured", []).append(seconds)


@dataclass
class Context:
    repo_root: Path
    run_dir: Path
    snapshot: Path
    state: Path
    deltas: tuple[Path, ...]
    #: Per refresh, probe queries its new generation answers differently.
    probes: list[list[str]]
    heldout: object
    seed: int
    seconds: float
    tracer: object
    speed: HostSpeed = field(default_factory=HostSpeed)

    def slice_s(self, step: str) -> float:
        """One round's share of ``step``'s budget, in seconds."""
        return self.seconds * BUDGET[step] / ROUNDS

    def requests_per_round(self, step: str) -> int:
        """One round's requests of a closed-loop workload."""
        return max(10, round(self.slice_s(step) * REQUEST_RATE[step]))

    def measured_queries(self) -> list[str]:
        return self.heldout.distinct[:-WARMUP]

    def warmup_queries(self) -> list[str]:
        return self.heldout.distinct[-WARMUP:]

    def log(self, name: str) -> Path:
        return self.run_dir / f"{name}.log"


def run_workloads(ctx: Context) -> list[Phase]:
    """Set every workload up, run the rounds, then collect the results.
    Programs still running are stopped however the run ends.

    What the harness keeps between slices is answer strings and plain
    tuples, which the collector does not track, so collections during an
    in-process slice scan the detectors and services, as they would in
    the program's own process."""
    workloads = [LoneHttp(ctx), ZipfOpen(ctx), RefreshRouted(ctx), BatchOffline(ctx)]
    try:
        for workload in workloads:
            workload.set_up()
        gc.collect()
        for round_index in range(ROUNDS):
            for workload in workloads:
                workload.run_slice(round_index)
        return [workload.finish() for workload in workloads]
    finally:
        for workload in workloads:
            workload.close()


def answer_of(outcome) -> str | None:
    """A detection's comparison form; ``None`` for a failed request."""
    if outcome is None or isinstance(outcome, Exception):
        return None
    from repro.serving.http import detection_payload

    return canonical(detection_payload(outcome))


def launch_http(ctx: Context, args: list[str], name: str) -> tuple[procs.Program, HttpClient, float]:
    """Launch ``repro <args>``; return it with a client once it has
    answered a first ``/detect``, and the set-up time."""
    program = procs.Program(ctx.repo_root, args, ctx.log(name))
    try:
        client = HttpClient(*program.wait_ready())
        status, _ = client.detect(ctx.warmup_queries()[-1])
        if status != 200:
            raise RuntimeError(f"`repro {args[0]}` answered its first /detect with {status}")
        return program, client, perf_counter() - program.started
    except BaseException:
        program.stop()
        raise


class _HttpWorkload:
    """Set-up shared by the two workloads that launch an HTTP program."""

    args: list[str]

    def __init__(self, ctx: Context, name: str) -> None:
        self.ctx = ctx
        self.phase = Phase(name)
        self.program: procs.Program | None = None
        self.client: HttpClient | None = None

    def set_up(self) -> None:
        for repeat in range(SETUP_REPEATS):
            since = probe_before(self.ctx.speed)
            program, client, setup = launch_http(self.ctx, self.args, self.phase.name)
            self.phase.add_setup(setup, probe_after(self.ctx.speed, since))
            if repeat + 1 < SETUP_REPEATS:
                client.close()
                program.stop()
        self.program, self.client = program, client

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
        if self.program is not None:
            self.program.stop()
        self.program = self.client = None


# ----------------------------------------------------------------------
class LoneHttp(_HttpWorkload):
    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx, "lone-http")
        self.args = ["serve", "--snapshot", str(ctx.snapshot), "--port", "0"]
        self.queries = iter(enumerate(ctx.measured_queries()))
        self.rounds: list[list[float]] = []
        self.windows: list[tuple[float, float]] = []
        self.connects = 0
        self.requests = 0

    def run_slice(self, round_index: int) -> None:
        client, phase, tracer, speed = self.client, self.phase, self.ctx.tracer, self.ctx.speed
        connects, requests = len(client.connect_s), client.requests
        began = perf_counter()
        latencies: list[float] = []
        self.rounds.append(latencies)
        for index, query in islice(self.queries, self.ctx.requests_per_round("lone-http")):
            started = perf_counter()
            status, body = client.detect(query)
            ended = perf_counter()
            tracer.record("client.http.detect", started, ended, request=f"lone-{index}")
            ok = status == 200
            latencies.append(ended - started if ok else FAILED_LATENCY_S)
            phase.sent += 1
            phase.failed += not ok
            phase.answers.append((GEN1, query, canonical_body(body) if ok else None))
            speed.tick()
        self.windows.append((began, perf_counter()))
        self.connects += len(client.connect_s) - connects
        self.requests += client.requests - requests

    def finish(self) -> Phase:
        phase, latencies = self.phase, [x for samples in self.rounds for x in samples]
        status, body = self.client.request("GET", "/stats")
        stats = json.loads(canonical_body(body) or "{}") if status == 200 else {}
        hits = (stats.get("cache") or {}).get("hits")
        slowdowns = [self.ctx.speed.slowdown(*window) for window in self.windows]
        phase.metrics.update(
            {
                "p50_ms": scaled_percentile(self.rounds, slowdowns, 50) * 1e3,
                "rss_mb": self.program.peak_rss_mb(),
            }
        )
        phase.unscaled["p50_ms"] = pooled_percentile(self.rounds, 50) * 1e3
        phase.layer.update(
            {
                "client.p90_ms": scaled_percentile(self.rounds, slowdowns, 90) * 1e3,
                "client.p99_ms": percentile(latencies, 99) * 1e3,
                "serving.http.connect_us": median(self.client.connect_s) * 1e6,
                "serving.http.conns_per_request": self.connects / max(self.requests, 1),
            }
        )
        phase.notes["latency_s"] = latencies
        phase.notes["rounds.slowdown"] = slowdowns
        phase.notes["rounds.p50_ms"] = [v * 1e3 for v in per_round(self.rounds, 50)]
        phase.notes["rounds.p90_ms"] = [v * 1e3 for v in per_round(self.rounds, 90)]
        phase.notes["server_cache_hits"] = hits
        if not isinstance(hits, int):
            phase.notes["invalid"] = f"lone-http: GET /stats ({status}) gave no cache.hits to check"
        elif hits:
            phase.notes["invalid"] = f"lone-http: the server reported {hits} cache hits; no query may repeat"
        self.close()
        return phase


# ----------------------------------------------------------------------
class ZipfOpen:
    """Each fixed-rate stream keeps one service across rounds (its result
    cache keeps warming, as if the stream never paused); every ladder
    probe gets a fresh service.

    The fixed rates are rates at the reference speed: a step offers the
    rate divided by the slowdown measured just before it, so the service
    is as busy on a slow stretch of the host as on a fast one. At 4,000
    q/s as offered it runs close to its capacity on a slow stretch, where
    the queue blows up. The latencies are reported as measured: they are
    mostly the batcher's wait and the event loop's turns, which a slower
    CPU barely moves (scaling them too widened their spread over runs)."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.phase = Phase("zipf-open")
        self.loop = asyncio.new_event_loop()
        self.detector = None
        self.services: dict[str, object] = {}
        self.samplers = {label: ctx.heldout.sampler(f"{ctx.seed}-{label}") for label in FIXED_RATES}
        self.rounds: dict[str, list[list[float]]] = {label: [] for label in FIXED_RATES}
        self.slowdowns: dict[str, list[float]] = {label: [] for label in FIXED_RATES}
        self.lateness: list[float] = []
        self.capacities: list[float] = []
        self.rungs: list[list[dict]] = []

    def set_up(self) -> None:
        from repro.runtime.compiled import CompiledDetector
        from repro.serving import DetectionService

        warm = self.ctx.warmup_queries()[-1]
        for _ in range(SETUP_REPEATS):
            if self.detector is not None:
                self.detector.close()
            since = probe_before(self.ctx.speed)
            started = perf_counter()
            self.detector = CompiledDetector.load_snapshot(self.ctx.snapshot)
            service = DetectionService(self.detector)
            try:
                self.loop.run_until_complete(service.detect(warm))
            finally:
                self.loop.run_until_complete(service.close())
            self.phase.add_setup(perf_counter() - started, probe_after(self.ctx.speed, since))
        self.services = {label: DetectionService(self.detector) for label in FIXED_RATES}
        for label, service in self.services.items():
            self.loop.run_until_complete(self._warm(service, self.ctx.heldout.sampler(
                f"{self.ctx.seed}-{label}-warm")))

    async def _warm(self, service, draw) -> None:
        for _ in range(0, CACHE_WARMUP, 64):
            queries = [draw() for _ in range(64)]
            outcomes = await asyncio.gather(*(service.detect(query) for query in queries),
                                            return_exceptions=True)
            for query, outcome in zip(queries, outcomes):
                self.phase.answers.append((GEN1, query, answer_of(outcome)))
            self.phase.sent += len(queries)
            self.phase.failed += sum(answer_of(outcome) is None for outcome in outcomes)

    def _drive(self, service, rate: float, seconds: float, label: str, draw):
        offsets = poisson_schedule(rate, seconds, f"{self.ctx.seed}-{label}")
        queries = [draw() for _ in offsets]
        target, tracer = service.detect, self.ctx.tracer
        if tracer.enabled:
            span_name = f"client.service.detect.{label.split('.')[0]}"

            async def target(query: str, detect=service.detect):
                with tracer.span(span_name):
                    return await detect(query)

        result = self.loop.run_until_complete(open_loop(target, offsets, queries, BACKLOG_CAP))
        self.phase.sent += result.sent
        self.phase.failed += result.failed
        for query, outcome in zip(result.queries, result.outcomes):
            self.phase.answers.append((GEN1, query, answer_of(outcome)))
        return result

    def run_slice(self, round_index: int) -> None:
        speed = self.ctx.speed
        for label, rate in FIXED_RATES.items():
            speed.probe(BRACKET_PROBES)
            now = perf_counter()
            slow = speed.slowdown(now - RATE_LOOKBACK_S, now)
            self.slowdowns[label].append(slow)
            result = self._drive(self.services[label], rate / slow, self.ctx.slice_s(f"zipf-open.{label}"),
                                 f"{label}.{round_index}", self.samplers[label])
            self.rounds[label].append(result.latency_s)
            self.lateness.extend(result.lateness_s)
        self._search_ladder(round_index)

    def _search_ladder(self, round_index: int) -> None:
        """One binary search of the ladder, each probe on a fresh service
        so every rung starts from the same cold cache; the round's
        capacity is interpolated to where p90 meets the limit."""
        from repro.serving import DetectionService

        probes: list[dict] = []
        seconds = self.ctx.slice_s("zipf-open.ladder") / len(LADDER).bit_length()

        def passes(rate: float) -> bool:
            label = f"rung{rate:.0f}.{round_index}"
            service = DetectionService(self.detector)
            try:
                result = self._drive(service, rate, seconds, label,
                                     self.ctx.heldout.sampler(f"{self.ctx.seed}-{label}"))
            finally:
                self.loop.run_until_complete(service.close())
            passed = rung_passes(result.latency_s, LATENCY_LIMIT_MS, rate, result.backlog_end,
                                 result.aborted)
            probes.append({"rate": rate, "passed": passed, "sent": result.sent, "aborted": result.aborted,
                           "backlog_end": result.backlog_end,
                           "p90_ms": percentile(result.latency_s, 90) * 1e3 if result.sent else math.inf})
            return passed

        best, _ = highest_passing(LADDER, passes)
        p90 = {probe["rate"]: probe["p90_ms"] for probe in probes}
        self.capacities.append(capacity(LADDER, p90, best, LATENCY_LIMIT_MS))
        self.rungs.append(probes)

    def finish(self) -> Phase:
        phase = self.phase
        for label in FIXED_RATES:
            rounds = self.rounds[label]
            phase.metrics[f"p50_ms.{label}"] = pooled_percentile(rounds, 50) * 1e3
            phase.layer[f"serving.service.p90_ms.{label}"] = pooled_percentile(rounds, 90) * 1e3
            phase.notes[f"n.{label}"] = sum(len(samples) for samples in rounds)
            phase.notes[f"rounds.slowdown.{label}"] = self.slowdowns[label]
            phase.notes[f"rounds.p50_ms.{label}"] = [v * 1e3 for v in per_round(rounds, 50)]
            phase.notes[f"rounds.p90_ms.{label}"] = [v * 1e3 for v in per_round(rounds, 90)]
        phase.layer["serving.service.max_qps"] = median(self.capacities)
        phase.notes["rounds.max_qps"] = self.capacities
        phase.notes["ladder"] = self.rungs
        stats = [service.stats() for service in self.services.values()]
        requests = max(sum(s.get("requests", 0) for s in stats), 1)
        batches = max(sum(s.get("batches", 0) for s in stats), 1)
        phase.layer.update(
            {
                "serving.service.hit_ratio": sum((s.get("cache") or {}).get("hits", 0) for s in stats) / requests,
                "serving.service.coalesced_share": sum(s.get("coalesced", 0) for s in stats) / requests,
                "serving.service.shed": float(sum(s.get("rejected", 0) for s in stats)),
                "serving.batcher.batch_mean": sum(s.get("detected", 0) for s in stats) / batches,
                "harness.generator_late_ms": percentile(self.lateness, 90) * 1e3,
            }
        )
        phase.notes["generator_check"] = self.loop.run_until_complete(self._generator_check())
        self.close()
        return phase

    async def _generator_check(self) -> dict:
        """Drive a no-op target at the top of the ladder: the generator
        must keep up with far more than the program can take."""
        async def noop(_query: str) -> None:
            return None

        rate = LADDER[-1]
        offsets = poisson_schedule(rate, 0.5, f"{self.ctx.seed}-noop")
        started = perf_counter()
        result = await open_loop(noop, offsets, ["-"] * len(offsets), BACKLOG_CAP)
        return {
            "offered_qps": rate,
            "achieved_qps": result.sent / (perf_counter() - started),
            "late_p90_ms": percentile(result.lateness_s, 90) * 1e3,
        }

    def close(self) -> None:
        if self.loop.is_closed():
            return
        for service in self.services.values():
            self.loop.run_until_complete(service.close())
        self.services = {}
        if self.detector is not None:
            self.detector.close()
            self.detector = None
        self.loop.close()


# ----------------------------------------------------------------------
class RefreshRouted(_HttpWorkload):
    def __init__(self, ctx: Context) -> None:
        super().__init__(ctx, "refresh-routed")
        self.args = ["route", "--snapshot", str(ctx.snapshot), "--replicas", "1", "--port", "0"]
        self.reader_b: HttpClient | None = None
        self.state = ctx.run_dir / "state.hdmt"
        self.draws = [ctx.heldout.sampler(f"{ctx.seed}-reader-{k}") for k in (0, 1)]
        self.reads: list[list[tuple]] = []
        self.windows: list[tuple[float, float]] = []
        #: Resident memory of the router and its replica after each round.
        self.rss_mb: list[float] = []
        self.probe_reads: list[tuple] = []
        self.refreshes: list[dict] = []

    def set_up(self) -> None:
        super().set_up()
        shutil.copyfile(self.ctx.state, self.state)
        self.reader_b = HttpClient(*self.client.address)

    def run_slice(self, round_index: int) -> None:
        began = perf_counter()
        total = self.ctx.requests_per_round("refresh-routed")
        first = round(total * REFRESH_AT)
        refresh = round_index < len(self.ctx.deltas)
        errors: list[BaseException] = []
        reads: list[list] = [[], []]

        def reader(k: int, client: HttpClient, count: int, refresh: bool) -> None:
            draw, out, tracer, speed = self.draws[k], reads[k], self.ctx.tracer, self.ctx.speed
            try:
                for _ in range(count):
                    query = draw()
                    started = perf_counter()
                    status, body = client.detect(query)
                    ended = perf_counter()
                    tracer.record("client.router.detect", started, ended,
                                  request=f"reader{k}-{round_index}-{len(out)}")
                    out.append((started, ended, query, status, body))
                    speed.tick()
                if refresh:
                    self.refreshes.append(self._refresh(client, len(self.refreshes) + 1))
            except BaseException as exc:  # re-raised on the main thread
                errors.append(exc)

        refresher = threading.Thread(target=reader, args=(1, self.reader_b, first, refresh), daemon=True)
        refresher.start()
        reader(0, self.client, total - first, False)
        refresher.join(300)
        if refresher.is_alive():
            raise RuntimeError("the refreshing reader did not finish")
        if errors:
            raise errors[0]
        self.windows.append((began, perf_counter()))
        self.rss_mb.append(self.program.rss_mb())
        self.reads.append(reads[0] + reads[1])

    def _refresh(self, client: HttpClient, k: int) -> dict:
        """Fold delta ``k`` into the training state, emit generation
        ``k+1`` and hot-reload the fleet onto it."""
        ctx = self.ctx
        snapshot = ctx.run_dir / f"g{k + 1}.hdms"
        with ctx.tracer.span("client.refresh", request=f"refresh-{k}") as parent:
            started = perf_counter()
            refresh_s = procs.run_cli(
                ctx.repo_root,
                ["train", "--append", str(ctx.deltas[k - 1]), "--base", str(self.state),
                 "--emit-snapshot", str(snapshot)],
                ctx.log("train"),
                timeout=120,
            )
            ctx.tracer.record("client.refresh.train", started, started + refresh_s,
                              request=f"refresh-{k}", parent=parent)
            reloads, statuses = [], []
            for _ in range(RELOADS_PER_REFRESH):
                sent = perf_counter()
                status, _ = client.request("POST", "/reload", {"snapshot": str(snapshot)})
                acked = perf_counter()
                ctx.tracer.record("client.refresh.reload", sent, acked,
                                  request=f"refresh-{k}", parent=parent)
                reloads.append((sent, acked))
                ctx.speed.tick()  # the other reader may be done by now
                statuses.append(status)
            for query in ctx.probes[k - 1]:
                started = perf_counter()
                status, body = client.detect(query)
                self.probe_reads.append((started, perf_counter(), query, status, body))
        # Reads may see the old generation until the first reload's ack,
        # and only the new one after it; the repeats swap in the same file.
        # Probe reads are checked, not timed.
        # The other reader probes the host's speed all along.
        return {"generation": k + 1, "snapshot": str(snapshot), "refresh_s": refresh_s,
                "reload_ms": [(acked - sent) * 1e3 for sent, acked in reloads],
                "reload_sent": reloads[0][0], "reload_acked": reloads[0][1],
                "train": (started, started + refresh_s), "reloads": reloads, "statuses": statuses}

    def finish(self) -> Phase:
        phase = self.phase
        phase.notes["peak_rss_mb"] = self.program.peak_rss_mb()
        phase.notes["rounds.rss_mb"] = self.rss_mb
        phase.metrics["rss_mb.routed"] = median(self.rss_mb)
        self.close()
        reloads = [(r["reload_sent"], r["reload_acked"]) for r in self.refreshes]

        def keep(reads) -> list[float]:
            latencies: list[float] = []
            for started, ended, query, status, body in reads:
                ok = status == 200
                latencies.append(ended - started if ok else FAILED_LATENCY_S)
                phase.failed += not ok
                allowed = tuple(sorted(allowed_generations(started, ended, reloads)))
                phase.answers.append((allowed, query, canonical_body(body) if ok else None))
            return latencies

        rounds = [keep(reads) for reads in self.reads]
        keep(self.probe_reads)
        statuses = [status for r in self.refreshes for status in r["statuses"]]
        phase.sent = (sum(len(samples) for samples in rounds) + len(self.probe_reads)
                      + len(self.refreshes) + len(statuses))
        phase.failed += sum(status != 200 for status in statuses)
        speed = self.ctx.speed
        slowdowns = [speed.slowdown(*window) for window in self.windows]
        for refresh in self.refreshes:
            refresh["slowdown"] = speed.slowdown(*refresh["train"])
            refresh["reload_slowdown"] = [speed.slowdown(*window) for window in refresh["reloads"]]
        phase.metrics.update(
            {
                # A refresh's time swings with how it shares the CPUs with
                # the other reader; the middle half's mean steadies it.
                "refresh_s": interquartile_mean([r["refresh_s"] / r["slowdown"] for r in self.refreshes]),
                # Reloads alternate between a fast and a slow mode (the
                # replica's own collector), where a median is ill-placed;
                # the mean of the middle half is steady and drops outliers.
                "reload_ms": interquartile_mean(
                    [ms / slow for r in self.refreshes
                     for ms, slow in zip(r["reload_ms"], r["reload_slowdown"])]),
                "p50_ms.routed": scaled_percentile(rounds, slowdowns, 50) * 1e3,
            }
        )
        phase.layer.update(
            {
                "client.p90_ms.routed": scaled_percentile(rounds, slowdowns, 90) * 1e3,
            }
        )
        phase.unscaled.update(
            {
                "refresh_s": interquartile_mean([r["refresh_s"] for r in self.refreshes]),
                "reload_ms": interquartile_mean([ms for r in self.refreshes for ms in r["reload_ms"]]),
                "p50_ms.routed": pooled_percentile(rounds, 50) * 1e3,
            }
        )
        phase.notes["rounds.slowdown"] = slowdowns
        phase.notes["refreshes"] = self.refreshes
        phase.notes["snapshots"] = {r["generation"]: r["snapshot"] for r in self.refreshes}
        phase.notes["n.reads"] = sum(len(samples) for samples in rounds)
        phase.notes["n.probe_reads"] = len(self.probe_reads)
        phase.notes["rounds.p50_ms"] = [v * 1e3 for v in per_round(rounds, 50)]
        phase.notes["rounds.p90_ms"] = [v * 1e3 for v in per_round(rounds, 90)]
        return phase

    def close(self) -> None:
        if self.reader_b is not None:
            self.reader_b.close()
            self.reader_b = None
        super().close()


# ----------------------------------------------------------------------
class BatchOffline:
    """One detector per chunk size, each loaded and warmed the same way;
    rounds alternate which size goes first."""

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        self.phase = Phase("batch-offline")
        self.detectors: dict[int, object] = {}
        self.done = {size: 0 for size in CHUNK_SIZES}
        self.chunk_s: dict[int, list[list[float]]] = {size: [] for size in CHUNK_SIZES}
        #: ``(started, ended)`` of every chunk.
        self.windows: dict[int, list[tuple[float, float]]] = {size: [] for size in CHUNK_SIZES}

    def _load(self):
        from repro.runtime.compiled import CompiledDetector

        since = probe_before(self.ctx.speed)
        started = perf_counter()
        detector = CompiledDetector.load_snapshot(self.ctx.snapshot)
        detector.detect_batch(self.ctx.warmup_queries())  # builds the vectorized engine
        self.phase.add_setup(perf_counter() - started, probe_after(self.ctx.speed, since))
        return detector

    def set_up(self) -> None:
        for _ in range(SETUP_REPEATS - len(CHUNK_SIZES)):
            self._load().close()
        for size in CHUNK_SIZES:
            self.detectors[size] = self._load()

    def run_slice(self, round_index: int) -> None:
        sizes = CHUNK_SIZES if round_index % 2 == 0 else CHUNK_SIZES[::-1]
        for size in sizes:
            self._chunks(size, self.ctx.slice_s("batch-offline") / len(CHUNK_SIZES))

    def _chunks(self, size: int, seconds: float) -> None:
        """Detect whole chunks of distinct queries for ``seconds``."""
        queries, detector, tracer = self.ctx.measured_queries(), self.detectors[size], self.ctx.tracer
        deadline = perf_counter() + seconds
        times: list[float] = []
        self.chunk_s[size].append(times)
        while perf_counter() < deadline and self.done[size] + size <= len(queries):
            first = self.done[size]
            chunk = queries[first : first + size]
            started = perf_counter()
            detections = detector.detect_batch(chunk)
            ended = perf_counter()
            times.append(ended - started)
            self.windows[size].append((started, ended))
            tracer.record(f"client.detect_batch.b{size}", started, ended, request=f"b{size}-{first // size}")
            for query, detection in zip(chunk, detections):
                self.phase.answers.append((GEN1, query, answer_of(detection)))
            self.done[size] += size
            self.phase.sent += size
            self.ctx.speed.tick()

    def finish(self) -> Phase:
        for size in CHUNK_SIZES:
            # The median chunk at the reference speed, as a rate: each
            # chunk is scaled by the probes nearest it (one follows every
            # 256-query chunk), as the host's speed changes from one tenth
            # of a second to the next.
            chunks = [chunk_s for samples in self.chunk_s[size] for chunk_s in samples]
            slowdowns = [self.ctx.speed.slowdown(*window) for window in self.windows[size]]
            self.phase.metrics[f"qps.b{size}"] = size / median(
                [chunk_s / slow for chunk_s, slow in zip(chunks, slowdowns)])
            self.phase.unscaled[f"qps.b{size}"] = size / median(chunks)
            self.phase.notes[f"slowdown.b{size}"] = percentile(slowdowns, 50)
            self.phase.notes[f"rounds.qps.b{size}"] = [size / s for s in per_round(self.chunk_s[size], 50)]
            self.phase.notes[f"chunk_ms.b{size}"] = [[s * 1e3 for s in r] for r in self.chunk_s[size]]
        self.close()
        return self.phase

    def close(self) -> None:
        for detector in self.detectors.values():
            detector.close()
        self.detectors = {}
