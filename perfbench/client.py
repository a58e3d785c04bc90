"""Load generators: a standard HTTP/1.1 client for closed loops and a
seeded open-loop (Poisson) generator for asyncio targets."""

from __future__ import annotations

import asyncio
import http.client
import json
import random
from dataclasses import dataclass, field
from time import perf_counter

from perfbench.stats import FAILED_LATENCY_S

REQUEST_TIMEOUT_S = FAILED_LATENCY_S


class _CountingConnection(http.client.HTTPConnection):
    """``http.client`` as is; it only counts and times connection set-up.
    The stock client reuses its connection unless the server answers
    ``Connection: close``, so a keep-alive server shows up here as fewer
    connects per request."""

    def __init__(self, host: str, port: int) -> None:
        super().__init__(host, port, timeout=REQUEST_TIMEOUT_S)
        self.connect_s: list[float] = []

    def connect(self) -> None:
        started = perf_counter()
        super().connect()
        self.connect_s.append(perf_counter() - started)


class HttpClient:
    """One closed-loop HTTP client holding at most one open connection."""

    def __init__(self, host: str, port: int) -> None:
        self.address = (host, port)
        self._conn = _CountingConnection(host, port)
        self.requests = 0

    @property
    def connect_s(self) -> list[float]:
        """Time of every TCP connect this client made, in seconds."""
        return self._conn.connect_s

    def request(self, method: str, path: str, payload: dict | None = None) -> tuple[int, bytes]:
        """Send one request; return ``(status, body)``, status 0 when the
        exchange failed at the transport level. A request on a reused
        connection that the server had already closed is retried once on
        a fresh one, as any HTTP/1.1 client does."""
        self.requests += 1
        body = None if payload is None else json.dumps(payload).encode("utf-8")
        headers = {} if body is None else {"Content-Type": "application/json"}
        for attempt in (0, 1):
            reused = self._conn.sock is not None
            try:
                self._conn.request(method, path, body=body, headers=headers)
                response = self._conn.getresponse()
                return response.status, response.read()
            except (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError):
                self._conn.close()
                if not (reused and attempt == 0):
                    return 0, b""
            except (OSError, http.client.HTTPException):
                self._conn.close()
                return 0, b""
        return 0, b""  # pragma: no cover - the loop always returns

    def detect(self, query: str) -> tuple[int, bytes]:
        """``POST /detect``."""
        return self.request("POST", "/detect", {"query": query})

    def close(self) -> None:
        self._conn.close()


@dataclass
class OpenLoopResult:
    """Per-request records of one open-loop step, in arrival order."""

    queries: list[str] = field(default_factory=list)
    due: list[float] = field(default_factory=list)
    lateness_s: list[float] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    outcomes: list[object] = field(default_factory=list)
    failed: int = 0
    aborted: bool = False
    #: Requests still outstanding when the last one was sent.
    backlog_end: int = 0

    @property
    def sent(self) -> int:
        return len(self.due)


def poisson_schedule(rate: float, seconds: float, seed: object) -> list[float]:
    """Arrival offsets (seconds) of a seeded Poisson process."""
    rng = random.Random(f"arrivals-{seed}-{rate}")
    offsets, t = [], rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


async def open_loop(target, offsets: list[float], queries: list[str],
                    backlog_cap: int) -> OpenLoopResult:
    """Send ``queries[i]`` to the coroutine function ``target`` when
    ``offsets[i]`` falls due, whatever is still in flight. Latency is
    timed from the due time, so a stall also delays every request behind
    it. Once ``backlog_cap`` requests are outstanding the step stops
    sending (it has a growing backlog) rather than pile up work the
    program would have to refuse."""
    result = OpenLoopResult()
    tasks: set[asyncio.Task] = set()
    inflight = 0

    async def one(index: int, query: str, due: float) -> None:
        nonlocal inflight
        try:
            outcome = await target(query)
        except Exception as exc:  # noqa: BLE001 - recorded as this request's failure
            outcome = exc
            result.failed += 1
        inflight -= 1
        result.outcomes[index] = outcome
        result.latency_s[index] = (
            FAILED_LATENCY_S if isinstance(outcome, Exception) else perf_counter() - due
        )

    start = perf_counter() + 0.005
    i, n = 0, len(offsets)
    while i < n:
        now = perf_counter()
        while i < n and start + offsets[i] <= now:
            if inflight >= backlog_cap:
                result.aborted = True
                break
            due = start + offsets[i]
            result.due.append(due)
            result.queries.append(queries[i])
            result.lateness_s.append(now - due)
            result.latency_s.append(FAILED_LATENCY_S)
            result.outcomes.append(None)
            inflight += 1
            task = asyncio.ensure_future(one(i, queries[i], due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
            i += 1
        if result.aborted:
            break
        if i < n:
            await asyncio.sleep(max(0.0, start + offsets[i] - perf_counter()))
    result.backlog_end = inflight
    while tasks:
        await asyncio.gather(*tuple(tasks))
    return result
