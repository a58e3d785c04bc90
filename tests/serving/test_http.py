"""HTTP front door: routes, error mapping, and graceful shutdown.

The route and error cases run over both backends
:class:`DetectionHTTPServer` fronts: each case class serves a
single-process :class:`DetectionService`, and its ``...ViaRouter``
subclass reruns every case over a :class:`Router` fronting one
in-process :class:`ReplicaServer` — one status contract for both.
"""

from __future__ import annotations

import asyncio
import json
import time
import urllib.error
import urllib.request

import pytest

import repro.serving.service as service_module
from repro.errors import ServerOverloadedError
from repro.runtime.lineage import save_versioned_snapshot
from repro.serving import (
    DetectionHTTPServer,
    DetectionService,
    ReplicaServer,
    Router,
    RouterConfig,
    ServingConfig,
    detection_payload,
)


@pytest.fixture(scope="module")
def compiled(model):
    return model.compile()


@pytest.fixture(scope="module")
def gen2_path(model, tmp_path_factory):
    """A generation-2 snapshot, saved from its own compile so the shared
    ``compiled`` detector never gains a backing snapshot."""
    path = tmp_path_factory.mktemp("http") / "gen2.hdms"
    detector = model.compile()
    save_versioned_snapshot(detector, path, generation=2, record_count=1)
    detector.close()
    return path


def _request(port: int, path: str, body: bytes | None = None):
    """One HTTP exchange; returns (status, parsed JSON body)."""
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=body,
        method="POST" if body is not None else "GET",
    )
    try:
        with urllib.request.urlopen(request, timeout=10) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


async def _exchange(port: int, path: str, body: bytes | None = None):
    return await asyncio.to_thread(_request, port, path, body)


def serve(handler, backend="service"):
    """Run ``handler(server, port)`` against a live server over
    ``backend``, then stop it (and, for a router, its replica)."""

    async def main(compiled, config=None):
        replicas = []
        if backend == "service":
            service = DetectionService(compiled, config or ServingConfig())
        else:
            replica = ReplicaServer(DetectionService(compiled, config), port=0)
            await replica.start()
            replicas.append(replica)
            service = Router(RouterConfig(health_interval_s=30.0))
            service.attach("127.0.0.1", replica.port)
            await service.start()
        server = DetectionHTTPServer(service, port=0)
        await server.start()
        try:
            return await handler(server, server.port)
        finally:
            await server.stop()
            for replica in replicas:
                await replica.stop()

    return main


async def _served_requests(server) -> int:
    """Requests that reached a detection service behind ``server``."""
    if isinstance(server.service, Router):
        return (await server.service.stats())["fleet"]["requests"]
    return server.service.stats()["requests"]


class TestRoutes:
    backend = "service"

    def test_detect_matches_one_shot(self, compiled):
        query = "cheap hotels in rome"

        async def handler(server, port):
            body = json.dumps({"query": query}).encode()
            return await _exchange(port, "/detect", body)

        status, payload = asyncio.run(serve(handler, self.backend)(compiled))
        assert status == 200
        assert payload == detection_payload(compiled.detect(query))
        assert payload["head"] == "hotels"

    def test_healthz_and_stats(self, compiled):
        async def handler(server, port):
            health = await _exchange(port, "/healthz")
            body = json.dumps({"query": "iphone 5s case"}).encode()
            await _exchange(port, "/detect", body)
            stats = await _exchange(port, "/stats")
            return health, stats

        health, stats = asyncio.run(serve(handler, self.backend)(compiled))
        status, payload = stats
        assert status == 200
        if self.backend == "service":
            assert health == (200, {"status": "ok"})
        else:
            assert health == (
                200, {"status": "ok", "up": 1, "replicas": {"r0": "up"}}
            )
            payload = payload["replicas"]["r0"]["stats"]
        assert payload["requests"] == 1
        assert payload["batches"] == 1
        assert payload["vectorized"] is True

    def test_error_mapping(self, compiled):
        async def handler(server, port):
            return {
                "bad_json": await _exchange(port, "/detect", b"nonsense"),
                "bad_type": await _exchange(
                    port, "/detect", json.dumps({"query": 7}).encode()
                ),
                "missing_key": await _exchange(
                    port, "/detect", json.dumps({"q": "x"}).encode()
                ),
                "wrong_method": await _exchange(port, "/detect"),
                "unknown_route": await _exchange(port, "/nope"),
            }

        outcomes = asyncio.run(serve(handler, self.backend)(compiled))
        assert outcomes["bad_json"][0] == 400
        assert outcomes["bad_type"][0] == 400
        assert outcomes["missing_key"][0] == 400
        assert outcomes["wrong_method"][0] == 405
        assert outcomes["unknown_route"][0] == 404

    def test_overload_maps_to_503(self, compiled):
        async def handler(server, port):
            async def overloaded(text):
                raise ServerOverloadedError("serving queue is full (test)")

            server.service.detect = overloaded
            return await _exchange(
                port, "/detect", json.dumps({"query": "q"}).encode()
            )

        status, payload = asyncio.run(serve(handler, self.backend)(compiled))
        assert status == 503
        assert "full" in payload["error"]

    def test_unexpected_error_maps_to_500(self, compiled):
        async def handler(server, port):
            async def broken(text):
                raise RuntimeError("kapow")

            server.service.detect = broken
            return await _exchange(
                port, "/detect", json.dumps({"query": "q"}).encode()
            )

        status, payload = asyncio.run(serve(handler, self.backend)(compiled))
        assert status == 500
        assert payload == {"error": "internal error: kapow"}


class TestRoutesViaRouter(TestRoutes):
    backend = "router"


class TestReload:
    backend = "service"

    def test_reload_swaps_and_reports_generation(self, compiled, gen2_path):
        async def handler(server, port):
            body = json.dumps({"snapshot": str(gen2_path)}).encode()
            reload = await _exchange(port, "/reload", body)
            detect = await _exchange(
                port, "/detect", json.dumps({"query": "hotels in rome"}).encode()
            )
            return reload, detect

        (status, payload), detect = asyncio.run(
            serve(handler, self.backend)(compiled)
        )
        assert status == 200
        assert payload["reloaded"] == 1
        assert payload["snapshot"] == str(gen2_path)
        if self.backend == "service":
            assert payload == {
                "reloaded": 1,
                "snapshot": str(gen2_path),
                "model_generation": 2,
            }
        else:
            assert payload["replicas"] == {"r0": {"ok": True, "model_generation": 2}}
        assert detect == (200, detection_payload(compiled.detect("hotels in rome")))

    def test_reload_error_mapping(self, compiled, tmp_path):
        bad = tmp_path / "bad.hdms"
        bad.write_bytes(b"garbage")

        async def handler(server, port):
            return {
                "bad_json": await _exchange(port, "/reload", b"{}"),
                "bad_type": await _exchange(
                    port, "/reload", json.dumps({"snapshot": 7}).encode()
                ),
                "wrong_method": await _exchange(port, "/reload"),
                "bad_file": await _exchange(
                    port, "/reload", json.dumps({"snapshot": str(bad)}).encode()
                ),
                "missing_file": await _exchange(
                    port,
                    "/reload",
                    json.dumps({"snapshot": str(tmp_path / "nope.hdms")}).encode(),
                ),
            }

        outcomes = asyncio.run(serve(handler, self.backend)(compiled))
        assert outcomes["bad_json"][0] == 400
        assert outcomes["bad_type"][0] == 400
        assert outcomes["wrong_method"][0] == 405
        for case in ("bad_file", "missing_file"):
            status, payload = outcomes[case]
            assert status == 400, case
            assert payload["error"].startswith("snapshot rejected: "), case

    def test_slow_snapshot_load_never_blocks_the_loop(
        self, compiled, gen2_path, monkeypatch
    ):
        """The snapshot loads off the event loop: a ``/healthz`` sent
        while a slow load runs is answered before ``/reload`` returns."""
        real_load = service_module.load_snapshot

        def slow_load(path):
            time.sleep(1.0)
            return real_load(path)

        monkeypatch.setattr(service_module, "load_snapshot", slow_load)

        async def handler(server, port):
            body = json.dumps({"snapshot": str(gen2_path)}).encode()
            reload = asyncio.create_task(_exchange(port, "/reload", body))
            await asyncio.sleep(0.2)  # the reload is now inside the load
            health = await _exchange(port, "/healthz")
            answered_first = not reload.done()
            return health, answered_first, await reload

        health, answered_first, reload = asyncio.run(
            serve(handler, self.backend)(compiled)
        )
        assert health[0] == 200
        assert answered_first
        assert reload[0] == 200


class TestReloadViaRouter(TestReload):
    backend = "router"


def test_router_reload_with_no_replica_up_is_502(compiled, gen2_path):
    async def handler(server, port):
        router = server.service
        for handle in router.replicas:
            router._mark_down(handle, "test: taken out of service")
        health = await _exchange(port, "/healthz")
        body = json.dumps({"snapshot": str(gen2_path)}).encode()
        return health, await _exchange(port, "/reload", body)

    health, (status, payload) = asyncio.run(serve(handler, "router")(compiled))
    assert health[0] == 503
    assert status == 502
    assert payload["reloaded"] == 0
    assert payload["snapshot"] == str(gen2_path)
    assert payload["replicas"]["r0"]["ok"] is False


async def _raw_exchange(port: int, payload: bytes, close_early: bool = False):
    """Speak raw bytes to the server; return the response (b"" if the
    connection was abandoned). ``close_early`` drops the connection
    after writing ``payload`` without finishing the request."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(payload)
    await writer.drain()
    if close_early:
        writer.close()
        await writer.wait_closed()
        return b""
    response = await asyncio.wait_for(reader.read(-1), timeout=10)
    writer.close()
    await writer.wait_closed()
    return response


class TestProtocolEdges:
    """Malformed and hostile inputs get deterministic status codes and
    never wedge the batcher behind the server."""

    backend = "service"

    def test_oversized_body_is_413(self, compiled):
        async def handler(server, port):
            huge = b'{"query": "' + b"x" * (65 * 1024) + b'"}'
            request = (
                b"POST /detect HTTP/1.1\r\nContent-Length: "
                + str(len(huge)).encode()
                + b"\r\n\r\n"
            )
            return await _raw_exchange(port, request + huge)

        response = asyncio.run(serve(handler, self.backend)(compiled))
        assert response.startswith(b"HTTP/1.1 413 ")
        assert b"exceeds" in response

    def test_oversized_request_line_is_414(self, compiled):
        async def handler(server, port):
            target = b"/detect?" + b"q" * (70 * 1024)
            response = await _raw_exchange(
                port, b"GET " + target + b" HTTP/1.1\r\n\r\n"
            )
            return response, await _served_requests(server)

        response, served = asyncio.run(serve(handler, self.backend)(compiled))
        assert response.startswith(b"HTTP/1.1 414 URI Too Long\r\n")
        assert b'{"error": "request line too long"}' in response
        assert served == 0

    def test_oversized_header_line_is_431(self, compiled):
        async def handler(server, port):
            body = json.dumps({"query": "q"}).encode()
            request = (
                b"POST /detect HTTP/1.1\r\nX-Padding: "
                + b"p" * (70 * 1024)
                + b"\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            response = await _raw_exchange(port, request)
            return response, await _served_requests(server)

        response, served = asyncio.run(serve(handler, self.backend)(compiled))
        assert response.startswith(
            b"HTTP/1.1 431 Request Header Fields Too Large\r\n"
        )
        assert b'{"error": "header line too long"}' in response
        assert served == 0

    def test_malformed_request_line_is_400(self, compiled):
        async def handler(server, port):
            return await _raw_exchange(port, b"\r\n\r\n")

        response = asyncio.run(serve(handler, self.backend)(compiled))
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_bad_content_length_is_400(self, compiled):
        async def handler(server, port):
            return await _raw_exchange(
                port, b"POST /detect HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
            )

        response = asyncio.run(serve(handler, self.backend)(compiled))
        assert response.startswith(b"HTTP/1.1 400 ")

    def test_503_carries_retry_after(self, compiled):
        async def handler(server, port):
            async def overloaded(text):
                raise ServerOverloadedError("full")

            server.service.detect = overloaded
            body = json.dumps({"query": "q"}).encode()
            request = (
                b"POST /detect HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            )
            return await _raw_exchange(port, request)

        response = asyncio.run(serve(handler, self.backend)(compiled))
        assert response.startswith(b"HTTP/1.1 503 ")
        assert b"Retry-After: 1" in response

    def test_dropped_connection_mid_request_never_wedges(self, compiled):
        """A client that vanishes mid-request is abandoned silently: the
        batcher is never touched with the partial request, and the very
        next well-formed request is served normally."""

        async def handler(server, port):
            # Headers promise a body that never arrives.
            await _raw_exchange(
                port,
                b"POST /detect HTTP/1.1\r\nContent-Length: 64\r\n\r\ntrunc",
                close_early=True,
            )
            # Drop mid-headers too.
            await _raw_exchange(
                port, b"POST /detect HT", close_early=True
            )
            await asyncio.sleep(0)  # let the server observe both EOFs
            body = json.dumps({"query": "cheap hotels in rome"}).encode()
            status, payload = await _exchange(port, "/detect", body)
            return status, payload, await _served_requests(server)

        status, payload, served = asyncio.run(
            serve(handler, self.backend)(compiled)
        )
        assert status == 200
        assert payload["head"] == "hotels"
        # Only the completed request reached the service/batcher.
        assert served == 1


class TestProtocolEdgesViaRouter(TestProtocolEdges):
    backend = "router"


class TestShutdown:
    def test_stop_drains_service(self, compiled):
        async def main():
            service = DetectionService(compiled)
            server = DetectionHTTPServer(service, port=0)
            await server.start()
            port = server.port
            body = json.dumps({"query": "cheap hotels in rome"}).encode()
            status, _ = await _exchange(port, "/detect", body)
            assert status == 200
            await server.stop()
            assert service.closed
            # The socket is gone: new connections are refused.
            with pytest.raises(urllib.error.URLError):
                await _exchange(port, "/healthz")

        asyncio.run(main())
