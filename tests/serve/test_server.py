"""Serving-layer behaviour: backpressure, retry, drain, wire identity.

The admission/drain tests drive :meth:`ReproServer.admit` directly (no
sockets) with scripted backends; the end-to-end tests run a real server
on a TCP socket in a background thread and a blocking client against it.
Each test owns its loop via ``asyncio.run`` (no pytest-asyncio here).
"""

import asyncio
import queue as queue_module
import threading

from repro import obs
from repro.config import SimConfig
from repro.runner import Runner
from repro.runstore import MemoryRunStore
from repro.serve import protocol
from repro.serve.client import ClientRunner, ServeClient
from repro.serve.jobs import ATTACHED, QUEUED
from repro.serve.server import HIT, REJECTED, ReproServer, ServeConfig
from repro.serve.workers import (
    ExecutionBackend,
    InlineBackend,
    ProcessBackend,
    WorkerDied,
)
from repro.sim.runspec import RunRequest, VmRequest


def _linux(app="swaptions", policy="first-touch"):
    return RunRequest(
        environment="linux",
        vms=(VmRequest(app=app, policy=policy),),
        config=SimConfig(),
    )


class GatedBackend(ExecutionBackend):
    """Executes instantly once ``gate`` is set; blocks until then."""

    def __init__(self):
        self.gate = asyncio.Event()
        self.calls = 0

    async def execute(self, requests, batch_worlds):
        self.calls += 1
        await self.gate.wait()
        return [["results", request.vms[0].app] for request in requests]


class FlakyBackend(ExecutionBackend):
    """Raises :class:`WorkerDied` for the first ``failures`` calls."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0
        self.resets = 0

    async def execute(self, requests, batch_worlds):
        self.calls += 1
        if self.calls <= self.failures:
            raise WorkerDied("scripted death")
        return [["ok", request.vms[0].app] for request in requests]

    async def reset(self):
        self.resets += 1


class HangingBackend(ExecutionBackend):
    """Never returns (every attempt must run into the timeout)."""

    def __init__(self):
        self.calls = 0

    async def execute(self, requests, batch_worlds):
        self.calls += 1
        await asyncio.Event().wait()


class RaisingBackend(ExecutionBackend):
    """Raises :class:`RuntimeError` for ``bad_app``, executes the rest."""

    def __init__(self, bad_app):
        self.bad_app = bad_app
        self.calls = 0
        self.resets = 0

    async def execute(self, requests, batch_worlds):
        self.calls += 1
        if any(request.vms[0].app == self.bad_app for request in requests):
            raise RuntimeError("scripted execution error")
        return [["ok", request.vms[0].app] for request in requests]

    async def reset(self):
        self.resets += 1


class TestAdmission:
    def test_store_hit_streams_immediately(self):
        async def main():
            store = MemoryRunStore()
            request = _linux()
            store.put(request.cache_key(), ["stored"])
            server = ReproServer(store=store, backend=GatedBackend())
            kind, (key, results) = server.admit(request)
            assert kind == HIT
            assert results == ["stored"]
            assert server.counters.hits.value == 1

        asyncio.run(main())

    def test_same_key_attaches_across_clients(self):
        async def main():
            backend = GatedBackend()
            server = ReproServer(backend=backend)
            server.start_workers()
            kind_a, (_, future_a) = server.admit(_linux())
            kind_b, (_, future_b) = server.admit(_linux())
            assert kind_a == QUEUED
            assert kind_b == ATTACHED
            backend.gate.set()
            outcome_a = await asyncio.wait_for(future_a, timeout=5)
            outcome_b = await asyncio.wait_for(future_b, timeout=5)
            assert outcome_a == outcome_b
            assert backend.calls == 1  # executed once for both waiters
            assert server.counters.executed.value == 1
            await server.shutdown()

        asyncio.run(main())

    def test_backpressure_rejects_beyond_queue_size(self):
        async def main():
            backend = GatedBackend()
            server = ReproServer(
                backend=backend,
                config=ServeConfig(workers=1, queue_size=1),
            )
            server.start_workers()
            server.admit(_linux("swaptions"))
            for _ in range(20):  # let the worker pick it up (gate blocks it)
                await asyncio.sleep(0)
                if server.jobs.in_flight() == 1:
                    break
            assert server.jobs.in_flight() == 1
            kind_b, _ = server.admit(_linux("bodytrack"))
            kind_c, (_, code) = server.admit(_linux("facesim"))
            assert kind_b == QUEUED  # fills the one queue slot
            assert kind_c == REJECTED
            assert code == protocol.ERR_QUEUE_FULL
            assert server.counters.rejected.value == 1
            backend.gate.set()
            await server.shutdown()

        asyncio.run(main())

    def test_executed_results_reach_store_and_waiter(self):
        async def main():
            store = MemoryRunStore()
            backend = GatedBackend()
            backend.gate.set()
            server = ReproServer(store=store, backend=backend)
            server.start_workers()
            request = _linux()
            _, (key, future) = server.admit(request)
            status, results = await asyncio.wait_for(future, timeout=5)
            assert status == "ok"
            assert store.get(key) == results
            await server.shutdown()

        asyncio.run(main())


class TestFailurePolicy:
    def test_worker_death_retries_then_succeeds(self):
        async def main():
            backend = FlakyBackend(failures=1)
            server = ReproServer(
                backend=backend, config=ServeConfig(workers=1, retries=1)
            )
            server.start_workers()
            _, (_, future) = server.admit(_linux())
            status, _ = await asyncio.wait_for(future, timeout=5)
            assert status == "ok"
            assert backend.calls == 2
            assert backend.resets == 1
            assert server.counters.retries.value == 1
            assert server.counters.worker_deaths.value == 1
            assert server.counters.failed.value == 0
            await server.shutdown()

        asyncio.run(main())

    def test_timeout_exhausts_retries_then_fails(self):
        async def main():
            backend = HangingBackend()
            server = ReproServer(
                backend=backend,
                config=ServeConfig(workers=1, retries=1, timeout_seconds=0.05),
            )
            server.start_workers()
            _, (_, future) = server.admit(_linux())
            status, code = await asyncio.wait_for(future, timeout=10)
            assert status == "failed"
            assert code == protocol.ERR_TIMEOUT
            assert backend.calls == 2  # first attempt + one retry
            assert server.counters.timeouts.value == 2
            assert server.counters.retries.value == 1
            assert server.counters.failed.value == 1
            await server.shutdown()

        asyncio.run(main())


    def test_execution_error_fails_once_and_worker_survives(self):
        async def main():
            backend = RaisingBackend(bad_app="bodytrack")
            server = ReproServer(
                backend=backend, config=ServeConfig(workers=1, retries=2)
            )
            server.start_workers()
            _, (_, bad) = server.admit(_linux("bodytrack"))
            status, code = await asyncio.wait_for(bad, timeout=5)
            assert status == "failed"
            assert code == protocol.ERR_EXECUTION
            assert backend.calls == 1  # pure requests are not retried
            assert backend.resets == 0
            assert server.counters.failed.value == 1
            assert server.counters.retries.value == 0
            # The one worker loop is still alive and serves the next job.
            _, (_, good) = server.admit(_linux("swaptions"))
            status, results = await asyncio.wait_for(good, timeout=5)
            assert status == "ok"
            assert results == ["ok", "swaptions"]
            await asyncio.wait_for(server.shutdown(), timeout=5)

        asyncio.run(main())


class TestShutdown:
    def test_shutdown_drains_in_flight_work_first(self):
        async def main():
            backend = GatedBackend()
            server = ReproServer(backend=backend, config=ServeConfig(workers=1))
            server.start_workers()
            _, (_, future) = server.admit(_linux())
            for _ in range(20):  # in flight, blocked on the gate
                await asyncio.sleep(0)
                if server.jobs.in_flight() == 1:
                    break
            closer = asyncio.create_task(server.shutdown())
            await asyncio.sleep(0)
            assert not closer.done()  # blocked on the drain
            # New work is rejected while the drain runs...
            kind, (_, code) = server.admit(_linux("bodytrack"))
            assert kind == REJECTED
            assert code == protocol.ERR_SHUTTING_DOWN
            # ...but the in-flight job resolves before shutdown returns.
            backend.gate.set()
            await asyncio.wait_for(closer, timeout=5)
            assert future.done()
            assert future.result()[0] == "ok"

        asyncio.run(main())

    def test_shutdown_is_idempotent(self):
        async def main():
            server = ReproServer(backend=InlineBackend())
            server.start_workers()
            await server.shutdown()
            await asyncio.wait_for(server.shutdown(), timeout=5)

        asyncio.run(main())


class TestMetrics:
    def test_metrics_payload_validates(self):
        async def main():
            backend = GatedBackend()
            backend.gate.set()
            server = ReproServer(backend=backend)
            server.start_workers()
            _, (_, future) = server.admit(_linux())
            await asyncio.wait_for(future, timeout=5)
            payload = server.metrics_payload()
            assert obs.validate_payload(payload) == []
            names = {cell["name"] for cell in payload["metrics"]}
            assert "serve.submitted" in names
            assert "serve.executed" in names
            await server.shutdown()

        with obs.session():
            asyncio.run(main())

    def test_stats_counters_include_store_view(self):
        async def main():
            server = ReproServer(backend=InlineBackend())
            counters = server.stats_counters()
            assert "serve.submitted" not in counters  # cells are flat names
            assert counters["submitted"] == 0
            assert counters["store.entries"] == 0
            assert "submitted" in server.summary()

        asyncio.run(main())


class TestProcessBackend:
    """Pool workers must not record into a copy of the server's session."""

    def test_workers_drop_the_inherited_session(self):
        with obs.session():
            backend = ProcessBackend(1)
            try:
                assert backend._pool.submit(obs.enabled).result() is False
                asyncio.run(backend.reset())
                assert backend._pool.submit(obs.enabled).result() is False
                # The server process itself keeps collecting.
                assert obs.enabled()
            finally:
                asyncio.run(backend.close())


def _start_server(store):
    """Run a real server on an ephemeral TCP port in a daemon thread."""
    ready: "queue_module.Queue" = queue_module.Queue()

    def body():
        async def main():
            server = ReproServer(
                store=store,
                backend=InlineBackend(),
                config=ServeConfig(workers=2, batch_worlds=2),
            )
            host, port = await server.start()
            ready.put((host, port))
            await server.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    host, port = ready.get(timeout=30)
    return thread, host, port


class TestEndToEnd:
    REQUESTS = [
        _linux("swaptions", "first-touch"),
        _linux("swaptions", "round-4k"),
        _linux("bodytrack", "first-touch"),
    ]

    def test_wire_results_match_direct_runner(self):
        thread, host, port = _start_server(MemoryRunStore())
        direct = Runner().resolve(self.REQUESTS)
        try:
            with ServeClient(host, port) as client:
                runner = ClientRunner(client)
                served = runner.resolve(self.REQUESTS + [self.REQUESTS[0]])
                for request in self.REQUESTS:
                    assert served.get(request) == direct.get(request)
                assert runner.requested == 4
                assert runner.deduplicated == 1
                assert runner.executed == 3
                assert runner.hits == 0
            # A second connection resolves everything from the store.
            with ServeClient(host, port) as client:
                second = ClientRunner(client)
                second.resolve(self.REQUESTS)
                assert second.hits == 3
                assert second.executed == 0
                assert ", 0 executed" in second.summary()
                stats = client.stats()
                assert stats["counters"]["executed"] == 3
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_ill_typed_submit_is_rejected_as_bad_request(self):
        thread, host, port = _start_server(MemoryRunStore())
        payload = self.REQUESTS[0].to_json()
        payload["vms"][0]["app"] = [[1]]
        try:
            with ServeClient(host, port, timeout=60) as client:
                client._send({"op": "submit", "id": 0, "request": payload})
                reply = client._recv()
                assert reply["op"] == "reject"
                assert reply["error"] == protocol.ERR_BAD_REQUEST
                assert client.stats()["counters"]["executed"] == 0
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_unknown_app_is_rejected_as_bad_request(self):
        thread, host, port = _start_server(MemoryRunStore())
        payload = self.REQUESTS[0].to_json()
        payload["vms"][0]["app"] = "no-such-app"
        try:
            with ServeClient(host, port, timeout=20) as client:
                client._send({"op": "submit", "id": 0, "request": payload})
                reply = client._recv()
                assert reply["op"] == "reject"
                assert reply["error"] == protocol.ERR_BAD_REQUEST
                assert "no-such-app" in reply["detail"]
                client._send(
                    {"op": "submit", "id": 1, "request": self.REQUESTS[0].to_json()}
                )
                reply = client._recv()
                assert reply["op"] == "result"
                assert reply["id"] == 1
                client.shutdown()
        finally:
            thread.join(timeout=30)
        assert not thread.is_alive()

    def test_shutdown_bye_arrives_after_drain(self):
        thread, host, port = _start_server(MemoryRunStore())
        with ServeClient(host, port) as client:
            runner = ClientRunner(client)
            runner.resolve([self.REQUESTS[0]])
            client.shutdown()  # blocks until the server said bye
        thread.join(timeout=30)
        assert not thread.is_alive()
