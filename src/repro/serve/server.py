"""The asyncio serving layer: admission → dedup → grouped drain → stream.

One :class:`ReproServer` owns four pieces:

* an **admission path** (:meth:`ReproServer.admit`): every submitted
  :class:`~repro.sim.runspec.RunRequest` is keyed, checked against the
  store (hits stream back immediately), deduplicated against queued and
  in-flight work (attach, don't re-execute), and only then enqueued —
  or explicitly rejected when the bounded queue is full;
* a **worker pool** of asyncio tasks draining the queue. Each worker
  takes up to ``batch_worlds`` queued jobs at once — jobs from different
  clients included — and hands them to the execution backend, where the
  existing :class:`~repro.runner.Runner` groups compatible requests into
  one structure-of-arrays multi-run program. Results are published to
  every waiter and written to the durable store from the event loop;
* a **failure policy**: each execution attempt runs under the configured
  per-request timeout; a timeout or a dead worker process recycles the
  backend and requeues the group at the front, up to ``retries`` times,
  after which waiters get a terminal ``failed`` message. Any other
  error the backend raises fails the group at once (``execution-error``):
  requests are pure, so a retry would fail the same way;
* a **control plane**: NDJSON connections (see
  :mod:`repro.serve.protocol`) with per-connection response streaming in
  resolution order, ``stats``/``metrics`` snapshots of the live
  :mod:`repro.obs` registry, and a graceful shutdown that stops
  admitting, drains every admitted job, and only then stops the workers.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.errors import RunSpecError, ServeError
from repro.obs.trace import build_payload
from repro.runstore.base import RunStore
from repro.runstore.memory import MemoryRunStore
from repro.serve import protocol
from repro.serve.jobs import ATTACHED, CLOSED, QUEUED, Job, JobQueue
from repro.serve.workers import ExecutionBackend, ProcessBackend, WorkerDied
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest

#: Admission outcomes of :meth:`ReproServer.admit`.
HIT = "hit"
REJECTED = "rejected"


@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one server instance.

    Attributes:
        host: bind address.
        port: bind port (0 picks an ephemeral one; ``start`` returns it).
        workers: concurrent drain tasks (and the process-pool width).
        queue_size: max *queued* jobs before admission rejects.
        batch_worlds: max jobs one worker hands to the backend at once —
            the cross-client analogue of ``--batch-worlds``.
        timeout_seconds: per-attempt execution budget for one group
            (None: no timeout).
        retries: re-executions after a timeout or worker death before a
            job fails terminally.
    """

    host: str = "127.0.0.1"
    port: int = 0
    workers: int = 2
    queue_size: int = 256
    batch_worlds: int = 1
    timeout_seconds: Optional[float] = None
    retries: int = 1


class ServeCounters:
    """The serve layer's observability cells (``serve.*`` names)."""

    __slots__ = (
        "submitted",
        "hits",
        "queued",
        "attached",
        "rejected",
        "executed",
        "failed",
        "retries",
        "timeouts",
        "worker_deaths",
        "streamed",
        "queue_depth",
        "in_flight",
        "connections",
    )

    def __init__(self) -> None:
        reg = obs.registry()
        self.submitted = reg.counter("serve.submitted")
        self.hits = reg.counter("serve.hits")
        self.queued = reg.counter("serve.queued")
        self.attached = reg.counter("serve.attached")
        self.rejected = reg.counter("serve.rejected")
        self.executed = reg.counter("serve.executed")
        self.failed = reg.counter("serve.failed")
        self.retries = reg.counter("serve.retries")
        self.timeouts = reg.counter("serve.timeouts")
        self.worker_deaths = reg.counter("serve.worker_deaths")
        self.streamed = reg.counter("serve.streamed")
        self.queue_depth = reg.gauge("serve.queue_depth")
        self.in_flight = reg.gauge("serve.in_flight")
        self.connections = reg.gauge("serve.connections")

    def as_dict(self) -> Dict[str, float]:
        return {name: getattr(self, name).value for name in self.__slots__}


class ReproServer:
    """Admits run requests over NDJSON and drains them through a store."""

    def __init__(
        self,
        store: Optional[RunStore] = None,
        config: Optional[ServeConfig] = None,
        backend: Optional[ExecutionBackend] = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.store = store if store is not None else MemoryRunStore()
        self.backend = backend if backend is not None else ProcessBackend(
            self.config.workers
        )
        self.jobs = JobQueue(self.config.queue_size)
        self.counters = ServeCounters()
        self._draining = False
        self._stopped = asyncio.Event()
        self._worker_tasks: List["asyncio.Task[None]"] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.StreamWriter] = set()
        self._handler_tasks: Set["asyncio.Task[None]"] = set()

    # ------------------------------------------------------------------
    # Lifecycle

    def start_workers(self) -> None:
        """Start the drain tasks (idempotent; needs a running loop)."""
        if self._worker_tasks:
            return
        self._worker_tasks = [
            asyncio.create_task(self._worker_loop(), name=f"serve-worker-{i}")
            for i in range(max(1, self.config.workers))
        ]

    async def start(self) -> Tuple[str, int]:
        """Start workers and the listener; returns the bound address."""
        self.start_workers()
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.config.host,
            port=self.config.port,
            limit=protocol.MAX_LINE_BYTES,
        )
        sockname = self._server.sockets[0].getsockname()
        return sockname[0], sockname[1]

    async def serve_forever(self) -> None:
        """Block until a graceful shutdown completed, then force-close."""
        await self._stopped.wait()
        # Grace period: let connected clients receive the final messages
        # (the shutdown ``bye``) and hang up from their side before the
        # remaining handlers are force-cancelled.
        if self._handler_tasks:
            await asyncio.wait(list(self._handler_tasks), timeout=5.0)
        for task in list(self._handler_tasks):
            task.cancel()
        for writer in list(self._connections):
            writer.close()
        if self._handler_tasks:
            await asyncio.gather(*list(self._handler_tasks), return_exceptions=True)

    async def run(self) -> Tuple[str, int]:
        """``start`` + ``serve_forever`` (the ``__main__`` entry)."""
        address = await self.start()
        await self.serve_forever()
        return address

    async def shutdown(self) -> None:
        """Graceful: stop admitting, drain admitted work, stop workers.

        Every job admitted before the call resolves (or fails
        terminally) and its responses are published *before* the workers
        stop — the drain-before-stop ordering the protocol's ``bye``
        acknowledges. Idempotent; concurrent callers wait for the first.
        """
        if self._draining:
            await self._stopped.wait()
            return
        self._draining = True
        if self._server is not None:
            self._server.close()
        await self.jobs.drained()
        self.jobs.close()
        if self._worker_tasks:
            await asyncio.gather(*self._worker_tasks, return_exceptions=True)
        await self.backend.close()
        if self._server is not None:
            await self._server.wait_closed()
        self._stopped.set()

    # ------------------------------------------------------------------
    # Admission (also the direct, socket-free API the tests drive)

    def admit(
        self, request: RunRequest
    ) -> Tuple[str, object]:
        """Admit one request.

        Returns one of::

            (HIT,      (key, results))   # store hit, results immediate
            (QUEUED,   (key, future))    # new job enqueued
            (ATTACHED, (key, future))    # joined a queued/in-flight job
            (REJECTED, (key, code))      # backpressure or draining

        Futures resolve to ``("ok", results)`` or ``("failed", info)``.
        """
        self.counters.submitted.inc()
        key = request.cache_key()
        if self._draining:
            self.counters.rejected.inc()
            return REJECTED, (key, protocol.ERR_SHUTTING_DOWN)
        cached = self.store.get(key)
        if cached is not None:
            self.counters.hits.inc()
            return HIT, (key, cached)
        status, future = self.jobs.offer(key, request)
        if status == QUEUED:
            self.counters.queued.inc()
            self._update_gauges()
            return QUEUED, (key, future)
        if status == ATTACHED:
            self.counters.attached.inc()
            return ATTACHED, (key, future)
        self.counters.rejected.inc()
        code = (
            protocol.ERR_SHUTTING_DOWN if status == CLOSED else protocol.ERR_QUEUE_FULL
        )
        return REJECTED, (key, code)

    def _update_gauges(self) -> None:
        self.counters.queue_depth.set(self.jobs.depth())
        self.counters.in_flight.set(self.jobs.in_flight())

    # ------------------------------------------------------------------
    # Drain (worker tasks)

    async def _worker_loop(self) -> None:
        while True:
            job = await self.jobs.next_job()
            if job is None:
                return
            group = [job] + self.jobs.take_extra(self.config.batch_worlds - 1)
            self._update_gauges()
            await self._execute_group(group)
            self._update_gauges()

    async def _execute_group(self, group: Sequence[Job]) -> None:
        requests = [job.request for job in group]
        try:
            call = self.backend.execute(requests, self.config.batch_worlds)
            if self.config.timeout_seconds is not None:
                produced = await asyncio.wait_for(call, self.config.timeout_seconds)
            else:
                produced = await call
        except asyncio.TimeoutError:
            self.counters.timeouts.inc()
            await self.backend.reset()
            self._retry_or_fail(group, protocol.ERR_TIMEOUT)
            return
        except WorkerDied:
            self.counters.worker_deaths.inc()
            await self.backend.reset()
            self._retry_or_fail(group, protocol.ERR_WORKER_DIED)
            return
        except asyncio.CancelledError:
            task = asyncio.current_task()
            cancelling = getattr(task, "cancelling", None)
            if cancelling is not None and cancelling() == 0:
                # The executor future was cancelled out from under us (a
                # sibling's timeout recycled the pool before our group
                # started) — the worker *task* itself was not cancelled,
                # so treat it like a worker death and retry.
                self.counters.worker_deaths.inc()
                self._retry_or_fail(group, protocol.ERR_WORKER_DIED)
                return
            raise
        except Exception:  # repro-lint: ignore[RPR003] - sent as execution-error
            for job in group:
                self.counters.failed.inc()
                self.jobs.fail(job, protocol.ERR_EXECUTION)
            return
        for job, results in zip(group, produced):
            self.store.put(job.key, results, request=job.request)
            self.counters.executed.inc()
            self.jobs.finish(job, results)

    def _retry_or_fail(self, group: Sequence[Job], code: str) -> None:
        # reversed: requeue prepends, so the group keeps its FIFO order.
        for job in reversed(group):
            job.attempts += 1
            if job.attempts <= self.config.retries:
                self.counters.retries.inc()
                self.jobs.requeue(job)
            else:
                self.counters.failed.inc()
                self.jobs.fail(job, code)

    # ------------------------------------------------------------------
    # Introspection

    def stats_counters(self) -> Dict[str, float]:
        counters = self.counters.as_dict()
        store = self.store.stats()
        counters.update(
            {
                "store.hits": store.hits,
                "store.misses": store.misses,
                "store.entries": store.entries,
            }
        )
        return counters

    def summary(self) -> str:
        c = self.counters
        line = (
            f"serve: {c.submitted.value} submitted, {c.hits.value} hits, "
            f"{c.executed.value} executed, {c.rejected.value} rejected"
        )
        if c.retries.value or c.failed.value:
            line += f", {c.retries.value} retried, {c.failed.value} failed"
        return line

    def metrics_payload(self) -> Dict[str, object]:
        """The live obs snapshot in the validated trace-file shape."""
        return build_payload(obs.tracer(), obs.registry())

    # ------------------------------------------------------------------
    # Connection handling

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._connections.add(writer)
        self.counters.connections.set(len(self._connections))
        out_queue: "asyncio.Queue[Optional[Dict[str, object]]]" = asyncio.Queue()
        flusher = asyncio.create_task(self._write_outgoing(writer, out_queue))
        responders: Set["asyncio.Task[None]"] = set()
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    await out_queue.put(
                        protocol.error_message(protocol.ERR_PROTOCOL, "line too long")
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = protocol.decode(line)
                except ServeError as exc:
                    await out_queue.put(protocol.error_message(exc.code, str(exc)))
                    continue
                await self._dispatch(message, out_queue, responders)
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            for responder in responders:
                responder.cancel()
            await out_queue.put(None)
            try:
                await flusher
            except (ConnectionError, asyncio.CancelledError):
                pass
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self._connections.discard(writer)
            self.counters.connections.set(len(self._connections))
            if task is not None:
                self._handler_tasks.discard(task)

    async def _write_outgoing(
        self,
        writer: asyncio.StreamWriter,
        out_queue: "asyncio.Queue[Optional[Dict[str, object]]]",
    ) -> None:
        while True:
            message = await out_queue.get()
            if message is None:
                return
            writer.write(protocol.encode(message))
            await writer.drain()

    async def _dispatch(
        self,
        message: Dict[str, object],
        out_queue: "asyncio.Queue[Optional[Dict[str, object]]]",
        responders: Set["asyncio.Task[None]"],
    ) -> None:
        op = message.get("op")
        if op == "submit":
            await self._dispatch_submit(message, out_queue, responders)
        elif op == "stats":
            await out_queue.put(
                protocol.stats_message(self.stats_counters(), self.summary())
            )
        elif op == "metrics":
            await out_queue.put(protocol.metrics_message(self.metrics_payload()))
        elif op == "shutdown":
            responder = asyncio.create_task(self._ack_shutdown(out_queue))
            responders.add(responder)
            responder.add_done_callback(responders.discard)
        else:
            await out_queue.put(
                protocol.error_message(protocol.ERR_PROTOCOL, f"unknown op {op!r}")
            )

    async def _dispatch_submit(
        self,
        message: Dict[str, object],
        out_queue: "asyncio.Queue[Optional[Dict[str, object]]]",
        responders: Set["asyncio.Task[None]"],
    ) -> None:
        request_id = protocol.request_id_of(message)
        payload = message.get("request")
        try:
            if not isinstance(payload, dict):
                raise RunSpecError("submit carries no request object")
            request = RunRequest.from_json(payload)
        except RunSpecError as exc:
            self.counters.rejected.inc()
            await out_queue.put(
                protocol.reject_message(request_id, protocol.ERR_BAD_REQUEST, str(exc))
            )
            return
        kind, detail = self.admit(request)
        if kind == HIT:
            key, results = detail
            self.counters.streamed.inc()
            await out_queue.put(
                protocol.result_message(
                    request_id, key, [r.to_json() for r in results], cached=True
                )
            )
        elif kind == REJECTED:
            key, code = detail
            await out_queue.put(protocol.reject_message(request_id, code))
        else:
            key, future = detail
            responder = asyncio.create_task(
                self._respond_when_resolved(request_id, key, future, out_queue)
            )
            responders.add(responder)
            responder.add_done_callback(responders.discard)

    async def _respond_when_resolved(
        self,
        request_id: object,
        key: str,
        future: "asyncio.Future[Tuple[str, object]]",
        out_queue: "asyncio.Queue[Optional[Dict[str, object]]]",
    ) -> None:
        status, payload = await future
        if status == "ok":
            results: List[RunResult] = payload  # type: ignore[assignment]
            self.counters.streamed.inc()
            await out_queue.put(
                protocol.result_message(
                    request_id, key, [r.to_json() for r in results], cached=False
                )
            )
        else:
            await out_queue.put(
                protocol.failed_message(
                    request_id,
                    str(payload),
                    attempts=(
                        1
                        if payload == protocol.ERR_EXECUTION
                        else self.config.retries + 1
                    ),
                )
            )

    async def _ack_shutdown(
        self, out_queue: "asyncio.Queue[Optional[Dict[str, object]]]"
    ) -> None:
        await self.shutdown()
        await out_queue.put(protocol.bye_message())
