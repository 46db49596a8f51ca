"""The bounded admission queue: dedup, backpressure, drain.

One :class:`Job` is one *distinct* cache key awaiting execution. Any
number of submissions — from the same client or different ones — attach
to the job as waiter futures, so a key executes at most once no matter
how many clients ask for it while it is queued or in flight (the
cross-client analogue of the runner's per-batch dedup). A job stays in
the ``pending`` index from admission until its results (or its failure)
are published, which is what makes the attach window cover in-flight
execution, not just the queue.

Backpressure is explicit: :meth:`JobQueue.offer` returns ``"full"`` when
the number of *queued* jobs has reached ``maxsize`` — the caller turns
that into a protocol-level rejection rather than an unbounded buffer.
Retries requeue at the front and bypass the bound (a retried job was
admitted once; bouncing it on a full queue would drop work the server
already accepted).

Waiter futures always resolve to a tuple, never an exception:
``("ok", results)`` or ``("failed", error_code)`` — a waiter whose
client disconnected mid-flight is simply never awaited, and tuple
results keep that from warning about unretrieved exceptions.
"""

from __future__ import annotations

import asyncio
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest

#: Admission outcomes of :meth:`JobQueue.offer`.
QUEUED = "queued"
ATTACHED = "attached"
FULL = "full"
CLOSED = "closed"

WaiterResult = Tuple[str, object]


class Job:
    """One distinct cache key on its way through the queue."""

    __slots__ = ("key", "request", "waiters", "attempts")

    def __init__(self, key: str, request: RunRequest) -> None:
        self.key = key
        self.request = request
        self.waiters: List["asyncio.Future[WaiterResult]"] = []
        self.attempts = 0

    def add_waiter(self) -> "asyncio.Future[WaiterResult]":
        future: "asyncio.Future[WaiterResult]" = (
            asyncio.get_running_loop().create_future()
        )
        self.waiters.append(future)
        return future

    def publish(self, outcome: WaiterResult) -> None:
        for waiter in self.waiters:
            if not waiter.done():
                waiter.set_result(outcome)


class JobQueue:
    """Bounded, deduplicating FIFO of jobs plus the pending index."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = max(1, int(maxsize))
        self._ready: Deque[Job] = deque()
        self._pending: Dict[str, Job] = {}
        self._wakeup = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self._closed = False

    # ------------------------------------------------------------------
    # Admission (connection handlers)

    def offer(
        self, key: str, request: RunRequest
    ) -> Tuple[str, Optional["asyncio.Future[WaiterResult]"]]:
        """Admit ``request`` under ``key``.

        Returns ``(ATTACHED, future)`` when the key is already queued or
        in flight, ``(QUEUED, future)`` when a new job was enqueued,
        ``(FULL, None)`` on backpressure and ``(CLOSED, None)`` once the
        queue stopped admitting.
        """
        job = self._pending.get(key)
        if job is not None:
            return ATTACHED, job.add_waiter()
        if self._closed:
            return CLOSED, None
        if len(self._ready) >= self.maxsize:
            return FULL, None
        job = Job(key, request)
        future = job.add_waiter()
        self._pending[key] = job
        self._ready.append(job)
        self._idle.clear()
        self._wakeup.set()
        return QUEUED, future

    # ------------------------------------------------------------------
    # Draining (worker tasks)

    async def next_job(self) -> Optional[Job]:
        """The next queued job; None once closed and fully drained."""
        while True:
            if self._ready:
                return self._ready.popleft()
            if self._closed:
                return None
            self._wakeup.clear()
            await self._wakeup.wait()

    def take_extra(self, limit: int) -> List[Job]:
        """Up to ``limit`` more queued jobs, for batched execution."""
        extra: List[Job] = []
        while len(extra) < limit and self._ready:
            extra.append(self._ready.popleft())
        return extra

    def requeue(self, job: Job) -> None:
        """Put a job back at the front for a retry (bypasses the bound)."""
        self._ready.appendleft(job)
        self._wakeup.set()

    def finish(self, job: Job, results: List[RunResult]) -> None:
        """Publish results to every waiter and drop the pending entry."""
        self._forget(job)
        job.publish(("ok", results))

    def fail(self, job: Job, error_code: str) -> None:
        """Publish a terminal failure to every waiter."""
        self._forget(job)
        job.publish(("failed", error_code))

    def _forget(self, job: Job) -> None:
        self._pending.pop(job.key, None)
        if not self._pending:
            self._idle.set()

    # ------------------------------------------------------------------
    # Introspection and lifecycle

    def depth(self) -> int:
        """Jobs queued but not yet picked up by a worker."""
        return len(self._ready)

    def in_flight(self) -> int:
        """Jobs picked up by a worker and not yet published."""
        return len(self._pending) - len(self._ready)

    def pending(self) -> int:
        """Jobs admitted and not yet published (queued + in flight)."""
        return len(self._pending)

    async def drained(self) -> None:
        """Wait until every admitted job has been published."""
        await self._idle.wait()

    def close(self) -> None:
        """Stop admitting; queued jobs still drain, workers then stop."""
        self._closed = True
        self._wakeup.set()
