"""Execution backends: how the serve layer turns misses into results.

A backend executes a *group* of distinct run requests and returns one
result list per request, in request order. Both backends reuse the
existing :class:`~repro.runner.Runner` — handed a private in-memory
store and the server's ``batch_worlds`` — so a group of compatible
requests from *different clients* executes as one structure-of-arrays
program through :mod:`repro.core.multirun`, exactly like a single
``--batch-worlds`` CLI invocation would. The serve layer owns the
durable store; backends stay pure executors (results come back, the
event loop publishes them and writes the store), which is what makes a
worker process dying mid-batch retryable without a half-written store.

:class:`ProcessBackend` is the production backend: a process pool sized
to the worker count, so per-request timeouts have teeth (a hung or dead
worker process surfaces as :class:`WorkerDied`/``TimeoutError`` and
:meth:`ProcessBackend.reset` replaces the pool). :class:`InlineBackend`
executes on the default thread executor — no process boundary, used by
tests and ``--inline`` debugging where determinism matters more than
isolation.
"""

from __future__ import annotations

import abc
import asyncio
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import List, Sequence

from repro import obs
from repro.errors import ServeError
from repro.runner.runner import Runner
from repro.runstore.memory import MemoryRunStore
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest


class WorkerDied(ServeError):
    """The execution worker process died under a group."""

    def __init__(self, detail: str = "") -> None:
        super().__init__("worker-died", detail or "execution worker process died")


def execute_group(
    requests: Sequence[RunRequest], batch_worlds: int
) -> List[List[RunResult]]:
    """Execute distinct ``requests``; one result list per request, in order.

    Module-level so the process pool can pickle the reference. The
    private runner gives the group multi-run batching and (defensive)
    same-key dedup; its memory store is discarded with the process —
    the caller owns the durable store.
    """
    runner = Runner(store=MemoryRunStore(), batch_worlds=batch_worlds)
    resolved = runner.resolve(list(requests))
    return [list(resolved.get(request)) for request in requests]


class ExecutionBackend(abc.ABC):
    """Executes request groups on behalf of the serve worker tasks."""

    @abc.abstractmethod
    async def execute(
        self, requests: Sequence[RunRequest], batch_worlds: int
    ) -> List[List[RunResult]]:
        """Run ``requests`` to completion (raises WorkerDied on death)."""

    async def reset(self) -> None:
        """Recover after a death/timeout (default: nothing to recycle)."""

    async def close(self) -> None:
        """Release executor resources on shutdown."""


class ProcessBackend(ExecutionBackend):
    """Executes groups on a replaceable process pool.

    The pool is shared by every serve worker task; ``reset`` abandons it
    (without waiting on hung workers) and starts a fresh one. Groups that
    were in flight on the abandoned pool surface as :class:`WorkerDied`
    and take the server's retry path — a deliberate collateral: after a
    timeout the old pool's state is unknown, and re-executing a pure
    request is always safe.
    """

    def __init__(self, max_workers: int) -> None:
        self.max_workers = max(1, int(max_workers))
        self._pool = self._new_pool()

    def _new_pool(self) -> ProcessPoolExecutor:
        # Forked workers would inherit the server's observability
        # session and keep recording into a copy nobody reads.
        return ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=obs.drop_inherited_session
        )

    async def execute(
        self, requests: Sequence[RunRequest], batch_worlds: int
    ) -> List[List[RunResult]]:
        loop = asyncio.get_running_loop()
        try:
            return await loop.run_in_executor(
                self._pool, execute_group, list(requests), batch_worlds
            )
        except BrokenProcessPool as exc:
            raise WorkerDied(str(exc)) from exc

    async def reset(self) -> None:
        old = self._pool
        self._pool = self._new_pool()
        old.shutdown(wait=False, cancel_futures=True)

    async def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


class InlineBackend(ExecutionBackend):
    """Executes groups on the default thread executor (no isolation).

    Timeouts cannot interrupt a running group here (there is no process
    to abandon) — use it where requests are trusted to terminate: tests,
    ``--inline`` debugging, single-tenant batch jobs.
    """

    async def execute(
        self, requests: Sequence[RunRequest], batch_worlds: int
    ) -> List[List[RunResult]]:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, execute_group, list(requests), batch_worlds)
