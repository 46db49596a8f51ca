"""Deduplicating, store-backed, optionally parallel request resolution."""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence

from repro import obs
from repro.obs.metrics import cell_attr
from repro.runner.exec import execute_request
from repro.runstore.base import RunStore
from repro.runstore.memory import MemoryRunStore
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest


class _ScopeAllocator:
    """Hands out deterministic per-process runner ordinals.

    An attribute on one holder object rather than a rebound module
    global, so the dataflow lint can see the write is confined to one
    owned object. Creation order is deterministic under serial
    execution, so identical invocations in fresh processes label their
    cells identically (trace byte-identity holds).
    """

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 1

    def allocate(self) -> str:
        ordinal = self._next
        self._next += 1
        return f"r{ordinal}"


_SCOPES = _ScopeAllocator()


class RunnerStats:
    """What one runner did across its ``resolve`` calls.

    Attribute-compatible with the dataclass this replaced; each field is
    a view over a metric cell registered with the active observability
    session (:mod:`repro.obs`).

    Every cell carries a ``runner=<scope>`` label identifying the owning
    runner instance. Registering the cells by bare name let two runners
    in one process (the serve layer holds one per worker) publish
    indistinguishable ``runner.requested``/``runner.executed`` cells, so
    any aggregated view — ``python -m repro.obs summary``, a metrics
    snapshot — double-counted them with no way to attribute work back to
    a runner. The scope defaults to a deterministic per-process ordinal
    (``r1``, ``r2``, ...); pass an explicit one to name a runner.

    Attributes:
        requested: requests handed to ``resolve`` (before dedup).
        deduplicated: duplicates coalesced away by cache key.
        executed: engine invocations actually performed.
        batched: executed requests that ran inside a multi-run group
            (:mod:`repro.core.multirun`) rather than one world at a time;
            always ``<= executed``, and 0 unless ``batch_worlds > 1``.
    """

    __slots__ = ("scope", "_requested", "_deduplicated", "_executed", "_batched")

    def __init__(self, scope: Optional[str] = None) -> None:
        self.scope = scope if scope is not None else _SCOPES.allocate()
        reg = obs.registry()
        self._requested = reg.counter("runner.requested", runner=self.scope)
        self._deduplicated = reg.counter("runner.deduplicated", runner=self.scope)
        self._executed = reg.counter("runner.executed", runner=self.scope)
        self._batched = reg.counter("runner.batched", runner=self.scope)

    requested = cell_attr("_requested")
    deduplicated = cell_attr("_deduplicated")
    executed = cell_attr("_executed")
    batched = cell_attr("_batched")

    def summary(self) -> str:
        # The batched count is appended, never interleaved: tooling greps
        # this line for substrings like "0 executed".
        line = (
            f"runner: {self.requested} requests, "
            f"{self.deduplicated} duplicates coalesced, "
            f"{self.executed} executed"
        )
        if self.batched:
            line += f", {self.batched} batched"
        return line


class Runner:
    """Executes run requests through a store, serially or in parallel.

    Args:
        store: the backing :class:`~repro.runstore.RunStore` (a fresh
            in-memory store when omitted).
        jobs: worker processes for cache misses. The default 1 executes
            in-process and in declaration order — the right mode for
            determinism debugging; results are identical either way.
        batch_worlds: when > 1, cache misses with compatible
            topology/config signatures execute through the multi-run
            batched engine (:mod:`repro.core.multirun`), up to this many
            worlds per structure-of-arrays group. Results and store
            entries are byte-identical to serial execution. Takes
            precedence over ``jobs`` for the grouped requests;
            incompatible misses fall back per request.
        name: label scoping this runner's stats cells in metric
            snapshots (default: a deterministic per-process ordinal).
    """

    def __init__(
        self,
        store: Optional[RunStore] = None,
        jobs: int = 1,
        batch_worlds: int = 1,
        name: Optional[str] = None,
    ) -> None:
        self.store = store if store is not None else MemoryRunStore()
        self.jobs = max(1, int(jobs))
        self.batch_worlds = max(1, int(batch_worlds))
        self.stats = RunnerStats(scope=name)

    # ------------------------------------------------------------------

    def resolve(self, requests: Sequence[RunRequest]) -> "ResultSet":
        """Resolve ``requests`` into a fresh :class:`ResultSet`."""
        results = ResultSet(self)
        results.resolve(requests)
        return results

    def _resolve_into(
        self, requests: Sequence[RunRequest], out: Dict[str, List[RunResult]]
    ) -> None:
        unique: Dict[str, RunRequest] = {}
        for request in requests:
            self.stats.requested += 1
            key = request.cache_key()
            if key in unique or key in out:
                self.stats.deduplicated += 1
            else:
                unique[key] = request
        todo: List[str] = []
        for key, request in unique.items():
            cached = self.store.get(key)
            if cached is not None:
                out[key] = cached
            else:
                todo.append(key)
        if not todo:
            return
        self.stats.executed += len(todo)
        tr = obs.tracer()
        if tr.enabled:
            # Emitted in the parent before dispatch, so the event order
            # (declaration order of the misses) is identical whether the
            # requests then execute serially or on worker processes.
            for key in todo:
                tr.instant("runner.execute", cat="runner", key=key)
        if self.batch_worlds > 1:
            # Imported lazily: multirun sits above the runner's executor
            # module (it builds worlds through runner.exec), so a
            # top-level import here would be circular.
            from repro.core.multirun import execute_batch

            outcome = execute_batch(
                [unique[key] for key in todo], self.batch_worlds
            )
            produced = outcome.results
            self.stats.batched += outcome.batched_runs
        elif self.jobs == 1 or len(todo) == 1:
            produced = [execute_request(unique[key]) for key in todo]
        else:
            with ProcessPoolExecutor(max_workers=min(self.jobs, len(todo))) as pool:
                produced = list(pool.map(execute_request, [unique[key] for key in todo]))
        for key, results in zip(todo, produced):
            self.store.put(key, results, request=unique[key])
            out[key] = results

    def summary(self) -> str:
        return f"{self.store.stats().summary()}; {self.stats.summary()}"


class ResultSet:
    """Resolved runs, addressable by request; can resolve follow-ups.

    Scenario ``assemble`` hooks receive one of these. Lookups of requests
    already resolved are dict accesses; asking for a request that was not
    pre-declared triggers a (store-backed, possibly parallel) follow-up
    resolution through the owning runner — that is how the two-stage
    scenarios (Figures 8-9 pick pair policies from sweep results) batch
    their second stage without lying about ``required_runs()``.
    """

    def __init__(self, runner: Runner) -> None:
        self._runner = runner
        self._results: Dict[str, List[RunResult]] = {}

    def resolve(self, requests: Sequence[RunRequest]) -> "ResultSet":
        """Batch-resolve ``requests`` (deduped against what is held)."""
        self._runner._resolve_into(requests, self._results)
        return self

    def get(self, request: RunRequest) -> List[RunResult]:
        """All results of ``request`` (one per VM), resolving if needed."""
        key = request.cache_key()
        if key not in self._results:
            self.resolve([request])
        return self._results[key]

    def one(self, request: RunRequest) -> RunResult:
        """The single result of a one-VM request."""
        return self.get(request)[0]

    def __contains__(self, request: RunRequest) -> bool:
        return request.cache_key() in self._results

    def __len__(self) -> int:
        return len(self._results)
