"""The run-store interface and its hit/miss accounting."""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional

from repro import obs
from repro.obs.metrics import cell_attr
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest


@dataclass(frozen=True)
class StoreStats:
    """Cache-effectiveness counters of one store.

    Attributes:
        hits: ``get`` calls that found stored results.
        misses: ``get`` calls that found nothing.
        entries: keys currently stored.
        invalidated: entries dropped because another engine version or
            store format wrote them (disk stores only; always 0 for
            memory stores).
    """

    hits: int
    misses: int
    entries: int
    invalidated: int = 0

    def summary(self) -> str:
        text = f"store: {self.hits} hits, {self.misses} misses, {self.entries} entries"
        if self.invalidated:
            text += (
                f" ({self.invalidated} invalidated by engine-version"
                " or store-format change)"
            )
        return text


class RunStore(abc.ABC):
    """Maps ``RunRequest.cache_key()`` -> the request's run results.

    The ``hits``/``misses`` attributes are views over metric cells
    registered with the active observability session (:mod:`repro.obs`);
    ``get`` additionally emits ``store.hit``/``store.miss`` trace events
    when tracing is on.
    """

    def __init__(self) -> None:
        reg = obs.registry()
        store = type(self).__name__
        self._hits = reg.counter("store.hits", store=store)
        self._misses = reg.counter("store.misses", store=store)

    hits = cell_attr("_hits")
    misses = cell_attr("_misses")

    # ------------------------------------------------------------------
    # Counted access

    def get(self, key: str) -> Optional[List[RunResult]]:
        """Stored results for ``key`` (counted as a hit or miss)."""
        results = self._load(key)
        if results is None:
            self.misses += 1
        else:
            self.hits += 1
        tr = obs.tracer()
        if tr.enabled:
            tr.instant(
                "store.hit" if results is not None else "store.miss",
                cat="store",
                store=type(self).__name__,
                key=key,
            )
        return results

    def put(self, key: str, results: List[RunResult], request: Optional[RunRequest] = None) -> None:
        """Store ``results`` under ``key`` (``request`` kept for provenance)."""
        self._save(key, results, request)

    def __contains__(self, key: str) -> bool:
        return self._load(key) is not None

    def stats(self) -> StoreStats:
        return StoreStats(
            hits=self.hits,
            misses=self.misses,
            entries=len(self),
            invalidated=self.invalidated_entries(),
        )

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0

    def invalidated_entries(self) -> int:
        """Entries dropped because of an engine-version or store-format mismatch."""
        return 0

    # ------------------------------------------------------------------
    # Backend interface

    @abc.abstractmethod
    def _load(self, key: str) -> Optional[List[RunResult]]:
        """Return stored results or None (no counting)."""

    @abc.abstractmethod
    def _save(self, key: str, results: List[RunResult], request: Optional[RunRequest]) -> None:
        """Persist results."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of stored entries."""

    @abc.abstractmethod
    def clear(self) -> None:
        """Drop every entry and reset the counters."""
