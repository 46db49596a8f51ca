"""The in-process run store (the old per-process memo dict, upgraded)."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.runstore.base import RunStore
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest


class MemoryRunStore(RunStore):
    """Dict-backed store; returns the stored objects themselves.

    ``data`` is deliberately a plain public dict, so tests can inspect
    the memo (key sets, subset relations) through the default runner's
    store, and ``clear()`` empties it *in place* so a held reference
    stays live.
    """

    def __init__(self) -> None:
        super().__init__()
        self.data: Dict[str, List[RunResult]] = {}

    def _load(self, key: str) -> Optional[List[RunResult]]:
        return self.data.get(key)

    def _save(self, key: str, results: List[RunResult], request: Optional[RunRequest]) -> None:
        self.data[key] = results

    def __len__(self) -> int:
        return len(self.data)

    def clear(self) -> None:
        self.data.clear()
        self.reset_counters()
