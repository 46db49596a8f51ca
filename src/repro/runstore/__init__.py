"""Persistent, content-addressed storage for simulation runs.

A run store maps a :meth:`~repro.sim.runspec.RunRequest.cache_key` to the
list of :class:`~repro.sim.results.RunResult` the engine produced for that
request (one per VM). Three backends:

* :class:`~repro.runstore.memory.MemoryRunStore` — a per-process dict,
  the store behind :func:`repro.experiments.common.default_runner`;
* :class:`~repro.runstore.disk.DiskRunStore` — one JSON file per key
  under a ``.runstore/`` directory, surviving across processes and
  invalidated wholesale when :data:`repro.sim.engine.ENGINE_VERSION`
  bumps;
* :class:`~repro.runstore.sharded.ShardedDiskRunStore` — the same JSON
  entries fanned out into hex-prefix shard directories, so many
  concurrent writer processes (the serving layer's worker pool) never
  contend on one directory inode.

All backends count hits and misses so the pipeline CLI can surface cache
effectiveness (the Figure 6 <- Figure 2 and Figure 10 <- Figure 7 run
sharing is visible as hits).
"""

from repro.runstore.base import RunStore, StoreStats
from repro.runstore.disk import DiskRunStore
from repro.runstore.memory import MemoryRunStore
from repro.runstore.sharded import ShardedDiskRunStore

#: Spec prefix selecting the sharded on-disk layout (``sharded:DIR``).
SHARDED_PREFIX = "sharded:"


def open_store(spec=None, sharded: bool = False) -> RunStore:
    """Open a store from a CLI-style spec.

    ``None``, ``""`` or ``"memory"`` give a fresh in-memory store; any
    other string is a directory path for an on-disk store. A
    ``sharded:DIR`` spec — or ``sharded=True`` — selects the hex-prefix
    sharded layout instead of the flat one.
    """
    if isinstance(spec, str) and spec.startswith(SHARDED_PREFIX):
        spec = spec[len(SHARDED_PREFIX):]
        sharded = True
    if spec is None or spec == "" or spec == "memory":
        return MemoryRunStore()
    if sharded:
        return ShardedDiskRunStore(spec)
    return DiskRunStore(spec)


__all__ = [
    "RunStore",
    "StoreStats",
    "MemoryRunStore",
    "DiskRunStore",
    "ShardedDiskRunStore",
    "SHARDED_PREFIX",
    "open_store",
]
