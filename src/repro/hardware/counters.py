"""Hardware performance counters and hot-page sampling.

Real Carrefour consumes AMD Instruction-Based Sampling: per-node memory
access counts, interconnect link utilisation, and a sampled stream of hot
physical pages annotated with which nodes access them. The simulated
counters expose the same information, computed exactly per epoch and
optionally thinned by a sampling rate (IBS samples a small fraction of
instructions; exact counts thinned stochastically are a faithful stand-in).

The paper notes (Table 1 footnote) that Carrefour monopolises the counter
registers, which is why Table 1 only reports first-touch/round-4K runs; we
model that exclusivity with an ``owner`` claim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: Bytes transferred per memory access (one cache line).
CACHE_LINE_BYTES = 64


@dataclass(frozen=True)
class HotPageSample:
    """Sampled access profile of one (guest-physical) page.

    Attributes:
        page: page identifier (gpfn for hypervisor Carrefour, vpfn in Linux).
        domain_id: owning domain (or 0 in native mode).
        node_accesses: per-node access counts observed for the page.
        write_fraction: fraction of sampled accesses that were writes.
    """

    page: int
    domain_id: int
    node_accesses: Tuple[int, ...]
    write_fraction: float = 0.0

    @property
    def total(self) -> int:
        return int(sum(self.node_accesses))


class HotPageSamples(Sequence[HotPageSample]):
    """A hot-page sample stream held as columns.

    The engine samples hundreds of pages per epoch and the vectorized
    decide path consumes them as arrays, so the stream never needs to
    exist as per-sample objects. Indexing and iteration still materialise
    :class:`HotPageSample` values, so scalar consumers (the per-sample
    heuristics of the test oracles) read it like a list.

    Attributes:
        pages: page identifier per sample (int64).
        domains: owning domain per sample (int64).
        accesses: (num_samples, num_nodes) per-node access counts (int64).
        write_fraction: write fraction per sample (float64).

    All four arrays are frozen (``setflags(write=False)``): the stream is
    shared by every consumer of the epoch's observation.
    """

    __slots__ = ("pages", "domains", "accesses", "write_fraction")

    def __init__(
        self,
        pages: np.ndarray,
        domains: np.ndarray,
        accesses: np.ndarray,
        write_fraction: np.ndarray,
    ):
        n = len(pages)
        if accesses.ndim != 2 or not (
            len(domains) == accesses.shape[0] == len(write_fraction) == n
        ):
            raise ValueError("hot-page sample columns disagree in length")
        for column in (pages, domains, accesses, write_fraction):
            column.setflags(write=False)
        self.pages = pages
        self.domains = domains
        self.accesses = accesses
        self.write_fraction = write_fraction

    def __len__(self) -> int:
        return len(self.pages)

    def __getitem__(self, index):
        return HotPageSample(
            page=int(self.pages[index]),
            domain_id=int(self.domains[index]),
            node_accesses=tuple(self.accesses[index].tolist()),
            write_fraction=float(self.write_fraction[index]),
        )

    def __iter__(self) -> Iterator[HotPageSample]:
        # One bulk conversion per column instead of four per sample.
        for page, domain, counts, write in zip(
            self.pages.tolist(),
            self.domains.tolist(),
            self.accesses.tolist(),
            self.write_fraction.tolist(),
        ):
            yield HotPageSample(page, domain, tuple(counts), write)


class PerfCounters:
    """Per-epoch access matrix plus cumulative history.

    ``matrix[src, dst]`` counts memory accesses issued by CPUs of node
    ``src`` to frames of node ``dst`` in the current epoch.
    """

    def __init__(self, num_nodes: int):
        self.num_nodes = num_nodes
        self.matrix = np.zeros((num_nodes, num_nodes), dtype=np.float64)
        self.epoch_history: List[np.ndarray] = []
        self._owner: Optional[str] = None

    # ------------------------------------------------------------------
    # Exclusivity (Carrefour uses all counter registers)

    def claim(self, owner: str) -> None:
        """Reserve the counter registers for ``owner``.

        Raises:
            RuntimeError: if another owner already holds them.
        """
        if self._owner is not None and self._owner != owner:
            raise RuntimeError(
                f"performance counters already claimed by {self._owner!r}"
            )
        self._owner = owner

    def release(self, owner: str) -> None:
        """Release a previous claim."""
        if self._owner == owner:
            self._owner = None

    @property
    def owner(self) -> Optional[str]:
        return self._owner

    # ------------------------------------------------------------------
    # Recording

    def record(self, src_node: int, dst_node: int, count: float) -> None:
        """Account ``count`` accesses from ``src_node`` to ``dst_node``."""
        self.matrix[src_node, dst_node] += count

    def record_matrix(self, matrix: np.ndarray) -> None:
        """Accumulate a whole per-epoch access matrix (engine hot path)."""
        self.matrix += matrix

    def end_epoch(self) -> np.ndarray:
        """Archive and reset the per-epoch matrix; returns the snapshot.

        The returned array *is* the archived history entry, frozen
        (``setflags(write=False)``): a caller writing through the alias
        would silently rewrite :attr:`epoch_history`.
        """
        snapshot = self.matrix.copy()
        snapshot.setflags(write=False)
        self.epoch_history.append(snapshot)
        self.matrix = np.zeros_like(self.matrix)
        return snapshot

    # ------------------------------------------------------------------
    # Derived metrics

    def node_access_counts(self, matrix: Optional[np.ndarray] = None) -> np.ndarray:
        """Accesses served by each node's memory (column sums)."""
        m = self.matrix if matrix is None else matrix
        return m.sum(axis=0)

    def imbalance(self, matrix: Optional[np.ndarray] = None) -> float:
        """Relative standard deviation of per-node access counts.

        This is the paper's Table 1 "load imbalance" metric: the standard
        deviation around the average number of accesses per node, relative
        to that average (reported as a percentage by the analysis layer).
        """
        counts = self.node_access_counts(matrix)
        mean = counts.mean()
        if mean == 0:
            return 0.0
        return float(counts.std() / mean)
