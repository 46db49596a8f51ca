"""The application model: measured characteristics plus derived segments.

An :class:`AppSpec` carries exactly what the paper measures about each
application (Tables 1 and 2) plus a few modelling knobs, and derives the
memory-segment layout the simulation engine executes:

* a **shared** segment, first-touched by the master thread and accessed by
  every thread — its access weight is the calibrated ``master_share``, and
  one page of it may be disproportionately hot (``hot_weight``);
* one **private** segment per thread, first-touched and accessed by its
  owner, optionally churned (freed/reallocated continuously, the
  Streamflow allocator behaviour of the Mosbench applications).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import SimConfig
from repro.errors import WorkloadError
from repro.workloads.patterns import (
    SegmentSpec,
    hot_weight_for_ratio,
    master_share_for_imbalance,
)


@dataclass(frozen=True)
class AppSpec:
    """One benchmark application.

    Measured inputs (from the paper):

    Attributes:
        name: application name as in the paper.
        suite: benchmark suite ("parsec", "npb", "mosbench", "xstream",
            "ycsb").
        footprint_mb: memory footprint (Table 2).
        disk_mb_s: hard-drive read rate (Table 2).
        ctx_switches_k_s: intentional context switches, thousands per
            second per core (Table 2).
        ft_imbalance: load imbalance under first-touch in Linux (Table 1,
            as a fraction: 1.35 = 135%).
        r4k_imbalance: load imbalance under round-4K (Table 1).
        ft_interconnect: interconnect load under first-touch (Table 1).
        r4k_interconnect: interconnect load under round-4K (Table 1).
        imbalance_class: "low" / "moderate" / "high" (Table 1).
        best_linux: the best Linux policy (Table 4), for reference.
        best_xen: the best Xen+ policy (Table 4), for reference.

    Modelling knobs:

    Attributes:
        churn_per_thread_s: page releases per thread per second (the
            Streamflow mmap/munmap churn; wrmem: one per 15 us).
        burst_noise: probability per epoch of a transient remote access
            burst on private data — the behaviour that misleads Carrefour
            on the "low" applications (section 3.5.2).
        shared_write_fraction: write ratio of the shared segment.
        io_block_kib: read granularity used against the disk model.
        baseline_seconds: nominal uncontended runtime (sets total work).
    """

    name: str
    suite: str
    footprint_mb: float
    disk_mb_s: float
    ctx_switches_k_s: float
    ft_imbalance: float
    r4k_imbalance: float
    ft_interconnect: float
    r4k_interconnect: float
    imbalance_class: str
    best_linux: str = ""
    best_xen: str = ""
    churn_per_thread_s: float = 0.0
    burst_noise: float = 0.0
    shared_write_fraction: float = 0.2
    io_block_kib: int = 64
    baseline_seconds: float = 40.0

    def __post_init__(self):
        if self.footprint_mb <= 0:
            raise WorkloadError(f"{self.name}: footprint must be positive")
        if self.imbalance_class not in ("low", "moderate", "high"):
            raise WorkloadError(f"{self.name}: bad imbalance class")

    # ------------------------------------------------------------------
    # Derived parameters

    @property
    def master_share(self) -> float:
        """Fraction of accesses hitting master-initialised memory."""
        return master_share_for_imbalance(self.ft_imbalance)

    @property
    def hot_weight(self) -> float:
        """Fraction of shared accesses hitting the single hot page."""
        return hot_weight_for_ratio(self.r4k_imbalance, self.ft_imbalance)

    @property
    def footprint_bytes(self) -> float:
        return self.footprint_mb * (1 << 20)

    def segments(self) -> List[SegmentSpec]:
        """The abstract segment layout (resolved by :func:`build_segments`)."""
        share = self.master_share
        specs: List[SegmentSpec] = []
        # The master-allocated hot region is denser than its access share:
        # cap its size at half the footprint (hot data structures are
        # compact and contiguous — which is also why round-1G's coarse
        # chunks tend to land them on few nodes). Keep both segments
        # non-empty so every thread owns pages.
        shared_fraction = min(max(share, 0.02), 0.5)
        specs.append(
            SegmentSpec(
                name="shared",
                fraction=shared_fraction,
                init="master",
                access="all",
                weight=share,
                hot_weight=self.hot_weight,
                write_fraction=self.shared_write_fraction,
            )
        )
        specs.append(
            SegmentSpec(
                name="private",
                fraction=1.0 - shared_fraction,
                init="owner",
                access="owner",
                weight=1.0 - share,
                churn=self.churn_per_thread_s > 0,
            )
        )
        return specs


@dataclass
class SegmentDef:
    """A segment resolved to concrete page counts for one run.

    Attributes:
        spec: the abstract segment.
        num_pages: simulated pages (for per-thread segments, pages per
            thread owner).
        owner_tid: owning thread for "owner" segments (None = shared).
    """

    spec: SegmentSpec
    num_pages: int
    owner_tid: Optional[int] = None

    @property
    def name(self) -> str:
        if self.owner_tid is None:
            return self.spec.name
        return f"{self.spec.name}[{self.owner_tid}]"


def build_segments(
    app: AppSpec, num_threads: int, config: SimConfig
) -> List[SegmentDef]:
    """Resolve an application's segments for a run with ``num_threads``.

    Owner segments are split into one :class:`SegmentDef` per thread.
    Every segment gets at least one page.
    """
    if num_threads < 1:
        raise WorkloadError("need at least one thread")
    total_pages = config.pages_for_bytes(app.footprint_bytes)
    defs: List[SegmentDef] = []
    for spec in app.segments():
        pages = max(1, int(round(total_pages * spec.fraction)))
        if spec.access == "owner":
            per_thread = max(1, pages // num_threads)
            for tid in range(num_threads):
                defs.append(SegmentDef(spec=spec, num_pages=per_thread, owner_tid=tid))
        else:
            defs.append(SegmentDef(spec=spec, num_pages=pages))
    return defs
