"""TLB model: the large-page perspective of the paper's section 7.

"Except the default round-1G policy, the NUMA policies presented in this
paper only consider small pages of 4 KiB. Handling large pages in order to
decrease the number of TLB misses should further improve performance."

With nested paging, the TLB caches guest-virtual to *machine*
translations; a miss triggers the expensive two-dimensional page walk.
The granularity of the **hypervisor page table** bounds the mapping size
the hardware can cache: a policy that places memory page-by-page
(round-4K, first-touch) forces 4 KiB nested mappings, while round-1G's
eager 1 GiB regions allow superpage mappings and thus far fewer misses.
This module quantifies that trade-off — the cost the fine-grained
policies pay for their placement freedom.

The model is a classic set-associative-reach estimate: the miss ratio is
how much of the working set the TLB cannot cover, scaled by a reuse
exponent; the miss penalty is the 2D walk cost (itself worse when the
page tables live on a remote node).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ReproError

#: Mapping granularities (bytes) a policy can sustain in the p2m.
GRANULARITY_4K = 4 * 1024
GRANULARITY_2M = 2 * 1024 * 1024
GRANULARITY_1G = 1024 * 1024 * 1024


@dataclass(frozen=True)
class TlbLevel:
    """One TLB array for one page size.

    Attributes:
        page_bytes: translation granularity.
        entries: number of cached translations.
    """

    page_bytes: int
    entries: int

    @property
    def reach_bytes(self) -> int:
        """Memory covered when the array is full."""
        return self.page_bytes * self.entries


@dataclass(frozen=True)
class TlbModel:
    """TLB reach and miss-cost model (Opteron-like defaults).

    Attributes:
        levels: per-page-size arrays (L2 TLB sizes; L1 is folded in).
        walk_cycles_local: cycles of a nested (2D) page walk when the
            page-table pages are node-local.
        walk_cycles_remote_penalty: extra cycles when they are remote.
        reuse_exponent: locality shaping of the miss curve.
    """

    levels: Tuple[TlbLevel, ...] = (
        TlbLevel(GRANULARITY_4K, 1024),
        TlbLevel(GRANULARITY_2M, 128),
        TlbLevel(GRANULARITY_1G, 16),
    )
    walk_cycles_local: float = 120.0
    walk_cycles_remote_penalty: float = 140.0
    reuse_exponent: float = 0.5

    def level_for(self, granularity_bytes: int) -> TlbLevel:
        """The TLB array used at a mapping granularity."""
        best = None
        for level in self.levels:
            if level.page_bytes <= granularity_bytes:
                if best is None or level.page_bytes > best.page_bytes:
                    best = level
        if best is None:
            raise ReproError(
                f"no TLB level for granularity {granularity_bytes}"
            )
        return best

    def miss_ratio(self, working_set_bytes: float, granularity_bytes: int) -> float:
        """Fraction of accesses that miss the TLB.

        Zero when the working set fits in the array's reach; otherwise
        shaped by ``(reach / working_set) ** reuse_exponent``.
        """
        if working_set_bytes <= 0:
            return 0.0
        level = self.level_for(granularity_bytes)
        reach = level.reach_bytes
        if working_set_bytes <= reach:
            return 0.0
        return 1.0 - (reach / working_set_bytes) ** self.reuse_exponent

    def miss_cycles(self, remote_fraction: float = 0.0) -> float:
        """Average cost of one miss given how often walks go remote."""
        remote_fraction = min(max(remote_fraction, 0.0), 1.0)
        return (
            self.walk_cycles_local
            + remote_fraction * self.walk_cycles_remote_penalty
        )

    def overhead_cycles_per_access(
        self,
        working_set_bytes: float,
        granularity_bytes: int,
        remote_fraction: float = 0.0,
    ) -> float:
        """Expected TLB cycles added to each memory access."""
        return self.miss_ratio(
            working_set_bytes, granularity_bytes
        ) * self.miss_cycles(remote_fraction)


#: Mapping granularity each NUMA policy sustains in the hypervisor page
#: table (section 7's observation).
POLICY_GRANULARITY: Dict[str, int] = {
    "round-1g": GRANULARITY_1G,
    "round-4k": GRANULARITY_4K,
    "first-touch": GRANULARITY_4K,
    "first-touch/carrefour": GRANULARITY_4K,
    "round-4k/carrefour": GRANULARITY_4K,
}


def policy_granularity(policy_name: str) -> int:
    """Nested-mapping granularity for a policy name (4 KiB by default)."""
    return POLICY_GRANULARITY.get(policy_name, GRANULARITY_4K)
