"""Carrefour's three per-page heuristics (paper section 3.4).

* **interleave**: when memory controllers are overloaded, randomly migrate
  hot pages from overloaded nodes to underloaded nodes;
* **migration**: when the interconnect saturates, migrate hot pages that
  are remotely accessed by a *single* node to that node;
* **replication**: replicate hot read-only pages accessed by several
  nodes. The paper implements but *discards* this heuristic in the Xen
  port (marginal gains, deep memory-manager changes), so our engine ships
  it disabled by default.

Each heuristic is a boolean mask over the columnar sample arrays
(``*_candidates``); :meth:`repro.carrefour.engine.UserComponent.decide`
walks the masks in sample order under the migration budget. The
original per-sample walks are kept as a test-only oracle
(``tests/carrefour/decide_oracle.py``).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.hardware.counters import HotPageSample, HotPageSamples


class Action(enum.Enum):
    """What to do with one hot page."""

    MIGRATE = "migrate"
    INTERLEAVE = "interleave"
    REPLICATE = "replicate"


@dataclass(frozen=True)
class PageDecision:
    """One decision of the user component.

    Attributes:
        page: the page (gpfn in hypervisor mode, vpfn in Linux mode).
        domain_id: owning domain.
        action: which heuristic fired.
        dst_node: target node (meaningless for REPLICATE).
    """

    page: int
    domain_id: int
    action: Action
    dst_node: int


def sample_arrays(hot_pages: Sequence[HotPageSample]):
    """Columnar arrays over a hot-page sample list.

    The decide path works on these instead of per-sample attribute
    access: returns ``(pages, domains, accesses, write_fraction)``
    where ``accesses`` is the (num_samples, num_nodes) count matrix. A
    columnar :class:`HotPageSamples` hands back its own (frozen) arrays.
    """
    if isinstance(hot_pages, HotPageSamples):
        return (
            hot_pages.pages,
            hot_pages.domains,
            hot_pages.accesses,
            hot_pages.write_fraction,
        )
    n = len(hot_pages)
    pages = np.fromiter((s.page for s in hot_pages), dtype=np.int64, count=n)
    domains = np.fromiter(
        (s.domain_id for s in hot_pages), dtype=np.int64, count=n
    )
    accesses = np.array([s.node_accesses for s in hot_pages], dtype=np.int64)
    write_fraction = np.fromiter(
        (s.write_fraction for s in hot_pages), dtype=np.float64, count=n
    )
    return pages, domains, accesses, write_fraction


def migration_candidates(
    accesses: np.ndarray, nodes: np.ndarray, single_node_share: float
):
    """Pages remotely accessed by (essentially) a single node.

    Returns ``(mask, dominant)``: the samples whose dominant node holds at
    least ``single_node_share`` of the accesses while the page lives
    elsewhere (unmapped pages, node -1, never qualify), and each sample's
    dominant node — the migration target.
    """
    totals = accesses.sum(axis=1)
    dominant = np.argmax(accesses, axis=1)
    dom_counts = accesses[np.arange(accesses.shape[0]), dominant]
    mask = (
        (totals > 0)
        & (dom_counts >= single_node_share * totals)
        & (nodes >= 0)
        & (nodes != dominant)
    )
    return mask, dominant


def interleave_candidates(
    nodes: np.ndarray, overloaded: Sequence[int]
) -> np.ndarray:
    """Mapped pages that live on an overloaded node."""
    return (nodes >= 0) & np.isin(
        nodes, np.asarray(list(overloaded), dtype=np.int64)
    )


def replication_candidates(
    accesses: np.ndarray,
    write_fraction: np.ndarray,
    nodes: np.ndarray,
    max_write_fraction: float = 0.05,
    min_sharer_nodes: int = 2,
) -> np.ndarray:
    """Mapped, (almost) read-only pages shared by several nodes.

    Kept for completeness and for the ablation benchmark; the engine
    disables replication by default, like the paper's Xen port.
    """
    sharers = (accesses > 0).sum(axis=1)
    return (
        (write_fraction <= max_write_fraction)
        & (sharers >= min_sharer_nodes)
        & (nodes >= 0)
    )
