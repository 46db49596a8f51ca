"""NUMA policy base class, policy names and the per-epoch observation."""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import Sequence, Tuple

import numpy as np

from repro.core.page_queue import PageEvent
from repro.errors import PolicyError
from repro.hardware.counters import HotPageSample
from repro.hypervisor.domain import Domain


class PolicyName(str, enum.Enum):
    """The static placement policies studied in the paper."""

    ROUND_1G = "round-1g"
    ROUND_4K = "round-4k"
    FIRST_TOUCH = "first-touch"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class PolicySpec:
    """A full policy selection: a static base, optionally plus Carrefour.

    The paper evaluates round-1g, round-4k, first-touch,
    round-4k/carrefour and first-touch/carrefour (Carrefour never runs on
    top of round-1g).
    """

    base: PolicyName
    carrefour: bool = False

    @classmethod
    def parse(cls, text: str) -> "PolicySpec":
        """Parse ``"first-touch/carrefour"``-style policy strings."""
        parts = [p.strip().lower() for p in text.split("/") if p.strip()]
        if not parts:
            raise PolicyError("empty policy string")
        carrefour = False
        if parts[-1] == "carrefour":
            carrefour = True
            parts = parts[:-1]
        if len(parts) != 1:
            raise PolicyError(f"cannot parse policy {text!r}")
        try:
            base = PolicyName(parts[0])
        except ValueError:
            raise PolicyError(f"unknown base policy {parts[0]!r}") from None
        if carrefour and base is PolicyName.ROUND_1G:
            raise PolicyError("Carrefour does not run on top of round-1g")
        return cls(base=base, carrefour=carrefour)

    @property
    def label(self) -> str:
        """Human-readable label ("First-Touch / Carrefour" style)."""
        names = {
            PolicyName.ROUND_1G: "Round-1G",
            PolicyName.ROUND_4K: "Round-4K",
            PolicyName.FIRST_TOUCH: "First-Touch",
        }
        text = names[self.base]
        if self.carrefour:
            text += " / Carrefour"
        return text

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.label


@dataclass
class EpochObservation:
    """What the hardware counters showed during one epoch.

    Built by the simulation engine and fed to dynamic policies — this is
    the information real Carrefour gets from IBS sampling and the
    northbridge counters.

    Attributes:
        epoch_seconds: epoch length.
        access_matrix: accesses[src_node, dst_node] this epoch.
        controller_rho: per-node memory controller utilisation.
        max_link_rho: utilisation of the most loaded interconnect link.
        hot_pages: sampled hot pages with per-node access profiles
            (page ids are gpfns in hypervisor mode); the engine hands a
            columnar :class:`~repro.hardware.counters.HotPageSamples`.
    """

    epoch_seconds: float
    access_matrix: np.ndarray
    controller_rho: np.ndarray
    max_link_rho: float
    hot_pages: Sequence[HotPageSample] = field(default_factory=list)

    @property
    def total_accesses(self) -> float:
        return float(self.access_matrix.sum())

    @property
    def local_fraction(self) -> float:
        total = self.total_accesses
        if total == 0:
            return 1.0
        return float(np.trace(self.access_matrix) / total)

    @property
    def imbalance(self) -> float:
        """Relative std-dev of per-node access counts (Table 1 metric)."""
        counts = self.access_matrix.sum(axis=0)
        mean = counts.mean()
        if mean == 0:
            return 0.0
        return float(counts.std() / mean)


class NumaPolicy(abc.ABC):
    """A hypervisor-level NUMA placement policy.

    Lifecycle:

    * :meth:`populate` runs once at domain build and decides the initial
      guest-physical -> machine mapping (or leaves it to faults);
    * :meth:`on_hypervisor_fault` answers "which node?" for a faulting
      page;
    * :meth:`on_page_events` receives flushed alloc/release queues (only
      called when :attr:`wants_page_events` is True);
    * :meth:`on_epoch` lets dynamic policies act on counter observations;
      it returns the seconds of overhead the action cost (migration
      copies, engine time).
    """

    #: Policy identifier used in hypercalls and reports.
    name: str = "abstract"

    @property
    def is_dynamic(self) -> bool:
        """True when the policy acts on per-epoch observations."""
        return False

    @property
    def wants_page_events(self) -> bool:
        """True when the guest must report page alloc/release events."""
        return False

    @property
    def requires_iommu_disabled(self) -> bool:
        """True when the policy invalidates entries (breaks the IOMMU)."""
        return False

    @abc.abstractmethod
    def populate(self, domain: Domain) -> None:
        """Build the domain's initial memory placement."""

    @abc.abstractmethod
    def on_hypervisor_fault(
        self, domain: Domain, vcpu_id: int, gpfn: int, vcpu_node: int
    ) -> int:
        """Pick the node backing a faulting page."""

    def on_page_events(
        self, domain: Domain, events: Sequence[PageEvent]
    ) -> Tuple[int, int]:
        """Consume one flushed event queue; returns (invalidated, skipped)."""
        return (0, 0)

    def on_epoch(self, domain: Domain, observation: EpochObservation) -> float:
        """React to one epoch of counter data; returns overhead seconds."""
        return 0.0
