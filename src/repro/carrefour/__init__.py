"""The Carrefour memory-traffic management engine, ported to the hypervisor.

Carrefour (Dashti et al., ASPLOS 2013) dynamically migrates hot pages to
balance memory controllers and improve locality. The original splits into:

* a **system component** in the kernel: reads hardware counters, attaches
  metrics to hot pages, migrates pages on request;
* a **user component** in user space: decides which pages move where.

The paper's port (section 4.3) keeps the split: the system component runs
*inside Xen* and observes vCPUs instead of threads; the user component runs
as a dom0 process and talks to it through a forwarded hypercall.

Linux and the Xen port share one decision path: each hands its
:class:`SystemComponent` a batch placement lookup (vpfns via the Linux
frame map, gpfns via the p2m), and :meth:`UserComponent.decide` picks
pages with the heuristics' masks over the columnar hot-page samples.
"""

from repro.carrefour.metrics import CarrefourMetrics, compute_metrics
from repro.carrefour.heuristics import (
    Action,
    PageDecision,
)
from repro.carrefour.engine import (
    CarrefourConfig,
    CarrefourEngine,
    SystemComponent,
    UserComponent,
)

__all__ = [
    "CarrefourMetrics",
    "compute_metrics",
    "Action",
    "PageDecision",
    "CarrefourConfig",
    "CarrefourEngine",
    "SystemComponent",
    "UserComponent",
]
