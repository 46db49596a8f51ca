"""Request constructors, best-policy pickers and the default pipeline.

The evaluation compares a fixed set of configurations:

* **Linux** — native, first-touch (the Linux default), blocking locks;
* **LinuxNUMA** — native, best policy per application, MCS locks for
  facesim/streamcluster (section 5.3.3);
* **Xen** — stock: round-1G placement, para-virtualised I/O, blocking
  locks over virtualised IPIs;
* **Xen+** — round-1G plus PCI passthrough and MCS locks (section 5.3);
* **Xen+NUMA** — Xen+ with the best NUMA policy per application
  (first-touch implies the passthrough driver turns off).

Scenarios declare these as :class:`~repro.sim.runspec.RunRequest` lists
(built by the constructors below) and the :mod:`repro.runner` resolves
them through a :mod:`repro.runstore` store — Figure 6 literally requires
Figure 2's sweep requests, Figure 10 requires Figure 7's, and the store
turns that shared identity into cache hits instead of relying on memo-dict
coincidence.

:func:`default_runner` is the process-wide serial runner over an in-memory
store that :meth:`Scenario.run <repro.experiments.registry.Scenario.run>`
resolves through when no runner is given.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.config import SimConfig
from repro.core.policies.base import PolicyName, PolicySpec
from repro.hypervisor.xen import XEN, XEN_PLUS, XenFeatures
from repro.runner import ResultSet, Runner
from repro.runstore.memory import MemoryRunStore
from repro.sim.environment import MCS_APPS
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest, VmRequest
from repro.workloads.app import AppSpec
from repro.workloads.suite import APPLICATIONS, get_app

#: The Linux policy combinations evaluated exhaustively in Figure 2.
LINUX_COMBOS: List[Tuple[str, bool]] = [
    ("first-touch", False),
    ("first-touch", True),
    ("round-4k", False),
    ("round-4k", True),
]

#: The Xen policies of Figure 7 (round-1G is the Xen+ baseline itself).
XEN_POLICIES: List[PolicySpec] = [
    PolicySpec(PolicyName.FIRST_TOUCH),
    PolicySpec(PolicyName.FIRST_TOUCH, carrefour=True),
    PolicySpec(PolicyName.ROUND_4K),
    PolicySpec(PolicyName.ROUND_4K, carrefour=True),
]

#: All Xen policies including the boot-only default.
XEN_POLICIES_ALL: List[PolicySpec] = [PolicySpec(PolicyName.ROUND_1G)] + XEN_POLICIES

# ----------------------------------------------------------------------
# The default pipeline (in-memory store, serial runner)

_STORE = MemoryRunStore()
_RUNNER = Runner(store=_STORE, jobs=1)


class _ConfigHolder:
    """Holds the process-default request-construction config.

    An attribute on a holder object (not a rebound module global) so the
    dataflow lint sees :func:`configured`'s swap as a confined write.
    """

    __slots__ = ("config",)

    def __init__(self) -> None:
        self.config = SimConfig()


_DEFAULT = _ConfigHolder()


def default_runner() -> Runner:
    """The process-wide serial runner scenarios resolve through by default."""
    return _RUNNER


def default_config() -> SimConfig:
    """The configuration every experiment runs with."""
    return _DEFAULT.config


@contextmanager
def configured(config: SimConfig):
    """Temporarily swap the default config (the CLI's tiny-config knob).

    Only affects *request construction*: workers always rebuild the world
    from the config embedded in the serialized request.
    """
    previous = _DEFAULT.config
    _DEFAULT.config = config
    try:
        yield config
    finally:
        _DEFAULT.config = previous


def select_apps(apps: Optional[Sequence[str]] = None) -> List[AppSpec]:
    """Resolve an app-name list (None = all 29)."""
    if apps is None:
        return list(APPLICATIONS)
    return [get_app(name) for name in apps]


def app_names(apps: Optional[Sequence[str]] = None) -> List[str]:
    """Like :func:`select_apps` but returning validated names."""
    return [app.name for app in select_apps(apps)]


# ----------------------------------------------------------------------
# Request constructors (the vocabulary scenarios declare runs in)


def linux_request(
    app_name: str,
    policy: str = "first-touch",
    carrefour: bool = False,
    mcs_locks: bool = False,
    config: Optional[SimConfig] = None,
) -> RunRequest:
    """One native-Linux run."""
    return RunRequest(
        environment="linux",
        vms=(
            VmRequest(
                app=app_name, policy=policy, carrefour=carrefour, mcs_locks=mcs_locks
            ),
        ),
        config=config or default_config(),
    )


def xen_request(
    app_name: str,
    policy: PolicySpec,
    features: XenFeatures = XEN_PLUS,
    config: Optional[SimConfig] = None,
) -> RunRequest:
    """One single-VM Xen run (48 vCPUs, all threads pinned)."""
    return RunRequest(
        environment="xen",
        vms=(
            VmRequest(
                app=app_name, policy=policy.base.value, carrefour=policy.carrefour
            ),
        ),
        features=features.name,
        config=config or default_config(),
    )


def xen_stock_request(app_name: str, config: Optional[SimConfig] = None) -> RunRequest:
    """Stock Xen (Figure 1): round-1G, PV I/O, blocking locks."""
    return xen_request(app_name, PolicySpec(PolicyName.ROUND_1G), features=XEN, config=config)


def xen_plus_request(app_name: str, config: Optional[SimConfig] = None) -> RunRequest:
    """Xen+ baseline (sections 5.3-5.4): round-1G with the mitigations."""
    return xen_request(
        app_name, PolicySpec(PolicyName.ROUND_1G), features=XEN_PLUS, config=config
    )


def pair_request(
    vms: Sequence[VmRequest],
    features: XenFeatures = XEN_PLUS,
    config: Optional[SimConfig] = None,
) -> RunRequest:
    """A multi-VM consolidated/colocated run (Figures 8 and 9)."""
    return RunRequest(
        environment="xen",
        vms=tuple(vms),
        features=features.name,
        config=config or default_config(),
    )


def cluster_request(
    app_names: Sequence[str],
    policy: str = "round-4k",
    num_vcpus: Optional[int] = 6,
    features: XenFeatures = XEN_PLUS,
    config: Optional[SimConfig] = None,
) -> RunRequest:
    """A two-host cluster run that live-migrates the first VM.

    The executor hard-wires the cluster shape (two hosts, migration at a
    fixed epoch, default protocol knobs) so the request vocabulary — and
    with it every existing cache key — stays unchanged.
    """
    return RunRequest(
        environment="cluster",
        vms=tuple(
            VmRequest(app=name, policy=policy, num_vcpus=num_vcpus)
            for name in app_names
        ),
        features=features.name,
        config=config or default_config(),
    )


def linux_numa_requests(
    app_name: str, config: Optional[SimConfig] = None
) -> List[RunRequest]:
    """The LinuxNUMA sweep: Figure 2's combos, MCS locks where they apply."""
    mcs = app_name in MCS_APPS
    return [
        linux_request(app_name, policy, carrefour, mcs_locks=mcs, config=config)
        for policy, carrefour in LINUX_COMBOS
    ]


def xen_numa_requests(
    app_name: str, config: Optional[SimConfig] = None
) -> List[RunRequest]:
    """The Xen+NUMA sweep: every policy including the round-1G default."""
    return [xen_request(app_name, spec, config=config) for spec in XEN_POLICIES_ALL]


# ----------------------------------------------------------------------
# Best-policy pickers (shared by the LinuxNUMA/Xen+NUMA scenarios)


def _pick_best(
    candidates: Iterable[Tuple[RunResult, str]]
) -> Tuple[RunResult, str]:
    """First strict minimum of completion time (ties keep the earlier)."""
    best: Optional[RunResult] = None
    best_label = ""
    for result, label in candidates:
        if best is None or result.completion_seconds < best.completion_seconds:
            best, best_label = result, label
    assert best is not None
    return best, best_label


def best_linux_numa(
    fetch: Callable[[RunRequest], RunResult],
    app_name: str,
    config: Optional[SimConfig] = None,
) -> Tuple[RunResult, str]:
    """LinuxNUMA winner for ``app_name``, reading runs through ``fetch``."""
    mcs = app_name in MCS_APPS
    return _pick_best(
        (
            fetch(linux_request(app_name, policy, carrefour, mcs_locks=mcs, config=config)),
            _linux_label(policy, carrefour),
        )
        for policy, carrefour in LINUX_COMBOS
    )


def best_xen_numa(
    fetch: Callable[[RunRequest], RunResult],
    app_name: str,
    config: Optional[SimConfig] = None,
) -> Tuple[RunResult, str]:
    """Xen+NUMA winner for ``app_name``, reading runs through ``fetch``."""
    return _pick_best(
        (fetch(xen_request(app_name, spec, config=config)), spec.label)
        for spec in XEN_POLICIES_ALL
    )


def _linux_label(policy: str, carrefour: bool) -> str:
    label = {"first-touch": "First-Touch", "round-4k": "Round-4K"}[policy]
    if carrefour:
        label += " / Carrefour"
    return label


__all__ = [
    "LINUX_COMBOS",
    "XEN_POLICIES",
    "XEN_POLICIES_ALL",
    "ResultSet",
    "default_runner",
    "default_config",
    "configured",
    "select_apps",
    "app_names",
    "linux_request",
    "xen_request",
    "xen_stock_request",
    "xen_plus_request",
    "pair_request",
    "cluster_request",
    "linux_numa_requests",
    "xen_numa_requests",
    "best_linux_numa",
    "best_xen_numa",
]
