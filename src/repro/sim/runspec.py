"""Declarative run requests with stable, content-addressed cache keys.

A :class:`RunRequest` is the full identity of one engine invocation — the
environment (native Linux or a Xen feature set), the virtual machines (one
:class:`VmRequest` per domU; native runs have exactly one), and the
:class:`~repro.config.SimConfig` fields that can change results. It is a
frozen dataclass of primitives, so it pickles across process boundaries
(the parallel runner ships requests to workers, which rebuild the world
from scratch) and serializes to a *canonical* JSON form whose SHA-256
digest is a stable cache key:

* key order never matters — the canonical dump sorts keys;
* every field is serialized explicitly, defaults included, so adding a
  new request field with a default changes the canonical form (and the
  key) *visibly* rather than by accident;
* the config part comes from :meth:`SimConfig.result_fields`, which
  excludes check-only knobs (``sanitize_p2m``) — toggling those must hit
  the same cached runs.

Construction validates against :class:`~repro.errors.RunSpecError`, so a
malformed request fails when a scenario *declares* it, not epochs deep
into a worker process.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from repro.config import SimConfig, DEFAULT_CONFIG
from repro.errors import RunSpecError
from repro.workloads.suite import APP_NAMES

#: Valid environment discriminators. ``cluster`` is a multi-host Xen
#: deployment: the executor boots a fixed two-host cluster, places the
#: VMs through the placement scheduler and live-migrates the first VM
#: (see :mod:`repro.cluster`); everything else about the request — the
#: feature set, the per-VM policies — reads exactly like ``xen``.
ENVIRONMENTS = ("linux", "xen", "cluster")

#: Policies the native Linux kernel offers (Figure 2's static bases).
LINUX_POLICIES = ("first-touch", "round-4k")

#: Policies the hypervisor interface offers (Figure 7 plus the boot default).
XEN_POLICIES = ("round-1g", "round-4k", "first-touch")

#: Xen feature-set names (:data:`repro.hypervisor.xen.XEN` / ``XEN_PLUS``).
XEN_FEATURE_SETS = ("Xen", "Xen+")


def _tuple_or_none(value: Optional[Sequence[int]]) -> Optional[Tuple[int, ...]]:
    if value is None:
        return None
    return tuple(int(v) for v in value)


@dataclass(frozen=True)
class VmRequest:
    """One application slot of a run request.

    In a native-Linux request this describes the single process (``policy``
    is a Linux policy; ``mcs_locks`` selects the LinuxNUMA lock variant).
    In a Xen request it describes one domU (``policy`` is the hypervisor
    policy base; pinning/placement mirror :class:`repro.sim.environment.VmSpec`).
    """

    app: str
    policy: str = "round-4k"
    carrefour: bool = False
    mcs_locks: bool = False
    num_vcpus: Optional[int] = None
    home_nodes: Optional[Tuple[int, ...]] = None
    pin_pcpus: Optional[Tuple[int, ...]] = None
    memory_pages: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.app, str) or not self.app:
            raise RunSpecError(f"VmRequest needs an application name, got {self.app!r}")
        if self.app not in APP_NAMES:
            raise RunSpecError(f"VmRequest names an unknown application {self.app!r}")
        for name in ("num_vcpus", "memory_pages"):
            value = getattr(self, name)
            if value is not None and (not isinstance(value, int) or isinstance(value, bool)):
                raise RunSpecError(f"VmRequest {name} must be an integer, got {value!r}")
        # Accept any integer sequence for the placement fields but store
        # canonical tuples, so equal requests hash and pickle identically.
        object.__setattr__(self, "home_nodes", _tuple_or_none(self.home_nodes))
        object.__setattr__(self, "pin_pcpus", _tuple_or_none(self.pin_pcpus))

    def to_json(self) -> Dict:
        """All fields, defaults included (tuples become lists)."""
        return {
            "app": self.app,
            "policy": self.policy,
            "carrefour": self.carrefour,
            "mcs_locks": self.mcs_locks,
            "num_vcpus": self.num_vcpus,
            "home_nodes": None if self.home_nodes is None else list(self.home_nodes),
            "pin_pcpus": None if self.pin_pcpus is None else list(self.pin_pcpus),
            "memory_pages": self.memory_pages,
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "VmRequest":
        try:
            return cls(
                app=payload["app"],
                policy=payload.get("policy", "round-4k"),
                carrefour=bool(payload.get("carrefour", False)),
                mcs_locks=bool(payload.get("mcs_locks", False)),
                num_vcpus=payload.get("num_vcpus"),
                home_nodes=payload.get("home_nodes"),
                pin_pcpus=payload.get("pin_pcpus"),
                memory_pages=payload.get("memory_pages"),
            )
        except (KeyError, TypeError) as exc:
            raise RunSpecError(f"cannot rebuild VmRequest from {payload!r}: {exc}") from exc


@dataclass(frozen=True)
class RunRequest:
    """The identity of one engine invocation (one world, 1..n VMs)."""

    environment: str
    vms: Tuple[VmRequest, ...]
    features: str = ""
    unbatched_hypercalls: bool = False
    config: SimConfig = DEFAULT_CONFIG

    def __post_init__(self):
        object.__setattr__(self, "vms", tuple(self.vms))
        if self.environment not in ENVIRONMENTS:
            raise RunSpecError(
                f"unknown environment {self.environment!r}; expected one of {ENVIRONMENTS}"
            )
        if not self.vms:
            raise RunSpecError("a run request needs at least one VM/application")
        if self.environment == "linux":
            self._validate_linux()
        elif self.environment == "cluster":
            self._validate_cluster()
        else:
            self._validate_xen()

    # ------------------------------------------------------------------

    def _validate_linux(self) -> None:
        if self.features:
            raise RunSpecError("native Linux requests take no Xen feature set")
        if self.unbatched_hypercalls:
            raise RunSpecError("unbatched_hypercalls is a Xen-only knob")
        if len(self.vms) != 1:
            raise RunSpecError("native Linux requests run exactly one application")
        vm = self.vms[0]
        if vm.policy not in LINUX_POLICIES:
            raise RunSpecError(
                f"unknown Linux policy {vm.policy!r}; expected one of {LINUX_POLICIES}"
            )
        if vm.num_vcpus is not None or vm.home_nodes is not None or vm.pin_pcpus is not None:
            raise RunSpecError("vCPU/placement overrides are Xen-only fields")
        if vm.memory_pages is not None:
            raise RunSpecError("memory_pages is a Xen-only field")

    def _validate_xen(self) -> None:
        if self.features not in XEN_FEATURE_SETS:
            raise RunSpecError(
                f"unknown Xen feature set {self.features!r}; expected one of {XEN_FEATURE_SETS}"
            )
        for vm in self.vms:
            if vm.policy not in XEN_POLICIES:
                raise RunSpecError(
                    f"unknown Xen policy {vm.policy!r}; expected one of {XEN_POLICIES}"
                )
            if vm.carrefour and vm.policy == "round-1g":
                raise RunSpecError("Carrefour does not run on top of round-1g")
            if vm.mcs_locks:
                raise RunSpecError(
                    "MCS locks in a domU are a feature-set property (Xen+), "
                    "not a per-VM request field"
                )

    def _validate_cluster(self) -> None:
        # A cluster request is a Xen request deployed across hosts: the
        # same feature-set and per-VM policy vocabulary applies, and the
        # first VM is the one the executor live-migrates.
        self._validate_xen()
        if self.unbatched_hypercalls:
            raise RunSpecError(
                "unbatched_hypercalls is a single-host ablation knob; "
                "cluster requests always use the batched queue"
            )

    # ------------------------------------------------------------------
    # Canonical serialization and the cache key

    def to_json(self) -> Dict:
        """All fields, defaults included; nested VMs and config expanded."""
        return {
            "environment": self.environment,
            "features": self.features,
            "unbatched_hypercalls": self.unbatched_hypercalls,
            "vms": [vm.to_json() for vm in self.vms],
            "config": self.config.result_fields(),
        }

    @classmethod
    def from_json(cls, payload: Dict) -> "RunRequest":
        try:
            config = SimConfig(**payload.get("config", {}))
            return cls(
                environment=payload["environment"],
                vms=tuple(VmRequest.from_json(vm) for vm in payload["vms"]),
                features=payload.get("features", ""),
                unbatched_hypercalls=bool(payload.get("unbatched_hypercalls", False)),
                config=config,
            )
        except (KeyError, TypeError) as exc:
            raise RunSpecError(f"cannot rebuild RunRequest: {exc}") from exc

    def canonical(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — the hashed form."""
        return json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))

    def cache_key(self) -> str:
        """Stable content hash of the canonical form (hex SHA-256)."""
        return hashlib.sha256(self.canonical().encode("utf-8")).hexdigest()

    def describe(self) -> str:
        """Short human-readable label for logs and progress output."""
        apps = "+".join(vm.app for vm in self.vms)
        policies = "+".join(
            vm.policy + ("/carrefour" if vm.carrefour else "") for vm in self.vms
        )
        env = self.features if self.environment == "xen" else "Linux"
        return f"{env}:{apps}:{policies}"
