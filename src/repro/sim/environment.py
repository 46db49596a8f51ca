"""Execution environments: native Linux and Xen/Xen+.

An environment builds a *world*: a fresh machine, the OS/hypervisor stack
on top, and one :class:`~repro.sim.instance.AppRun` per application, each
with a context object that performs the real memory mechanics (guest
faults, hypervisor faults, page-event queues, policy switches).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimConfig, DEFAULT_CONFIG
from repro.core.page_queue import lock_service_slowdown
from repro.core.policies.base import PolicyName, PolicySpec
from repro.core.interface import ExternalInterface
from repro.guest.numa import LinuxNumaMode
from repro.guest.page_alloc import GuestPageAllocator
from repro.guest.pv_patch import PvNumaPatch
from repro.guest.sync import SyncModel
from repro.guest.vmm import GuestAddressSpace
from repro.hardware.machine import Machine
from repro.hardware.presets import amd48
from repro.hypervisor.xen import Hypervisor, XenFeatures, XEN_PLUS
from repro.sim.host import Host
from repro.sim.calibration import calibrate_app
from repro.sim.instance import AppRun, RuntimeSegment, ThreadCtx
from repro.sim.placement import PlacementTracker
from repro.util import stable_hash
from repro.vio.disk import DiskModel, IoMode
from repro.workloads.app import AppSpec, build_segments

#: The two applications whose blocking locks Xen+ replaces with MCS spin
#: loops in single-VM runs (section 5.3.2).
MCS_APPS = frozenset({"facesim", "streamcluster"})

#: Guest kernel syscall cost charged per churned page in native mode.
NATIVE_CHURN_SYSCALL_SECONDS = 0.2e-6

GIB = 1 << 30


@dataclass
class VmSpec:
    """One virtual machine of a Xen experiment.

    Attributes:
        app: the application it runs (one app per VM, as in the paper).
        policy: the NUMA policy selection.
        num_vcpus: vCPU count (defaults to the machine's CPU count).
        home_nodes: NUMA placement (defaults to Xen's greedy choice).
        pin_pcpus: explicit vCPU->pCPU pinning.
        memory_pages: guest-physical size override (sized from the
            footprint plus the fragmented head/tail GiBs when omitted).
    """

    app: AppSpec
    policy: PolicySpec = field(default_factory=lambda: PolicySpec(PolicyName.ROUND_4K))
    num_vcpus: Optional[int] = None
    home_nodes: Optional[Sequence[int]] = None
    pin_pcpus: Optional[Sequence[int]] = None
    memory_pages: Optional[int] = None


@dataclass
class World:
    """Everything one engine invocation simulates.

    Attributes:
        epoch_hooks: callables invoked at the *start* of given epochs —
            the hook point for mid-run events like vCPU migrations (the
            load-balancing scenario of the paper's introduction).
    """

    machine: Machine
    runs: List[AppRun]
    label: str
    epoch_seconds: float
    teardown: Callable[[], None] = lambda: None
    epoch_hooks: dict = field(default_factory=dict)
    #: The host this world runs on (None for native-Linux worlds, which
    #: have no hypervisor). Cluster code navigates World -> Host to reach
    #: the hypervisor owning the world's domains.
    host: Optional[Host] = None

    def at_epoch(self, epoch: int, hook: Callable[["World"], None]) -> None:
        """Schedule ``hook(world)`` at the start of ``epoch``."""
        self.epoch_hooks.setdefault(epoch, []).append(hook)


def migrate_vcpu(run, tid: int, new_pcpu: int) -> None:
    """Move one vCPU (and its pinned thread) to a new physical CPU.

    This is the hypervisor-side load balancing the paper's introduction
    defends: because the NUMA policy lives *below* the guest, the vCPU can
    move freely — the guest never sees a topology change (unlike the
    Amazon EC2 approach of exposing the topology, which pins the vCPU
    layout for the VM's lifetime). The thread's placement becomes remote
    until the policy (e.g. Carrefour) migrates its hot pages after it.
    """
    context = run.context
    hypervisor = context.hypervisor
    vcpu = context.domain.vcpus[tid]
    hypervisor.scheduler.pin(vcpu, new_pcpu)
    thread = run.threads[tid]
    thread.node = hypervisor.machine.topology.node_of_cpu(new_pcpu)
    thread.cpu_share = hypervisor.scheduler.cpu_share(vcpu)


class Environment:
    """Base class: holds the machine factory and shared knobs."""

    label = "abstract"

    def __init__(
        self,
        config: SimConfig = DEFAULT_CONFIG,
        machine_factory: Optional[Callable[[], Machine]] = None,
        disk: Optional[DiskModel] = None,
    ):
        self.config = config
        self._machine_factory = machine_factory or (
            lambda: amd48(config=config)
        )
        self.disk = disk or DiskModel()

    def _threads_per_run(self, machine: Machine, count: int) -> int:
        return count if count else machine.num_cpus


# ======================================================================
# Shared run-context plumbing
# ======================================================================


class _PolicyContext:
    """Shared plumbing of the per-run contexts (native Linux and domU).

    Owns everything both environments do identically: the segment->VMA
    mapping, the touch/release templates with their first-access fault
    accounting, and the policy/teardown entry points the engine calls.
    Subclasses wire in their address-space backing and implement the four
    hooks (``_segment_attached``, ``_node_of_touch``, ``_release_mapped``,
    ``_policy_cost``).

    The release path deliberately checks "is this page mapped?" once, up
    front, for both environments — the two historical copies had drifted
    (native detected an unmapped release only after attempting the unmap,
    the domU version before touching any state).
    """

    #: Set by subclasses before any page operation.
    aspace: GuestAddressSpace

    def __init__(
        self,
        sync_fraction: float,
        churn_slowdown: float,
        io_seconds_per_op: float,
        fault_cost_seconds: float = 0.5e-6,
    ):
        self.sync_fraction = sync_fraction
        self.churn_slowdown = churn_slowdown
        self.io_seconds_per_op = io_seconds_per_op
        self.fault_cost_seconds = fault_cost_seconds
        self._init_faults = 0
        self._vma_of_segment: dict = {}

    # ------------------------------------------------------------------
    # Segments

    def attach_segment(self, segment: RuntimeSegment) -> None:
        vma = self.aspace.mmap(segment.definition.name, segment.num_pages)
        self._vma_of_segment[id(segment)] = vma
        self._segment_attached(segment, vma)

    def _segment_attached(self, segment: RuntimeSegment, vma) -> None:
        """Hook: per-page bookkeeping once the VMA exists (default none)."""

    def _vpfn_of(self, segment: RuntimeSegment, idx: int) -> int:
        return self._vma_of_segment[id(segment)].start_vpfn + idx

    # ------------------------------------------------------------------
    # Page touch / release templates

    def touch_page(
        self, run: AppRun, segment: RuntimeSegment, idx: int, thread: ThreadCtx
    ) -> int:
        vpfn = self._vpfn_of(segment, idx)
        guest_thread = _GuestThreadShim(thread)
        first = self.aspace.translate(vpfn) is None
        frame = self.aspace.touch(vpfn, guest_thread)
        if first:
            self._init_faults += 1
        return self._node_of_touch(segment, idx, vpfn, frame, thread, first)

    def _node_of_touch(
        self,
        segment: RuntimeSegment,
        idx: int,
        vpfn: int,
        frame: int,
        thread: ThreadCtx,
        first: bool,
    ) -> int:
        """Hook: resolve the touched page to its NUMA node."""
        raise NotImplementedError

    def touch_segment(
        self, run: AppRun, segment: RuntimeSegment, toucher: ThreadCtx
    ) -> bool:
        """Touch a whole untouched segment in one batch, if possible.

        Returns True when the segment was fully initialised; False means
        the caller must fall back to the per-page :meth:`touch_page` loop
        (the default — subclasses with a batch fast path override this).
        """
        return False

    def release_page(self, run: AppRun, segment: RuntimeSegment, idx: int) -> None:
        vpfn = self._vpfn_of(segment, idx)
        frame = self.aspace.translate(vpfn)
        if frame is None:
            return
        self._release_mapped(segment, idx, vpfn, frame)

    def _release_mapped(
        self, segment: RuntimeSegment, idx: int, vpfn: int, frame: int
    ) -> None:
        """Hook: release a page known to be mapped."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Accounting and policy entry points

    def take_init_seconds(self) -> float:
        """Drain the cost of the guest faults taken since the last call."""
        seconds = self._init_faults * self.fault_cost_seconds
        self._init_faults = 0
        return seconds

    def policy_on_epoch(self, run: AppRun, observation) -> float:
        return self._policy_cost(observation)

    def _policy_cost(self, observation) -> float:
        """Hook: hand the counter observation to the NUMA policy."""
        raise NotImplementedError

    def metrics_snapshot(self) -> Dict[str, float]:
        """Flat counter snapshot attached to the run's ``RunResult``.

        Subclasses extend this with their fault/queue/p2m/policy
        counters; values are plain floats so the snapshot serializes
        anywhere (it is *not* part of the result's stored form).
        """
        return {"guest.init_fault_cost_seconds": float(self.fault_cost_seconds)}

    def teardown(self) -> None:
        """Hook: detach policy machinery when the world is torn down."""
        raise NotImplementedError


@dataclass
class _GuestThreadShim:
    """Adapts an engine ThreadCtx to the guest Thread interface."""

    ctx: ThreadCtx

    @property
    def tid(self) -> int:
        return self.ctx.tid

    @property
    def node(self) -> int:
        return self.ctx.node

    @property
    def vcpu_id(self) -> int:
        return self.ctx.tid


# ======================================================================
# Native Linux
# ======================================================================


class _LinuxContext(_PolicyContext):
    """Run context of one application on bare-metal Linux."""

    domain_id = 0

    def __init__(
        self,
        machine: Machine,
        numa_mode: LinuxNumaMode,
        sync_fraction: float,
        churn_slowdown: float,
        io_seconds_per_op: float,
        fault_cost_seconds: float = 0.5e-6,
    ):
        super().__init__(
            sync_fraction=sync_fraction,
            churn_slowdown=churn_slowdown,
            io_seconds_per_op=io_seconds_per_op,
            fault_cost_seconds=fault_cost_seconds,
        )
        self.machine = machine
        self.numa_mode = numa_mode
        self.tracker = PlacementTracker(
            node_of_frame=machine.node_of_frame,
            nodes_of_frames=machine.nodes_of_frames,
        )
        numa_mode.on_page_placed = self.tracker.page_placed
        numa_mode.on_page_moved = self.tracker.page_placed
        # Frame release is keyed by vpfn through the NUMA mode (Carrefour
        # may migrate a page after the fault, making the page-table frame
        # stale), so the address space's frame-keyed release is a no-op.
        self.aspace = GuestAddressSpace(
            backing=numa_mode.backing, release=lambda mfn: None
        )

    @property
    def policy_is_dynamic(self) -> bool:
        return self.numa_mode.engine is not None

    @property
    def policy_label(self) -> str:
        return self.numa_mode.name

    def _segment_attached(self, segment: RuntimeSegment, vma) -> None:
        # In native mode the page key is the (stable) virtual page.
        segment.keys[:] = np.arange(vma.start_vpfn, vma.end_vpfn, dtype=np.int64)
        self.tracker.track_range(
            vma.start_vpfn, segment.num_pages, segment.placement, 0
        )

    def _node_of_touch(self, segment, idx, vpfn, frame, thread, first) -> int:
        return self.machine.node_of_frame(frame)

    def _release_mapped(self, segment, idx, vpfn, frame) -> None:
        self.aspace.unmap_page(vpfn)
        self.numa_mode.release_vpfn(vpfn)
        segment.placement.release(idx)

    def _policy_cost(self, observation) -> float:
        return self.numa_mode.on_epoch(observation)

    def metrics_snapshot(self) -> Dict[str, float]:
        snap = super().metrics_snapshot()
        mode = self.numa_mode
        snap["policy.pages_migrated"] = float(mode.pages_migrated)
        snap["policy.migration_seconds"] = float(mode.migration_seconds)
        engine = mode.engine
        if engine is not None:
            snap["carrefour.iterations"] = float(len(engine.history))
            snap["carrefour.commands"] = float(engine.system.total_commands)
            snap["carrefour.applied"] = float(engine.system.total_applied)
        return snap

    def teardown(self) -> None:
        self.numa_mode.shutdown()


class LinuxEnvironment(Environment):
    """Bare-metal Linux (the paper's baseline and Figure 2 platform).

    Args:
        policy: "first-touch" (Linux default) or "round-4k".
        carrefour: run the Carrefour daemon.
        mcs_locks: use MCS spin locks for the apps that benefit (only in
            the LinuxNUMA baseline, section 5.3.3).
    """

    label = "linux"

    def __init__(
        self,
        policy: str = "first-touch",
        carrefour: bool = False,
        mcs_locks: bool = False,
        num_threads: int = 0,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.policy = policy
        self.carrefour = carrefour
        self.mcs_locks = mcs_locks
        self.num_threads = num_threads

    def setup(self, apps: Sequence[AppSpec]) -> World:
        """Build a world running ``apps`` (usually a single one) natively."""
        machine = self._machine_factory()
        sync = SyncModel()
        runs: List[AppRun] = []
        contexts: List[_LinuxContext] = []
        cpu_cursor = 0
        for app in apps:
            threads_n = self._threads_per_run(machine, self.num_threads)
            numa_mode = LinuxNumaMode(
                machine, policy=self.policy, carrefour=self.carrefour
            )
            op_model = calibrate_app(app, machine, threads_n)
            mcs = self.mcs_locks and app.name in MCS_APPS
            sync_fraction = sync.overhead_fraction(
                app.ctx_switches_k_s * 1e3, "native", mcs_locks=mcs
            )
            churn = 1.0
            if app.churn_per_thread_s > 0:
                churn = 1.0 / max(
                    1e-9,
                    1.0
                    - min(
                        0.9,
                        app.churn_per_thread_s * NATIVE_CHURN_SYSCALL_SECONDS,
                    ),
                )
            eff_bw = self.disk.effective_bandwidth_bytes_s(
                app.io_block_kib * 1024, IoMode.NATIVE
            )
            io_per_op = op_model.io_bytes_per_op * threads_n / eff_bw
            context = _LinuxContext(
                machine=machine,
                numa_mode=numa_mode,
                sync_fraction=sync_fraction,
                churn_slowdown=churn,
                io_seconds_per_op=io_per_op,
            )
            threads = []
            for tid in range(threads_n):
                cpu = (cpu_cursor + tid) % machine.num_cpus
                threads.append(
                    ThreadCtx(
                        tid=tid,
                        node=machine.topology.node_of_cpu(cpu),
                        cpu_share=1.0,
                    )
                )
            cpu_cursor += threads_n
            segments = [
                RuntimeSegment(d, machine.num_nodes)
                for d in build_segments(app, threads_n, self.config)
            ]
            for segment in segments:
                context.attach_segment(segment)
            rng = np.random.default_rng(
                self.config.rng_seed + stable_hash(app.name) % 10000
            )
            runs.append(
                AppRun(app, op_model, segments, threads, context, self.config, rng)
            )
            contexts.append(context)

        def teardown():
            for c in contexts:
                c.teardown()

        return World(
            machine=machine,
            runs=runs,
            label=self.label,
            epoch_seconds=self.config.epoch_seconds,
            teardown=teardown,
        )


# ======================================================================
# Xen / Xen+
# ======================================================================


class _XenContext(_PolicyContext):
    """Run context of one application inside a domU."""

    def __init__(
        self,
        hypervisor: Hypervisor,
        domain,
        guest_alloc: GuestPageAllocator,
        patch: PvNumaPatch,
        sync_fraction: float,
        churn_slowdown: float,
        io_seconds_per_op: float,
        fault_cost_seconds: float = 0.5e-6,
    ):
        super().__init__(
            sync_fraction=sync_fraction,
            churn_slowdown=churn_slowdown,
            io_seconds_per_op=io_seconds_per_op,
            fault_cost_seconds=fault_cost_seconds,
        )
        self.hypervisor = hypervisor
        self.domain = domain
        self.guest_alloc = guest_alloc
        self.patch = patch
        self.tracker = PlacementTracker(
            node_of_frame=hypervisor.machine.node_of_frame,
            nodes_of_frames=hypervisor.machine.nodes_of_frames,
        )
        domain.p2m.observer = self.tracker
        self.aspace = GuestAddressSpace(
            backing=lambda vpfn, thread: guest_alloc.alloc(),
            release=guest_alloc.free,
        )
        self._hv_fault_seconds_seen = hypervisor.fault_handler.stats.seconds_spent
        #: The VM's requested policy (set by the environment) — live
        #: migration re-runs this selection on the destination host.
        self.policy_spec: Optional[PolicySpec] = None

    def rebind_host(self, hypervisor: Hypervisor, domain, patch) -> None:
        """Re-home this context onto a migrated-to domain.

        Everything that referenced the source host is replaced: the
        hypervisor, the domain, the PV patch (already wired to the
        destination's hypercalls by the caller), and the placement
        tracker — which must resolve frames against the *destination*
        machine's heap. The fault-seconds watermark restarts at the
        destination handler's current total so source-host fault time is
        not double-charged (and destination boot faults are not missed).
        """
        self.hypervisor = hypervisor
        self.domain = domain
        self.patch = patch
        self.tracker = PlacementTracker(
            node_of_frame=hypervisor.machine.node_of_frame,
            nodes_of_frames=hypervisor.machine.nodes_of_frames,
        )
        domain.p2m.observer = self.tracker
        self._hv_fault_seconds_seen = hypervisor.fault_handler.stats.seconds_spent

    @property
    def domain_id(self) -> int:
        return self.domain.domain_id

    @property
    def policy_is_dynamic(self) -> bool:
        policy = self.domain.numa_policy
        return policy is not None and policy.is_dynamic

    @property
    def policy_label(self) -> str:
        policy = self.domain.numa_policy
        return policy.name if policy else "none"

    def _node_of_touch(self, segment, idx, vpfn, frame, thread, first) -> int:
        # ``frame`` is a *guest-physical* page here; first touches pin it
        # as the segment's page key before the machine-level access.
        if first:
            segment.keys[idx] = frame
            self.tracker.track(frame, segment.placement, idx)
        # The machine-level access: valid p2m entries translate for free,
        # invalid ones take the hypervisor fault path into the policy.
        mfn = self.hypervisor.guest_access(self.domain, thread.tid, frame)
        node = self.hypervisor.machine.node_of_frame(mfn)
        segment.placement.place(idx, node)
        return node

    def touch_segment(self, run, segment, toucher) -> bool:
        """Initialise a whole untouched segment through the batch paths.

        The batch path needs a fully untouched segment and a contiguous
        guest allocation (so the segment registers as one key range); an
        armed sanitizer checks its batch ops in place. The p2m entries
        then split into a translating subset (booted mapped) and a
        faulting subset (first-touch), each resolved with one array
        operation; every counter, placement version and float
        accumulator advances exactly as the per-page loop's.
        """
        if (segment.keys >= 0).any():
            return False
        count = segment.num_pages
        gpfns = self.guest_alloc.alloc_many(count)
        if gpfns is None:
            return False
        vma = self._vma_of_segment[id(segment)]
        vpfns = np.arange(vma.start_vpfn, vma.end_vpfn, dtype=np.int64)
        # The guest fault per page, resolved in bulk.
        self.aspace.map_many(vpfns, gpfns)
        self._init_faults += count
        segment.keys[:] = gpfns
        self.tracker.track_range(int(gpfns[0]), count, segment.placement, 0)
        machine = self.hypervisor.machine
        p2m = self.domain.p2m
        mfns = p2m.mfns_if_valid(gpfns)
        invalid = mfns < 0
        ninvalid = int(np.count_nonzero(invalid))
        if ninvalid:
            faulted = self.hypervisor.guest_faults_many(
                self.domain, toucher.tid, gpfns[invalid]
            )
            if faulted is None:
                # The policy answers faults per page: finish through the
                # scalar access path (the batch allocation above matches
                # what the per-page allocs would have done, hooks
                # included).
                for idx, frame in enumerate(gpfns.tolist()):
                    mfn = self.hypervisor.guest_access(
                        self.domain, toucher.tid, frame
                    )
                    segment.placement.place(idx, machine.node_of_frame(mfn))
                return True
            mfns[invalid] = faulted
        # The scalar touch places every page after the access (faulting
        # pages a second time, after the p2m observer's placement).
        segment.placement.place_many(
            np.arange(count, dtype=np.int64), machine.nodes_of_frames(mfns)
        )
        return True

    def _release_mapped(self, segment, idx, vpfn, frame) -> None:
        self.tracker.untrack(frame)
        segment.placement.release(idx)
        segment.keys[idx] = -1
        self.aspace.unmap_page(vpfn)

    def take_init_seconds(self) -> float:
        guest = super().take_init_seconds()
        total = self.hypervisor.fault_handler.stats.seconds_spent
        hv = total - self._hv_fault_seconds_seen
        self._hv_fault_seconds_seen = total
        return guest + hv

    def _policy_cost(self, observation) -> float:
        policy = self.domain.numa_policy
        if policy is None:
            return 0.0
        return policy.on_epoch(self.domain, observation)

    def metrics_snapshot(self) -> Dict[str, float]:
        # Fault-handler counters are per hypervisor, so in multi-VM
        # worlds every run's snapshot carries the world-wide fault
        # totals; the p2m and queue counters are this domain's own.
        snap = super().metrics_snapshot()
        p2m = self.domain.p2m
        faults = self.hypervisor.fault_handler.stats
        queue = self.patch.queue.stats
        snap.update(
            {
                "p2m.num_entries": float(p2m.num_entries),
                "p2m.num_valid": float(p2m.num_valid),
                "p2m.invalidations": float(p2m.invalidations),
                "p2m.migrations": float(p2m.migrations),
                "faults.hypervisor": float(faults.hypervisor_faults),
                "faults.write_protection": float(faults.write_protection_faults),
                "faults.seconds_spent": float(faults.seconds_spent),
                "queue.events": float(queue.events),
                "queue.flushes": float(queue.flushes),
                "queue.flushed_events": float(queue.flushed_events),
                "queue.lock_acquisitions": float(queue.lock_acquisitions),
                "queue.flush_hold_seconds": float(queue.flush_hold_seconds),
                "queue.append_hold_seconds": float(queue.append_hold_seconds),
            }
        )
        engine = getattr(self.domain.numa_policy, "engine", None)
        if engine is not None:
            snap["carrefour.iterations"] = float(len(engine.history))
            snap["carrefour.commands"] = float(engine.system.total_commands)
            snap["carrefour.applied"] = float(engine.system.total_applied)
        return snap

    def teardown(self) -> None:
        self.patch.detach()


class XenEnvironment(Environment):
    """Xen or Xen+ with the paper's NUMA policy interface.

    Args:
        features: :data:`~repro.hypervisor.xen.XEN` or
            :data:`~repro.hypervisor.xen.XEN_PLUS`.
        queue_batch: page-event queue batch size (64 in the paper).
        queue_partitions: page-event queue partitions (4 in the paper).
        unbatched_hypercalls: strawman mode — one hypercall per release
            (section 4.2.3's "divides wrmem by 3").
    """

    def __init__(
        self,
        features: XenFeatures = XEN_PLUS,
        queue_batch: int = 64,
        queue_partitions: int = 4,
        unbatched_hypercalls: bool = False,
        **kwargs,
    ):
        super().__init__(**kwargs)
        self.features = features
        self.queue_batch = 1 if unbatched_hypercalls else queue_batch
        self.queue_partitions = 1 if unbatched_hypercalls else queue_partitions
        self.unbatched_hypercalls = unbatched_hypercalls

    @property
    def label(self) -> str:  # type: ignore[override]
        return self.features.name.lower()

    def setup(self, vms: Sequence[VmSpec]) -> World:
        """Build a world with one domU per :class:`VmSpec`."""
        return self.setup_on(self.build_host(), vms)

    def build_host(self, host_id: int = 0) -> Host:
        """Boot a fresh host (machine + hypervisor) for this environment."""
        machine = self._machine_factory()
        return Host(
            host_id=host_id,
            machine=machine,
            hypervisor=Hypervisor(machine, features=self.features),
        )

    def setup_on(
        self,
        host: Host,
        vms: Sequence[VmSpec],
        label: Optional[str] = None,
    ) -> World:
        """Build a world with one domU per :class:`VmSpec` on ``host``.

        ``label`` overrides the world label (cluster hosts append their
        host id so per-world observability cells stay distinguishable).
        """
        hypervisor = host.hypervisor
        sync = SyncModel(ipi=hypervisor.ipi)
        single_vm = len(vms) == 1
        runs: List[AppRun] = []
        contexts: List[_XenContext] = []
        for spec in vms:
            run, context = self._setup_vm(
                hypervisor, sync, spec, single_vm
            )
            runs.append(run)
            contexts.append(context)
        # CPU shares depend on the *final* runqueues: a pCPU hosting two
        # vCPUs (the consolidated setup) gives each half a CPU, but the
        # first VM was set up before the second was pinned.
        for run, context in zip(runs, contexts):
            for thread in run.threads:
                vcpu = context.domain.vcpus[thread.tid]
                thread.cpu_share = hypervisor.scheduler.cpu_share(vcpu)

        world = World(
            machine=host.machine,
            runs=runs,
            label=label if label is not None else self.label,
            epoch_seconds=self.config.epoch_seconds,
            host=host,
        )

        # The closure reads the run list, not the world: a world holding a
        # closure over itself is a reference cycle, and a finished world
        # must be freed by refcount, not left to the cyclic collector.
        # Cluster migrations move runs by mutating this same list.
        def teardown():
            for run in runs:
                run.context.teardown()

        world.teardown = teardown
        return world

    # ------------------------------------------------------------------
    # Live-migration support (repro.cluster drives these)

    def clone_domain_on(self, host: Host, run: AppRun):
        """Create the destination domain of a live migration.

        The domain is sized like the source and booted through the same
        boot policy — which is precisely "re-run the NUMA placement on
        the destination": the boot populate places every page fresh on
        the destination's heap instead of inheriting the source layout.
        """
        context = run.context
        source = context.domain
        boot_base = (
            PolicyName.ROUND_1G
            if context.policy_spec.base is PolicyName.ROUND_1G
            else PolicyName.ROUND_4K
        )
        return host.hypervisor.create_domain(
            name=source.name,
            num_vcpus=source.num_vcpus,
            memory_pages=source.memory_pages,
            boot_policy=PolicySpec(boot_base),
        )

    def complete_migration(self, run: AppRun, dest_host: Host, domain) -> None:
        """Re-home ``run`` onto ``domain`` (already created on ``dest_host``).

        Rebinds every host-coupled piece of the run context — hypervisor,
        domain, placement tracker, hypercall stub, PV patch — re-selects
        the runtime policy on the destination, re-pins the threads to the
        destination vCPUs, resyncs segment placements from the
        destination p2m, and finally destroys the source domain (freeing
        its frames on the source heap).
        """
        context = run.context
        source_hypervisor = context.hypervisor
        source_domain = context.domain
        hypervisor = dest_host.hypervisor

        context.patch.detach()
        external = ExternalInterface(hypervisor.hypercalls, domain.domain_id)
        patch = PvNumaPatch(
            context.guest_alloc,
            external,
            batch_size=self.queue_batch,
            num_partitions=self.queue_partitions,
        )
        spec_policy = context.policy_spec
        boot_base = (
            PolicyName.ROUND_1G
            if spec_policy.base is PolicyName.ROUND_1G
            else PolicyName.ROUND_4K
        )
        # The same runtime selection `_setup_vm` performed, re-run against
        # the destination hypervisor (fresh policy state, fresh placement).
        if spec_policy.base is PolicyName.FIRST_TOUCH:
            patch.select_policy(
                PolicyName.FIRST_TOUCH.value, carrefour=spec_policy.carrefour
            )
            patch.report_free_pages()
        elif spec_policy.carrefour:
            patch.select_policy(boot_base.value, carrefour=True)
        context.rebind_host(hypervisor, domain, patch)

        for thread in run.threads:
            vcpu = domain.vcpus[thread.tid]
            thread.node = hypervisor.vcpu_node(domain, thread.tid)
            thread.cpu_share = hypervisor.scheduler.cpu_share(vcpu)

        for segment in run.segments:
            touched = np.nonzero(segment.keys >= 0)[0]
            if touched.size == 0:
                continue
            keys = segment.keys[touched]
            nodes = domain.p2m.nodes_of(keys)
            placed = nodes >= 0
            segment.placement.place_many(
                touched[placed], nodes[placed].astype(np.int64)
            )
            for idx, key in zip(touched.tolist(), keys.tolist()):
                context.tracker.track(key, segment.placement, idx)

        # The source p2m still observes the *old* tracker, whose
        # registrations point at the same shared segment placements the
        # loop above just resynced — detach it so tearing the source
        # down doesn't release the destination's placements.
        source_domain.p2m.observer = None
        # The source p2m still observes the *old* tracker, whose
        # registrations point at the same shared segment placements the
        # loop above just resynced — detach it so tearing the source
        # down doesn't release the destination's placements.
        source_domain.p2m.observer = None
        source_hypervisor.destroy_domain(source_domain)

    # ------------------------------------------------------------------

    def vm_memory_pages(self, spec: VmSpec, num_cpus: int) -> int:
        """Guest-physical size a :class:`VmSpec` will be given.

        Segment rounding can exceed the raw footprint (one page per
        thread minimum); size the guest generously. The chunked middle
        region is at least 8 GiB: a VM is not sized to its application,
        and round-1G's behaviour on a small app (its pages packed into
        one or two 1 GiB chunks) only shows with a realistic VM size.
        Exposed so cluster placement can score hosts for a VM *before*
        any domain exists.
        """
        num_vcpus = spec.num_vcpus or num_cpus
        gib_pages = max(1, GIB // self.config.page_bytes)
        footprint_pages = self.config.pages_for_bytes(spec.app.footprint_bytes)
        alloc_slack = num_vcpus + 256
        middle_pages = max(footprint_pages + alloc_slack, 8 * gib_pages)
        return spec.memory_pages or (middle_pages + 2 * gib_pages)

    def _setup_vm(
        self,
        hypervisor: Hypervisor,
        sync: SyncModel,
        spec: VmSpec,
        single_vm: bool,
    ) -> Tuple[AppRun, _XenContext]:
        machine = hypervisor.machine
        app = spec.app
        num_vcpus = spec.num_vcpus or machine.num_cpus
        gib_pages = max(1, GIB // self.config.page_bytes)
        footprint_pages = self.config.pages_for_bytes(app.footprint_bytes)
        alloc_slack = num_vcpus + 256
        memory_pages = self.vm_memory_pages(spec, machine.num_cpus)

        boot_base = (
            PolicyName.ROUND_1G
            if spec.policy.base is PolicyName.ROUND_1G
            else PolicyName.ROUND_4K
        )
        domain = hypervisor.create_domain(
            name=app.name,
            num_vcpus=num_vcpus,
            memory_pages=memory_pages,
            home_nodes=spec.home_nodes,
            boot_policy=PolicySpec(boot_base),
            pin_pcpus=spec.pin_pcpus,
        )

        # Guest allocator: the kernel owns the (fragmented) first GiB, so
        # application memory comes from the round-1G-chunked middle.
        guest_alloc = GuestPageAllocator(
            first_gpfn=gib_pages,
            num_pages=footprint_pages + alloc_slack,
        )
        external = ExternalInterface(hypervisor.hypercalls, domain.domain_id)
        patch = PvNumaPatch(
            guest_alloc,
            external,
            batch_size=self.queue_batch,
            num_partitions=self.queue_partitions,
        )

        # Runtime policy selection through the real hypercall.
        if spec.policy.base is PolicyName.FIRST_TOUCH:
            patch.select_policy(
                PolicyName.FIRST_TOUCH.value, carrefour=spec.policy.carrefour
            )
            patch.report_free_pages()
        elif spec.policy.carrefour:
            patch.select_policy(boot_base.value, carrefour=True)

        threads = []
        for tid in range(num_vcpus):
            threads.append(
                ThreadCtx(
                    tid=tid,
                    node=hypervisor.vcpu_node(domain, tid),
                    cpu_share=hypervisor.scheduler.cpu_share(domain.vcpus[tid]),
                )
            )

        op_model = calibrate_app(app, machine, num_vcpus)
        mcs = (
            self.features.mcs_locks and single_vm and app.name in MCS_APPS
        )
        sync_fraction = sync.overhead_fraction(
            app.ctx_switches_k_s * 1e3, "guest", mcs_locks=mcs
        )
        churn = self._churn_slowdown(app, num_vcpus, domain, external)
        io_per_op = self._io_seconds_per_op(
            hypervisor, domain, app, op_model, num_vcpus
        )

        context = _XenContext(
            hypervisor=hypervisor,
            domain=domain,
            guest_alloc=guest_alloc,
            patch=patch,
            sync_fraction=sync_fraction,
            churn_slowdown=churn,
            io_seconds_per_op=io_per_op,
        )
        context.policy_spec = spec.policy
        context.tlb_seconds_per_op = self._tlb_seconds_per_op(
            machine, app, domain, num_vcpus
        )
        segments = [
            RuntimeSegment(d, machine.num_nodes)
            for d in build_segments(app, num_vcpus, self.config)
        ]
        for segment in segments:
            context.attach_segment(segment)
        rng = np.random.default_rng(
            self.config.rng_seed
            + stable_hash((app.name, domain.domain_id)) % 10000
        )
        run = AppRun(
            app, op_model, segments, threads, context, self.config, rng
        )
        return run, context

    def _churn_slowdown(self, app, num_vcpus, domain, external) -> float:
        """Completion-time factor of the page-release traffic."""
        rate = app.churn_per_thread_s
        if rate <= 0:
            return 1.0
        if self.unbatched_hypercalls:
            service = external.hypercalls.costs.base_seconds
            factor = lock_service_slowdown(rate, num_vcpus, service, 1)
        else:
            per_event = (
                external.flush_cost(self.queue_batch) / self.queue_batch
            )
            factor = lock_service_slowdown(
                rate, num_vcpus, per_event, self.queue_partitions
            )
        policy = domain.numa_policy
        if policy is not None and policy.wants_page_events:
            # Under first-touch every reallocated page faults back in.
            fault_busy = min(
                0.9,
                rate * 2.0e-6,
            )
            factor *= 1.0 / (1.0 - fault_busy)
        return factor

    def _tlb_seconds_per_op(self, machine, app, domain, num_vcpus) -> float:
        """Nested-TLB overhead per operation (section 7 extension).

        Only charged when ``config.model_tlb`` is on: the baseline
        reproduction matches the paper, which has no TLB dimension. The
        fine-grained policies force 4 KiB nested mappings; round-1G's
        eager 1 GiB regions allow superpages and nearly never miss.
        """
        if not self.config.model_tlb:
            return 0.0
        from repro.hardware.tlb import TlbModel, policy_granularity

        tlb = TlbModel()
        policy = domain.numa_policy
        name = policy.name if policy is not None else "round-4k"
        granularity = policy_granularity(name)
        working_set = app.footprint_bytes / max(1, num_vcpus)
        # Page-table pages of spread placements live mostly remote.
        remote_fraction = 0.2 if name.startswith("first-touch") else 0.875
        cycles = tlb.overhead_cycles_per_access(
            working_set, granularity, remote_fraction
        )
        return machine.latency.cycles_to_seconds(cycles)

    def _io_seconds_per_op(
        self, hypervisor, domain, app, op_model, num_vcpus
    ) -> float:
        if op_model.io_bytes_per_op <= 0:
            return 0.0
        mode_name = hypervisor.io_mode(domain)
        mode = IoMode(mode_name)
        eff_bw = self.disk.effective_bandwidth_bytes_s(
            app.io_block_kib * 1024, mode
        )
        if mode is IoMode.PASSTHROUGH:
            # Xen+ DMA buffers are spread over the nodes by the hypervisor
            # page table, giving slightly more parallel transfers than the
            # single-node DMA buffers of native Linux (section 5.3.3).
            eff_bw *= 1.05
        return op_model.io_bytes_per_op * num_vcpus / eff_bw
