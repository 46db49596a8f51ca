"""The pre-vectorization scalar implementations, kept as the oracle.

Three generations of fast path are anchored here:

* the original O(n^2) per-(src, dst) congestion-solver loops that
  :class:`repro.sim.engine.CongestionSolver` replaced with matrix
  products (PR 2);
* the original dict-of-:class:`P2MEntry` page table
  (:class:`DictP2MTable`) and the :func:`scalar_page_path` context
  manager that routes whole worlds through the scalar per-page loops
  the array-backed page path replaced (PR 4);
* the original per-world epoch loop (:class:`ReferenceStepper`,
  driven by :func:`reference_run_world`) that the engine's one
  structure-of-arrays stepper replaced — per run, per solver pass,
  with the same metric cells and trace events.

They are committed verbatim for two consumers: the perf microbenchmarks
(the ``>= 3x`` speedup every perf PR demonstrates is measured against
them) and the equivalence property tests. No engine code selects them.
Do not optimise them — their value is being slow and obviously correct.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core import batch
from repro.errors import P2MError
from repro.hardware.counters import CACHE_LINE_BYTES
from repro.hypervisor.p2m import P2MEntry
from repro.sim.engine import (
    DEFAULT_MAX_EPOCHS,
    SOLVER_DAMPING,
    SOLVER_EPSILON,
    SOLVER_ITERATIONS,
    CongestionSolver,
    EpochStepper,
    _migrations_of,
)
from repro.sim.environment import World
from repro.sim.instance import AppRun
from repro.sim.results import EpochRecord, RunResult


def loop_congestion(
    solver: CongestionSolver, matrix: np.ndarray, seconds: float
) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`CongestionSolver.congestion` as the original Python loop."""
    col_bytes = matrix.sum(axis=0) * CACHE_LINE_BYTES
    rho_c = col_bytes / (solver.controller_bw * seconds)
    link_bytes = np.zeros(len(solver.link_bw))
    for s in range(solver.num_nodes):
        for d in range(solver.num_nodes):
            if s == d:
                continue
            traffic = matrix[s, d] * CACHE_LINE_BYTES
            if traffic == 0:
                continue
            for li in solver.route_links[(s, d)]:
                link_bytes[li] += traffic
    rho_l = link_bytes / (solver.link_bw * seconds)
    return rho_c, rho_l


def loop_latency_matrix(
    solver: CongestionSolver, rho_c: np.ndarray, rho_l: np.ndarray
) -> np.ndarray:
    """:meth:`CongestionSolver.latency_matrix` as the original loop."""
    model = solver.machine.latency
    burst = solver.machine.config.traffic_burstiness
    n = solver.num_nodes
    out = np.zeros((n, n))
    for s in range(n):
        for d in range(n):
            route = solver.route_links[(s, d)]
            link_rho = max((rho_l[li] for li in route), default=0.0)
            cycles = model.memory_latency_cycles(
                int(solver.hops[s, d]),
                float(rho_c[d]) * burst,
                float(link_rho) * burst,
            )
            out[s, d] = model.cycles_to_seconds(cycles)
    return out


# ----------------------------------------------------------------------
# The per-world epoch loop (before the structure-of-arrays stepper)

def _compute_ops(
    run: AppRun,
    D: np.ndarray,
    src: np.ndarray,
    active: np.ndarray,
    latm_seconds: np.ndarray,
    epoch_seconds: float,
) -> np.ndarray:
    """Operations each thread completes this epoch under given latencies."""
    ctx = run.context
    shares = np.array([t.cpu_share for t in run.threads])
    lat_rows = latm_seconds[src]
    mem_s = (D * lat_rows).sum(axis=1)
    tlb_s = getattr(ctx, "tlb_seconds_per_op", 0.0)
    time_per_op = (
        run.op_model.cpu_seconds + mem_s + tlb_s + ctx.io_seconds_per_op
    )
    avail = (
        epoch_seconds
        * shares
        * (1.0 - ctx.sync_fraction)
        / ctx.churn_slowdown
    )
    # Dynamic-policy overhead from the previous epoch stalls the domain.
    avail = np.maximum(0.0, avail - run.pending_policy_cost)
    ops = np.where(active, avail / time_per_op, 0.0)
    return ops


def _per_run_matrix(
    D: np.ndarray, src: np.ndarray, ops: np.ndarray, num_nodes: int
) -> np.ndarray:
    matrix = np.zeros((num_nodes, num_nodes))
    np.add.at(matrix, src, D * ops[:, None])
    return matrix


class ReferenceStepper(EpochStepper):
    """:class:`EpochStepper` with the original per-run epoch loop."""

    def step(self, now: float) -> bool:
        """Simulate one epoch starting at ``now``.

        Returns False — without consuming an epoch — when no run is
        active (the single-host loop breaks; a cluster may instead keep
        the host idling). The caller advances its clock by
        :attr:`epoch_seconds` after every True return.
        """
        world = self.world
        machine = self.machine
        solver = self.solver
        n = self.num_nodes
        epoch_seconds = self.epoch_seconds
        tracer = self.tracer
        trace_on = self._trace_on
        epoch = self.epoch
        latm = self._latm

        tracer.set_time(now)
        for hook in world.epoch_hooks.get(epoch, ()):
            hook(world)
        active_runs = [r for r in world.runs if not r.finished]
        if not active_runs:
            return False
        # ---- fixed point: rates vs congestion
        # Placement is frozen while the solver iterates, so each run's
        # destination matrix is fetched once per epoch (and cached by the
        # run across epochs while churn leaves placement untouched).
        dests = [run.destination_matrix(n) for run in active_runs]
        per_run: List[Tuple[AppRun, np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []
        rho_c = np.zeros(n)
        rho_l = np.zeros(len(solver.link_bw))
        iterations = 0
        delta = 0.0
        for _ in range(SOLVER_ITERATIONS):
            total = np.zeros((n, n))
            per_run = []
            for run, (D, src, active) in zip(active_runs, dests):
                ops = _compute_ops(run, D, src, active, latm, epoch_seconds)
                total += _per_run_matrix(D, src, ops, n)
                per_run.append((run, D, src, active, ops))
            rho_c, rho_l = solver.congestion(total, epoch_seconds)
            new_latm = (
                SOLVER_DAMPING * latm
                + (1.0 - SOLVER_DAMPING) * solver.latency_matrix(rho_c, rho_l)
            )
            delta = float(np.abs(new_latm - latm).max()) if latm.size else 0.0
            latm = new_latm
            iterations += 1
            if self.solver_epsilon is not None and delta <= self.solver_epsilon:
                break
        latm.setflags(write=False)
        self._latm = latm
        if self._epoch_cells is not None:
            self._epoch_cells[0].inc()
            self._epoch_cells[1].observe(iterations)
        if trace_on:
            tracer.span(
                "epoch.solve",
                epoch_seconds,
                cat="engine",
                epoch=epoch,
                iterations=iterations,
                early_exit_delta=delta,
                active_runs=len(active_runs),
            )

        # ---- commit work, record traffic and metrics
        # One rho_c array is shared by every run's observation this
        # epoch, and EpochRecord reads observation.imbalance *after* the
        # policy callback ran — freeze the observation inputs so policy
        # code cannot (even accidentally) mutate a sibling's view or its
        # own archived metrics through the alias.
        rho_c.setflags(write=False)
        total = np.zeros((n, n))
        for run, D, src, active, ops in per_run:
            run.commit_work(ops, now, epoch_seconds)
            matrix = _per_run_matrix(D, src, ops, n)
            total += matrix
            matrix.setflags(write=False)
            # The run's own *contribution* to the links, archived in its
            # EpochRecord; the observation below instead carries the
            # world-total utilisations — the congestion the run
            # *experiences* — because that is what hardware counters show
            # a per-domain policy.
            run_rho_l = solver.congestion(matrix, epoch_seconds)[1]
            ops_by_node = np.zeros(n)
            np.add.at(ops_by_node, src, ops)
            observation = run.build_observation(
                access_matrix=matrix,
                controller_rho=rho_c,
                max_link_rho=float(rho_l.max()) if len(rho_l) else 0.0,
                epoch_seconds=epoch_seconds,
                ops_by_node=ops_by_node,
            )
            cost = run.context.policy_on_epoch(run, observation)
            run.pending_policy_cost = cost
            migrations = 0
            if run.context.policy_is_dynamic:
                migrations = _migrations_of(run)
            run.records.append(
                EpochRecord(
                    epoch=epoch,
                    ops_done=float(ops.sum()),
                    imbalance=observation.imbalance,
                    max_link_rho=float(run_rho_l.max()) if len(run_rho_l) else 0.0,
                    local_fraction=observation.local_fraction,
                    policy_cost_seconds=cost,
                    migrations=migrations,
                )
            )
            if trace_on:
                tracer.instant(
                    "run.commit",
                    cat="engine",
                    app=run.app.name,
                    policy=run.context.policy_label,
                    epoch=epoch,
                    ops=float(ops.sum()),
                    policy_cost_seconds=cost,
                    migrations=migrations,
                )
            run.churn_step()
        machine.record_node_traffic(total)
        machine.end_epoch()
        self.epoch = epoch + 1
        return True


def reference_run_world(
    world: World,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> List[RunResult]:
    """:func:`repro.sim.engine.run_world` on a :class:`ReferenceStepper`."""
    stepper = ReferenceStepper(world, solver_epsilon=solver_epsilon)
    stepper.initialize()
    now = 0.0
    while stepper.epoch < max_epochs:
        if not stepper.step(now):
            break
        now += stepper.epoch_seconds
    return stepper.finish(now)


# ----------------------------------------------------------------------
# The scalar page path (pre-PR 4)

_GpfnArray = Union[Sequence[int], np.ndarray]


class DictP2MTable:
    """The original dict-of-objects p2m, kept as the page-path oracle.

    Method-for-method the implementation the array-backed
    :class:`repro.hypervisor.p2m.P2MTable` replaced, plus loop-based
    ``set_entries``/``invalidate_many``/``translate_many`` that *define*
    the semantics the vectorized versions must reproduce.
    """

    def __init__(self, domain_id: int, capacity: int = 1024):
        self.domain_id = domain_id
        del capacity  # the dict backend has no arrays to pre-size
        self._entries: Dict[int, P2MEntry] = {}
        self.faults_taken = 0
        self.invalidations = 0
        self.migrations = 0
        self.observer: Optional[object] = None
        self.sanitizer: Optional[object] = None
        self.frames_per_node: Optional[int] = None

    # ------------------------------------------------------------- scalar

    def set_entry(self, gpfn: int, mfn: int, writable: bool = True) -> None:
        if gpfn < 0 or mfn < 0:
            raise P2MError("frame numbers must be non-negative")
        if self.sanitizer is not None:
            self.sanitizer.entry_set(self.domain_id, gpfn, mfn)
        self._entries[gpfn] = P2MEntry(mfn=mfn, valid=True, writable=writable)
        if self.observer is not None:
            self.observer.entry_set(gpfn, mfn)

    def invalidate(self, gpfn: int) -> Optional[int]:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            return None
        entry.valid = False
        self.invalidations += 1
        mfn, entry.mfn = entry.mfn, -1
        if self.sanitizer is not None:
            self.sanitizer.entry_invalidated(self.domain_id, gpfn)
        if self.observer is not None:
            self.observer.entry_invalidated(gpfn)
        return mfn

    def remove(self, gpfn: int) -> Optional[int]:
        entry = self._entries.pop(gpfn, None)
        if entry is None or not entry.valid:
            return None
        if self.sanitizer is not None:
            self.sanitizer.entry_invalidated(self.domain_id, gpfn)
        if self.observer is not None:
            self.observer.entry_invalidated(gpfn)
        return entry.mfn

    def lookup(self, gpfn: int) -> Optional[P2MEntry]:
        return self._entries.get(gpfn)

    def translate(self, gpfn: int) -> int:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            raise P2MError(f"invalid p2m entry for gpfn {gpfn:#x}")
        return entry.mfn

    def mfn_if_valid(self, gpfn: int) -> int:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            return -1
        return entry.mfn

    def is_valid(self, gpfn: int) -> bool:
        entry = self._entries.get(gpfn)
        return entry is not None and entry.valid

    def write_protect(self, gpfn: int) -> None:
        entry = self._require_valid(gpfn)
        if self.sanitizer is not None:
            self.sanitizer.entry_write_protected(self.domain_id, gpfn)
        entry.writable = False

    def remap(self, gpfn: int, new_mfn: int) -> int:
        entry = self._require_valid(gpfn)
        if entry.writable:
            raise P2MError("remap requires a write-protected entry")
        if self.sanitizer is not None:
            self.sanitizer.entry_remapped(self.domain_id, gpfn, entry.mfn, new_mfn)
        old = entry.mfn
        entry.mfn = new_mfn
        entry.writable = True
        self.migrations += 1
        if self.observer is not None:
            self.observer.entry_set(gpfn, new_mfn)
        return old

    def unprotect(self, gpfn: int) -> None:
        entry = self._require_valid(gpfn)
        if self.sanitizer is not None:
            self.sanitizer.entry_unprotected(self.domain_id, gpfn)
        entry.writable = True

    def valid_entries(self) -> Iterator[Tuple[int, P2MEntry]]:
        return ((g, e) for g, e in self._entries.items() if e.valid)

    @property
    def num_entries(self) -> int:
        return len(self._entries)

    @property
    def num_valid(self) -> int:
        return sum(1 for e in self._entries.values() if e.valid)

    def _require_valid(self, gpfn: int) -> P2MEntry:
        entry = self._entries.get(gpfn)
        if entry is None or not entry.valid:
            raise P2MError(f"gpfn {gpfn:#x} has no valid entry")
        return entry

    # ------------------------------------------------------------- batch
    # Loop definitions of the batch API: what the vectorized versions
    # must be observationally equal to.

    def set_entries(
        self, gpfns: _GpfnArray, mfns: _GpfnArray, writable: bool = True
    ) -> None:
        gpfns = np.asarray(gpfns, dtype=np.int64)
        mfns = np.asarray(mfns, dtype=np.int64)
        if gpfns.shape != mfns.shape:
            raise P2MError("set_entries needs matching gpfn/mfn arrays")
        for gpfn, mfn in zip(gpfns.tolist(), mfns.tolist()):
            self.set_entry(gpfn, mfn, writable)

    def invalidate_many(
        self, gpfns: _GpfnArray
    ) -> Tuple[np.ndarray, np.ndarray]:
        hit_gpfns, hit_mfns = [], []
        for gpfn in np.asarray(gpfns, dtype=np.int64).tolist():
            mfn = self.invalidate(gpfn)
            if mfn is not None:
                hit_gpfns.append(gpfn)
                hit_mfns.append(mfn)
        return (
            np.asarray(hit_gpfns, dtype=np.int64),
            np.asarray(hit_mfns, dtype=np.int64),
        )

    def translate_many(self, gpfns: _GpfnArray) -> np.ndarray:
        gpfns = np.asarray(gpfns, dtype=np.int64)
        return np.asarray(
            [self.translate(g) for g in gpfns.tolist()], dtype=np.int64
        )

    def remove_many(self, gpfns: _GpfnArray) -> np.ndarray:
        mfns = [
            mfn
            for mfn in (
                self.remove(g)
                for g in np.asarray(gpfns, dtype=np.int64).tolist()
            )
            if mfn is not None
        ]
        return np.asarray(mfns, dtype=np.int64)

    def mfns_if_valid(self, gpfns: _GpfnArray) -> np.ndarray:
        return np.asarray(
            [
                self.mfn_if_valid(g)
                for g in np.asarray(gpfns, dtype=np.int64).tolist()
            ],
            dtype=np.int64,
        )

    def nodes_of(self, gpfns: _GpfnArray) -> np.ndarray:
        if self.frames_per_node is None:
            raise P2MError("nodes_of requires frames_per_node to be set")
        nodes = []
        for gpfn in np.asarray(gpfns, dtype=np.int64).tolist():
            mfn = self.mfn_if_valid(gpfn)
            nodes.append(-1 if mfn < 0 else mfn // self.frames_per_node)
        return np.asarray(nodes, dtype=np.int32)


@contextmanager
def scalar_page_path() -> Iterator[None]:
    """Run a block on the pre-vectorization page path.

    Newly built domains get a :class:`DictP2MTable` and every batch entry
    point (touch loops, queue replay, Carrefour decision filtering, heap
    population) falls back to its scalar per-page loop. The page-path
    microbenchmark times the same world inside and outside this context.
    """
    from repro.hypervisor import domain as domain_module

    original = domain_module.P2MTable
    domain_module.P2MTable = DictP2MTable  # type: ignore[misc,assignment]
    try:
        with batch.scalar_mode():
            yield
    finally:
        domain_module.P2MTable = original  # type: ignore[misc]
