"""The epoch-based simulation engine.

Each epoch:

1. every active thread's operation rate is solved together with the
   machine congestion it creates (a short fixed-point iteration:
   operation rates -> access matrix -> controller/link utilisation ->
   memory latencies -> operation rates);
2. work is committed per thread, with interpolated finish times;
3. the traffic is recorded on the hardware counters, per-application
   metrics (imbalance, interconnect load — the Table 1 definitions) are
   archived;
4. dynamic policies receive their counter observation and may migrate
   pages (whose cost is charged to the next epoch);
5. a mechanical sample of the page churn runs through the real
   allocator/queue/fault machinery.

Completion time of an application is its initialisation time plus the
(interpolated) instant its slowest thread reaches the work target.

There is one epoch stepper, :func:`_step_lanes`: it advances a group of
worlds ("lanes") as one structure-of-arrays program. A single world —
:meth:`EpochStepper.step`, hence :func:`run_world` — is the group of
one; :func:`repro.core.multirun.run_worlds` steps many compatible
worlds together with per-world results bit-identical to stepping each
alone. The pre-batching single-world loop is kept as the reference
driver :func:`repro.perfbench.oracle.reference_run_world`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.hardware.counters import CACHE_LINE_BYTES
from repro.hardware.machine import Machine, record_node_traffic_many
from repro.sim.instance import AppRun
from repro.sim.results import EpochRecord, RunResult
from repro.sim.environment import Environment, World

#: Fixed-point iterations per epoch (rates vs congestion). The queueing
#: curve is steep past the knee, so the solver needs a few damped rounds.
SOLVER_ITERATIONS = 8
#: Damping of the latency update between iterations (avoids oscillation
#: around the saturation knee).
SOLVER_DAMPING = 0.5
#: Early-exit threshold for the fixed-point solve: remaining iterations
#: are skipped once the damped latency matrix moves by at most this much
#: (max |delta|, seconds) between rounds. The default 0.0 skips only on an
#: *exact* fixed point — an exact fixed point reproduces itself, so the
#: skipped iterations could not have changed anything and results stay
#: bit-for-bit identical to the full 8 rounds.
SOLVER_EPSILON = 0.0
#: Default epoch cap (a run 15x slower than nominal still completes).
DEFAULT_MAX_EPOCHS = 800

#: Version stamp of the engine's *numerical behaviour*. Bump it whenever a
#: change makes previously simulated results stale (solver changes, cost
#: model recalibration, workload model edits): persistent run stores
#: (:mod:`repro.runstore`) compare this against the version recorded on
#: disk and drop every stored run on a mismatch.
ENGINE_VERSION = "3"


class CongestionSolver:
    """Turns an access matrix into per-(src, dst) memory latencies.

    The hot path is fully vectorized: a dense link-routing matrix
    ``R[(src, dst), link]`` (exported by the topology) turns
    :meth:`congestion` into two matrix products, and the ndarray-aware
    latency model turns :meth:`latency_matrix` into one broadcast
    expression. ``route_links`` is kept as the loop-friendly view of the
    same routing tables (the perfbench loop-oracle iterates it).
    """

    def __init__(self, machine: Machine):
        self.machine = machine
        n = machine.num_nodes
        topo = machine.topology
        self.num_nodes = n
        self.hops = np.array(
            [[topo.hops(s, d) for d in range(n)] for s in range(n)]
        )
        links = list(topo.links)
        self._link_index = {l.key: i for i, l in enumerate(links)}
        self.link_bw = np.array([l.bandwidth_gib_s * (1 << 30) for l in links])
        self.controller_bw = topo.memory_controller_gib_s * (1 << 30)
        self.route_links: Dict[Tuple[int, int], List[int]] = {}
        for s in range(n):
            for d in range(n):
                self.route_links[(s, d)] = [
                    self._link_index[l.key] for l in topo.route(s, d)
                ]
        #: R[src * n + dst, link] == 1.0 iff the link lies on route
        #: (src, dst); link order matches ``link_bw``.
        self.route_matrix = topo.route_link_matrix()
        self._zero_latm: Optional[np.ndarray] = None
        # Hop-dependent latency-model terms are constant per topology:
        # precompute them once so the batched per-iteration path skips
        # the table lookups (identical arrays, so identical bits).
        model = machine.latency
        self._lat_base, self._lat_coeff = model.hop_coefficients(self.hops)
        self._hops_zero = self.hops == 0

    def congestion(self, matrix: np.ndarray, seconds: float) -> Tuple[np.ndarray, np.ndarray]:
        """Controller and link utilisations for ``matrix`` over ``seconds``.

        ``matrix`` is one ``(n, n)`` access matrix or a ``(W, n, n)``
        stack of per-world matrices; the results gain the same leading
        world axis. A stack is reduced per world exactly as a single
        matrix would be: the column sums run over the same length-n axis
        in the same (sequential) order, and the link-routing product is
        issued per world on a contiguous row — the single-matrix
        vector-matrix call shape, so the BLAS kernel and its summation
        order never depend on ``W`` and every world's result is
        bit-identical to its slice's.
        """
        col_bytes = matrix.sum(axis=-2) * CACHE_LINE_BYTES
        rho_c = col_bytes / (self.controller_bw * seconds)
        if matrix.ndim == 2:
            link_bytes = (matrix.reshape(-1) * CACHE_LINE_BYTES) @ self.route_matrix
        else:
            worlds = matrix.shape[0]
            flat_bytes = matrix.reshape(worlds, -1) * CACHE_LINE_BYTES
            link_bytes = np.empty((worlds, len(self.link_bw)))
            for w in range(worlds):
                link_bytes[w] = flat_bytes[w] @ self.route_matrix
        rho_l = link_bytes / (self.link_bw * seconds)
        return rho_c, rho_l

    def congestion_many(
        self, stacked: np.ndarray, seconds: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`congestion` over a ``(W, n, n)`` stack of access matrices."""
        return self.congestion(stacked, seconds)

    def latency_matrix(
        self, rho_c: np.ndarray, rho_l: np.ndarray
    ) -> np.ndarray:
        """Per-(src, dst) access latency in *seconds* under congestion.

        Utilisations are scaled by the configured traffic burstiness: the
        queueing happens at the traffic peaks, not at the epoch average.
        This is the ``W = 1`` call of :meth:`latency_matrix_many`.

        The zero-congestion matrix (the idle machine, requested at every
        engine start-up) is memoized and returned *read-only* — a caller
        mutating the shared memo would silently corrupt every later
        epoch's solver start state, so NumPy now enforces what the old
        docstring only asked for.
        """
        idle = not rho_c.any() and not rho_l.any()
        if idle and self._zero_latm is not None:
            return self._zero_latm
        latm = self.latency_matrix_many(rho_c[np.newaxis], rho_l[np.newaxis])[0]
        if idle:
            latm.setflags(write=False)
            self._zero_latm = latm
        return latm

    def latency_matrix_many(
        self, rho_c: np.ndarray, rho_l: np.ndarray
    ) -> np.ndarray:
        """:meth:`latency_matrix` over per-world ``(W, n)`` / ``(W, links)``.

        Inlines :meth:`LatencyModel.memory_latency_cycles` with the hop
        tables precomputed at solver construction: every float operation
        (and its order) matches the model method, and the formula is
        elementwise over the broadcast world axis, so adding that axis
        changes which elements are computed together but not any
        individual result. This is the innermost line of the epoch
        fixed point, evaluated up to ``SOLVER_ITERATIONS`` times per
        epoch; it skips the idle memo, whose value comes from this same
        formula.
        """
        model = self.machine.latency
        burst = self.machine.config.traffic_burstiness
        n = self.num_nodes
        worlds = rho_c.shape[0]
        if self.route_matrix.size:
            # Max utilisation along each route; all-zero rows (local
            # accesses) reduce to 0.0 exactly as the loop's default did.
            route_rho = (
                (self.route_matrix * rho_l[:, np.newaxis, :])
                .max(axis=2)
                .reshape(worlds, n, n)
            )
        else:
            route_rho = np.zeros((worlds, n, n))
        rho_cb = rho_c[:, np.newaxis, :] * burst
        congestion = np.where(
            self._hops_zero, rho_cb, np.maximum(rho_cb, route_rho * burst)
        )
        # queueing(), with the knee constants folded (same formulas on
        # the same scalars yield the same floats every call).
        cap = model.rho_cap
        rho = np.maximum(congestion, 0.0)
        clamped = np.minimum(rho, cap)
        q = np.where(
            rho <= cap,
            clamped / (1.0 - clamped),
            cap / (1.0 - cap) + (1.0 / (1.0 - cap) ** 2) * (rho - cap),
        )
        cycles = self._lat_base + self._lat_coeff * q
        return cycles / (model.freq_ghz * 1e9)


# ----------------------------------------------------------------------
# The epoch stepper: every live world of a group is one lane


@dataclass
class _Lane:
    """One live world's slot in the current group epoch
    (built by :meth:`EpochStepper.begin_epoch`)."""

    __slots__ = ("pos", "stepper", "active_runs", "dests")

    pos: int
    stepper: EpochStepper
    active_runs: List[AppRun]
    dests: List[Tuple[np.ndarray, np.ndarray, np.ndarray]]


class _Flat:
    """Per-thread inputs of every active run, flattened run-major."""

    __slots__ = (
        "D", "src", "active", "shares", "cpu", "tlb", "io",
        "one_minus_sync", "churn", "pending", "avail", "t_run", "t_world",
        "thread_bounds", "runs_per_world", "num_runs",
    )


def _gather_key(lanes: List[_Lane]) -> Tuple:
    """Identity of everything :func:`_gather` reads, cheap to rebuild.

    Steady-state epochs reuse the previous epoch's flattened arrays: the
    key pins the lane partition (which worlds, in which order), each
    run's cached destination arrays (``id`` — the dest memo hands out a
    *new* frozen array whenever placements or threads changed), the
    pending policy cost, and the CPU-share epoch of the run's scheduler
    (shares can only change when a runqueue does, which bumps
    ``Scheduler.version``; native-Linux runs have no scheduler and fixed
    shares). Every other gathered input is immutable after world build.
    """
    sig: List[Tuple] = []
    for lane in lanes:
        sig.append((id(lane.stepper),))
        for run, dests in zip(lane.active_runs, lane.dests):
            sched = getattr(
                getattr(run.context, "hypervisor", None), "scheduler", None
            )
            sig.append((
                id(run),
                id(dests[0]),
                run.pending_policy_cost,
                id(sched),
                getattr(sched, "version", 0),
            ))
    return tuple(sig)


def _gather(lanes: List[_Lane], epoch_seconds: float) -> _Flat:
    """Flatten the group's active runs into structure-of-arrays form.

    Scalar per-run values (op cost, sync fraction, pending policy cost)
    are broadcast to per-thread arrays with ``np.repeat``; using them
    elementwise performs the same float operation the reference driver's
    scalar-with-array broadcasting does, so nothing changes bitwise.
    The per-thread time budget (``avail``) never depends on the latency
    matrix, so it is folded in here — evaluated once per gather, with
    the same two expressions the reference driver evaluates per epoch.
    """
    D_parts: List[np.ndarray] = []
    src_parts: List[np.ndarray] = []
    active_parts: List[np.ndarray] = []
    shares_parts: List[np.ndarray] = []
    counts: List[int] = []
    run_world_idx: List[int] = []
    cpu: List[float] = []
    tlb: List[float] = []
    io: List[float] = []
    one_minus_sync: List[float] = []
    churn: List[float] = []
    pending: List[float] = []
    for lane in lanes:
        for run, (D, src, active) in zip(lane.active_runs, lane.dests):
            ctx = run.context
            D_parts.append(D)
            src_parts.append(src)
            active_parts.append(active)
            shares_parts.append(np.array([t.cpu_share for t in run.threads]))
            counts.append(len(run.threads))
            run_world_idx.append(lane.pos)
            cpu.append(run.op_model.cpu_seconds)
            tlb.append(getattr(ctx, "tlb_seconds_per_op", 0.0))
            io.append(ctx.io_seconds_per_op)
            one_minus_sync.append(1.0 - ctx.sync_fraction)
            churn.append(ctx.churn_slowdown)
            pending.append(run.pending_policy_cost)
    flat = _Flat()
    counts_arr = np.array(counts)
    flat.num_runs = len(counts)
    flat.D = np.concatenate(D_parts, axis=0)
    flat.src = np.concatenate(src_parts)
    flat.active = np.concatenate(active_parts)
    flat.shares = np.concatenate(shares_parts)
    flat.cpu = np.repeat(np.array(cpu), counts_arr)
    flat.tlb = np.repeat(np.array(tlb), counts_arr)
    flat.io = np.repeat(np.array(io), counts_arr)
    flat.one_minus_sync = np.repeat(np.array(one_minus_sync), counts_arr)
    flat.churn = np.repeat(np.array(churn), counts_arr)
    flat.pending = np.repeat(np.array(pending), counts_arr)
    flat.t_run = np.repeat(np.arange(flat.num_runs), counts_arr)
    flat.t_world = np.repeat(np.array(run_world_idx), counts_arr)
    flat.thread_bounds = np.concatenate(([0], np.cumsum(counts_arr)))
    flat.runs_per_world = [len(lane.active_runs) for lane in lanes]
    avail = epoch_seconds * flat.shares * flat.one_minus_sync / flat.churn
    flat.avail = np.maximum(0.0, avail - flat.pending)
    return flat


def _world_totals(
    run_mats: np.ndarray, flat: _Flat, num_worlds: int, n: int
) -> np.ndarray:
    """Per-world access totals from the per-run stack.

    Single-run worlds (the common sweep shape) alias their run matrix
    directly: the reference driver's ``zeros + matrix`` accumulation is
    bit-identical to the matrix itself because traffic contributions are
    never ``-0.0``. Multi-run worlds accumulate their run matrices in
    run order — the reference loop's exact summation order.
    """
    if flat.num_runs == num_worlds:
        return run_mats
    totals = np.zeros((num_worlds, n, n))
    r = 0
    for w, count in enumerate(flat.runs_per_world):
        for _ in range(count):
            totals[w] += run_mats[r]
            r += 1
    return totals


def _step_lanes(
    lanes: List[_Lane],
    solver: CongestionSolver,
    epoch_seconds: float,
    now: float,
    solver_epsilon: Optional[float],
    gather_cache: dict,
) -> None:
    """Advance every lane's world by one epoch, solved as one batch.

    The only epoch stepper: :meth:`EpochStepper.step` calls it with one
    lane, :func:`repro.core.multirun.run_worlds` with one lane per live
    world of a group. Per lane, one epoch is

    1. the fixed point: every active thread's operation rate is solved
       together with the congestion it creates (operation rates ->
       access matrices -> controller/link utilisation -> memory
       latencies -> operation rates), all worlds in one numpy program.
       Each world keeps its own exact-fixed-point early exit: a
       converged world's latency matrix is masked out of the damped
       update, and the loop stops once every world converged;
    2. the commit, per run in world order: work with interpolated finish
       times, the counter observation and policy callback, the
       :class:`EpochRecord`, then churn;
    3. the hardware accounting and the epoch's end, per world.

    The ``engine.*`` cells, the ``epoch.solve`` span and the
    ``run.commit`` instants are emitted here, per world, in the order
    the single-world loop emitted them.

    ``gather_cache`` is the driver's single-slot memo, mutated in place
    here: steady-state epochs (same lanes, same destination arrays,
    same pending costs and CPU shares — see :func:`_gather_key`) reuse
    the previous epoch's flattened arrays instead of re-gathering.
    """
    n = solver.num_nodes
    num_worlds = len(lanes)
    key = _gather_key(lanes)
    if gather_cache.get("key") == key:
        flat = gather_cache["flat"]
    else:
        flat = _gather(lanes, epoch_seconds)
        gather_cache["key"] = key
        gather_cache["flat"] = flat
        # The key holds ``id``s of the destination arrays; keeping the
        # arrays alive keeps those ids from being recycled.
        gather_cache["dests"] = [lane.dests for lane in lanes]
    latm = np.stack([lane.stepper.latm for lane in lanes])
    unconverged = np.ones(num_worlds, dtype=bool)
    observed = any(lane.stepper._observed for lane in lanes)
    iterations = np.zeros(num_worlds, dtype=np.int64)
    deltas = np.zeros(num_worlds)
    avail = flat.avail
    ops_flat = totals = rho_c = rho_l = None
    run_mats = np.zeros((flat.num_runs, n, n))
    first_pass = True
    for _ in range(SOLVER_ITERATIONS):
        lat_rows = latm[flat.t_world, flat.src]
        mem_s = (flat.D * lat_rows).sum(axis=1)
        time_per_op = flat.cpu + mem_s + flat.tlb + flat.io
        ops_flat = np.where(flat.active, avail / time_per_op, 0.0)
        if first_pass:
            first_pass = False
        else:
            run_mats.fill(0.0)
        np.add.at(run_mats, (flat.t_run, flat.src), flat.D * ops_flat[:, None])
        totals = _world_totals(run_mats, flat, num_worlds, n)
        rho_c, rho_l = solver.congestion_many(totals, epoch_seconds)
        lat_new = solver.latency_matrix_many(rho_c, rho_l)
        damped = SOLVER_DAMPING * latm + (1.0 - SOLVER_DAMPING) * lat_new
        diff = np.abs(damped - latm).reshape(num_worlds, -1).max(axis=1)
        if observed:
            # Per world: the passes it took part in, and its last move.
            iterations += unconverged
            deltas = np.where(unconverged, diff, deltas)
        # Early-exit masking: a converged world's matrix is frozen. The
        # damped update would reproduce it bit-for-bit anyway (an exact
        # fixed point reproduces itself), so masking only saves work and
        # keeps per-world results identical to stepping it alone.
        if unconverged.all():
            latm = damped
        else:
            latm = np.where(unconverged[:, None, None], damped, latm)
        if solver_epsilon is not None:
            unconverged &= diff > solver_epsilon
            if not unconverged.any():
                break

    # ---- commit per run, in world order, with batched per-run math
    # One rho_c row is shared by every run's observation in a world, and
    # EpochRecord metrics are read *after* the policy callback ran —
    # freeze the observation inputs so policy code cannot (even
    # accidentally) mutate a sibling's view or its own archived metrics.
    run_mats.setflags(write=False)
    rho_c.setflags(write=False)
    # The run's own *contribution* to the links, archived in its
    # EpochRecord; the observation instead carries the world-total
    # utilisations — the congestion the run *experiences* — because
    # that is what hardware counters show a per-domain policy.
    run_rho_l = solver.congestion_many(run_mats, epoch_seconds)[1]
    ops_by_node = np.zeros((flat.num_runs, n))
    np.add.at(ops_by_node, (flat.t_run, flat.src), ops_flat)
    # The per-run EpochRecord metrics are reductions over each run's
    # matrix slice; computing them over the stack reduces the same
    # contiguous elements with the same accumulation order as the
    # EpochObservation properties, so every float matches (ops_done stays
    # a per-slice ``.sum()`` below: reduceat's sequential accumulation
    # differs from ndarray.sum's pairwise blocking past 8 threads):
    #   local_fraction— trace / total, 1.0 on a zero matrix
    #   imbalance     — std / mean of column sums, 0.0 on zero mean
    #   max_link_rho  — order-free max reduction
    acc_total = run_mats.sum(axis=(1, 2))
    traces = np.trace(run_mats, axis1=1, axis2=2)
    local_frac = np.where(
        acc_total == 0.0,
        1.0,
        traces / np.where(acc_total == 0.0, 1.0, acc_total),
    )
    counts = run_mats.sum(axis=1)
    counts_mean = counts.mean(axis=1)
    imbalance = np.where(
        counts_mean == 0.0,
        0.0,
        counts.std(axis=1) / np.where(counts_mean == 0.0, 1.0, counts_mean),
    )
    if run_rho_l.shape[1]:
        max_run_rho_l = run_rho_l.max(axis=1)
    else:
        max_run_rho_l = np.zeros(flat.num_runs)
    world_max_rho_l = rho_l.max(axis=1) if rho_l.shape[1] else np.zeros(num_worlds)
    r = 0
    for lane in lanes:
        stepper = lane.stepper
        epoch = stepper.epoch
        world_rho_c = rho_c[lane.pos]
        world_max = float(world_max_rho_l[lane.pos])
        if stepper._epoch_cells is not None:
            stepper._epoch_cells[0].inc()
            stepper._epoch_cells[1].observe(int(iterations[lane.pos]))
        tracer = stepper.tracer
        trace_on = stepper._trace_on
        if trace_on:
            tracer.span(
                "epoch.solve",
                epoch_seconds,
                cat="engine",
                epoch=epoch,
                iterations=int(iterations[lane.pos]),
                early_exit_delta=float(deltas[lane.pos]),
                active_runs=len(lane.active_runs),
            )
        for run in lane.active_runs:
            t0 = flat.thread_bounds[r]
            t1 = flat.thread_bounds[r + 1]
            ops = ops_flat[t0:t1]
            run.commit_work(ops, now, epoch_seconds)
            observation = run.build_observation(
                access_matrix=run_mats[r],
                controller_rho=world_rho_c,
                max_link_rho=world_max,
                epoch_seconds=epoch_seconds,
                ops_by_node=ops_by_node[r],
            )
            cost = run.context.policy_on_epoch(run, observation)
            run.pending_policy_cost = cost
            migrations = 0
            if run.context.policy_is_dynamic:
                migrations = _migrations_of(run)
            ops_done = float(ops.sum())
            run.records.append(
                EpochRecord(
                    epoch=epoch,
                    ops_done=ops_done,
                    imbalance=float(imbalance[r]),
                    max_link_rho=float(max_run_rho_l[r]),
                    local_fraction=float(local_frac[r]),
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
                    ops=ops_done,
                    policy_cost_seconds=cost,
                    migrations=migrations,
                )
            run.churn_step()
            r += 1
    # Hardware accounting is per-world state: batching it after every
    # lane's runs committed keeps each world's ordering (policies ran,
    # then traffic recorded, then the epoch archived) while paying the
    # numpy overhead once for the whole group.
    record_node_traffic_many(
        [lane.stepper.machine for lane in lanes], totals
    )
    for lane in lanes:
        stepper = lane.stepper
        stepper.machine.end_epoch()
        stepper.latm = latm[lane.pos]
        stepper.epoch = stepper.epoch + 1


class EpochStepper:
    """Per-world engine state, advanced one epoch at a time.

    The engine loop used to live entirely inside :func:`run_world`, with
    the machine, solver and latency state as locals — which made a world
    an implicit singleton of its invocation. The stepper holds exactly
    that state per *instance*, so several worlds (one per cluster host)
    can advance in lockstep on one shared simulated clock while
    :func:`run_world` stays the single-host driver with bit-identical
    results.

    Usage: construct, :meth:`initialize`, then call :meth:`step` with the
    current simulated time until it returns False (no active runs) or an
    external epoch cap is reached, and collect results via :meth:`finish`.
    """

    def __init__(
        self,
        world: World,
        solver_epsilon: Optional[float] = SOLVER_EPSILON,
    ):
        self.world = world
        self.machine = world.machine
        self.solver = CongestionSolver(self.machine)
        self.num_nodes = self.machine.num_nodes
        self.epoch_seconds = world.epoch_seconds
        self.solver_epsilon = solver_epsilon
        # Observability: metric cells registered with the active session
        # (no session: cells are created but never collected) and trace
        # emission guarded by one boolean so the disabled path costs
        # nothing. All trace timestamps come from the simulated clock —
        # never the wall clock — so identical requests yield
        # byte-identical traces.
        reg = obs.registry()
        self.tracer = obs.tracer()
        self._trace_on = self.tracer.enabled
        if reg.enabled:
            self._epoch_cells = (
                reg.counter("engine.epochs", world=world.label),
                reg.histogram("engine.solver_iterations", world=world.label),
            )
        else:
            self._epoch_cells = None
        self._observed = self._trace_on or self._epoch_cells is not None
        self.epoch = 0
        self._latm: Optional[np.ndarray] = None
        # The single-world driver's gather memo (see :func:`_step_lanes`).
        self._gather_cache: dict = {}

    @property
    def latm(self) -> Optional[np.ndarray]:
        """The damped latency matrix carried across epochs.

        This is the solver state the epoch stepper stacks across lanes
        and writes back after each epoch; ``None`` until
        :meth:`initialize` ran.
        """
        return self._latm

    @latm.setter
    def latm(self, value: np.ndarray) -> None:
        """Adopt ``value`` as the carried matrix; ``value`` is mutated in
        place by ``setflags(write=False)``. The getter hands out the
        stored array itself, and a caller scribbling on it would corrupt
        the next epoch's solver start state (the PR 5 latency-memo bug
        class), so the stepper freezes what it adopts."""
        value.setflags(write=False)
        self._latm = value

    def initialize(self) -> None:
        """First-touch every run's pages and seed the idle latency matrix."""
        for run in self.world.runs:
            run.initialize()
        self._latm = self.solver.latency_matrix(
            np.zeros(self.num_nodes), np.zeros(len(self.solver.link_bw))
        )

    def idle_step(self, now: float) -> None:
        """Advance the clock on a world with nothing to run.

        Cluster lockstep uses this to keep an evacuated (or not yet
        populated) host's epoch counter aligned with its peers, so a run
        migrating onto it continues with coherent epoch numbering.
        """
        self.machine.end_epoch()
        self.epoch += 1

    def begin_epoch(self, now: float, pos: int = 0) -> Optional[_Lane]:
        """Open the epoch starting at ``now``: this world's lane, or None.

        Fires the epoch's hooks, then collects the runs still active and
        their destination matrices (placement is frozen while the solver
        iterates, and each run caches them across epochs while churn
        leaves placement untouched). None — without consuming an epoch —
        means the world has nothing to run. ``pos`` is the lane's slot in
        its group.
        """
        self.tracer.set_time(now)
        world = self.world
        for hook in world.epoch_hooks.get(self.epoch, ()):
            hook(world)
        active_runs = [r for r in world.runs if not r.finished]
        if not active_runs:
            return None
        n = self.num_nodes
        return _Lane(
            pos=pos,
            stepper=self,
            active_runs=active_runs,
            dests=[run.destination_matrix(n) for run in active_runs],
        )

    def step(self, now: float) -> bool:
        """Simulate one epoch starting at ``now``: a group of one lane.

        Returns False — without consuming an epoch — when no run is
        active (the single-host loop breaks; a cluster may instead keep
        the host idling). The caller advances its clock by
        :attr:`epoch_seconds` after every True return.
        """
        lane = self.begin_epoch(now)
        if lane is None:
            return False
        _step_lanes(
            [lane],
            self.solver,
            self.epoch_seconds,
            now,
            self.solver_epsilon,
            self._gather_cache,
        )
        return True

    def finish(self, now: float) -> List[RunResult]:
        """Assemble one result per run and tear the world down."""
        world = self.world
        epoch = self.epoch
        tracer = self.tracer
        trace_on = self._trace_on
        results: List[RunResult] = []
        tracer.set_time(now)
        for run in world.runs:
            # Truncation is per run identity, not per application name:
            # the paper's 2-VM setups run the same app twice, and one VM
            # timing out must not mark its twin truncated.
            run_truncated = not run.finished
            if run.finished:
                finish = max(t.finish_time for t in run.threads)
            else:
                finish = now
            completion = run.init_seconds + finish
            stats = {
                "init_seconds": run.init_seconds,
                "truncated": 1.0 if run_truncated else 0.0,
                "sync_fraction": run.context.sync_fraction,
                "churn_slowdown": run.context.churn_slowdown,
                "io_seconds_per_op": run.context.io_seconds_per_op,
            }
            # The transient observability snapshot of the run's context
            # (fault/queue/p2m/policy counters). Excluded from equality
            # and serialization, so stored results and reports are
            # unchanged.
            snapshot = getattr(run.context, "metrics_snapshot", None)
            metrics = snapshot() if snapshot is not None else {}
            if trace_on:
                tracer.instant(
                    "run.result",
                    cat="engine",
                    app=run.app.name,
                    policy=run.context.policy_label,
                    completion_seconds=completion,
                    epochs=epoch,
                    truncated=run_truncated,
                )
            results.append(
                RunResult(
                    app=run.app.name,
                    environment=world.label,
                    policy=run.context.policy_label,
                    completion_seconds=completion,
                    epochs=epoch,
                    records=run.records,
                    stats=stats,
                    metrics=metrics,
                )
            )
        world.teardown()
        return results


def run_world(
    world: World,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> List[RunResult]:
    """Simulate a world to completion; returns one result per app run.

    Args:
        max_epochs: epoch cap; runs still unfinished at the cap are marked
            truncated (per run — two runs of the same application are
            tracked independently).
        solver_epsilon: early-exit threshold for the per-epoch fixed-point
            solve (see :data:`SOLVER_EPSILON`). ``None`` disables the
            early exit and always runs all :data:`SOLVER_ITERATIONS`.
    """
    stepper = EpochStepper(world, solver_epsilon=solver_epsilon)
    stepper.initialize()
    now = 0.0
    while stepper.epoch < max_epochs:
        if not stepper.step(now):
            break
        now += stepper.epoch_seconds
    return stepper.finish(now)


def _migrations_of(run: AppRun) -> int:
    """Pages the dynamic policy moved in its last iteration."""
    context = run.context
    policy = getattr(context, "domain", None)
    if policy is not None:  # Xen mode
        numa_policy = context.domain.numa_policy
        engine = getattr(numa_policy, "engine", None)
    else:  # Linux mode
        engine = getattr(context.numa_mode, "engine", None)
    if engine is None or not engine.history:
        return 0
    return engine.history[-1].applied


def run_apps(
    env: Environment,
    specs: Sequence,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> List[RunResult]:
    """Set up ``env`` with ``specs`` and simulate to completion."""
    world = env.setup(specs)
    return run_world(world, max_epochs=max_epochs, solver_epsilon=solver_epsilon)


def run_app(
    env: Environment,
    spec,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> RunResult:
    """Single-application convenience wrapper."""
    return run_apps(
        env, [spec], max_epochs=max_epochs, solver_epsilon=solver_epsilon
    )[0]
