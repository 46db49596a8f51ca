"""Test-only oracle: the pre-vectorization solver loops and epoch loop.

Three generations of fast path are anchored here:

* the original O(n^2) per-(src, dst) congestion-solver loops that
  :class:`repro.sim.engine.CongestionSolver` replaced with matrix
  products;
* the original per-world epoch loop (:class:`ReferenceStepper`,
  driven by :func:`reference_run_world`) that the engine's one
  structure-of-arrays stepper replaced — per run, per solver pass,
  with the same metric cells and trace events;
* the per-host cluster loop (:func:`reference_simulate`) that stepped
  each host alone before the hosts became lanes of one group;
* per-machine traffic accounting (:func:`record_node_traffic`), which
  :func:`repro.hardware.machine.record_node_traffic_many` replaced with
  one route-incidence product for a whole stack of machines, and the
  per-``(src, dst)`` route walk (:func:`record_access`) that
  :func:`record_access_matrix` replaced before that.

They serve two consumers: the equivalence tests
(:mod:`tests.sim.test_engine_vectorized`,
:mod:`tests.properties.test_engine_oracle`) and the speedup gates
(:mod:`tests.perf.test_speedup_gates`), which measure the engine's
``>= 3x`` against them. It is test-only: nothing in ``src/`` can reach
it. Do not optimise it — its value is being slow and obviously correct.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster import Cluster
from repro.hardware.counters import CACHE_LINE_BYTES
from repro.hardware.interconnect import Interconnect
from repro.hardware.machine import Machine
from repro.hardware.topology import NumaTopology
from repro.sim.engine import (
    DEFAULT_MAX_EPOCHS,
    SOLVER_DAMPING,
    SOLVER_ITERATIONS,
    CongestionSolver,
    EpochStepper,
    _migrations_of,
)
from repro.sim.environment import World
from repro.sim.instance import AppRun
from repro.sim.results import EpochRecord, RunResult


def record_access(interconnect: Interconnect, src: int, dst: int, nbytes: int) -> None:
    """Account ``nbytes`` on every link of the route ``src`` -> ``dst``.

    Local accesses (src == dst) touch no link.
    """
    if src == dst or nbytes == 0:
        return
    for link in interconnect.topology.route(src, dst):
        interconnect._bytes[link.key] += nbytes


def record_access_matrix(interconnect: Interconnect, byte_matrix: np.ndarray) -> None:
    """Account a whole ``(n, n)`` matrix of per-route byte counts.

    State-identical to :func:`record_access` on every ``(src, dst)``
    pair: per-link totals are integer sums of the same per-pair counts,
    computed as one product against the 0/1 route-incidence matrix.
    """
    if not interconnect.topology.links:
        return
    link_bytes = byte_matrix.reshape(-1) @ interconnect.route_incidence()
    interconnect.record_link_bytes(link_bytes.tolist())


def record_node_traffic(machine: Machine, matrix: np.ndarray) -> None:
    """Account one epoch's access matrix on one machine's components.

    ``matrix[src, dst]`` accesses each move one cache line over the route
    and through the destination controller.
    """
    if matrix.shape != (machine.num_nodes, machine.num_nodes):
        raise ValueError("access matrix shape mismatch")
    machine.counters.record_matrix(matrix)
    col_bytes = matrix.sum(axis=0) * CACHE_LINE_BYTES
    for node, nbytes in enumerate(col_bytes.tolist()):
        if nbytes:
            machine.memory.controllers[node].serve(int(nbytes))
    byte_matrix = (matrix * CACHE_LINE_BYTES).astype(np.int64)
    np.fill_diagonal(byte_matrix, 0)
    record_access_matrix(machine.interconnect, byte_matrix)


@lru_cache(maxsize=8)
def route_links(topology: NumaTopology) -> Dict[Tuple[int, int], List[int]]:
    """Link indices (in ``topology.links`` order) on each (src, dst) route.

    The loop-friendly view of the routing tables the solver's dense
    ``route_matrix`` encodes. Memoised per topology, so the loops below
    pay one lookup for it, as they did when the solver carried it.
    """
    index = {link.key: i for i, link in enumerate(topology.links)}
    n = topology.num_nodes
    return {
        (s, d): [index[link.key] for link in topology.route(s, d)]
        for s in range(n)
        for d in range(n)
    }


def loop_congestion(
    solver: CongestionSolver, matrix: np.ndarray, seconds: float
) -> Tuple[np.ndarray, np.ndarray]:
    """:meth:`CongestionSolver.congestion` as the original Python loop."""
    col_bytes = matrix.sum(axis=0) * CACHE_LINE_BYTES
    rho_c = col_bytes / (solver.controller_bw * seconds)
    link_bytes = np.zeros(len(solver.link_bw))
    routes = route_links(solver.machine.topology)
    for s in range(solver.num_nodes):
        for d in range(solver.num_nodes):
            if s == d:
                continue
            traffic = matrix[s, d] * CACHE_LINE_BYTES
            if traffic == 0:
                continue
            for li in routes[(s, d)]:
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
    routes = route_links(solver.machine.topology)
    out = np.zeros((n, n))
    for s in range(n):
        for d in range(n):
            route = routes[(s, d)]
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
    """:class:`EpochStepper` with the original per-run epoch loop.

    ``solver_epsilon`` is the early-exit threshold of the fixed-point
    solve: the remaining passes are skipped once the damped latency
    matrix moves by at most this much (max |delta|, seconds). 0.0 is the
    engine's exact early exit; ``None`` always runs all
    :data:`~repro.sim.engine.SOLVER_ITERATIONS` passes.
    """

    def __init__(self, world: World, solver_epsilon: Optional[float] = 0.0):
        super().__init__(world)
        self.solver_epsilon = solver_epsilon

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
        record_node_traffic(machine, total)
        machine.end_epoch()
        self.epoch = epoch + 1
        return True


def reference_run_world(
    world: World,
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = 0.0,
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


def reference_simulate(
    cluster: Cluster, max_epochs: int = DEFAULT_MAX_EPOCHS
) -> List[RunResult]:
    """:meth:`repro.cluster.Cluster.simulate` stepping each host alone.

    Every epoch each host, in host order, takes :meth:`EpochStepper.step`
    (a group of one) or idle-steps; the migration rounds, the clock and
    the result assembly are the cluster's own.
    """
    steppers = cluster._start()
    while cluster.epoch < max_epochs:
        cluster._launch_due()
        stepped = False
        for stepper in steppers:
            if stepper.step(cluster.now):
                stepped = True
            else:
                stepper.idle_step(cluster.now)
        if not cluster._advance(stepped):
            break
    return cluster._results()
