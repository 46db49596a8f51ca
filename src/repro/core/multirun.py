"""Multi-run batching: N independent worlds stepped as one numpy program.

A parameter sweep executes hundreds of ``RunRequest``s; stepping them
one world at a time pays the per-epoch numpy dispatch cost once per
world. This module amortizes it across worlds: a group of requests with
a compatible topology/config signature is built into K live worlds and
handed to the engine's one epoch stepper
(:func:`repro.sim.engine._step_lanes`) as K lanes —

* per-thread inputs of every active run are flattened into one
  ``(T_total,)`` / ``(T_total, n)`` family of arrays;
* per-run access matrices land in one ``np.add.at`` scatter over a
  ``(R_total, n, n)`` stack, world totals in a ``(W, n, n)`` stack;
* one :meth:`~repro.sim.engine.CongestionSolver.congestion` call and one
  :meth:`~repro.sim.engine.CongestionSolver.latency_matrix_many` call
  turn the stack into per-world utilisations and latency matrices (the
  topology constants — hops, route matrix, link bandwidths — are shared
  by the whole group);
* each world keeps its own exact-fixed-point early exit: a converged
  world's latency matrix is masked out of the damped update (which would
  be the identity on it anyway — an exact fixed point reproduces itself,
  the same argument :data:`~repro.sim.engine.SOLVER_EPSILON` makes), and
  the loop stops once every world converged.

A single world is the same stepper with one lane
(:meth:`~repro.sim.engine.EpochStepper.step`), so there is no separate
serial engine to agree with: everything per-world stays per-world
(commit, observations, policies, churn, hardware counters, metric cells,
trace events, teardown) and runs in the single-world order, which makes
batched results **bit-identical** to serial execution. The pre-batching
single-world loop survives only as the reference driver
:func:`repro.perfbench.oracle.reference_run_world`, which the parity
tests and the ``bench_multi_run`` perfbench section compare against.

Tracing does not change the path: under an observability session each
lane emits its ``epoch.solve`` span and ``run.commit`` instants from the
shared stepper, and results stay byte-identical to untraced runs.

Fallback rules (a request executes through plain
:func:`~repro.runner.exec.execute_request`, i.e. a lane of one) —

* ``cluster`` requests: one world per host, driven in lockstep by the
  cluster scheduler; there is no single world to stack.
* ``config.sanitize_p2m`` requests: the sanitizer is a check knob
  excluded from cache keys; runs that arm it per request run alone so a
  trapped violation surfaces with an uncluttered single-world stack.
* a group (or chunk) of one: nothing to batch.

Worlds that end (all runs finished, or the epoch cap) are masked out of
the group at their exact single-world exit time and finalized with the
same ``finish(now)`` :func:`~repro.sim.engine.run_world` would have
called.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence

import numpy as np

from repro.errors import MultiRunError
from repro.runner.exec import build_world, execute_request
from repro.sim.engine import (
    DEFAULT_MAX_EPOCHS,
    SOLVER_EPSILON,
    EpochStepper,
    _Lane,
    _step_lanes,
    run_world,
)
from repro.sim.environment import World
from repro.sim.results import RunResult
from repro.sim.runspec import RunRequest


# ----------------------------------------------------------------------
# Grouping

def group_signature(request: RunRequest) -> Optional[str]:
    """The compatibility key of a request, or None when it cannot batch.

    Requests with equal signatures build worlds on the same machine
    preset with the same epoch length and model knobs, so their solver
    constants can be shared. ``rng_seed`` is deliberately excluded — it
    seeds per-world state but never the topology — which is what lets a
    seed sweep batch into one group. Cluster and ``sanitize_p2m``
    requests return None (see the module docstring's fallback rules).
    """
    if request.environment not in ("linux", "xen"):
        return None
    if request.config.sanitize_p2m:
        return None
    config = dict(request.config.result_fields())
    config.pop("rng_seed", None)
    return json.dumps(
        {
            "environment": request.environment,
            "features": request.features,
            "unbatched_hypercalls": request.unbatched_hypercalls,
            "config": config,
        },
        sort_keys=True,
        separators=(",", ":"),
    )


@dataclass
class BatchOutcome:
    """What :func:`execute_batch` did.

    Attributes:
        results: one result list per request, in request order —
            element-wise identical to mapping ``execute_request``.
        batched_runs: requests executed inside SoA groups.
        fallback_runs: requests executed per request (incompatible,
            ungroupable, or left alone in their chunk).
    """

    results: List[List[RunResult]]
    batched_runs: int
    fallback_runs: int


def _chunks(indices: List[int], size: int) -> Iterator[List[int]]:
    for start in range(0, len(indices), size):
        yield indices[start : start + size]


def execute_batch(
    requests: Sequence[RunRequest], batch_worlds: int
) -> BatchOutcome:
    """Execute ``requests``, grouping compatible ones K worlds at a time.

    The results (and therefore the store entries the runner writes) are
    byte-identical to executing each request alone; only the wall clock
    differs. Requests that cannot batch fall back to
    :func:`~repro.runner.exec.execute_request` — execution order across
    requests is irrelevant because request execution is pure.
    """
    batch_worlds = max(1, int(batch_worlds))
    results: List[Optional[List[RunResult]]] = [None] * len(requests)
    groups: dict = {}
    fallback: List[int] = []
    can_batch = batch_worlds > 1
    for i, request in enumerate(requests):
        signature = group_signature(request) if can_batch else None
        if signature is None:
            fallback.append(i)
        else:
            groups.setdefault(signature, []).append(i)
    for i in fallback:
        results[i] = execute_request(requests[i])
    batched = 0
    for indices in groups.values():
        for chunk in _chunks(indices, batch_worlds):
            if len(chunk) == 1:
                results[chunk[0]] = execute_request(requests[chunk[0]])
                continue
            worlds = [build_world(requests[i]) for i in chunk]
            for i, produced in zip(chunk, run_worlds(worlds)):
                results[i] = produced
            batched += len(chunk)
    return BatchOutcome(
        results=list(results),  # type: ignore[arg-type]
        batched_runs=batched,
        fallback_runs=len(requests) - batched,
    )


# ----------------------------------------------------------------------
# The group driver

def _check_compatible(worlds: Sequence[World]) -> None:
    ref = worlds[0]
    ref_topo = ref.machine.topology
    ref_route = ref_topo.route_link_matrix()
    ref_bw = [link.bandwidth_gib_s for link in ref_topo.links]
    for world in worlds[1:]:
        topo = world.machine.topology
        if (
            world.epoch_seconds != ref.epoch_seconds
            or world.machine.num_nodes != ref.machine.num_nodes
            or world.machine.config.traffic_burstiness
            != ref.machine.config.traffic_burstiness
            or topo.memory_controller_gib_s != ref_topo.memory_controller_gib_s
            or [link.bandwidth_gib_s for link in topo.links] != ref_bw
            or not np.array_equal(topo.route_link_matrix(), ref_route)
        ):
            raise MultiRunError(
                f"worlds {ref.label!r} and {world.label!r} are not "
                f"group-compatible (topology/epoch/model mismatch); "
                f"group by repro.core.multirun.group_signature first"
            )


def run_worlds(
    worlds: Sequence[World],
    max_epochs: int = DEFAULT_MAX_EPOCHS,
    solver_epsilon: Optional[float] = SOLVER_EPSILON,
) -> List[List[RunResult]]:
    """Simulate compatible worlds together; one result list per world.

    Bit-identical to calling :func:`~repro.sim.engine.run_world` on each
    world alone, which is also what a single world does — for the exact
    early exit (``solver_epsilon`` 0.0, the default) or none (``None``).
    A positive threshold freezes a converged world's latency matrix
    while the group keeps iterating, so its final pass would see the
    matrix one damped update later than stepping alone.
    """
    worlds = list(worlds)
    if not worlds:
        return []
    if len(worlds) == 1:
        return [
            run_world(worlds[0], max_epochs=max_epochs, solver_epsilon=solver_epsilon)
        ]
    _check_compatible(worlds)
    steppers = [
        EpochStepper(world, solver_epsilon=solver_epsilon) for world in worlds
    ]
    for stepper in steppers:
        stepper.initialize()
    solver = steppers[0].solver
    epoch_seconds = worlds[0].epoch_seconds
    results: List[Optional[List[RunResult]]] = [None] * len(worlds)
    live = list(range(len(worlds)))
    gather_cache: dict = {}
    now = 0.0
    while live:
        lanes: List[_Lane] = []
        still: List[int] = []
        for index in live:
            stepper = steppers[index]
            lane = None
            if stepper.epoch < max_epochs:
                lane = stepper.begin_epoch(now, pos=len(lanes))
            if lane is None:
                # The cap, or nothing left to run: finish at the clock
                # run_world would have stopped at.
                results[index] = stepper.finish(now)
                continue
            lanes.append(lane)
            still.append(index)
        if not lanes:
            break
        _step_lanes(
            lanes, solver, epoch_seconds, now, solver_epsilon, gather_cache
        )
        now += epoch_seconds
        live = still
    return results  # type: ignore[return-value]
