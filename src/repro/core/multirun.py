"""Multi-run batching: N independent worlds stepped as one numpy program.

A parameter sweep executes hundreds of ``RunRequest``s; stepping them
one world at a time pays the per-epoch numpy dispatch cost once per
world. This module amortizes it across worlds: requests with a
compatible topology/config signature (:func:`group_signature`) are built
into K live worlds, and :func:`run_worlds` steps them as the K lanes of
the engine's lane loop (:func:`repro.sim.engine.step_group`), whose one
epoch stepper solves every lane's fixed point in one structure-of-arrays
program with a per-world exact early exit.

A single world is the same loop with one lane
(:meth:`~repro.sim.engine.EpochStepper.step`), so there is no separate
serial engine to agree with: everything per-world stays per-world
(commit, observations, policies, churn, hardware counters, metric cells,
trace events, teardown), which makes batched results **bit-identical**
to serial execution. The pre-batching single-world loop survives only as
the test-only reference driver ``reference_run_world``
(``tests/properties/engine_oracle.py``), which the parity tests and the
multi-run speedup gate compare against. Tracing does not change the
path: each lane emits its ``epoch.solve`` span and ``run.commit``
instants from the shared stepper.

Fallback rules (a request executes through plain
:func:`~repro.runner.exec.execute_request`, i.e. a lane of one) —

* ``cluster`` requests: one world per host, which the cluster steps as
  lanes of its own group; there is no single world to stack here.
* a group (or chunk) of one: nothing to batch.

Worlds that end (all runs finished, or the epoch cap) leave the group at
their exact single-world exit time and are finalized with the same
``finish(now)`` :func:`~repro.sim.engine.run_world` would have called.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

from repro.runner.exec import build_world, execute_request
from repro.sim.engine import (
    DEFAULT_MAX_EPOCHS,
    EpochStepper,
    _check_compatible,
    run_world,
    step_group,
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
    seed sweep batch into one group. Cluster requests return None (see
    the module docstring's fallback rules).
    """
    if request.environment not in ("linux", "xen"):
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

def run_worlds(
    worlds: Sequence[World], max_epochs: int = DEFAULT_MAX_EPOCHS
) -> List[List[RunResult]]:
    """Simulate compatible worlds together; one result list per world.

    Bit-identical to calling :func:`~repro.sim.engine.run_world` on each
    world alone, which is also what a single world does. The worlds step
    as the lanes of :func:`~repro.sim.engine.step_group`; a world that
    runs out of work is finished at the clock ``run_world`` would have
    stopped at, and the epoch cap finishes the rest.
    """
    worlds = list(worlds)
    if not worlds:
        return []
    if len(worlds) == 1:
        return [run_world(worlds[0], max_epochs=max_epochs)]
    _check_compatible(worlds)
    steppers = [EpochStepper(world) for world in worlds]
    for stepper in steppers:
        stepper.initialize()
    results: Dict[int, List[RunResult]] = {}
    gather_cache: dict = {}
    live = steppers
    now = 0.0
    # Lockstep: every live world has stepped the same number of epochs.
    while live and live[0].epoch < max_epochs:
        idle = step_group(live, now, gather_cache)
        for stepper in idle:
            results[id(stepper)] = stepper.finish(now)
        live = [stepper for stepper in live if stepper not in idle]
        if live:
            now += steppers[0].epoch_seconds
    for stepper in live:
        results[id(stepper)] = stepper.finish(now)
    return [results[id(stepper)] for stepper in steppers]
