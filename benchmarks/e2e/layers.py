"""Per-layer wall-time accounting for the end-to-end benchmark.

The benchmark treats the program as a black box, so the spans are
recorded from here: :func:`install` replaces each declared boundary —
a public entry point of one layer — with a wrapper, at its class
attribute or at every module binding that imports it, and the returned
undo callable puts the originals back. Nothing under ``src/`` knows it
is being measured.

A :class:`Tracer` keeps a stack of open calls. When a call returns, its
duration is charged to its boundary and to its parent's child time, so
``self = duration - time covered by child calls``; a layer's self time
is the sum over its boundaries. Request- and epoch-level boundaries
(:data:`SPAN`) are also kept as individual spans while
``Tracer.keep_spans`` is on; sub-epoch and page-level boundaries
(:data:`AGGREGATE`) are only counted, so the trace file stays small.

Run as a script, this module starts a traced ``repro.serve`` server::

    python benchmarks/e2e/layers.py OUT_DIR --store DIR --ready-file F ...

The server process and each of its forked pool workers write their
totals into ``OUT_DIR``; :func:`merge_dumps` adds them up.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Tuple

SPAN = "span"
AGGREGATE = "aggregate"

#: Layers in report order. ``unattributed`` is time inside a timed
#: operation that no boundary covers: the harness's own residue, and in
#: the serve workload the pool worker's glue around each group.
LAYERS: Tuple[str, ...] = (
    "experiments",
    "runner",
    "runstore",
    "sim.results",
    "sim.environment",
    "sim.engine",
    "sim.instance",
    "core.multirun",
    "carrefour",
    "hypervisor",
    "guest",
    "unattributed",
)

#: ``(layer, defining module, attribute path, kind, other bindings)``.
#: A module-level function is also patched in each module that imported
#: it by name, because that module calls its own binding.
BOUNDARIES: Tuple[Tuple[str, str, str, str, Tuple[str, ...]], ...] = (
    ("runner", "repro.runner.runner", "Runner.resolve", SPAN, ()),
    ("runner", "repro.runner.runner", "ResultSet.resolve", SPAN, ()),
    ("runstore", "repro.runstore.base", "RunStore.get", SPAN, ()),
    ("runstore", "repro.runstore.base", "RunStore.put", SPAN, ()),
    ("sim.results", "repro.sim.results", "RunResult.to_json", SPAN, ()),
    ("sim.results", "repro.sim.results", "RunResult.from_json", SPAN, ()),
    ("sim.environment", "repro.runner.exec", "build_world", SPAN,
     ("repro.core.multirun",)),
    ("sim.environment", "repro.sim.environment",
     "_PolicyContext.policy_on_epoch", AGGREGATE, ()),
    ("sim.environment", "repro.sim.environment",
     "_PolicyContext.touch_page", AGGREGATE, ()),
    ("sim.engine", "repro.sim.engine", "run_world", SPAN,
     ("repro.runner.exec", "repro.core.multirun")),
    ("sim.engine", "repro.sim.engine", "EpochStepper.step", SPAN, ()),
    ("sim.engine", "repro.sim.engine", "CongestionSolver.congestion", AGGREGATE, ()),
    ("sim.engine", "repro.sim.engine", "CongestionSolver.latency_matrix", AGGREGATE, ()),
    ("sim.engine", "repro.sim.engine", "CongestionSolver.congestion_many", AGGREGATE, ()),
    ("sim.engine", "repro.sim.engine",
     "CongestionSolver.latency_matrix_many", AGGREGATE, ()),
    ("sim.instance", "repro.sim.instance", "AppRun.build_observation", AGGREGATE, ()),
    ("sim.instance", "repro.sim.instance", "AppRun.churn_step", AGGREGATE, ()),
    ("sim.instance", "repro.sim.instance", "AppRun.destination_matrix", AGGREGATE, ()),
    ("sim.instance", "repro.sim.instance", "AppRun.commit_work", AGGREGATE, ()),
    ("core.multirun", "repro.core.multirun", "execute_batch", SPAN, ()),
    ("core.multirun", "repro.core.multirun", "run_worlds", SPAN, ()),
    ("carrefour", "repro.carrefour.engine", "CarrefourEngine.run_iteration", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.hypercalls", "HypercallTable.dispatch", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.faults", "FaultHandler.handle_fault", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.faults", "FaultHandler.handle_faults", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.faults",
     "FaultHandler.on_write_protected", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.p2m", "P2MTable.set_entries", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.p2m", "P2MTable.invalidate_many", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.p2m", "P2MTable.remove_many", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.p2m", "P2MTable.write_protect_many", AGGREGATE, ()),
    ("hypervisor", "repro.hypervisor.p2m", "P2MTable.unprotect_many", AGGREGATE, ()),
    ("guest", "repro.guest.vmm", "GuestAddressSpace.touch", AGGREGATE, ()),
    ("guest", "repro.guest.vmm", "GuestAddressSpace.map_many", AGGREGATE, ()),
    ("guest", "repro.guest.page_alloc", "GuestPageAllocator.alloc_many", AGGREGATE, ()),
    ("guest", "repro.guest.numa", "LinuxNumaMode.on_epoch", AGGREGATE, ()),
)

#: Boundaries the harness opens itself around calls it makes directly.
HARNESS_BOUNDARIES: Dict[str, str] = {
    "Scenario.required_runs": "experiments",
    "Scenario.assemble": "experiments",
    "harness.pass": "unattributed",
    "serve.execute_group": "unattributed",
}

LAYER_OF: Dict[str, str] = {b[2]: b[0] for b in BOUNDARIES}
LAYER_OF.update(HARNESS_BOUNDARIES)
_AGGREGATED = frozenset(b[2] for b in BOUNDARIES if b[3] == AGGREGATE)


class Tracer:
    """Call stack, per-boundary totals, ratio counters and kept spans.

    ``totals[name]`` is ``[calls, inclusive seconds, self seconds]``.
    ``spans`` holds ``[id, parent id, name, start, end]`` rows (seconds
    since the tracer was created) for span boundaries entered while
    ``keep_spans`` is on; a span's parent is the nearest enclosing kept
    span.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self.pid = os.getpid()
        self.stack: List[list] = []
        self.totals: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self.spans: List[list] = []
        self.keep_spans = False
        self.paused_depth = 0

    def reset(self) -> None:
        """Forget everything recorded (a forked worker drops its parent's)."""
        self.__init__(self.clock)

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Calls inside the block are not recorded (the harness's checks)."""
        self.paused_depth += 1
        try:
            yield
        finally:
            self.paused_depth -= 1

    def inside(self, name: str) -> bool:
        """Whether a call of ``name`` is open on the stack."""
        return any(frame[0] == name for frame in self.stack)

    def enter(self, name: str) -> list:
        span_id = None
        if self.keep_spans and name not in _AGGREGATED:
            span_id = len(self.spans)
            parent = next(
                (f[3] for f in reversed(self.stack) if f[3] is not None), None
            )
            self.spans.append([span_id, parent, name, 0.0, 0.0])
        # frame: [name, start, seconds covered by children, span id]
        frame = [name, self.clock(), 0.0, span_id]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame`` (the innermost open call); returns its duration."""
        end = self.clock()
        self.stack.pop()
        name, start, children, span_id = frame
        duration = end - start
        entry = self.totals[name]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - children
        if self.stack:
            self.stack[-1][2] += duration
        if span_id is not None:
            row = self.spans[span_id]
            row[3] = round(start - self.origin, 6)
            row[4] = round(end - self.origin, 6)
        return duration

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body of a ``with`` block as one call of ``name``."""
        frame = self.enter(name)
        try:
            yield
        finally:
            self.exit(frame)

    def snapshot(self) -> Dict[str, List[float]]:
        return {name: list(v) for name, v in self.totals.items()}

    def dump(self) -> Dict[str, object]:
        return {
            "pid": os.getpid(),
            "totals": self.snapshot(),
            "counters": dict(self.counters),
            "spans": self.spans,
        }


class NullTracer:
    """Stands in for a tracer in untraced runs: ``span`` does nothing."""

    keep_spans = False

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        yield

    @contextmanager
    def paused(self) -> Iterator[None]:
        yield


# ----------------------------------------------------------------------
# Ratio counters, taken where the work happens


def _count_get(tracer: Tracer, args, result, duration: float) -> None:
    tracer.counters["runstore.gets"] += 1
    if result is not None:
        tracer.counters["runstore.hits"] += 1


def _count_batch(tracer: Tracer, args, result, duration: float) -> None:
    tracer.counters["core.multirun.requests"] += len(args[0])
    tracer.counters["core.multirun.batched"] += result.batched_runs


def _count_world(tracer: Tracer, args, result, duration: float) -> None:
    # A world run inside run_worlds (its single-world fallback) is
    # already counted by the enclosing run_worlds call.
    if not tracer.inside("run_worlds") and result:
        tracer.counters["sim.engine.world_epochs"] += result[0].epochs
        tracer.counters["sim.engine.engine_seconds"] += duration


def _count_worlds(tracer: Tracer, args, result, duration: float) -> None:
    tracer.counters["sim.engine.world_epochs"] += sum(r[0].epochs for r in result if r)
    tracer.counters["sim.engine.engine_seconds"] += duration


def _count_solve(tracer: Tracer, args, result, duration: float) -> None:
    tracer.counters["sim.engine.solves"] += 1


def _count_solve_many(tracer: Tracer, args, result, duration: float) -> None:
    tracer.counters["sim.engine.solves"] += len(args[1])  # worlds in the stack


_OBSERVERS: Dict[str, Callable] = {
    "RunStore.get": _count_get,
    "execute_batch": _count_batch,
    "run_world": _count_world,
    "run_worlds": _count_worlds,
    "CongestionSolver.latency_matrix": _count_solve,
    "CongestionSolver.latency_matrix_many": _count_solve_many,
}


def _wrap(tracer: Tracer, name: str, fn: Callable) -> Callable:
    observe = _OBSERVERS.get(name)

    if name == "ResultSet.resolve":
        # Duplicates coalesced = requests that added no new key, whether
        # repeated within the call or already held by the result set.
        @functools.wraps(fn)
        def resolve(results, requests):
            if tracer.paused_depth:
                return fn(results, requests)
            held = len(results)
            frame = tracer.enter(name)
            try:
                out = fn(results, requests)
            finally:
                tracer.exit(frame)
            tracer.counters["runner.requested"] += len(requests)
            tracer.counters["runner.deduplicated"] += len(requests) - (len(results) - held)
            return out

        return resolve

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.paused_depth:
            return fn(*args, **kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = tracer.exit(frame)
        if observe is not None:
            observe(tracer, args, result, duration)
        return result

    return wrapper


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every boundary in :data:`BOUNDARIES`; returns the undo."""
    undo: List[Tuple[object, str, object]] = []
    # Import every binding module first: one imported mid-way would bind
    # the already-patched function, not the original.
    for _layer, module_name, _path, _kind, bindings in BOUNDARIES:
        for name in (module_name,) + bindings:
            importlib.import_module(name)
    for _layer, module_name, path, _kind, bindings in BOUNDARIES:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            owner = getattr(module, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped: object = classmethod(_wrap(tracer, path, raw.__func__))
            else:
                wrapped = _wrap(tracer, path, raw)
            undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, path)
        wrapped = _wrap(tracer, path, original)
        for owner_name in (module_name,) + bindings:
            owner = importlib.import_module(owner_name)
            if getattr(owner, path) is not original:
                raise RuntimeError(f"{owner_name}.{path} is not {module_name}.{path}")
            undo.append((owner, path, original))
            setattr(owner, path, wrapped)

    def restore() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return restore


# ----------------------------------------------------------------------
# Summaries


def phase_table(totals: Dict[str, List[float]], wall_s: float) -> Dict[str, Dict[str, float]]:
    """Per-layer ``{"calls", "self_s", "share"}`` from per-boundary totals;
    the share is self time over ``wall_s``."""
    table = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
    for name, (calls, _inclusive, self_s) in totals.items():
        row = table[LAYER_OF[name]]
        row["calls"] += int(calls)
        row["self_s"] += self_s
    for row in table.values():
        row["share"] = row["self_s"] / wall_s if wall_s > 0 else 0.0
    return table


def accumulate(into: Dict[str, List[float]], totals: Dict[str, List[float]]) -> None:
    """Add per-boundary ``totals`` into ``into``, in place."""
    for name, values in totals.items():
        entry = into.setdefault(name, [0, 0.0, 0.0])
        for i, value in enumerate(values):
            entry[i] += value


def subtract(after: Dict[str, List[float]], before: Dict[str, List[float]]):
    """Per-boundary totals accrued between two snapshots."""
    out = {}
    for name, values in after.items():
        base = before.get(name, [0, 0.0, 0.0])
        out[name] = [v - b for v, b in zip(values, base)]
    return out


def merge_dumps(dumps: List[Dict[str, object]]) -> Dict[str, object]:
    """Add up the totals and counters of several processes' dumps."""
    totals: Dict[str, List[float]] = {}
    counters: Dict[str, float] = defaultdict(float)
    for dump in dumps:
        accumulate(totals, dump["totals"])
        for name, value in dump["counters"].items():
            counters[name] += value
    return {"totals": totals, "counters": dict(counters)}


def read_dumps(directory: Path) -> List[Dict[str, object]]:
    return [json.loads(p.read_text()) for p in sorted(directory.glob("*.json"))]


# ----------------------------------------------------------------------
# The traced server


def _write_dump(tracer: Tracer, directory: Path, role: str) -> None:
    path = directory / f"{role}-{os.getpid()}.json"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps({"role": role, **tracer.dump()}))
    os.replace(tmp, path)


def _trace_worker_groups(tracer: Tracer, directory: Path) -> None:
    """Wrap the pool's group entry point so worker processes report too.

    The pool pickles ``execute_group`` by reference and the workers are
    forked from the server after this patch, so they run the wrapper.
    A worker first drops the totals it inherited from the server, keeps
    spans for its first group only, and rewrites its dump after every
    group (workers are stopped, not asked to exit, at shutdown).
    """
    from repro.serve import workers

    original = workers.execute_group

    @functools.wraps(original)
    def execute_group(requests, batch_worlds):
        if tracer.pid != os.getpid():
            tracer.reset()
            tracer.keep_spans = True
        with tracer.span("serve.execute_group"):
            result = original(requests, batch_worlds)
        tracer.keep_spans = False
        _write_dump(tracer, directory, "worker")
        return result

    workers.execute_group = execute_group


def serve_main(argv: List[str]) -> int:
    """Start ``repro.serve`` with every boundary traced (see module doc)."""
    directory = Path(argv[0])
    directory.mkdir(parents=True, exist_ok=True)
    from repro.serve.__main__ import main

    tracer = Tracer()
    install(tracer)
    _trace_worker_groups(tracer, directory)
    try:
        return main(argv[1:])
    finally:
        _write_dump(tracer, directory, "server")


if __name__ == "__main__":
    raise SystemExit(serve_main(sys.argv[1:]))
