"""Timeit-based measurement of the engine and the solver hot path.

Every measurement here is wall-clock-free in *our* code: timing is
delegated to :class:`timeit.Timer`, worlds are rebuilt from a seeded
config for every sample, and the microbenchmark's access matrix comes
from a generator seeded by ``SimConfig.rng_seed``.
"""

from __future__ import annotations

import json
import timeit
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.config import SimConfig
from repro.core.multirun import run_worlds
from repro.hardware.presets import amd48
from repro.hypervisor.domain import Domain
from repro.perfbench import oracle
from repro.perfbench.worlds import WORLD_PRESETS, build_world
from repro.runner import build_world as build_request_world
from repro.sim.engine import CongestionSolver, run_world
from repro.sim.runspec import RunRequest, VmRequest

#: timeit repetitions per world preset.
DEFAULT_REPEAT = 5
#: timeit repetitions of the page-path comparison (each sample simulates
#: a full page-heavy world twice, so this stays smaller than the world
#: benchmarks' repeat).
DEFAULT_PAGE_PATH_REPEAT = 3
#: World preset used for the page-path comparison.
PAGE_PATH_PRESET = "xlarge"
#: Solver (congestion + latency_matrix) invocations per microbench sample.
DEFAULT_SOLVER_ITERATIONS = 200
#: Mean access-matrix entry of the microbenchmark (accesses per epoch
#: between one node pair — enough to load controllers and links).
MICROBENCH_TRAFFIC = 3e7
#: Worlds per multi-run sweep sample (the issue's acceptance bar is
#: phrased over a 16-world sweep).
MULTI_RUN_WORLDS = 16
#: timeit repetitions of the multi-run comparison (each sample simulates
#: the full sweep twice — once per leg — so this stays small).
DEFAULT_MULTI_RUN_REPEAT = 3
#: Four-VM consolidation mixes cycled across the sweep's worlds: the
#: paper's Table 2 shape (several VMs sharing one host), and the shape
#: where per-run python dispatch costs the serial driver the most.
MULTI_RUN_APP_MIXES = (
    ("cg.C", "sp.C", "swaptions", "streamcluster"),
    ("ep.D", "ft.C", "lu.C", "cg.C"),
    ("swaptions", "ep.D", "sp.C", "ft.C"),
    ("lu.C", "streamcluster", "cg.C", "swaptions"),
)
#: Placement policies cycled across the sweep's worlds.
MULTI_RUN_POLICIES = ("round-4k", "first-touch", "round-1g")
#: Epoch length of the sweep's worlds — short epochs mean many epochs,
#: which is what a fixed-machine parameter sweep looks like.
MULTI_RUN_EPOCH_SECONDS = 0.25
#: Page scale of the sweep's worlds (coarse pages keep world build cheap;
#: build time is untimed either way).
MULTI_RUN_PAGE_SCALE = 4096
#: vCPUs per VM — four 6-vCPU domains fill half the AMD48's pCPUs.
MULTI_RUN_VCPUS = 6
#: Resident pages of the migration microbench's source domain.
DEFAULT_MIGRATION_PAGES = 4096
#: Pre-copy rounds per migration sample (round 1 + dirty rounds).
DEFAULT_MIGRATION_ROUNDS = 8
#: Dirty pages re-copied in every round after the first.
DEFAULT_MIGRATION_DIRTY_PAGES = 512


def _spread(samples: List[float]) -> Dict[str, float]:
    return {
        "median_seconds": float(np.median(samples)),
        "iqr_seconds": float(
            np.percentile(samples, 75) - np.percentile(samples, 25)
        ),
        "min_seconds": float(np.min(samples)),
    }


def bench_world(
    preset: str, config: SimConfig, repeat: int = DEFAULT_REPEAT
) -> Dict[str, float]:
    """Time ``run_world`` on a preset; returns median/IQR/epochs-per-s.

    A fresh world is built (untimed) for every sample so each timing
    covers exactly one full simulation of identical work.
    """
    samples: List[float] = []
    epochs = 0
    for _ in range(max(1, repeat)):
        world = build_world(preset, config)
        holder: Dict[str, object] = {}

        def timed() -> None:
            holder["results"] = run_world(world)

        samples.append(timeit.Timer(timed).timeit(number=1))
        epochs = max(r.epochs for r in holder["results"])
    stats = _spread(samples)
    stats["epochs"] = float(epochs)
    stats["epochs_per_second"] = epochs / stats["median_seconds"]
    return stats


def bench_solver(
    config: SimConfig,
    repeat: int = DEFAULT_REPEAT,
    iterations: int = DEFAULT_SOLVER_ITERATIONS,
) -> Dict[str, float]:
    """Microbenchmark the 8-node solve loop against the loop oracle.

    One iteration is one ``congestion()`` + ``latency_matrix()`` pass over
    a seeded random access matrix on the AMD48 machine — the exact work
    the engine performs per fixed-point round.
    """
    machine = amd48(config=config)
    solver = CongestionSolver(machine)
    rng = np.random.default_rng(config.rng_seed)
    n = machine.num_nodes
    matrix = rng.uniform(0.0, MICROBENCH_TRAFFIC, size=(n, n))

    def vectorized() -> None:
        rho_c, rho_l = solver.congestion(matrix, 1.0)
        solver.latency_matrix(rho_c, rho_l)

    def loop() -> None:
        rho_c, rho_l = oracle.loop_congestion(solver, matrix, 1.0)
        oracle.loop_latency_matrix(solver, rho_c, rho_l)

    vec_s = min(
        timeit.Timer(vectorized).repeat(repeat=max(1, repeat), number=iterations)
    )
    loop_s = min(
        timeit.Timer(loop).repeat(repeat=max(1, repeat), number=iterations)
    )
    return {
        "iterations": float(iterations),
        "vectorized_seconds": vec_s,
        "loop_seconds": loop_s,
        "speedup": loop_s / vec_s if vec_s else float("inf"),
    }


def bench_page_path(
    config: SimConfig,
    repeat: int = DEFAULT_PAGE_PATH_REPEAT,
    preset: str = PAGE_PATH_PRESET,
) -> Dict[str, float]:
    """Array-backed page path vs the dict/loop oracle on a page-heavy world.

    Times ``run_world`` (which includes guest init — the fault storm the
    page scale multiplies) on the same preset twice: once with the
    vectorized backend and once under :func:`oracle.scalar_page_path`,
    which swaps in the dict-backed P2M and forces every batch entry point
    through its scalar loop. The world is built *inside* the oracle
    context so domain creation itself uses the dict table. Both runs must
    produce identical epoch counts — the speedup is only meaningful if
    the two backends did the same work.
    """

    def sample(scalar: bool) -> float:
        world = build_world(preset, config)
        holder: Dict[str, object] = {}

        def timed() -> None:
            holder["results"] = run_world(world)

        seconds = timeit.Timer(timed).timeit(number=1)
        epochs_seen.add(max(r.epochs for r in holder["results"]))
        return seconds

    epochs_seen: set = set()
    vec_samples = [sample(scalar=False) for _ in range(max(1, repeat))]
    scalar_samples = []
    with oracle.scalar_page_path():
        for _ in range(max(1, repeat)):
            scalar_samples.append(sample(scalar=True))
    vec_s = float(np.median(vec_samples))
    scalar_s = float(np.median(scalar_samples))
    return {
        "preset": preset,
        "repeat": float(max(1, repeat)),
        "epochs": float(max(epochs_seen)),
        "results_match": float(len(epochs_seen) == 1),
        "vectorized_median_seconds": vec_s,
        "scalar_median_seconds": scalar_s,
        "vectorized_min_seconds": float(np.min(vec_samples)),
        "scalar_min_seconds": float(np.min(scalar_samples)),
        "speedup": scalar_s / vec_s if vec_s else float("inf"),
    }


def _multi_run_requests(config: SimConfig, num_worlds: int) -> List[RunRequest]:
    """The sweep's requests: seeded, group-compatible, all distinct."""
    return [
        RunRequest(
            environment="xen",
            features="Xen",
            vms=tuple(
                VmRequest(
                    app=MULTI_RUN_APP_MIXES[i % len(MULTI_RUN_APP_MIXES)][v],
                    policy=MULTI_RUN_POLICIES[i % len(MULTI_RUN_POLICIES)],
                    num_vcpus=MULTI_RUN_VCPUS,
                )
                for v in range(len(MULTI_RUN_APP_MIXES[0]))
            ),
            config=SimConfig(
                rng_seed=config.rng_seed + i,
                epoch_seconds=MULTI_RUN_EPOCH_SECONDS,
                page_scale=MULTI_RUN_PAGE_SCALE,
            ),
        )
        for i in range(num_worlds)
    ]


def bench_multi_run(
    config: SimConfig,
    repeat: int = DEFAULT_MULTI_RUN_REPEAT,
    num_worlds: int = MULTI_RUN_WORLDS,
) -> Dict[str, float]:
    """Batched multi-run engine vs per-run serial execution of one sweep.

    One sample simulates a ``num_worlds``-world consolidation sweep
    (four 6-vCPU VMs per world, app mixes and policies cycling, one
    seed per world) twice over fresh worlds: once through
    :func:`repro.core.multirun.run_worlds` and once world-by-world
    through :func:`~repro.perfbench.oracle.reference_run_world` — the
    committed per-run loop, i.e. exactly what a sweep driver without
    the batched engine would execute. The two legs of a sample run back
    to back and alternate which goes first, so drift on a shared host
    lands on both. World building is untimed in both legs.
    ``results_match`` checks the full report output of every sample is
    byte-identical between the legs (sorted-key JSON of every
    ``RunResult``).
    """
    legs: Dict[str, Callable[[List], List]] = {
        "batched": run_worlds,
        "serial": lambda worlds: [oracle.reference_run_world(w) for w in worlds],
    }
    samples: Dict[str, List[float]] = {"batched": [], "serial": []}
    matches = True
    for index in range(max(1, repeat)):
        requests = _multi_run_requests(config, num_worlds)
        order = ("batched", "serial") if index % 2 == 0 else ("serial", "batched")
        produced: Dict[str, str] = {}
        for name in order:
            worlds = [build_request_world(r) for r in requests]
            holder: List[List] = []

            def leg(name: str = name, worlds: List = worlds) -> None:
                holder.extend(legs[name](worlds))

            samples[name].append(timeit.Timer(leg).timeit(number=1))
            produced[name] = json.dumps(
                [[r.to_json() for r in group] for group in holder],
                sort_keys=True,
            )
        matches = matches and produced["batched"] == produced["serial"]
    batched_min = float(np.min(samples["batched"]))
    serial_min = float(np.min(samples["serial"]))
    return {
        "num_worlds": float(num_worlds),
        "vms_per_world": float(len(MULTI_RUN_APP_MIXES[0])),
        "repeat": float(max(1, repeat)),
        "batched_median_seconds": float(np.median(samples["batched"])),
        "serial_median_seconds": float(np.median(samples["serial"])),
        "batched_min_seconds": batched_min,
        "serial_min_seconds": serial_min,
        # Fastest-over-fastest, like the solver and migration sections:
        # timeit's standard defense against scheduler noise (the slower
        # samples measure the host, not the code).
        "speedup": serial_min / batched_min if batched_min else float("inf"),
        "results_match": float(matches),
    }


def bench_migration(
    config: SimConfig,
    repeat: int = DEFAULT_REPEAT,
    pages: int = DEFAULT_MIGRATION_PAGES,
    rounds: int = DEFAULT_MIGRATION_ROUNDS,
    dirty_pages: int = DEFAULT_MIGRATION_DIRTY_PAGES,
) -> Dict[str, float]:
    """Batched vs scalar dirty-round copy (the live-migration data mover).

    One sample replays a full pre-copy transfer: round 1 protects and
    copies every resident page, each later round re-copies a seeded
    dirty set, and every round releases its protections afterwards —
    the ``write_protect_many`` / ``copy_stamps_from`` /
    ``unprotect_many`` sequence :class:`repro.cluster.LiveMigration`
    issues per epoch. The scalar variant spells identical rounds as
    per-page protect / one-page stamp copy / unprotect loops. Each
    variant transfers into its own destination domain and the two
    images must come out identical. Domains are built bare (no
    hypervisor, no sanitizer) so the batch entry points stay on their
    vectorized paths.
    """

    def build_domain(domain_id: int, name: str) -> Domain:
        return Domain(
            domain_id=domain_id,
            name=name,
            num_vcpus=1,
            memory_pages=pages,
            home_nodes=(0,),
        )

    source = build_domain(1, "bench-migration-src")
    gpfns = np.arange(pages, dtype=np.int64)
    source.p2m.set_entries(gpfns, gpfns)
    for gpfn in gpfns.tolist():
        source.write_stamp(gpfn, gpfn + 1)
    rng = np.random.default_rng(config.rng_seed)
    dirty = min(dirty_pages, pages)
    round_sets: List[np.ndarray] = [gpfns] + [
        np.sort(rng.choice(pages, size=dirty, replace=False)).astype(np.int64)
        for _ in range(max(0, rounds - 1))
    ]
    dest_batched = build_domain(2, "bench-migration-dst-batched")
    dest_scalar = build_domain(3, "bench-migration-dst-scalar")
    p2m = source.p2m

    def batched() -> None:
        for pending in round_sets:
            p2m.write_protect_many(pending)
            dest_batched.copy_stamps_from(source, pending)
            p2m.unprotect_many(pending)

    def scalar() -> None:
        for pending in round_sets:
            for gpfn in pending.tolist():
                p2m.write_protect(gpfn)
                dest_scalar.write_stamp(
                    gpfn, int(source.read_stamps([gpfn])[0])
                )
                p2m.unprotect(gpfn)

    batched_s = min(
        timeit.Timer(batched).repeat(repeat=max(1, repeat), number=1)
    )
    scalar_s = min(
        timeit.Timer(scalar).repeat(repeat=max(1, repeat), number=1)
    )
    return {
        "pages": float(pages),
        "rounds": float(len(round_sets)),
        "dirty_pages": float(dirty),
        "pages_per_transfer": float(sum(s.size for s in round_sets)),
        "batched_seconds": batched_s,
        "scalar_seconds": scalar_s,
        "speedup": scalar_s / batched_s if batched_s else float("inf"),
        "results_match": float(
            np.array_equal(
                dest_batched.image_snapshot(), dest_scalar.image_snapshot()
            )
        ),
    }


def run_benchmarks(
    label: str,
    config: Optional[SimConfig] = None,
    repeat: int = DEFAULT_REPEAT,
    worlds: Optional[Iterable[str]] = None,
    solver_iterations: int = DEFAULT_SOLVER_ITERATIONS,
    page_path: bool = True,
    page_path_repeat: int = DEFAULT_PAGE_PATH_REPEAT,
    migration: bool = True,
    multi_run: bool = True,
    multi_run_repeat: int = DEFAULT_MULTI_RUN_REPEAT,
) -> Dict[str, object]:
    """Run the full suite; returns the ``BENCH_<label>.json`` payload."""
    config = config or SimConfig()
    selected = list(worlds) if worlds is not None else sorted(WORLD_PRESETS)
    payload: Dict[str, object] = {
        "label": label,
        "seed": config.rng_seed,
        "repeat": repeat,
        "worlds": {
            preset: bench_world(preset, config, repeat=repeat)
            for preset in selected
        },
        "solver_microbench": bench_solver(
            config, repeat=repeat, iterations=solver_iterations
        ),
    }
    if page_path:
        payload["page_path"] = bench_page_path(config, repeat=page_path_repeat)
    if migration:
        payload["migration"] = bench_migration(config, repeat=repeat)
    if multi_run:
        payload["multi_run"] = bench_multi_run(config, repeat=multi_run_repeat)
    return payload
