"""Speedup gates: each fast path against the slow spelling of its work.

Three bars, each measured on identical inputs against a reference that
is slow and obviously correct:

* the vectorized congestion solver vs the loop oracle: >= 3x;
* a 16-world x 4-VM sweep through :func:`repro.core.multirun.run_worlds`
  vs the per-run reference driver, with byte-identical results: >= 3x;
* the batched live-migration dirty-round copy vs per-page loops, with
  identical destination images: >= 2x.

Every gate times through :func:`median_speedup`. Load from another
process on the host then lands on both legs of a pair, not on whichever
leg happened to run beside it. Timing goes through the stdlib
:mod:`timeit`; every input is seeded from :class:`repro.config.SimConfig`.
"""

from __future__ import annotations

import json
import timeit
from typing import Callable, Dict, List

import numpy as np

from repro.config import SimConfig
from repro.core.multirun import run_worlds
from repro.hardware.presets import amd48
from repro.hypervisor.domain import Domain
from repro.runner import build_world
from repro.sim.engine import CongestionSolver
from repro.sim.runspec import RunRequest, VmRequest

from tests.properties.engine_oracle import (
    loop_congestion,
    loop_latency_matrix,
    reference_run_world,
)

#: A leg of a comparison: untimed setup that returns the thunk to time.
Leg = Callable[[], Callable[[], object]]

#: Mean access-matrix entry of the solver microbenchmark (accesses per
#: epoch between one node pair — enough to load controllers and links).
MICROBENCH_TRAFFIC = 3e7
#: Worlds per multi-run sweep (the bar is phrased over a 16-world sweep).
MULTI_RUN_WORLDS = 16
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
#: Batched sweeps timed per pair: at ~3.5x, three of them take about as
#: long as the one serial sweep they are compared against.
MULTI_RUN_BATCHED_RUNS = 3


def median_speedup(
    fast: Leg, slow: Leg, pairs: int, fast_runs: int = 1
) -> float:
    """Median over ``pairs`` of (slow-leg seconds / fast-leg seconds).

    The two legs of a pair run back to back, and the order flips every
    pair (even pairs run ``fast`` first), so drift on a shared host hits
    both sides of each ratio. Within a pair the fast leg runs
    ``fast_runs`` times, each on a fresh untimed setup, and counts with
    its mean: a fast leg much shorter than the slow one would otherwise
    sample a different stretch of host noise.
    """
    ratios: List[float] = []
    for index in range(pairs):
        order = (fast, slow) if index % 2 == 0 else (slow, fast)
        seconds = []
        for leg in order:
            runs = fast_runs if leg is fast else 1
            thunks = [leg() for _ in range(runs)]
            total = sum(timeit.Timer(thunk).timeit(number=1) for thunk in thunks)
            seconds.append(total / runs)
        fast_s, slow_s = seconds if index % 2 == 0 else seconds[::-1]
        ratios.append(slow_s / fast_s)
    return float(np.median(ratios))


def bench_solver(
    config: SimConfig, pairs: int, iterations: int
) -> Dict[str, float]:
    """The 8-node solve loop vs the loop oracle.

    One iteration is one ``congestion()`` + ``latency_matrix()`` pass over
    a seeded random access matrix on the AMD48 machine — the exact work
    the engine performs per fixed-point round.
    """
    solver = CongestionSolver(amd48(config=config))
    rng = np.random.default_rng(config.rng_seed)
    n = solver.num_nodes
    matrix = rng.uniform(0.0, MICROBENCH_TRAFFIC, size=(n, n))

    def solve() -> None:
        for _ in range(iterations):
            rho_c, rho_l = solver.congestion(matrix, 1.0)
            solver.latency_matrix(rho_c, rho_l)

    def loop() -> None:
        for _ in range(iterations):
            rho_c, rho_l = loop_congestion(solver, matrix, 1.0)
            loop_latency_matrix(solver, rho_c, rho_l)

    return {"speedup": median_speedup(lambda: solve, lambda: loop, pairs)}


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


def bench_multi_run(config: SimConfig, pairs: int) -> Dict[str, float]:
    """Batched multi-run engine vs per-run serial execution of one sweep.

    Each leg simulates the sweep over fresh worlds (built untimed):
    through :func:`run_worlds` (:data:`MULTI_RUN_BATCHED_RUNS` times per
    pair, timed by the mean) and once world by world through
    :func:`reference_run_world` — exactly what a sweep driver without
    the batched engine would execute. ``results_match`` checks that every
    leg's results serialise to the same sorted-key JSON.
    """
    requests = _multi_run_requests(config, MULTI_RUN_WORLDS)
    produced: List[list] = []

    def leg(run: Callable[[list], list]) -> Leg:
        def setup() -> Callable[[], object]:
            worlds = [build_world(r) for r in requests]
            return lambda: produced.append(run(worlds))

        return setup

    speedup = median_speedup(
        leg(run_worlds),
        leg(lambda worlds: [reference_run_world(w) for w in worlds]),
        pairs,
        fast_runs=MULTI_RUN_BATCHED_RUNS,
    )
    return {
        "num_worlds": float(len(requests)),
        "results_match": float(len({_dumps(groups) for groups in produced}) == 1),
        "speedup": speedup,
    }


def _dumps(groups: list) -> str:
    return json.dumps(
        [[r.to_json() for r in group] for group in groups], sort_keys=True
    )


def bench_migration(
    config: SimConfig, pairs: int, pages: int, rounds: int, dirty_pages: int = 512
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
    hypervisor, so no sanitizer) to time the p2m operations alone.
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

    speedup = median_speedup(lambda: batched, lambda: scalar, pairs)
    return {
        "rounds": float(len(round_sets)),
        "pages_per_transfer": float(sum(s.size for s in round_sets)),
        "speedup": speedup,
        "results_match": float(
            np.array_equal(
                dest_batched.image_snapshot(), dest_scalar.image_snapshot()
            )
        ),
    }


class TestMigrationMicrobench:
    def test_batched_rounds_match_scalar_and_are_faster(self):
        """The dirty-round copy kernel: both spellings must transfer an
        identical image, and the batched one must actually be the fast
        path (generous margin for noisy CI hosts)."""
        stats = bench_migration(
            SimConfig(), pairs=3, pages=1024, rounds=4, dirty_pages=128
        )
        assert stats["results_match"] == 1.0
        assert stats["rounds"] == 4.0
        assert stats["pages_per_transfer"] == 1024.0 + 3 * 128.0
        assert stats["speedup"] >= 2.0

    def test_round_structure_seeded(self):
        """The dirty sets come from the config seed, so two benches do
        byte-for-byte the same work."""
        a = bench_migration(SimConfig(), pairs=1, pages=256, rounds=3)
        b = bench_migration(SimConfig(), pairs=1, pages=256, rounds=3)
        assert a["pages_per_transfer"] == b["pages_per_transfer"]
        assert a["results_match"] == b["results_match"] == 1.0


class TestMultiRunBench:
    def test_batched_sweep_meets_speedup_target(self):
        """A 16-world sweep through the batched engine is >=3x faster
        than serial per-run execution, with the full report output
        byte-identical to the serial path. One pair's ratio swings from
        2.3x to 4.9x on a shared 2-vCPU host; the median of nine pairs,
        each timing three batched sweeps against one serial sweep,
        measured 3.1-3.7x there with a CPU-bound process running beside
        it."""
        stats = bench_multi_run(SimConfig(), pairs=9)
        assert stats["num_worlds"] == 16.0
        assert stats["results_match"] == 1.0
        assert stats["speedup"] >= 3.0


class TestSolverMicrobench:
    def test_vectorized_meets_speedup_target(self):
        """>=3x over the loop oracle on the 8-node machine. Measured
        headroom is ~25x."""
        stats = bench_solver(SimConfig(), pairs=3, iterations=50)
        assert stats["speedup"] >= 3.0
