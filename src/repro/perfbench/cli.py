"""``python -m repro.perfbench`` — run the perf suite, write BENCH JSON.

Examples::

    python -m repro.perfbench --label pr
    python -m repro.perfbench --label pr --baseline benchmarks/perf/baseline.json
    python -m repro.perfbench --label quick --worlds small --repeat 2

To refresh the committed reference::

    python -m repro.perfbench --label baseline --output-dir benchmarks/perf
    mv benchmarks/perf/BENCH_baseline.json benchmarks/perf/baseline.json
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import ExitStack
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.config import SimConfig
from repro.perfbench.bench import (
    DEFAULT_MULTI_RUN_REPEAT,
    DEFAULT_REPEAT,
    DEFAULT_SOLVER_ITERATIONS,
    run_benchmarks,
)
from repro.perfbench.worlds import WORLD_PRESETS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perfbench",
        description="Benchmark run_world and the congestion-solver hot path.",
    )
    parser.add_argument(
        "--label",
        default="local",
        help="suffix of the output file BENCH_<label>.json (default: local)",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=DEFAULT_REPEAT,
        help=f"timeit repetitions per preset (default: {DEFAULT_REPEAT})",
    )
    parser.add_argument(
        "--worlds",
        nargs="+",
        choices=sorted(WORLD_PRESETS),
        default=None,
        help="world presets to time (default: all)",
    )
    parser.add_argument(
        "--solver-iterations",
        type=int,
        default=DEFAULT_SOLVER_ITERATIONS,
        help="solver passes per microbench sample "
        f"(default: {DEFAULT_SOLVER_ITERATIONS})",
    )
    parser.add_argument(
        "--no-migration",
        action="store_true",
        help="skip the migration (batched vs scalar dirty-round copy) "
        "comparison",
    )
    parser.add_argument(
        "--no-multi-run",
        action="store_true",
        help="skip the multi-run (batched engine vs serial sweep) comparison",
    )
    parser.add_argument(
        "--multi-run-repeat",
        type=int,
        default=DEFAULT_MULTI_RUN_REPEAT,
        help="timeit repetitions of the multi-run comparison "
        f"(default: {DEFAULT_MULTI_RUN_REPEAT})",
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=SimConfig().rng_seed,
        help="rng seed for the benchmark worlds (default: SimConfig default)",
    )
    parser.add_argument(
        "--output-dir",
        default=".",
        help="directory receiving BENCH_<label>.json (default: cwd)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help="baseline BENCH json to print a delta against",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a deterministic trace + metrics file for the bench runs",
    )
    return parser


def _print_report(payload: dict, out) -> None:
    print(f"perfbench [{payload['label']}] seed={payload['seed']}", file=out)
    for preset, stats in payload["worlds"].items():
        print(
            f"  {preset:>7s}: median {stats['median_seconds']:.3f}s "
            f"(IQR {stats['iqr_seconds']:.3f}s), "
            f"{stats['epochs']:.0f} epochs, "
            f"{stats['epochs_per_second']:.1f} epochs/s",
            file=out,
        )
    micro = payload["solver_microbench"]
    print(
        f"  solver : vectorized {micro['vectorized_seconds']:.4f}s vs "
        f"loop {micro['loop_seconds']:.4f}s over "
        f"{micro['iterations']:.0f} iterations -> "
        f"{micro['speedup']:.1f}x",
        file=out,
    )
    migration = payload.get("migration")
    if migration:
        match = "ok" if migration["results_match"] else "MISMATCH"
        print(
            f"  migration: batched {migration['batched_seconds']:.4f}s vs "
            f"scalar {migration['scalar_seconds']:.4f}s over "
            f"{migration['pages_per_transfer']:.0f} page copies -> "
            f"{migration['speedup']:.1f}x (images {match})",
            file=out,
        )
    multi_run = payload.get("multi_run")
    if multi_run:
        match = "ok" if multi_run["results_match"] else "MISMATCH"
        print(
            f"  multi_run: batched {multi_run['batched_median_seconds']:.3f}s "
            f"vs serial {multi_run['serial_median_seconds']:.3f}s over "
            f"{multi_run['num_worlds']:.0f} worlds x "
            f"{multi_run['vms_per_world']:.0f} VMs -> "
            f"{multi_run['speedup']:.1f}x (reports {match})",
            file=out,
        )


def _print_delta(payload: dict, baseline: dict, out) -> None:
    print(f"delta vs baseline [{baseline.get('label', '?')}]:", file=out)
    base_worlds = baseline.get("worlds", {})
    for preset, stats in payload["worlds"].items():
        ref = base_worlds.get(preset)
        if not ref:
            print(f"  {preset:>7s}: (not in baseline)", file=out)
            continue
        ratio = stats["median_seconds"] / ref["median_seconds"]
        print(
            f"  {preset:>7s}: {ratio:6.2f}x baseline median "
            f"({stats['median_seconds']:.3f}s vs {ref['median_seconds']:.3f}s)",
            file=out,
        )
    ref_micro = baseline.get("solver_microbench")
    if ref_micro:
        micro = payload["solver_microbench"]
        print(
            f"  solver : speedup {micro['speedup']:.1f}x "
            f"(baseline {ref_micro['speedup']:.1f}x)",
            file=out,
        )
    ref_migration = baseline.get("migration")
    migration = payload.get("migration")
    if ref_migration and migration:
        print(
            f"  migration: speedup {migration['speedup']:.1f}x "
            f"(baseline {ref_migration['speedup']:.1f}x)",
            file=out,
        )
    ref_multi = baseline.get("multi_run")
    multi_run = payload.get("multi_run")
    if ref_multi and multi_run:
        print(
            f"  multi_run: speedup {multi_run['speedup']:.1f}x "
            f"(baseline {ref_multi['speedup']:.1f}x)",
            file=out,
        )


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = SimConfig(rng_seed=args.seed)
    obs_session = None
    with ExitStack() as stack:
        if args.trace is not None:
            obs_session = stack.enter_context(obs.session())
        payload = run_benchmarks(
            label=args.label,
            config=config,
            repeat=args.repeat,
            worlds=args.worlds,
            solver_iterations=args.solver_iterations,
            migration=not args.no_migration,
            multi_run=not args.no_multi_run,
            multi_run_repeat=args.multi_run_repeat,
        )
    if obs_session is not None:
        obs_session.write_trace(args.trace)
        print(f"trace written to {args.trace}", file=sys.stdout)
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"BENCH_{args.label}.json"
    out_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    _print_report(payload, sys.stdout)
    print(f"wrote {out_path}", file=sys.stdout)
    if args.baseline:
        baseline_path = Path(args.baseline)
        if baseline_path.exists():
            baseline = json.loads(baseline_path.read_text())
            _print_delta(payload, baseline, sys.stdout)
        else:
            print(f"baseline {baseline_path} not found; skipping delta")
    return 0
