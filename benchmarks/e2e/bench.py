"""The benchmark of record: end-to-end user paths, one child process each.

Usage (from the repository root)::

    python benchmarks/e2e/bench.py --seed 42 --out run.json
    python benchmarks/e2e/bench.py --workload report --seed 7 --seconds 30 --trace 0
    python benchmarks/e2e/bench.py --seed 42 --trace trace.json
    python benchmarks/e2e/bench.py --smoke

Workloads (see README.md for why each exists):

* ``report`` — ``Runner(jobs=1)`` over an on-disk store, every registered
  scenario except Figures 8 and 9;
* ``consolidation_batched`` — ``Runner(batch_worlds=8)`` over an
  in-memory store, Figures 8 and 9;
* ``serve_open`` — a ``repro.serve`` server driven by an open-loop client.

Every end-to-end metric is printed as ``workload metric value unit``; the
last line is one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. ``--trace 1`` (or ``--trace PATH``, which also writes the
spans there) measures the per-layer metrics instead. The exit code is 1
when a correctness check fails, and 2 when the program cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import ROOT, SRC, WORK, child_env, fresh_dir, percentile  # noqa: E402
from layers import BOUNDARIES, HARNESS_BOUNDARIES, LAYERS, phase_table  # noqa: E402

WORKLOADS = ("report", "consolidation_batched", "serve_open")
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
CHILD_TIMEOUT_S = 170.0

#: Rare page-level operations (migration write-protection and teardown
#: batches) that only some policies reach.
_RARE = frozenset({
    "FaultHandler.on_write_protected", "P2MTable.remove_many",
    "P2MTable.unprotect_many", "P2MTable.write_protect_many",
})
#: Only native-Linux runs take these; the Xen worlds initialise whole
#: segments through the batched map_many/alloc_many path instead.
_LINUX_ONLY = frozenset({
    "LinuxNumaMode.on_epoch", "GuestAddressSpace.touch", "_PolicyContext.touch_page",
})
#: Boundaries that may legitimately see no call on a workload; every
#: other declared boundary must run, or the traced run fails.
MAY_BE_IDLE: Dict[str, frozenset] = {
    "report": _RARE | {
        "execute_batch", "run_worlds", "CongestionSolver.congestion_many",
        "CongestionSolver.latency_matrix_many", "serve.execute_group",
    },
    # The in-memory store keeps result objects: nothing is serialized.
    "consolidation_batched": _RARE | _LINUX_ONLY | {
        "RunResult.to_json", "RunResult.from_json", "serve.execute_group",
    },
    # Pool workers inherit the server's observability session, and the
    # multi-run engine steps aside under one, so run_worlds stays idle.
    "serve_open": _RARE | _LINUX_ONLY | {
        "Scenario.assemble", "harness.pass", "run_worlds",
        "CongestionSolver.congestion_many", "CongestionSolver.latency_matrix_many",
    },
}
#: Boundaries that must see no call on a workload.
MUST_BE_IDLE: Dict[str, frozenset] = {
    "report": frozenset({"execute_batch", "run_worlds"}),
}


# ----------------------------------------------------------------------
# Child side: run one workload in this process


def run_child(workload: str, seed: int, seconds: float, traced: bool, smoke: bool,
              out: Path) -> None:
    sys.path.insert(0, str(SRC))
    work = fresh_dir(WORK / f"{workload}-{os.getpid()}")
    try:
        if workload == "serve_open":
            from serveload import run_serve

            record = run_serve(seed, seconds, work, traced, smoke)
        else:
            import harness

            plan = (harness.report_plan if workload == "report"
                    else harness.consolidation_plan)(smoke)
            record = harness.run_library(plan, seed, seconds, work, traced, smoke)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out.write_text(json.dumps(record))


# ----------------------------------------------------------------------
# Per-layer metrics from a traced record


class BoundaryError(Exception):
    """A traced run saw a boundary idle that should run, or the reverse."""


def per_layer(record: dict) -> Dict[str, dict]:
    """The ``per_layer`` metrics of one traced workload, each with its base."""

    trace = record["trace"]
    workload = record["workload"]
    totals = trace["totals"]
    declared = [b[2] for b in BOUNDARIES] + list(HARNESS_BOUNDARIES)
    idle = [n for n in declared if totals.get(n, [0])[0] == 0]
    missing = sorted(set(idle) - MAY_BE_IDLE[workload])
    busy = sorted(n for n in MUST_BE_IDLE.get(workload, ()) if n not in idle)
    if missing or busy:
        raise BoundaryError(
            f"{workload}: declared boundaries with no calls {missing}, "
            f"boundaries that should be idle but ran {busy}"
        )

    wall = trace["wall_s"]
    table = phase_table(totals, wall)
    out: Dict[str, dict] = {}
    for layer in LAYERS:
        row = table[layer]
        out[f"{layer}.self_s"] = {"value": row["self_s"], "unit": "s"}
        out[f"{layer}.calls"] = {"value": row["calls"], "unit": "count"}
        out[f"{layer}.share"] = {"value": row["share"], "unit": "ratio",
                                 "base": f"{wall:.3f} s measured"}
    c = trace["counters"]
    serve = record.get("serve", {}).get("counters", {})

    def ratio(name: str, num: float, base: float, what: str, unit: str = "ratio") -> None:
        out[name] = {"value": num / base if base else 0.0, "unit": unit,
                     "base": f"{base:g} {what}"}

    ratio("runstore.hit_ratio", c.get("runstore.hits", 0), c.get("runstore.gets", 0), "gets")
    ratio("runner.dedup_ratio", c.get("runner.deduplicated", 0),
          c.get("runner.requested", 0), "requests")
    ratio("core.multirun.batched_ratio", c.get("core.multirun.batched", 0),
          c.get("core.multirun.requests", 0), "requests")
    ratio("sim.engine.solves_per_step", c.get("sim.engine.solves", 0),
          c.get("sim.engine.world_epochs", 0), "world-epochs")
    ratio("sim.engine.epochs_per_s", c.get("sim.engine.world_epochs", 0),
          c.get("sim.engine.engine_seconds", 0), "engine-span s", unit="1/s")
    submitted = serve.get("serve.submitted", 0)
    ratio("serve.hit_ratio", serve.get("serve.hits", 0), submitted, "submitted")
    ratio("serve.attach_ratio", serve.get("serve.attached", 0), submitted, "submitted")
    ratio("serve.reject_ratio", serve.get("serve.rejected", 0), submitted, "submitted")
    out["serve.executed"] = {"value": serve.get("serve.executed", 0), "unit": "count"}
    untraced = percentile(trace["untraced_cold_s"], 50)
    ratio("trace.overhead_frac", percentile(trace["traced_cold_s"], 50) - untraced,
          untraced, "s untraced cold pass")
    return out


# ----------------------------------------------------------------------
# Parent side


def spawn(workload: str, args: argparse.Namespace, traced: bool) -> Optional[dict]:
    """Run one workload in a child process; its record, or None on failure."""
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"result-{workload}-{os.getpid()}.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, str(Path(__file__).resolve()), "--child", workload,
               "--child-out", str(out), "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if traced:
        command += ["--trace", "1"]
    if args.smoke:
        command.append("--smoke")
    tmp = fresh_dir(WORK / f"tmp-{os.getpid()}")
    try:
        proc = subprocess.run(command, env=child_env(tmp), cwd=str(ROOT),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: timed out after {CHILD_TIMEOUT_S:.0f} s", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if proc.returncode != 0 or not out.exists():
        print(f"{workload}: child exited with {proc.returncode}", file=sys.stderr)
        return None
    record = json.loads(out.read_text())
    out.unlink()
    return record


def declared_metrics() -> Dict[str, List[str]]:
    spec = json.loads(BENCHMARK_FILE.read_text())
    return {
        "end_to_end": [m["name"] for m in spec["end_to_end"]],
        "per_layer": [m["name"] for m in spec["per_layer"]],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append",
                        help="workload to run (repeatable; default: all three)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measurement budget per workload")
    parser.add_argument("--trace", default="0",
                        help="0: end-to-end metrics; 1: per-layer metrics; "
                        "PATH: per-layer metrics plus the spans written to PATH")
    parser.add_argument("--out", default=None, help="write every record to this JSON file")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: 2 apps, 2 warm passes, 3 s open loop, 8-request burst")
    parser.add_argument("--child", choices=WORKLOADS, help=argparse.SUPPRESS)
    parser.add_argument("--child-out", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    traced = args.trace != "0"

    if args.child:
        run_child(args.child, args.seed, args.seconds, traced, args.smoke,
                  Path(args.child_out))
        return 0
    if not (SRC / "repro").is_dir():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2

    workloads = args.workload or list(WORKLOADS)
    names = declared_metrics()["per_layer" if traced else "end_to_end"]
    started = time.perf_counter()
    records = []
    for workload in workloads:
        record = spawn(workload, args, traced)
        if record is None:
            return 2
        if traced:
            try:
                record["per_layer"] = per_layer(record)
            except BoundaryError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
        records.append(record)

    correct = True
    attempted = failed = 0
    summary: Dict[str, dict] = {}
    for record in records:
        workload = record["workload"]
        metrics = record["per_layer"] if traced else record["metrics"]
        attempted += record["attempted"]
        failed += record["failed"]
        correct = correct and record["failed"] == 0
        for failure in record["failures"]:
            print(f"{workload}: FAILED {failure}", file=sys.stderr)
        for name in names:
            metric = metrics[name]
            note = metric.get("base") or (f"n={metric['n']}" if "n" in metric else "")
            print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}"
                  + (f"  ({note})" if note else ""))
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            summary[key] = {"value": metric["value"], "unit": metric["unit"]}
        if not traced:
            # Tails of millisecond operations follow the host's contention
            # more than the program, so they are reported, not gated.
            for name in sorted(set(metrics) - set(names)):
                metric = metrics[name]
                print(f"{workload} {name} {metric['value']:.6g} {metric['unit']}  "
                      f"({metric['label']}, n={metric['n']}, not gated)")
        serve = record.get("serve")
        if serve:
            loop = serve["open_loop_miss_p50_ms"]
            print(f"{workload} open_loop_miss_p50_ms {loop['value']:.6g} ms  "
                  f"(n={loop['n']}, not gated)")
            print(f"{workload} serve.generator_late_p99_ms "
                  f"{serve['generator_late_p99_ms']:.6g} ms  "
                  f"(n={serve['open_loop_requests']})")
        ratio = record["failed"] / record["attempted"]
        print(f"{workload} failed_frac {ratio:.6g} ratio  "
              f"({record['failed']}/{record['attempted']} operations)")

    if args.out:
        # Spans go to the --trace file only; the rest of each record here.
        kept = [dict(r, trace={k: v for k, v in r["trace"].items() if k != "spans"})
                if "trace" in r else r for r in records]
        Path(args.out).write_text(json.dumps(
            {"seed": args.seed, "seconds": args.seconds, "smoke": args.smoke,
             "wall_s": time.perf_counter() - started, "records": kept},
            indent=1, sort_keys=True))
    if traced and args.trace != "1":
        Path(args.trace).write_text(json.dumps(
            {r["workload"]: r["trace"] for r in records}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": summary}, sort_keys=True))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
