"""Shared pieces of the end-to-end benchmark and its two library workloads.

``report`` and ``consolidation_batched`` drive the pipeline the way
``python -m repro.experiments run`` does — scenario ``required_runs``,
``Runner.resolve``, scenario ``assemble`` — through a store. Four kinds
of timed operation:

* **cold** — one resolve-and-assemble pass over every scenario, on a
  fresh, empty store, timed scenario step by scenario step;
* **warm** — the same pass with a fresh runner (and, on disk, a fresh
  store object) over a filled store: every request is a hit;
* **hit** — single cached requests, one ``resolve`` each;
* **miss** — single uncached requests (the workload's own request shapes
  with fresh ``rng_seed`` values), one ``resolve`` each;

plus fresh-interpreter set-up launches. A run is one plain cold pass and
then rounds: each round's cold pass stops at a few evenly spaced steps
to run that round's warm, hit, miss and set-up probes against the
previous pass's store. Spreading every kind of operation over the whole
run, instead of timing each in one block, keeps a second of contention
on a shared host from landing on one metric only.

The benchmark seed becomes ``SimConfig(rng_seed=seed)`` for every
scenario request; the program only ever sees the generated requests.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"
GOLDEN_SEED = 42

#: The ladder a tail percentile is picked from.
PERCENTILE_LADDER = (50, 80, 90, 95, 99, 99.9)

#: A run is one plain cold pass, then ``PROBE_ROUNDS`` rounds whose cold
#: pass is interleaved with the probes below, then more plain cold passes
#: while the run is inside ``COLD_SHARE`` of ``--seconds`` (at most
#: ``MAX_COLD_PASSES`` in all).
PROBE_ROUNDS = 5
MAX_COLD_PASSES = 8
COLD_SHARE = 0.75

#: Probes per round. Over 5 rounds, 100 warm passes give a p90 tail and
#: 800 hits a p95 (the highest percentiles with 10 samples beyond them).
WARM_PER_ROUND = 20
HITS_PER_ROUND = 160
SETUP_PER_ROUND = 1
#: Probe points per cold pass, evenly spaced over its scenario steps.
PROBE_POINTS = 4

#: Scenarios that reject an ``apps`` subset (``run all --apps`` raises at
#: fig5 and cluster_migration) take ``apps=None``.
NO_APP_SCENARIOS = ("table3", "fig5", "io_micro", "cluster_migration")

#: One application per Table 2 behaviour that stays cheap to simulate:
#: memory-bound (cg.C), compute-bound (swaptions), lock-heavy with MCS
#: locks (facesim).
REPORT_APPS = ("cg.C", "swaptions", "facesim")
SMOKE_REPORT_APPS = ("swaptions", "facesim")

#: Figure 8 colocates, Figure 9 consolidates; the shared facesim +
#: streamcluster pair makes Figure 9's sweep requests store hits.
FIG8_PAIRS = (("facesim", "streamcluster"),)
FIG9_PAIRS = (("facesim", "streamcluster"), ("bodytrack", "swaptions"))
SMOKE_PAIRS = (("bodytrack", "swaptions"),)


# ----------------------------------------------------------------------
# Statistics


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolation percentile (``p`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(count: int) -> Optional[float]:
    """The highest ladder percentile with at least 10 samples beyond it."""
    supported = [p for p in PERCENTILE_LADDER if round(count * (100 - p) / 100, 6) >= 10]
    return supported[-1] if supported else None


def timing(values: Sequence[float], p: float, unit: str, scale: float = 1.0) -> dict:
    """A timing metric: percentile ``p`` of ``values`` and the sample count."""
    return {
        "value": percentile(values, p) * scale,
        "unit": unit,
        "n": len(values),
        "label": f"p{p:g}",
    }


def tail(values: Sequence[float], unit: str, scale: float = 1.0) -> dict:
    """The tail of ``values``: :func:`timing` at the highest percentile
    with at least 10 samples beyond it (the maximum if there is none)."""
    p = tail_percentile(len(values))
    return timing(values, 100 if p is None else p, unit, scale)


def balanced(items: Sequence, count: int, rng: random.Random) -> List:
    """``count`` items cycling through seeded permutations of ``items``,
    so every item is used equally often (to within one)."""
    out: List = []
    while len(out) < count:
        cycle = list(items)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]


# ----------------------------------------------------------------------
# Seeds, canonical results, digests


def fresh_seed(seed: int, tag: str, index: int) -> int:
    """A deterministic ``rng_seed`` no other request of the run uses."""
    digest_hex = hashlib.sha256(f"{seed}/{tag}/{index}".encode()).hexdigest()
    return int(digest_hex[:8], 16) + 1_000_000


def reseeded(request, rng_seed: int):
    """``request`` with its config's ``rng_seed`` replaced (a new key)."""
    return dataclasses.replace(
        request, config=dataclasses.replace(request.config, rng_seed=rng_seed)
    )


def canonical(results_json: object) -> str:
    return json.dumps(results_json, sort_keys=True, separators=(",", ":"))


def results_canonical(results) -> str:
    """Canonical JSON of one request's result list."""
    return canonical([r.to_json() for r in results])


def digest(by_key: Dict[str, str]) -> str:
    """sha256 over ``{key: canonical results}`` in sorted-key JSON."""
    text = "{" + ",".join(
        f"{json.dumps(key)}:{by_key[key]}" for key in sorted(by_key)
    ) + "}"
    return hashlib.sha256(text.encode()).hexdigest()


def unique(requests: Sequence) -> List:
    """Requests with duplicate cache keys dropped, first one kept."""
    seen: Dict[str, object] = {}
    for request in requests:
        seen.setdefault(request.cache_key(), request)
    return list(seen.values())


class Checks:
    """Correctness checks of one run: each comparison counts as attempted."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def cross_check(self, executed: Sequence[Tuple[object, str]], seed: int, tag: str) -> None:
        """Re-execute a seeded sample of 4 ``(request, canonical results)``
        pairs with the pure executor and compare byte for byte."""
        from repro.runner.exec import execute_request

        pool = sorted(executed, key=lambda pair: pair[0].cache_key())
        sample = random.Random(f"{seed}/{tag}/cross-check").sample(pool, min(4, len(pool)))
        for request, produced in sample:
            again = results_canonical(execute_request(request))
            self.expect(again == produced, f"re-execution of {request.describe()} differs")

    def golden(self, workload: str, value: str, seed: int, smoke: bool) -> None:
        """Compare the run's digest with the committed one (seed 42 only)."""
        if seed != GOLDEN_SEED or smoke:
            return
        committed = json.loads(GOLDEN.read_text()).get(workload)
        self.expect(committed == value, f"golden digest {value} != committed {committed}")


class Phases:
    """Per-phase samples and, with a tracer, per-phase boundary totals."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: Dict[str, List[float]] = {}
        self.totals: Dict[str, Dict[str, List[float]]] = {}

    def run(self, name: str, fn: Callable[[], List[float]]) -> List[float]:
        before = self.tracer.snapshot() if self.tracer is not None else None
        times = fn()
        self.samples.setdefault(name, []).extend(times)
        if self.tracer is not None:
            from layers import accumulate, subtract

            accumulate(self.totals.setdefault(name, {}),
                       subtract(self.tracer.snapshot(), before))
        return times

    def tables(self) -> Dict[str, dict]:
        from layers import phase_table

        return {name: phase_table(totals, sum(self.samples[name]))
                for name, totals in self.totals.items()}

    def wall_s(self) -> float:
        return sum(sum(times) for times in self.samples.values())


# ----------------------------------------------------------------------
# Processes


def child_env(tmp: Path) -> Dict[str, str]:
    """Environment for processes the benchmark starts: the program from
    ``src/`` and temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env["TMPDIR"] = str(tmp)
    return env


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


_SETUP_CODE = (
    "import sys\n"
    "import repro.experiments\n"
    "from repro.experiments import registry\n"
    "from repro.runstore import open_store\n"
    "registry.load_all()\n"
    "open_store(sys.argv[1])\n"
    "print('ready', flush=True)\n"
)


def time_library_setup(store_spec: str, launches: int, env: Dict[str, str]) -> List[float]:
    """Fresh-interpreter launches to ready: import the pipeline, load the
    scenario registry, open the store. Seconds from spawn to ``ready``."""
    samples = []
    for _ in range(launches):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_CODE, store_spec],
            stdout=subprocess.PIPE, env=env, cwd=str(ROOT),
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up launch failed (exit {code})")
    return samples


# ----------------------------------------------------------------------
# Library workloads


@dataclasses.dataclass
class LibraryPlan:
    """What one library workload resolves, and through which runner.

    ``scenarios`` pairs each scenario with the keyword arguments its
    ``required_runs`` and ``assemble`` take; ``miss_shapes`` picks, from
    the declared requests, the shapes the miss phase re-seeds.
    """

    name: str
    scenarios: List[Tuple[object, Dict[str, object]]]
    runner_kwargs: Dict[str, int]
    on_disk: bool
    miss_shapes: Callable[[object], bool]
    misses_per_round: int


def report_plan(smoke: bool) -> LibraryPlan:
    from repro.experiments import registry

    apps = list(SMOKE_REPORT_APPS if smoke else REPORT_APPS)
    scenarios = [
        (s, {"apps": None if s.name in NO_APP_SCENARIOS else apps})
        for s in registry.all_scenarios()
        if s.name not in ("fig8", "fig9")
    ]
    return LibraryPlan(
        name="report",
        scenarios=scenarios,
        runner_kwargs={"jobs": 1},
        on_disk=True,
        miss_shapes=lambda r: r.environment == "xen" and len(r.vms) == 1,
        misses_per_round=2 if smoke else 8,
    )


def consolidation_plan(smoke: bool) -> LibraryPlan:
    from repro.experiments import registry

    fig8_pairs = list(SMOKE_PAIRS if smoke else FIG8_PAIRS)
    fig9_pairs = list(SMOKE_PAIRS if smoke else FIG9_PAIRS)
    return LibraryPlan(
        name="consolidation_batched",
        scenarios=[
            (registry.get_scenario("fig8"), {"pairs": fig8_pairs}),
            (registry.get_scenario("fig9"), {"pairs": fig9_pairs}),
        ],
        runner_kwargs={"batch_worlds": 8},
        on_disk=False,
        miss_shapes=lambda r: len(r.vms) == 2,
        misses_per_round=2,
    )


class LibraryRun:
    """The timed operations of one library workload run."""

    def __init__(self, plan: LibraryPlan, seed: int, work: Path, tracer) -> None:
        from repro.config import SimConfig

        self.plan = plan
        self.work = work
        self.tracer = tracer
        self.config = SimConfig(rng_seed=seed)
        self.checks = Checks()
        self.attempted = 0
        self.declared: List = []
        self.tables: Optional[str] = None
        self._store_count = 0

    def store(self, directory: Optional[Path] = None):
        """A store object: on disk, a fresh empty directory unless given."""
        from repro.runstore import DiskRunStore, MemoryRunStore

        if not self.plan.on_disk:
            return MemoryRunStore()
        if directory is None:
            self._store_count += 1
            directory = fresh_dir(self.work / f"store-{self._store_count}")
        return DiskRunStore(directory)

    def runner(self, store):
        from repro.runner import Runner

        return Runner(store=store, **self.plan.runner_kwargs)

    def timed(self, fn: Callable, keep_spans: bool = False):
        """Run ``fn`` as one timed operation; returns (result, seconds)."""
        self.tracer.keep_spans = keep_spans
        start = time.perf_counter()
        with self.tracer.span("harness.pass"):
            out = fn()
        elapsed = time.perf_counter() - start
        self.tracer.keep_spans = False
        return out, elapsed

    def scenario_step(self, runner, index: int, out: io.StringIO, declared: List) -> None:
        """Resolve and assemble scenario ``index``, printing into ``out``."""
        from repro.experiments import common

        scenario, kwargs = self.plan.scenarios[index]
        with common.configured(self.config), contextlib.redirect_stdout(out):
            with self.tracer.span("Scenario.required_runs"):
                requests = scenario.required_runs(**kwargs)
            declared.extend(requests)
            results = runner.resolve(requests)
            with self.tracer.span("Scenario.assemble"):
                scenario.assemble(results, verbose=True, **kwargs)

    def finish_pass(self, out: io.StringIO, declared: List, what: str) -> None:
        self.attempted += len(declared)
        self.declared = declared
        tables = out.getvalue()
        if self.tables is None:
            self.tables = tables
        else:
            self.checks.expect(tables == self.tables, f"{what}: printed tables differ")

    def cold_step(self, runner, index: int, out: io.StringIO, declared: List,
                  keep_spans: bool) -> float:
        """Time one scenario step of a cold pass (probes may run between)."""
        return self.timed(lambda: self.scenario_step(runner, index, out, declared),
                          keep_spans)[1]

    def cold_pass(self, store) -> float:
        """One uninterrupted cold pass over ``store``; returns its seconds."""
        runner = self.runner(store)
        out = io.StringIO()
        declared: List = []
        total = sum(self.cold_step(runner, index, out, declared, False)
                    for index in range(len(self.plan.scenarios)))
        self.finish_pass(out, declared, "cold pass")
        return total

    def warm(self, store, passes: int, keep_spans: bool) -> List[float]:
        """Whole passes with a fresh runner (and store object) over ``store``."""
        def one():
            fresh = self.store(Path(store.root)) if self.plan.on_disk else store
            runner = self.runner(fresh)
            out = io.StringIO()
            declared: List = []
            for index in range(len(self.plan.scenarios)):
                self.scenario_step(runner, index, out, declared)
            return out, declared

        times = []
        for index in range(passes):
            (out, declared), elapsed = self.timed(one, keep_spans and index == 0)
            times.append(elapsed)
            self.finish_pass(out, declared, "warm pass")
        return times

    def singles(self, runner, requests: Sequence, check: Callable[[object, list], None],
                keep_spans: bool) -> List[float]:
        """One ``resolve`` per request; ``check(request, results)`` runs
        after each, untimed and untraced."""
        times = []
        for index, request in enumerate(requests):
            results, elapsed = self.timed(
                lambda: runner.resolve([request]).get(request), keep_spans and index == 0
            )
            times.append(elapsed)
            self.attempted += 1
            with self.tracer.paused():
                check(request, results)
        return times

    def stored_results(self, store) -> Dict[str, str]:
        """Canonical results of every key in ``store`` (the pass's own
        requests and the follow-ups two-stage scenarios resolved)."""
        if self.plan.on_disk:
            keys = sorted(p.stem for p in Path(store.root).glob("*.json"))
            return {key: results_canonical(store.get(key)) for key in keys}
        return {key: results_canonical(store.data[key]) for key in sorted(store.data)}


def _share(total: int, parts: int, index: int) -> slice:
    """Part ``index`` of ``total`` items cut into ``parts`` near-equal runs."""
    return slice(total * index // parts, total * (index + 1) // parts)


def probe_points(steps: int) -> List[int]:
    """The cold-pass steps after which probes run: ``PROBE_POINTS`` of
    them, evenly spaced, the last after the final step."""
    count = min(steps, PROBE_POINTS)
    return [round((j + 1) * steps / count) - 1 for j in range(count)]


def run_library(plan: LibraryPlan, seed: int, seconds: float, work: Path,
                traced: bool, smoke: bool) -> dict:
    """Run one library workload; returns its result record."""
    from layers import NullTracer, Tracer, install

    env = child_env(fresh_dir(work / "tmp"))
    setup_spec = str(fresh_dir(work / "setup-store")) if plan.on_disk else "memory"
    run = LibraryRun(plan, seed, work, NullTracer())
    probe_rounds = 1 if smoke else PROBE_ROUNDS
    warm_count = 2 if smoke else WARM_PER_ROUND
    hit_count = 20 if smoke else HITS_PER_ROUND
    misses_per_round = 2 if smoke else plan.misses_per_round

    # The first cold pass fills the store the first probes read, and is
    # the reference every later answer is checked against. In a traced
    # run it stays untraced: the reference for the tracing overhead.
    store = run.store()
    baseline = [run.cold_pass(store)]
    cold_passes = [] if traced else list(baseline)
    reference = run.stored_results(store)
    declared = unique(run.declared)
    shapes = [r for r in declared if plan.miss_shapes(r)]
    tracer = None
    undo: Callable[[], None] = lambda: None
    if traced:
        tracer = run.tracer = Tracer()
        undo = install(tracer)

    phases = Phases(tracer)
    setup: List[float] = []
    misses: List[Tuple[object, str]] = []
    miss_store = run.store()
    hit_rng = random.Random(f"{seed}/{plan.name}/hits")

    def check_hit(request, results) -> None:
        key = request.cache_key()
        run.checks.expect(results_canonical(results) == reference[key], f"hit {key[:12]} differs")

    def keep_miss(request, results) -> None:
        misses.append((request, results_canonical(results)))

    started = time.perf_counter()
    rounds = 0
    while (rounds < probe_rounds or len(cold_passes) < MAX_COLD_PASSES and not smoke
           and time.perf_counter() - started < COLD_SHARE * seconds):
        probing = rounds < probe_rounds
        previous = store
        hits = balanced(declared, hit_count, hit_rng) if probing else []
        first = rounds * misses_per_round
        miss_requests = [
            reseeded(shapes[i % len(shapes)], fresh_seed(seed, plan.name, i))
            for i in range(first, first + misses_per_round)
        ] if probing else []
        hit_store = run.store(Path(previous.root)) if plan.on_disk else previous
        hit_runner = run.runner(hit_store)
        miss_runner = run.runner(miss_store)
        spans = rounds == 0
        store = run.store()
        runner = run.runner(store)
        out = io.StringIO()
        pass_declared: List = []
        points = probe_points(len(plan.scenarios))
        total = 0.0
        for index in range(len(plan.scenarios)):
            total += phases.run("cold", lambda: [run.cold_step(
                runner, index, out, pass_declared, spans and index == 0)])[0]
            if not probing or index not in points:
                continue
            # This round's probes, spread over the gaps between the steps.
            part = points.index(index)
            if part == len(points) // 2 and not traced:
                setup += time_library_setup(setup_spec, SETUP_PER_ROUND, env)
            cut = _share(warm_count, len(points), part)
            phases.run("warm", lambda: run.warm(
                previous, cut.stop - cut.start, spans and part == 0))
            phases.run("hit", lambda: run.singles(
                hit_runner, hits[_share(hit_count, len(points), part)], check_hit, spans))
            phases.run("miss", lambda: run.singles(
                miss_runner, miss_requests[_share(misses_per_round, len(points), part)],
                keep_miss, spans))
        run.finish_pass(out, pass_declared, "cold pass")
        cold_passes.append(total)
        rounds += 1
    measured_s = time.perf_counter() - started
    undo()

    run.checks.golden(plan.name, digest(reference), seed, smoke)
    executed = [(r, reference[r.cache_key()]) for r in declared]
    run.checks.cross_check(executed + misses, seed, plan.name)

    samples = phases.samples
    metrics: Dict[str, dict] = {
        "cold_pass_s": timing(cold_passes, 50, "s"),
        "warm_pass_p50_ms": timing(samples["warm"], 50, "ms", 1e3),
        "warm_pass_tail_ms": tail(samples["warm"], "ms", 1e3),
        "hit_p50_ms": timing(samples["hit"], 50, "ms", 1e3),
        "hit_tail_ms": tail(samples["hit"], "ms", 1e3),
        "miss_p50_ms": timing(samples["miss"], 50, "ms", 1e3),
    }
    if not traced:
        metrics["setup_s"] = timing(setup, 50, "s")
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
            "n": 1,
        }
    record = {
        "workload": plan.name,
        "seed": seed,
        "rounds": rounds,
        "measured_s": measured_s,
        "metrics": metrics,
        "attempted": run.attempted + run.checks.attempted,
        "failed": run.checks.failed,
        "failures": run.checks.failures,
        "digest": digest(reference),
    }
    if tracer is not None:
        record["trace"] = {
            "untraced_cold_s": baseline,
            "traced_cold_s": cold_passes,
            "wall_s": phases.wall_s(),
            "phases": phases.tables(),
            "totals": tracer.snapshot(),
            "counters": dict(tracer.counters),
            "spans": tracer.spans,
        }
    return record
