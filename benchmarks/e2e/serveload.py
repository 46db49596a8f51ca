"""The ``serve_open`` workload: one client process against ``repro.serve``.

The server runs as ``python -m repro.serve --store T --sharded --workers 1
--batch-worlds 4``; this process is its only client — one asyncio loop,
two connections, raw NDJSON through :mod:`repro.serve.protocol`. The hot
set is Figure 7's Xen+ policy sweep over four Parsec applications of
similar cost; a first burst fills the store with it. Then each round
times, in order:

* **set-up** — one more server launched on an empty store, to ready;
* **warm** — the hot set re-submitted at once, every request a store hit;
* **open loop** — one slice of a Poisson arrival schedule made from the
  seed: 75% hot keys, 15% fresh single-VM misses, 10% the latest miss
  key again (it attaches to the in-flight job or hits). Each response is
  timed from the moment its request was *due*, so a stalled server also
  delays the requests queued behind the stall;
* **miss** — single fresh misses, one at a time, submit to result;
* **cold** — a burst of fresh misses sent at once (the hot set's shapes,
  re-seeded), from the first send to the last response.

Finally a ``metrics`` snapshot supplies the server's ``serve.*`` counters
and a ``shutdown`` drains it.
"""

from __future__ import annotations

import asyncio
import json
import random
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import (
    HERE,
    PROBE_ROUNDS,
    ROOT,
    WARM_PER_ROUND,
    Checks,
    balanced,
    child_env,
    digest,
    fresh_dir,
    fresh_seed,
    percentile,
    reseeded,
    tail,
    timing,
)

SERVE_ARGS = ("--sharded", "--workers", "1", "--batch-worlds", "4")
HOT_APPS = ("swaptions", "facesim", "streamcluster", "bodytrack")
SMOKE_HOT_APPS = ("swaptions", "facesim")
RATE_PER_S = 20.0
MIX = (("hot", 0.75), ("miss", 0.15), ("repeat", 0.10))
MISSES_PER_ROUND = 8
SMOKE_BURST = 8
READY_TIMEOUT_S = 60.0


# ----------------------------------------------------------------------
# Inputs


def hot_set(seed: int, apps: Sequence[str], tracer) -> List:
    """Figure 7's declared requests for ``apps`` under the seed's config."""
    from repro.config import SimConfig
    from repro.experiments import common, registry

    scenario = registry.get_scenario("fig7")
    with common.configured(SimConfig(rng_seed=seed)), tracer.span("Scenario.required_runs"):
        return list(scenario.required_runs(list(apps)))


def open_loop_schedule(seed: int, hot: Sequence,
                       duration_s: float) -> List[Tuple[float, str, object]]:
    """``(due second, kind, request)`` arrivals, deterministic in ``seed``.

    The mix is exact, and hot keys and miss shapes are used equally
    often, so two seeds differ in arrival times and order, not in what
    the load is made of.
    """
    rng = random.Random(f"{seed}/serve/open-loop")
    count = max(1, round(duration_s * RATE_PER_S))
    kinds: List[str] = []
    for kind, share in MIX[:-1]:
        kinds += [kind] * round(count * share)
    kinds += [MIX[-1][0]] * (count - len(kinds))
    rng.shuffle(kinds)
    hot_keys = iter(balanced(hot, count, rng))
    miss_shapes = iter(balanced(hot, count, rng))
    schedule = []
    due = 0.0
    latest_miss = None
    for index, kind in enumerate(kinds):
        due += rng.expovariate(RATE_PER_S)
        if kind == "repeat" and latest_miss is None:
            kind = "hot"
        if kind == "hot":
            request = next(hot_keys)
        elif kind == "miss":
            shape = next(miss_shapes)
            request = latest_miss = reseeded(shape, fresh_seed(seed, "serve-miss", index))
        else:
            request = latest_miss
        schedule.append((due, kind, request))
    return schedule


def slices(schedule: Sequence, duration_s: float, count: int) -> List[List]:
    """``schedule`` cut into ``count`` equal time windows, each rebased to 0."""
    width = duration_s / count
    out: List[List] = [[] for _ in range(count)]
    for due, kind, request in schedule:
        index = min(int(due // width), count - 1)
        out[index].append((due - index * width, kind, request))
    return out


# ----------------------------------------------------------------------
# The server process


class ServerProcess:
    """One ``repro.serve`` process, found through its ready file."""

    def __init__(self, work: Path, store: Path, env: Dict[str, str],
                 trace_dir: Optional[Path] = None) -> None:
        self.ready_file = work / f"{store.name}.ready.json"
        self.ready_file.unlink(missing_ok=True)
        args = ["--store", str(store), *SERVE_ARGS, "--ready-file", str(self.ready_file)]
        if trace_dir is None:
            command = [sys.executable, "-m", "repro.serve", *args]
        else:
            command = [sys.executable, str(HERE / "layers.py"), str(trace_dir), *args]
        self.log = open(work / "server.log", "ab")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            command, stdout=self.log, stderr=subprocess.STDOUT, env=env, cwd=str(ROOT)
        )

    def wait_ready(self) -> float:
        """Seconds from spawn until the ready file appeared."""
        deadline = self.started + READY_TIMEOUT_S
        while not self.ready_file.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with {self.proc.returncode} before ready")
            if time.perf_counter() > deadline:
                raise RuntimeError("server not ready in time")
            time.sleep(0.002)
        elapsed = time.perf_counter() - self.started
        info = json.loads(self.ready_file.read_text())
        self.address = (str(info["host"]), int(info["port"]))
        return elapsed

    def stop(self, timeout: float = 30.0) -> None:
        """Wait for exit (after a shutdown op); terminate, then kill, if late."""
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        finally:
            self.log.close()


def time_server_setup(work: Path, env: Dict[str, str]) -> float:
    """Launch a server on an empty store, time it to ready, shut it down."""
    from repro.serve.client import ServeClient

    server = ServerProcess(work, fresh_dir(work / "store-setup"), env)
    try:
        elapsed = server.wait_ready()
        with ServeClient(*server.address, timeout=30) as control:
            control.shutdown()
    finally:
        server.stop()
    return elapsed


# ----------------------------------------------------------------------
# The client


class Connection:
    """One NDJSON connection; responses are matched to waiters by id."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer
        self.waiting: Dict[object, asyncio.Future] = {}
        self.reading = asyncio.ensure_future(self._read())

    @classmethod
    async def open(cls, host: str, port: int) -> "Connection":
        from repro.serve import protocol

        reader, writer = await asyncio.open_connection(
            host, port, limit=protocol.MAX_LINE_BYTES
        )
        return cls(reader, writer)

    async def _read(self) -> None:
        from repro.serve import protocol

        try:
            while True:
                line = await self.reader.readline()
                if not line:
                    break
                received = time.perf_counter()
                message = protocol.decode(line)
                op = message.get("op")
                key = message.get("id") if op in ("result", "reject", "failed") else op
                waiter = self.waiting.pop(key, None)
                if waiter is not None and not waiter.done():
                    waiter.set_result((message, received))
        finally:
            for waiter in self.waiting.values():
                if not waiter.done():
                    waiter.set_exception(ConnectionError("server closed the connection"))

    async def send(self, key: object, message: Dict[str, object]) -> asyncio.Future:
        from repro.serve import protocol

        waiter = asyncio.get_running_loop().create_future()
        self.waiting[key] = waiter
        self.writer.write(protocol.encode(message))
        await self.writer.drain()
        return waiter

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except ConnectionError:
            pass
        await self.reading


class Client:
    """The benchmark's two connections and its request bookkeeping."""

    def __init__(self, connections: List[Connection], checks: Checks) -> None:
        self.connections = connections
        self.checks = checks
        self.next_id = 0
        self.attempted = 0
        self.first_seen: Dict[str, str] = {}
        self.executed: List[Tuple[object, str]] = []

    async def submit(self, request) -> asyncio.Future:
        ident = self.next_id
        self.next_id += 1
        self.attempted += 1
        connection = self.connections[ident % len(self.connections)]
        return await connection.send(
            ident, {"op": "submit", "id": ident, "request": request.to_json()}
        )

    def record(self, request, message: Dict[str, object]) -> Optional[bool]:
        """Check one response; returns its ``cached`` flag (None: failed).

        Every answer for a key must equal the first one: hits on the hot
        set equal the results the filling burst executed.
        """
        if message.get("op") != "result":
            self.checks.expect(False, f"{request.describe()}: {message.get('error')}")
            return None
        text = json.dumps(message["results"], sort_keys=True, separators=(",", ":"))
        key = request.cache_key()
        seen = self.first_seen.setdefault(key, text)
        self.checks.expect(seen == text, f"{key[:12]} answered with different results")
        cached = bool(message.get("cached"))
        if not cached:
            self.executed.append((request, text))
        return cached

    async def burst(self, requests: Sequence, cached: bool, what: str) -> float:
        """Send ``requests`` at once; seconds from first send to last response."""
        start = time.perf_counter()
        waiters = [await self.submit(request) for request in requests]
        answers = await asyncio.gather(*waiters)
        flags = [self.record(r, m) for r, (m, _) in zip(requests, answers)]
        self.checks.expect(all(f is cached for f in flags),
                           f"{what}: expected every answer cached={cached}")
        return max(received for _, received in answers) - start

    async def open_loop(
        self, schedule: Sequence
    ) -> Tuple[List[Tuple[str, Optional[bool], float]], List[float]]:
        """Send on schedule; returns (kind, cached, latency) rows and lateness."""
        origin = time.perf_counter() + 0.01
        pending = []
        late = []
        for due, kind, request in schedule:
            delay = origin + due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            late.append(max(0.0, time.perf_counter() - (origin + due)))
            pending.append((origin + due, kind, request, await self.submit(request)))
        rows = []
        for due_at, kind, request, waiter in pending:
            message, received = await waiter
            rows.append((kind, self.record(request, message), received - due_at))
        return rows, late

    async def op(self, name: str, reply: str) -> Dict[str, object]:
        """Send a control op; returns the response whose op is ``reply``."""
        waiter = await self.connections[0].send(reply, {"op": name})
        message, _ = await waiter
        return message


# ----------------------------------------------------------------------
# The workload


def _serve_counters(payload: Dict[str, object]) -> Dict[str, float]:
    return {
        cell["name"]: cell["value"]
        for cell in payload.get("metrics", [])
        if str(cell.get("name", "")).startswith("serve.") and not cell.get("labels")
    }


class Session:
    """Everything measured against one server."""

    def __init__(self, server: ServerProcess, checks: Checks, seed: int, hot: List) -> None:
        self.server = server
        self.checks = checks
        self.seed = seed
        self.hot = hot
        self.cold: List[float] = []
        self.warm: List[float] = []
        self.misses: List[float] = []
        self.rows: List[Tuple[str, Optional[bool], float]] = []
        self.late: List[float] = []

    async def run(self, rounds: int, warm_per_round: int, misses_per_round: int,
                  open_loop_s: float, between_rounds: Callable[[], None]) -> None:
        """Fill the store with the hot set, then ``rounds`` rounds (see the
        module docstring); ``open_loop_s`` 0 skips the open loop."""
        host, port = self.server.address
        connections = [await Connection.open(host, port) for _ in range(2)]
        client = Client(connections, self.checks)
        try:
            start = time.perf_counter()
            await client.burst(self.hot, cached=False, what="filling burst")
            self.hot_digest = digest({r.cache_key(): client.first_seen[r.cache_key()]
                                      for r in self.hot})
            schedule = slices(open_loop_schedule(self.seed, self.hot, open_loop_s),
                              open_loop_s, rounds) if open_loop_s else [[]] * rounds
            for index in range(rounds):
                between_rounds()
                for _ in range(warm_per_round):
                    self.warm.append(await client.burst(self.hot, True, "warm pass"))
                rows, late = await client.open_loop(schedule[index])
                self.rows += rows
                self.late += late
                first = index * misses_per_round
                for i in range(first, first + misses_per_round):
                    request = reseeded(self.hot[i % len(self.hot)],
                                       fresh_seed(self.seed, "serve-single", i))
                    self.misses.append(await client.burst([request], False, "single miss"))
                burst = [reseeded(r, fresh_seed(self.seed, f"serve-burst-{index}", i))
                         for i, r in enumerate(self.hot)]
                self.cold.append(await client.burst(burst, False, f"burst {index}"))
            self.window_s = time.perf_counter() - start
            payload = (await client.op("metrics", "metrics"))["payload"]
            self.counters = _serve_counters(payload)
            await client.op("shutdown", "bye")
        finally:
            for connection in connections:
                await connection.close()
        self.attempted = client.attempted
        self.executed = client.executed


def run_serve(seed: int, seconds: float, work: Path, traced: bool, smoke: bool) -> dict:
    from layers import NullTracer, Tracer, merge_dumps, phase_table, read_dumps

    env = child_env(fresh_dir(work / "tmp"))
    checks = Checks()
    client_tracer = Tracer() if traced else NullTracer()
    hot = hot_set(seed, SMOKE_HOT_APPS if smoke else HOT_APPS, client_tracer)
    if smoke:
        hot = hot[:SMOKE_BURST]
    rounds = 1 if smoke else PROBE_ROUNDS
    open_loop_s = 3.0 if smoke else 0.35 * seconds
    setup: List[float] = []

    def session(trace_dir: Optional[Path], rounds: int, warm: int, misses: int,
                open_loop_s: float,
                between_rounds: Callable[[], None] = lambda: None) -> Session:
        server = ServerProcess(work, fresh_dir(work / "store"), env, trace_dir)
        try:
            setup.append(server.wait_ready())
            measured = Session(server, checks, seed, hot)
            asyncio.run(measured.run(rounds, warm, misses, open_loop_s, between_rounds))
            return measured
        finally:
            server.stop()

    warm = 2 if smoke else WARM_PER_ROUND
    misses = 2 if smoke else MISSES_PER_ROUND
    started = time.perf_counter()
    trace_dir = None
    baseline = None
    if traced:
        # An untraced server first: its burst is the reference for the
        # tracing overhead.
        baseline = session(None, 1, 0, 0, 0.0)
        trace_dir = fresh_dir(work / "trace")
        result = session(trace_dir, rounds, warm, misses, open_loop_s)
    else:
        result = session(None, rounds, warm, misses, open_loop_s,
                         lambda: setup.append(time_server_setup(work, env)))
    measured_s = time.perf_counter() - started

    checks.golden("serve_open", result.hot_digest, seed, smoke)
    checks.cross_check(result.executed, seed, "serve_open")
    hits = [latency for _, cached, latency in result.rows if cached is True]
    open_misses = [latency for _, cached, latency in result.rows if cached is False]
    metrics: Dict[str, dict] = {
        "cold_pass_s": timing(result.cold, 50, "s"),
        "warm_pass_p50_ms": timing(result.warm, 50, "ms", 1e3),
        "warm_pass_tail_ms": tail(result.warm, "ms", 1e3),
        "hit_p50_ms": timing(hits, 50, "ms", 1e3),
        "hit_tail_ms": tail(hits, "ms", 1e3),
        "miss_p50_ms": timing(result.misses, 50, "ms", 1e3),
    }
    if not traced:
        metrics["setup_s"] = timing(setup, 50, "s")
        # The largest resident set of any server-side process (a server or
        # its pool worker); every one of them has been waited for.
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "unit": "MB",
            "n": 1,
        }
    record = {
        "workload": "serve_open",
        "seed": seed,
        "rounds": rounds,
        "measured_s": measured_s,
        "metrics": metrics,
        "attempted": result.attempted + checks.attempted,
        "failed": checks.failed,
        "failures": checks.failures,
        "digest": result.hot_digest,
        "serve": {
            "counters": result.counters,
            "generator_late_p99_ms": percentile(result.late, 99) * 1e3,
            "open_loop_requests": len(result.rows),
            "open_loop_miss_p50_ms": timing(open_misses, 50, "ms", 1e3),
        },
    }
    if traced:
        dumps = read_dumps(trace_dir) + [client_tracer.dump()]
        merged = merge_dumps(dumps)
        record["trace"] = {
            "untraced_cold_s": baseline.cold,
            "traced_cold_s": result.cold,
            "wall_s": result.window_s,
            "phases": {"session": phase_table(merged["totals"], result.window_s)},
            "totals": merged["totals"],
            "counters": merged["counters"],
            "spans": {f"{d.get('role', 'client')}-{d['pid']}": d["spans"] for d in dumps},
        }
    return record
