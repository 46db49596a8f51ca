"""Command-line entry point of the serving layer.

Start a server (ephemeral port, address advertised through a ready
file)::

    python -m repro.serve --store .runstore --sharded \\
        --workers 4 --batch-worlds 4 --ready-file serve.json

Clients then resolve scenarios against it with
``python -m repro.experiments submit fig2 --ready-file serve.json`` and
stop it with ``--shutdown`` (graceful: every admitted job drains first).

The whole process runs inside one :func:`repro.obs.session`, so the
``metrics`` protocol op snapshots a live registry — store hit/miss
cells, per-runner execution counters of in-process (``--inline``)
execution, and the ``serve.*`` admission/drain counters — in the
validated trace-payload shape. Pool worker processes drop the session
they inherit (:func:`repro.obs.drop_inherited_session`) and run
untraced.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import signal
import sys
import tempfile
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.errors import ReproError
from repro.runstore import open_store
from repro.serve.server import ReproServer, ServeConfig
from repro.serve.workers import InlineBackend, ProcessBackend


def _write_ready_file(path: Path, host: str, port: int) -> None:
    # Staged through a temp file: a polling client must never read a
    # half-written address.
    payload = json.dumps({"host": host, "port": port}, sort_keys=True)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=path.name + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(payload + "\n")
        os.replace(tmp_name, path)
    finally:
        if os.path.exists(tmp_name):  # the write or rename failed mid-way
            try:
                os.unlink(tmp_name)
            except OSError:
                pass


async def _amain(args: argparse.Namespace) -> int:
    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_size=args.queue_size,
        batch_worlds=args.batch_worlds,
        timeout_seconds=args.timeout,
        retries=args.retries,
    )
    backend = InlineBackend() if args.inline else ProcessBackend(config.workers)
    store = open_store(args.store, sharded=args.sharded)
    server = ReproServer(store=store, config=config, backend=backend)
    host, port = await server.start()
    if args.ready_file:
        _write_ready_file(Path(args.ready_file), host, port)
    print(f"serving on {host}:{port}", flush=True)
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(
                signum, lambda: asyncio.ensure_future(server.shutdown())
            )
        except NotImplementedError:  # pragma: no cover - non-unix loops
            pass
    await server.serve_forever()
    print(store.stats().summary())
    print(server.summary())
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve run requests from many clients through one store.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address")
    parser.add_argument(
        "--port", type=int, default=0, help="bind port (default: ephemeral)"
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="run store directory ('memory' or omitted: in-memory)",
    )
    parser.add_argument(
        "--sharded", action="store_true",
        help="shard the on-disk store by cache-key prefix (concurrent writers)",
    )
    parser.add_argument(
        "--workers", type=int, default=2, metavar="N",
        help="concurrent drain workers (default: 2)",
    )
    parser.add_argument(
        "--queue-size", type=int, default=256, metavar="N",
        help="max queued jobs before admission rejects (default: 256)",
    )
    parser.add_argument(
        "--batch-worlds", type=int, default=1, metavar="K",
        help="group up to K queued misses (across clients) into one "
        "batched multi-run execution",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt execution budget for one group (default: none)",
    )
    parser.add_argument(
        "--retries", type=int, default=1, metavar="N",
        help="re-executions after a timeout/worker death (default: 1)",
    )
    parser.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write the bound {host, port} as JSON once listening",
    )
    parser.add_argument(
        "--inline", action="store_true",
        help="execute in-process threads instead of a process pool "
        "(no timeout isolation; debugging only)",
    )
    args = parser.parse_args(argv)
    try:
        with obs.session():
            return asyncio.run(_amain(args))
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
