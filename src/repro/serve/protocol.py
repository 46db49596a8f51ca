"""The NDJSON wire protocol between serve clients and the server.

One message per line, UTF-8 JSON with sorted keys. Client → server::

    {"op": "submit", "id": 7, "request": {<RunRequest.to_json()>}}
    {"op": "stats"}
    {"op": "metrics"}
    {"op": "shutdown"}

Server → client (streamed as each key resolves, not in submit order)::

    {"ok": true,  "op": "result", "id": 7, "key": "<sha256>",
     "cached": true, "results": [<RunResult.to_json()>, ...]}
    {"ok": false, "op": "reject", "id": 7, "error": "queue-full"}
    {"ok": false, "op": "failed", "id": 7, "error": "timeout", "attempts": 3}
    {"ok": true,  "op": "stats", "counters": {...}, "summary": "server: ..."}
    {"ok": true,  "op": "metrics", "payload": {<obs trace payload>}}
    {"ok": true,  "op": "bye"}

``id`` is client-assigned and only meaningful per connection; the server
echoes it so a client can reassemble out-of-order streams. Responses to
``stats``/``metrics``/``shutdown`` are emitted in request order relative
to each other, interleaved with whatever results resolve in between.
"""

from __future__ import annotations

import json
from typing import Dict, Optional

from repro.errors import ServeError

#: Stream-reader line limit. Result payloads for many-epoch runs reach
#: hundreds of KiB; the default 64 KiB asyncio limit would truncate them.
MAX_LINE_BYTES = 64 * 1024 * 1024

#: Stable rejection/failure codes (the client switches on these).
ERR_QUEUE_FULL = "queue-full"
ERR_SHUTTING_DOWN = "shutting-down"
ERR_BAD_REQUEST = "bad-request"
ERR_TIMEOUT = "timeout"
ERR_WORKER_DIED = "worker-died"
#: The backend raised while executing the request (not retried).
ERR_EXECUTION = "execution-error"
ERR_PROTOCOL = "protocol"


def encode(message: Dict[str, object]) -> bytes:
    """One wire line: canonical JSON plus the newline terminator."""
    return (json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n").encode(
        "utf-8"
    )


def decode(line: bytes) -> Dict[str, object]:
    """Parse one wire line.

    Raises:
        ServeError: with code ``protocol`` when the line is not a JSON
            object (a malformed client must get a deterministic error,
            not a stack trace).
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ServeError(ERR_PROTOCOL, f"undecodable message: {exc}") from exc
    if not isinstance(message, dict):
        raise ServeError(ERR_PROTOCOL, "message is not a JSON object")
    return message


# ----------------------------------------------------------------------
# Response builders (the single place response shapes are defined)


def result_message(
    request_id: object, key: str, results_json: list, cached: bool
) -> Dict[str, object]:
    return {
        "ok": True,
        "op": "result",
        "id": request_id,
        "key": key,
        "cached": cached,
        "results": results_json,
    }


def reject_message(request_id: object, error: str, detail: str = "") -> Dict[str, object]:
    message: Dict[str, object] = {
        "ok": False,
        "op": "reject",
        "id": request_id,
        "error": error,
    }
    if detail:
        message["detail"] = detail
    return message


def failed_message(request_id: object, error: str, attempts: int) -> Dict[str, object]:
    return {
        "ok": False,
        "op": "failed",
        "id": request_id,
        "error": error,
        "attempts": attempts,
    }


def stats_message(counters: Dict[str, object], summary: str) -> Dict[str, object]:
    return {"ok": True, "op": "stats", "counters": counters, "summary": summary}


def metrics_message(payload: Dict[str, object]) -> Dict[str, object]:
    return {"ok": True, "op": "metrics", "payload": payload}


def bye_message() -> Dict[str, object]:
    return {"ok": True, "op": "bye"}


def error_message(error: str, detail: str = "") -> Dict[str, object]:
    """A connection-level error (no request id to attach it to)."""
    return reject_message(None, error, detail)


def request_id_of(message: Dict[str, object]) -> Optional[object]:
    return message.get("id")
