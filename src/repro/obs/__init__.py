"""Unified observability: the metrics registry and the trace layer.

One *session* owns one :class:`~repro.obs.metrics.MetricsRegistry` and
one :class:`~repro.obs.trace.Tracer`; instrumented components reach the
active session through the module-level accessors::

    from repro import obs

    cell = obs.registry().counter("faults.hypervisor")   # at construction
    tr = obs.tracer()                                    # at event time
    if tr.enabled:
        tr.instant("fault.storm", cat="hypervisor", pages=n)

With no session active (the default) :func:`registry` hands back the
disabled registry — cells still count, nothing is retained — and
:func:`tracer` hands back the shared no-op tracer, so instrumentation
stays in the hot paths permanently without changing any simulated
number. Activate collection with::

    with obs.session() as sess:
        results = execute_request(request)
    sess.write_trace("trace.json")

Sessions are process-local by design: worker processes of a parallel
runner would each collect into their own (discarded) session, which is
why the experiment CLI forces ``--jobs 1`` while tracing. A worker
forked while a session is active inherits a copy of it; pool
initializers call :func:`drop_inherited_session` so such workers run
with observability off instead of collecting into a copy nobody reads.

Determinism: timestamps are simulated seconds driven by the engine
(never the wall clock — RPR002 applies to this package like any other),
event payloads are plain JSON scalars, and trace files are written in a
canonical form, so identical ``RunRequest`` executions yield
byte-identical traces.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, Optional, Union

from repro.errors import ObsError
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import (
    NULL_TRACER,
    TRACE_FORMAT,
    TRACE_VERSION,
    NullTracer,
    Tracer,
    build_payload,
    dump_payload,
    to_chrome,
    validate_payload,
    write_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullTracer",
    "ObsSession",
    "TRACE_FORMAT",
    "TRACE_VERSION",
    "Tracer",
    "active",
    "build_payload",
    "drop_inherited_session",
    "dump_payload",
    "enabled",
    "registry",
    "session",
    "to_chrome",
    "tracer",
    "validate_payload",
    "write_trace",
]


class ObsSession:
    """One collection window: a live registry plus a tracer."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry(enabled=True)
        self.tracer = Tracer()

    def payload(self) -> Dict[str, object]:
        """The trace-file dict (events + metrics snapshot)."""
        return build_payload(self.tracer, self.registry)

    def write_trace(self, path: Union[str, Path]) -> Path:
        """Write this session's trace canonically to ``path``."""
        return write_trace(path, self.payload())


class _SessionSlot:
    """Holds the process-local active session.

    An attribute on one holder object (the ``core.batch`` idiom) rather
    than a rebound module global, so the dataflow lint can see the write
    is confined to one owned object.
    """

    __slots__ = ("session",)

    def __init__(self) -> None:
        self.session: Optional[ObsSession] = None


_SLOT = _SessionSlot()
_NULL_REGISTRY = MetricsRegistry(enabled=False)


def active() -> Optional[ObsSession]:
    """The active session, or None."""
    return _SLOT.session


def enabled() -> bool:
    """Whether an observability session is collecting."""
    return _SLOT.session is not None


def registry() -> MetricsRegistry:
    """The active session's registry, or the disabled default."""
    sess = _SLOT.session
    return sess.registry if sess is not None else _NULL_REGISTRY


def tracer() -> Union[Tracer, NullTracer]:
    """The active session's tracer, or the shared no-op tracer."""
    sess = _SLOT.session
    return sess.tracer if sess is not None else NULL_TRACER


def drop_inherited_session() -> None:
    """Deactivate the session a forked process inherited from its parent.

    The parent's session object is untouched (the child only held a
    copy); the child runs on with the disabled registry and the no-op
    tracer, as if it had started without a session.
    """
    _SLOT.session = None


@contextmanager
def session() -> Iterator[ObsSession]:
    """Activate a fresh session for the duration of the block.

    The session object survives the block, so callers write the trace
    after deactivation (once every component has finished recording).
    """
    if _SLOT.session is not None:
        raise ObsError("an observability session is already active")
    sess = ObsSession()
    _SLOT.session = sess
    try:
        yield sess
    finally:
        _SLOT.session = None
