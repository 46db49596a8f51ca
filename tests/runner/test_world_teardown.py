"""Executed worlds are freed by refcount, not by the cyclic collector.

A finished Carrefour world holds thousands of decisions, migration
records, segments and vCPUs. If any part of it sits in a reference
cycle, the whole world survives until the cyclic collector next runs,
and dead worlds pile up across a sweep. With the collector disabled,
nothing of a world may outlive the call that executed it.
"""

import gc
import weakref

import pytest

from repro.config import SimConfig
from repro.core import multirun
from repro.runner import exec as exec_mod
from repro.sim.runspec import RunRequest, VmRequest

COARSE = SimConfig(page_scale=4096)


def _engine_of(run):
    domain = getattr(run.context, "domain", None)
    if domain is not None:
        return domain.numa_policy.engine
    return run.context.numa_mode.engine


@pytest.fixture
def tracked(monkeypatch):
    """Weak references to every world built, its runs and their engines."""
    refs = []
    build = exec_mod.build_world

    def recording_build(request):
        world = build(request)
        refs.append(weakref.ref(world))
        for run in world.runs:
            refs.append(weakref.ref(run))
            refs.append(weakref.ref(_engine_of(run)))
        return world

    monkeypatch.setattr(exec_mod, "build_world", recording_build)
    monkeypatch.setattr(multirun, "build_world", recording_build)
    return refs


@pytest.fixture
def no_cyclic_gc():
    gc.collect()
    gc.disable()
    yield
    gc.enable()


def _xen(app, home_nodes):
    return VmRequest(
        app=app, policy="first-touch", carrefour=True, num_vcpus=24,
        home_nodes=home_nodes,
    )


XEN_SINGLE = RunRequest(
    environment="xen",
    vms=(VmRequest(app="swaptions", policy="first-touch", carrefour=True),),
    features="Xen+",
    config=COARSE,
)
XEN_PAIR = RunRequest(
    environment="xen",
    vms=(_xen("swaptions", (0, 1, 2, 3)), _xen("cg.C", (4, 5, 6, 7))),
    features="Xen",
    config=COARSE,
)
LINUX = RunRequest(
    environment="linux",
    vms=(VmRequest(app="swaptions", policy="round-4k", carrefour=True),),
    config=COARSE,
)


@pytest.mark.parametrize(
    "request_", [XEN_SINGLE, XEN_PAIR, LINUX], ids=["xen", "xen-pair", "linux"]
)
def test_execute_request_frees_world(request_, tracked, no_cyclic_gc):
    results = exec_mod.execute_request(request_)
    assert results and tracked
    assert [ref() for ref in tracked] == [None] * len(tracked)


def test_execute_batch_frees_worlds(tracked, no_cyclic_gc):
    second = RunRequest(
        environment="xen",
        vms=(_xen("facesim", (0, 1, 2, 3)), _xen("cg.C", (4, 5, 6, 7))),
        features="Xen",
        config=COARSE,
    )
    outcome = multirun.execute_batch([XEN_PAIR, second], 2)
    assert outcome.batched_runs == 2 and tracked
    assert [ref() for ref in tracked] == [None] * len(tracked)
