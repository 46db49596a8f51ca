"""Shared fixtures: machines, hypervisors and fast app variants."""

import dataclasses

import pytest

from repro.config import DEFAULT_CONFIG, SimConfig
from repro.hardware.latency import LatencyModel
from repro.hardware.machine import Machine
from repro.hardware.presets import (
    CONTROLLER_GIB_S,
    INTER_SOCKET_GIB_S,
    NODE_MEMORY_GIB,
    amd48,
    amd48_caches,
)
from repro.hardware.topology import Link, NumaTopology
from repro.hypervisor.xen import Hypervisor, XEN, XEN_PLUS
from repro.lint import sanitizer as p2m_sanitizer


def small_machine(
    num_nodes: int = 2,
    cpus_per_node: int = 2,
    frames_per_node: int = 1024,
    config: SimConfig = DEFAULT_CONFIG,
) -> Machine:
    """A tiny fully-connected machine for unit tests."""
    links = [
        Link(a, b, INTER_SOCKET_GIB_S)
        for a in range(num_nodes)
        for b in range(a + 1, num_nodes)
    ]
    topo = NumaTopology(
        num_nodes=num_nodes,
        cpus_per_node=cpus_per_node,
        links=links,
        memory_controller_gib_s=CONTROLLER_GIB_S,
        node_memory_gib=NODE_MEMORY_GIB,
        pci_nodes=(0,),
    )
    return Machine(
        topology=topo,
        caches=amd48_caches(),
        latency=LatencyModel(),
        frames_per_node=frames_per_node,
        config=config,
    )


@pytest.fixture(scope="session", autouse=True)
def _sanitize_p2m():
    """Run the whole suite with the runtime P2M sanitizer armed.

    Every hypervisor the tests create gets shadow frame-ownership and
    migration-protocol checking; a double map, a map of a freed frame or
    an out-of-order migration fails the test that caused it.
    """
    p2m_sanitizer.enable()
    yield
    p2m_sanitizer.enable(False)


@pytest.fixture
def fine_config():
    """Page scale 1 (true 4 KiB pages) for unit-level mechanics."""
    return SimConfig(page_scale=1)


@pytest.fixture
def machine():
    """A tiny 2-node machine for unit tests."""
    return small_machine()


@pytest.fixture
def machine4():
    """A 4-node machine for policy tests."""
    return small_machine(num_nodes=4, cpus_per_node=2, frames_per_node=4096)


@pytest.fixture
def amd48_machine():
    """The paper's AMD48 machine."""
    return amd48()


@pytest.fixture
def hypervisor(machine4):
    """A booted hypervisor (stock Xen features) on the 4-node machine."""
    return Hypervisor(machine4, features=XEN)


@pytest.fixture
def hypervisor_plus(machine4):
    """A booted hypervisor with the Xen+ feature set."""
    return Hypervisor(machine4, features=XEN_PLUS)


def fast_app(app, baseline_seconds=8.0, footprint_mb=None):
    """A faster copy of an AppSpec for integration tests."""
    changes = {"baseline_seconds": baseline_seconds}
    if footprint_mb is not None:
        changes["footprint_mb"] = footprint_mb
    return dataclasses.replace(app, **changes)
