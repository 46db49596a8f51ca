"""Interconnect byte accounting and utilisation."""

import numpy as np
import pytest

from repro.hardware.interconnect import Interconnect
from repro.hardware.presets import amd48_topology

from tests.properties.engine_oracle import record_access, record_access_matrix


@pytest.fixture
def interconnect():
    return Interconnect(amd48_topology())


def link_bytes(interconnect, link):
    """Bytes accounted on ``link`` this epoch, read back from utilisation."""
    return interconnect.utilization(link, 1.0) * link.bandwidth_gib_s * (1 << 30)


def max_utilization(interconnect, seconds):
    return max(interconnect.utilizations(seconds).values())


class TestRecording:
    def test_local_access_touches_no_link(self, interconnect):
        record_access(interconnect, 3, 3, 4096)
        assert max_utilization(interconnect, 1.0) == 0.0

    def test_remote_access_loads_route(self, interconnect):
        topo = interconnect.topology
        record_access(interconnect, 0, 7, 1 << 20)
        route = topo.route(0, 7)
        for link in route:
            assert link_bytes(interconnect, link) == pytest.approx(1 << 20)

    def test_two_hop_loads_both_links(self, interconnect):
        topo = interconnect.topology
        src, dst = next(
            (s, d)
            for s in range(8)
            for d in range(8)
            if topo.hops(s, d) == 2
        )
        record_access(interconnect, src, dst, 1000)
        assert sum(
            1 for l in topo.links if link_bytes(interconnect, l) == pytest.approx(1000)
        ) == 2

    def test_zero_bytes_noop(self, interconnect):
        record_access(interconnect, 0, 1, 0)
        assert max_utilization(interconnect, 1.0) == 0.0

    def test_incidence_product_matches_route_walk(self, interconnect):
        """The engine's one matrix product per epoch accounts exactly the
        bytes a route walk per ``(src, dst)`` pair does."""
        rng = np.random.default_rng(7)
        byte_matrix = rng.integers(0, 1 << 20, size=(8, 8), dtype=np.int64)
        walked = Interconnect(interconnect.topology)
        for src in range(8):
            for dst in range(8):
                record_access(walked, src, dst, int(byte_matrix[src, dst]))
        np.fill_diagonal(byte_matrix, 0)
        record_access_matrix(interconnect, byte_matrix)
        assert interconnect.utilizations(1.0) == walked.utilizations(1.0)


class TestUtilisation:
    def test_utilization_formula(self, interconnect):
        topo = interconnect.topology
        link = topo.route(0, 1)[0]
        capacity = int(link.bandwidth_gib_s * (1 << 30))
        record_access(interconnect, 0, 1, capacity)
        assert interconnect.utilization(link, 1.0) == pytest.approx(1.0)
        assert interconnect.utilization(link, 2.0) == pytest.approx(0.5)

    def test_zero_seconds(self, interconnect):
        record_access(interconnect, 0, 1, 100)
        assert max_utilization(interconnect, 0.0) == 0.0


class TestReset:
    def test_reset_clears_counts(self, interconnect):
        record_access(interconnect, 0, 1, 1 << 30)
        interconnect.reset()
        assert max_utilization(interconnect, 1.0) == 0.0
