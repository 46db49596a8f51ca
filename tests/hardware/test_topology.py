"""Topology: links, routing, distances and the AMD48 preset."""

import pytest

from repro.errors import TopologyError
from repro.hardware.presets import amd48_topology
from repro.hardware.topology import Link, NumaTopology


def two_node_topology():
    return NumaTopology(
        num_nodes=2,
        cpus_per_node=3,
        links=[Link(0, 1, 4.0)],
        memory_controller_gib_s=13.0,
        node_memory_gib=16.0,
    )


class TestLink:
    def test_endpoints_normalised(self):
        link = Link(3, 1, 4.0)
        assert (link.a, link.b) == (1, 3)
        assert link.key == (1, 3)

    def test_self_link_rejected(self):
        with pytest.raises(TopologyError):
            Link(2, 2, 4.0)

    def test_zero_bandwidth_rejected(self):
        with pytest.raises(TopologyError):
            Link(0, 1, 0.0)

    def test_other_endpoint(self):
        link = Link(0, 1, 4.0)
        assert link.other(0) == 1
        assert link.other(1) == 0
        with pytest.raises(TopologyError):
            link.other(2)


class TestNumaTopology:
    def test_cpu_node_mapping(self):
        topo = two_node_topology()
        assert topo.num_cpus == 6
        assert topo.node_of_cpu(0) == 0
        assert topo.node_of_cpu(2) == 0
        assert topo.node_of_cpu(3) == 1
        assert list(topo.cpus_of_node(1)) == [3, 4, 5]

    def test_cpu_out_of_range(self):
        topo = two_node_topology()
        with pytest.raises(TopologyError):
            topo.node_of_cpu(6)
        with pytest.raises(TopologyError):
            topo.node_of_cpu(-1)

    def test_local_route_is_empty(self):
        topo = two_node_topology()
        assert topo.route(0, 0) == ()
        assert topo.hops(1, 1) == 0

    def test_remote_route(self):
        topo = two_node_topology()
        route = topo.route(0, 1)
        assert len(route) == 1
        assert route[0].key == (0, 1)

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError, match="disconnected"):
            NumaTopology(
                num_nodes=3,
                cpus_per_node=1,
                links=[Link(0, 1, 4.0)],
                memory_controller_gib_s=13.0,
                node_memory_gib=16.0,
            )

    def test_duplicate_link_rejected(self):
        with pytest.raises(TopologyError, match="duplicate"):
            NumaTopology(
                num_nodes=2,
                cpus_per_node=1,
                links=[Link(0, 1, 4.0), Link(1, 0, 6.0)],
                memory_controller_gib_s=13.0,
                node_memory_gib=16.0,
            )

    def test_link_to_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            NumaTopology(
                num_nodes=2,
                cpus_per_node=1,
                links=[Link(0, 5, 4.0)],
                memory_controller_gib_s=13.0,
                node_memory_gib=16.0,
            )

    def test_routes_are_shortest(self):
        topo = amd48_topology()
        for s in range(topo.num_nodes):
            for d in range(topo.num_nodes):
                assert len(topo.route(s, d)) == topo.hops(s, d)

    def test_route_is_connected_path(self):
        topo = amd48_topology()
        for s in range(topo.num_nodes):
            for d in range(topo.num_nodes):
                cur = s
                for link in topo.route(s, d):
                    cur = link.other(cur)
                assert cur == d


class TestAmd48:
    def test_shape(self):
        topo = amd48_topology()
        assert topo.num_nodes == 8
        assert topo.cpus_per_node == 6
        assert topo.num_cpus == 48

    def test_diameter_two_hops(self):
        # "The nodes are interconnected by HyperTransport links, with a
        # maximum distance of two hops" (section 5.1).
        assert amd48_topology().diameter() == 2

    def test_pci_nodes(self):
        # Nodes 0 and 6 carry the PCI buses (section 5.1).
        assert amd48_topology().pci_nodes == (0, 6)

    def test_asymmetric_bandwidth(self):
        topo = amd48_topology()
        bandwidths = {l.bandwidth_gib_s for l in topo.links}
        assert len(bandwidths) > 1
        assert max(bandwidths) == 6.0

    def test_siblings_are_adjacent(self):
        topo = amd48_topology()
        for socket in range(4):
            assert topo.hops(2 * socket, 2 * socket + 1) == 1
