"""Tests for the HierarchicalBusNetwork data structure and the builder."""

import pytest

from repro.errors import (
    BandwidthError,
    InvalidEdgeError,
    InvalidNodeError,
    NotATreeError,
    TopologyError,
)
from repro.network.node import BusSpec, NodeKind, ProcessorSpec
from repro.network.tree import Edge, HierarchicalBusNetwork, NetworkBuilder


def build_simple():
    builder = NetworkBuilder()
    bus = builder.add_bus("bus", bandwidth=4.0)
    p0 = builder.add_processor("p0")
    p1 = builder.add_processor("p1")
    builder.connect(p0, bus, bandwidth=1.0)
    builder.connect(p1, bus, bandwidth=1.0)
    return builder.build(), bus, p0, p1


class TestEdge:
    def test_canonical_order(self):
        assert Edge(3, 1) == (1, 3)
        assert Edge(1, 3).u == 1
        assert Edge(1, 3).v == 3

    def test_self_loop_rejected(self):
        with pytest.raises(InvalidEdgeError):
            Edge(2, 2)

    def test_other_endpoint(self):
        e = Edge(1, 5)
        assert e.other(1) == 5
        assert e.other(5) == 1
        with pytest.raises(InvalidEdgeError):
            e.other(3)


class TestNetworkBuilder:
    def test_basic_build(self):
        net, bus, p0, p1 = build_simple()
        assert net.n_nodes == 3
        assert net.n_processors == 2
        assert net.n_buses == 1
        assert net.is_bus(bus)
        assert net.is_processor(p0)
        assert net.is_processor(p1)
        assert net.bus_bandwidth(bus) == 4.0

    def test_connect_unknown_node(self):
        builder = NetworkBuilder()
        builder.add_bus("b")
        with pytest.raises(InvalidNodeError):
            builder.connect(0, 5)

    def test_nonpositive_bandwidth_rejected(self):
        builder = NetworkBuilder()
        b = builder.add_bus("b")
        p = builder.add_processor("p")
        with pytest.raises(BandwidthError):
            builder.connect(p, b, bandwidth=0)

    def test_names_default(self):
        net, bus, p0, _ = build_simple()
        assert net.name(bus) == "bus"
        assert net.name(p0) == "p0"
        assert net.node_by_name("p1") == 2
        with pytest.raises(InvalidNodeError):
            net.node_by_name("nope")


class TestValidation:
    def test_cycle_rejected(self):
        specs = [BusSpec("b0"), BusSpec("b1"), ProcessorSpec("p0"), ProcessorSpec("p1")]
        edges = [(0, 1), (0, 2), (1, 3), (2, 3)]
        with pytest.raises(NotATreeError):
            HierarchicalBusNetwork(specs, edges)

    def test_disconnected_rejected(self):
        specs = [BusSpec("b0"), ProcessorSpec("p0"), ProcessorSpec("p1"), ProcessorSpec("p2")]
        edges = [(0, 1), (0, 2), (0, 2)]
        with pytest.raises((NotATreeError, InvalidEdgeError)):
            HierarchicalBusNetwork(specs, edges)

    def test_bus_leaf_rejected(self):
        specs = [BusSpec("b0"), BusSpec("b1"), ProcessorSpec("p0")]
        edges = [(0, 1), (0, 2)]
        with pytest.raises(TopologyError):
            HierarchicalBusNetwork(specs, edges)

    def test_processor_inner_rejected(self):
        specs = [ProcessorSpec("p0"), ProcessorSpec("p1"), ProcessorSpec("p2")]
        edges = [(0, 1), (0, 2)]
        with pytest.raises(TopologyError):
            HierarchicalBusNetwork(specs, edges)

    def test_single_processor_allowed(self):
        net = HierarchicalBusNetwork([ProcessorSpec("p")], [])
        assert net.n_nodes == 1
        assert net.height() == 0

    def test_single_bus_rejected(self):
        with pytest.raises(TopologyError):
            HierarchicalBusNetwork([BusSpec("b")], [])

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            HierarchicalBusNetwork([], [])

    def test_duplicate_edge_rejected(self):
        specs = [BusSpec("b"), ProcessorSpec("p0"), ProcessorSpec("p1")]
        with pytest.raises(InvalidEdgeError):
            HierarchicalBusNetwork(specs, [(0, 1), (1, 0), (0, 2)])


class TestAccessors:
    def test_edges_and_ids(self):
        net, bus, p0, p1 = build_simple()
        eid = net.edge_id(p0, bus)
        assert net.edge_endpoints(eid) == Edge(p0, bus)
        assert net.has_edge(bus, p1)
        assert not net.has_edge(p0, p1)
        with pytest.raises(InvalidEdgeError):
            net.edge_id(p0, p1)

    def test_neighbors_and_degree(self):
        net, bus, p0, p1 = build_simple()
        assert set(net.neighbors(bus)) == {p0, p1}
        assert net.degree(bus) == 2
        assert net.degree(p0) == 1
        assert net.max_degree() == 2

    def test_bandwidth_lookup(self):
        net, bus, p0, _ = build_simple()
        assert net.edge_bandwidth(p0, bus) == 1.0
        assert net.edge_bandwidth(net.edge_id(p0, bus)) == 1.0
        with pytest.raises(InvalidNodeError):
            net.bus_bandwidth(p0)

    def test_contains_iter_len(self):
        net, *_ = build_simple()
        assert 0 in net and 2 in net and 7 not in net
        assert len(net) == 3
        assert list(iter(net)) == [0, 1, 2]

    def test_invalid_node_errors(self):
        net, *_ = build_simple()
        with pytest.raises(InvalidNodeError):
            net.is_bus(17)
        with pytest.raises(InvalidNodeError):
            net.neighbors(-1)

    def test_kind(self):
        net, bus, p0, _ = build_simple()
        assert net.kind(bus) is NodeKind.BUS
        assert net.kind(p0) is NodeKind.PROCESSOR

    def test_equality_and_hash(self):
        net1, *_ = build_simple()
        net2, *_ = build_simple()
        assert net1 == net2
        assert hash(net1) == hash(net2)

    def test_bandwidth_arrays_readonly(self):
        net, *_ = build_simple()
        with pytest.raises(ValueError):
            net.edge_bandwidths[0] = 9.0
        with pytest.raises(ValueError):
            net.bus_bandwidths[0] = 9.0


class TestRootedCache:
    def test_canonical_root_is_bus(self):
        net, bus, *_ = build_simple()
        assert net.canonical_root() == bus

    def test_rooted_view_cached(self):
        net, bus, *_ = build_simple()
        assert net.rooted(bus) is net.rooted(bus)

    def test_height(self):
        net, *_ = build_simple()
        assert net.height() == 1

    def test_edge_bandwidth_sequence_constructor(self):
        specs = [BusSpec("b"), ProcessorSpec("p0"), ProcessorSpec("p1")]
        edges = [(0, 1), (0, 2)]
        net = HierarchicalBusNetwork(specs, edges, edge_bandwidths=[2.0, 3.0])
        assert net.edge_bandwidth(0, 1) == 2.0
        assert net.edge_bandwidth(0, 2) == 3.0
        with pytest.raises(BandwidthError):
            HierarchicalBusNetwork(specs, edges, edge_bandwidths=[2.0])


class TestArrayStorage:
    """The network is stored as read-only arrays; views derive from them."""

    def test_storage_arrays(self):
        net, bus, p0, p1 = build_simple()
        assert net.kinds.tolist() == [int(NodeKind.BUS), 0, 0]
        assert net.edge_u.tolist() == [0, 0] and net.edge_v.tolist() == [1, 2]
        assert net.bus_mask.tolist() == [True, False, False]
        indptr, neighbours, edge_ids = net.adjacency
        assert indptr.tolist() == [0, 2, 3, 4]
        assert neighbours.tolist() == [p0, p1, bus, bus]
        assert edge_ids.tolist() == [0, 1, 0, 1]
        assert net.names == ("bus", "p0", "p1")
        for arr in (net.kinds, net.edge_u, net.edge_v, net.bus_mask, *net.adjacency):
            assert not arr.flags.writeable

    def test_incident_edges_ascending_and_neighbours_sorted(self):
        specs = [BusSpec("b"), ProcessorSpec(), BusSpec("c"), ProcessorSpec(), ProcessorSpec()]
        edges = [(2, 4), (0, 2), (0, 1), (3, 2)]
        net = HierarchicalBusNetwork(specs, edges)
        assert net.incident_edge_ids(2) == (0, 1, 3)
        assert net.neighbors(2) == (0, 3, 4)
        assert [net.edge_id(2, v) for v in (4, 0, 3)] == [0, 1, 3]
        assert net.edge_endpoints(-1) == Edge(2, 3)
        with pytest.raises(InvalidEdgeError):
            net.edge_endpoints(4)
        with pytest.raises(InvalidEdgeError):
            net.edge_id(2, 9)
        assert not net.has_edge(2, 9)

    def test_from_arrays_round_trip(self):
        net, *_ = build_simple()
        args = (net.kinds, net.names, net.bus_bandwidths, net.edge_u, net.edge_v,
                net.edge_bandwidths)
        copy = HierarchicalBusNetwork.from_arrays(*args)
        assert copy == net and copy.names == net.names
        all_buses = HierarchicalBusNetwork.from_arrays([int(NodeKind.BUS)] * 3, *args[1:])
        with pytest.raises(TopologyError):
            all_buses.validate()

    def test_with_bandwidths_checks_shape_and_sign(self):
        net, *_ = build_simple()
        new = net.with_bandwidths(edge_bandwidths=[2.0, 3.0])
        assert new.edge_bandwidth(1) == 3.0 and new.edge_u is net.edge_u
        assert net.edge_bandwidth(1) == 1.0
        with pytest.raises(BandwidthError):
            net.with_bandwidths(edge_bandwidths=[2.0])
        with pytest.raises(BandwidthError):
            net.with_bandwidths(bus_bandwidths=[1.0, 0.0, 1.0])

    def test_mapping_bandwidths(self):
        specs = [BusSpec("b"), ProcessorSpec("p0"), ProcessorSpec("p1")]
        net = HierarchicalBusNetwork(specs, [(0, 1), (2, 0)], edge_bandwidths={(2, 0): 5.0})
        assert net.edge_bandwidths.tolist() == [1.0, 5.0]
        with pytest.raises(InvalidEdgeError):
            HierarchicalBusNetwork(specs, [(0, 1), (0, 2)], edge_bandwidths={(1, 2): 5.0})

    def test_unknown_edge_node_rejected(self):
        specs = [BusSpec("b"), ProcessorSpec("p0"), ProcessorSpec("p1")]
        with pytest.raises(InvalidNodeError):
            HierarchicalBusNetwork(specs, [(0, 1), (0, 7)])
        with pytest.raises(InvalidEdgeError):
            HierarchicalBusNetwork(specs, [(0, 1), (2, 2)])
