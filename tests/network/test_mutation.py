"""Tests for the topology-mutation engine (network/mutation.py)."""

import numpy as np
import pytest

from repro.errors import BandwidthError, InvalidEdgeError, MutationError, ReproError
from repro.network.builders import balanced_tree, single_bus, star_of_buses
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    DetachLeaf,
    SetBusBandwidth,
    SetEdgeBandwidth,
    SplitBus,
    TimedMutation,
    apply_mutation,
    apply_mutations,
)
from repro.workload.churn import (
    bandwidth_degradation,
    flash_crowd_attach,
    mutation_storm,
    rolling_maintenance_detach,
)


class TestBandwidthMutations:
    def test_set_edge_bandwidth(self):
        net = single_bus(3)
        e = net.edges[1]
        out = apply_mutation(net, SetEdgeBandwidth(e.u, e.v, 4.0))
        assert not out.structural
        assert out.network.edge_bandwidth(e.u, e.v) == 4.0
        assert out.network.n_nodes == net.n_nodes
        assert np.array_equal(out.node_map, np.arange(net.n_nodes))
        # untouched edges keep their bandwidths
        other = net.edges[0]
        assert out.network.edge_bandwidth(other.u, other.v) == net.edge_bandwidth(
            other.u, other.v
        )

    def test_set_bus_bandwidth(self):
        net = star_of_buses(2, 2)
        out = apply_mutation(net, SetBusBandwidth(0, 3.0))
        assert out.network.bus_bandwidth(0) == 3.0
        assert out.changed_bus == 0

    def test_invalid_bandwidths_rejected(self):
        net = single_bus(3)
        e = net.edges[0]
        with pytest.raises(BandwidthError):
            apply_mutation(net, SetEdgeBandwidth(e.u, e.v, 0.0))
        with pytest.raises(BandwidthError):
            apply_mutation(net, SetBusBandwidth(0, -1.0))

    def test_set_bus_bandwidth_on_processor_rejected(self):
        net = single_bus(3)
        proc = net.processors[0]
        with pytest.raises(MutationError):
            apply_mutation(net, SetBusBandwidth(proc, 2.0))


class TestAttachLeaf:
    def test_ids_are_appended(self):
        net = single_bus(3)
        out = apply_mutation(net, AttachLeaf(0, name="newbie"))
        new = out.network
        assert out.new_node == net.n_nodes
        assert out.new_edge == net.n_edges
        assert new.n_processors == net.n_processors + 1
        assert new.is_processor(out.new_node)
        assert new.name(out.new_node) == "newbie"
        assert new.edge_bandwidth(0, out.new_node) == 1.0
        # existing ids are untouched
        assert np.array_equal(out.node_map, np.arange(net.n_nodes))
        assert np.array_equal(out.edge_map, np.arange(net.n_edges))

    def test_attach_to_processor_rejected(self):
        net = single_bus(3)
        with pytest.raises(MutationError):
            apply_mutation(net, AttachLeaf(net.processors[0]))


class TestDetachLeaf:
    def test_renumbering(self):
        net = single_bus(4)
        victim = net.processors[1]
        out = apply_mutation(net, DetachLeaf(victim))
        new = out.network
        assert new.n_processors == 3
        assert out.node_map[victim] == -1
        assert out.edge_map[out.removed_edge] == -1
        # ids above the removed ones shift down by exactly one
        for v in range(victim + 1, net.n_nodes):
            assert out.node_map[v] == v - 1
        names_old = [net.name(v) for v in range(net.n_nodes) if v != victim]
        names_new = [new.name(v) for v in range(new.n_nodes)]
        assert names_old == names_new

    def test_mapped_edge_loads_drop_removed(self):
        net = single_bus(4)
        victim = net.processors[0]
        out = apply_mutation(net, DetachLeaf(victim))
        loads = np.arange(1, net.n_edges + 1, dtype=float)
        mapped = out.mapped_edge_loads(loads)
        keep = out.edge_map >= 0
        assert np.array_equal(mapped, loads[keep])

    def test_cannot_orphan_a_bus(self):
        # path star: child buses have exactly leaves_per_bus + 1 neighbours
        net = star_of_buses(2, 1)
        proc = net.processors[0]
        with pytest.raises(MutationError):
            apply_mutation(net, DetachLeaf(proc))

    def test_cannot_detach_bus(self):
        net = single_bus(3)
        with pytest.raises(MutationError):
            apply_mutation(net, DetachLeaf(0))


class TestSplitBus:
    def test_moved_edges_keep_ids_and_bandwidths(self):
        net = single_bus(5)
        rooted = net.rooted()
        moved = rooted.children(0)[:2]
        out = apply_mutation(net, SplitBus(0, moved, bus_bandwidth=2.0))
        new = out.network
        assert new.n_buses == net.n_buses + 1
        assert new.bus_bandwidth(out.new_node) == 2.0
        for m, eid in zip(out.moved_nodes, out.moved_edge_ids):
            endpoints = new.edge_endpoints(eid)
            assert set(endpoints) == {m, out.new_node}
            assert new.edge_bandwidth(eid) == net.edge_bandwidth(eid)
        assert new.has_edge(0, out.new_node)
        # tree validity: moved leaves are now two hops from the old bus
        assert new.rooted().distance(out.moved_nodes[0], 0) == 2

    def test_cannot_move_parent_or_everything(self):
        net = star_of_buses(2, 2)
        rooted = net.rooted()
        child_bus = [b for b in net.buses if b != 0][0]
        parent = rooted.parent(child_bus)
        with pytest.raises(MutationError):
            apply_mutation(net, SplitBus(child_bus, (parent,)))
        with pytest.raises(MutationError):
            apply_mutation(net, SplitBus(0, ()))

    def test_moved_must_be_neighbours(self):
        net = star_of_buses(2, 2)
        with pytest.raises(MutationError):
            apply_mutation(net, SplitBus(0, (net.processors[0],)))


class TestChurnTrace:
    def test_sorted_and_stable(self):
        net = single_bus(3)
        trace = ChurnTrace(
            [
                (5, AttachLeaf(0, name="b")),
                (2, SetBusBandwidth(0, 2.0)),
                (5, AttachLeaf(0, name="a")),
            ]
        )
        assert [ev.time for ev in trace] == [2, 5, 5]
        # ties keep the given order
        assert trace[1].mutation.name == "b"
        assert trace[2].mutation.name == "a"
        assert trace.attach_count() == 2
        assert trace.max_time == 5

    def test_negative_time_rejected(self):
        with pytest.raises(MutationError):
            TimedMutation(-1, SetBusBandwidth(0, 1.0))

    def test_concatenated(self):
        a = ChurnTrace([(1, SetBusBandwidth(0, 2.0))])
        b = ChurnTrace([(0, SetBusBandwidth(0, 3.0))])
        merged = a.concatenated_with(b)
        assert [ev.time for ev in merged] == [0, 1]


class TestChurnGenerators:
    """The workload-side churn generators produce valid, seeded traces."""

    @pytest.fixture
    def net(self):
        return balanced_tree(2, 3, 2)

    def test_flash_crowd_attach(self, net):
        trace = flash_crowd_attach(net, n_new_leaves=5, time=7, seed=0)
        assert len(trace) == 5
        assert all(isinstance(ev.mutation, AttachLeaf) for ev in trace)
        assert all(ev.time == 7 for ev in trace)
        final, _ = apply_mutations(net, trace.mutations)
        assert final.n_processors == net.n_processors + 5

    def test_rolling_maintenance_detach_valid_chain(self, net):
        trace = rolling_maintenance_detach(net, n_detach=4, spacing=3, seed=1)
        assert 1 <= len(trace) <= 4
        final, _ = apply_mutations(net, trace.mutations)
        final.validate()
        assert final.n_processors == net.n_processors - len(trace)

    def test_bandwidth_degradation_chain(self, net):
        trace = bandwidth_degradation(net, n_steps=6, factor=0.5, floor=0.25, seed=2)
        final, _ = apply_mutations(net, trace.mutations)
        final.validate()
        assert float(np.asarray(final.edge_bandwidths).min()) >= 0.25

    def test_mutation_storm_applies_cleanly(self, net):
        trace = mutation_storm(net, n_mutations=12, seed=3)
        assert len(trace) == 12
        final, _ = apply_mutations(net, trace.mutations)
        final.validate()

    def test_generators_are_deterministic(self, net):
        a = mutation_storm(net, n_mutations=8, seed=9)
        b = mutation_storm(net, n_mutations=8, seed=9)
        assert a.mutations == b.mutations

    def test_reproerror_hierarchy(self):
        assert issubclass(MutationError, ReproError)


def _stored(net):
    """Every stored array of ``net``."""
    return [
        net.kinds, net.edge_u, net.edge_v, net.edge_bandwidths,
        net.bus_bandwidths, *net.adjacency,
    ]


def _storage(net):
    """Copies of every stored array and tuple of ``net``."""
    return [a.copy() for a in _stored(net)], net.names, net.edges


def _unchanged(net, storage):
    arrays, names, edges = storage
    return (
        net.names == names
        and net.edges == edges
        and all(np.array_equal(a, b) for a, b in zip(_stored(net), arrays))
    )


def _every_mutation_kind(net):
    rooted = net.rooted()
    bus = net.buses[-1]
    e = net.edges[0]
    return [
        SetEdgeBandwidth(e.u, e.v, 3.0),
        SetBusBandwidth(bus, 2.0),
        AttachLeaf(bus, name="new"),
        DetachLeaf(rooted.children(bus)[0]),
        SplitBus(bus, rooted.children(bus)[:2]),
    ]


class TestArraySurgery:
    """Mutations derive the new network's arrays; the old one never changes."""

    @pytest.fixture
    def net(self):
        return balanced_tree(2, 2, 3)

    def test_bandwidth_mutations_share_structure(self, net):
        e = net.edges[2]
        for mutation in (SetEdgeBandwidth(e.u, e.v, 3.0), SetBusBandwidth(0, 2.0)):
            new = apply_mutation(net, mutation).network
            assert new.kinds is net.kinds
            assert new.edge_u is net.edge_u
            assert new.edge_v is net.edge_v
            assert new.names is net.names
            assert all(a is b for a, b in zip(new.adjacency, net.adjacency))
        edge_only = apply_mutation(net, SetEdgeBandwidth(e.u, e.v, 3.0)).network
        assert edge_only.bus_bandwidths is net.bus_bandwidths
        assert edge_only.edge_bandwidths is not net.edge_bandwidths
        bus_only = apply_mutation(net, SetBusBandwidth(0, 2.0)).network
        assert bus_only.edge_bandwidths is net.edge_bandwidths
        assert bus_only.bus_bandwidths is not net.bus_bandwidths
        # each network keeps its own rooted-view cache
        assert bus_only.rooted() is not net.rooted()

    def test_old_network_unchanged_by_every_kind(self, net):
        storage = _storage(net)
        for mutation in _every_mutation_kind(net):
            apply_mutation(net, mutation)
            assert _unchanged(net, storage), mutation

    def test_stored_arrays_are_read_only(self, net):
        for mutation in _every_mutation_kind(net):
            new = apply_mutation(net, mutation).network
            for arr in _stored(new) + [new.bus_mask]:
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = arr[0]

    @pytest.mark.parametrize(
        "make, mutation, error",
        [
            (lambda: single_bus(3), lambda n: SetEdgeBandwidth(1, 2, 2.0),
             InvalidEdgeError),
            (lambda: single_bus(3), lambda n: SetEdgeBandwidth(0, 1, 0.0), BandwidthError),
            (lambda: single_bus(3), lambda n: SetBusBandwidth(0, -1.0), BandwidthError),
            (lambda: single_bus(3), lambda n: SetBusBandwidth(1, 2.0), MutationError),
            (lambda: single_bus(3), lambda n: AttachLeaf(1), MutationError),
            (lambda: single_bus(3), lambda n: AttachLeaf(0, bandwidth=0.0), BandwidthError),
            (lambda: single_bus(3), lambda n: DetachLeaf(0), MutationError),
            (lambda: single_bus(2), lambda n: DetachLeaf(1), MutationError),
            (lambda: star_of_buses(2, 1), lambda n: DetachLeaf(n.processors[0]),
             MutationError),
            (lambda: star_of_buses(2, 2), lambda n: SplitBus(0, ()), MutationError),
            (lambda: star_of_buses(2, 2), lambda n: SplitBus(n.processors[0], (0,)),
             MutationError),
            (lambda: star_of_buses(2, 2), lambda n: SplitBus(0, (n.processors[0],)),
             MutationError),
            (lambda: star_of_buses(2, 2),
             lambda n: SplitBus(n.buses[1], (n.rooted().parent(n.buses[1]),)),
             MutationError),
            (lambda: single_bus(3), lambda n: SplitBus(0, (1, 2, 3)), MutationError),
            (lambda: single_bus(3), lambda n: SplitBus(0, (1,), bus_bandwidth=0.0),
             BandwidthError),
        ],
    )
    def test_invalid_mutations_raise_and_leave_network(self, make, mutation, error):
        net = make()
        storage = _storage(net)
        with pytest.raises(error):
            apply_mutation(net, mutation(net))
        assert _unchanged(net, storage)
