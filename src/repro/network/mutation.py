"""Topology mutations on hierarchical bus networks.

The paper treats the bus network as fixed: every evaluation structure --
rooted views, the path-incidence matrix, the incremental load state -- is
derived once per network object.  Production bus fabrics churn: switches
get reprovisioned, processors join and leave, overloaded buses are split.
This module defines the *closed set* of mutations the rest of the system
understands, so every layer, the network included, can repair itself
incrementally instead of being rebuilt from scratch:

* :class:`SetEdgeBandwidth` / :class:`SetBusBandwidth` -- bandwidth
  reconfiguration; no structural change.  The new network shares every
  structural array with the old one and copies the one bandwidth array
  it changes; substrate repair is a pure relative-load denominator update.
* :class:`AttachLeaf` -- a new processor joins a bus (node and switch edge
  ids are *appended*, so existing ids are stable).
* :class:`DetachLeaf` -- a processor leaves; the remaining node and edge
  ids shift down by one past the removed ids (the same dense numbering a
  from-scratch construction would produce).  :attr:`MutationOutcome.node_map`
  / :attr:`MutationOutcome.edge_map` record the renumbering.
* :class:`SplitBus` -- a new bus is inserted below an existing one and a
  subset of its non-parent neighbours move under it.  The moved switch
  edges keep their ids and bandwidths (they are re-targeted, not
  recreated); one new trunk edge is appended.

:func:`apply_mutation` is *functional*: it returns a new
:class:`~repro.network.tree.HierarchicalBusNetwork` plus a
:class:`MutationOutcome` describing exactly what moved, which is what the
``repair`` paths of :class:`~repro.network.rooted.RootedTree`,
:class:`~repro.core.pathmatrix.PathMatrix` and
:class:`~repro.core.loadstate.LoadState` consume.  The new network is
built by array surgery on the old one's storage arrays, matching the
outcome's node and edge maps; it is not re-validated as a whole.  Each
mutation checks only the nodes it touches, and the closed set keeps a
valid tree a valid tree by construction, so the mutated network equals
a validated from-scratch build of the same tree (pinned by
``tests/properties/test_churn_differential.py``).  :class:`ChurnTrace`
packages a seeded sequence of timed mutations so request replay and
topology churn can be interleaved deterministically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.errors import BandwidthError, MutationError
from repro.network.node import NodeKind
from repro.network.tree import HierarchicalBusNetwork

__all__ = [
    "Mutation",
    "SetEdgeBandwidth",
    "SetBusBandwidth",
    "AttachLeaf",
    "DetachLeaf",
    "SplitBus",
    "MutationOutcome",
    "apply_mutation",
    "apply_mutations",
    "TimedMutation",
    "ChurnTrace",
]


# --------------------------------------------------------------------------- #
# the closed mutation set
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class Mutation:
    """Base class of the closed set of topology mutations."""

    @property
    def structural(self) -> bool:
        """True iff the mutation changes nodes or edges (not just bandwidths)."""
        return True


@dataclass(frozen=True)
class SetEdgeBandwidth(Mutation):
    """Set the bandwidth of the switch edge ``{u, v}``."""

    u: int
    v: int
    bandwidth: float

    @property
    def structural(self) -> bool:
        return False


@dataclass(frozen=True)
class SetBusBandwidth(Mutation):
    """Set the bandwidth of bus ``bus``."""

    bus: int
    bandwidth: float

    @property
    def structural(self) -> bool:
        return False


@dataclass(frozen=True)
class AttachLeaf(Mutation):
    """Attach a new processor to ``bus`` (switch edge bandwidth defaults to 1)."""

    bus: int
    name: Optional[str] = None
    bandwidth: float = 1.0


@dataclass(frozen=True)
class DetachLeaf(Mutation):
    """Detach the processor ``processor`` (and its switch edge)."""

    processor: int


@dataclass(frozen=True)
class SplitBus(Mutation):
    """Insert a new bus below ``bus`` and move ``moved`` neighbours under it.

    ``moved`` must be a non-empty subset of ``bus``'s neighbours that does
    not contain the canonical-rooted parent of ``bus`` (the hierarchy above
    the split point is preserved) and must leave ``bus`` with degree at
    least two.  Moved switch edges keep their edge ids and bandwidths; one
    new trunk edge ``{bus, new_bus}`` is appended.
    """

    bus: int
    moved: Tuple[int, ...]
    name: Optional[str] = None
    bus_bandwidth: float = 1.0
    trunk_bandwidth: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "moved", tuple(sorted(int(m) for m in self.moved)))


# --------------------------------------------------------------------------- #
# outcomes
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class MutationOutcome:
    """What one applied mutation did, in substrate-repair terms.

    ``node_map`` / ``edge_map`` map every *old* node/edge id to its id in
    :attr:`network` (``-1`` for removed ids).  For non-structural mutations
    both maps are identities.  The remaining fields describe the touched
    region; repair paths read them instead of diffing the networks.
    """

    mutation: Mutation
    old_network: HierarchicalBusNetwork
    network: HierarchicalBusNetwork
    node_map: np.ndarray
    edge_map: np.ndarray
    new_node: Optional[int] = None
    new_edge: Optional[int] = None
    removed_node: Optional[int] = None
    removed_edge: Optional[int] = None
    touched_bus: Optional[int] = None
    moved_edge_ids: Tuple[int, ...] = field(default_factory=tuple)
    moved_nodes: Tuple[int, ...] = field(default_factory=tuple)
    changed_edge: Optional[int] = None
    changed_bus: Optional[int] = None

    @property
    def structural(self) -> bool:
        """True iff nodes/edges changed (bandwidth-only mutations are False)."""
        return self.mutation.structural

    def map_nodes(self, nodes: np.ndarray) -> np.ndarray:
        """Map an array of old node ids to new ids (``-1`` for removed)."""
        return self.node_map[np.asarray(nodes, dtype=np.int64)]

    def map_edges(self, edges: np.ndarray) -> np.ndarray:
        """Map an array of old edge ids to new ids (``-1`` for removed)."""
        return self.edge_map[np.asarray(edges, dtype=np.int64)]

    def mapped_edge_loads(self, old_edge_loads: np.ndarray) -> np.ndarray:
        """Carry a per-edge load vector over to the new edge numbering.

        Loads of removed edges are dropped, new edges start at zero.  This
        is the canonical "rebuild" input: a fresh
        :class:`~repro.core.loadstate.LoadState` charged with this vector
        must equal the incrementally repaired one bit-for-bit.
        """
        old = np.asarray(old_edge_loads, dtype=np.float64)
        if old.shape != (self.old_network.n_edges,):
            raise MutationError("edge-load vector does not match the old network")
        out = np.zeros(self.network.n_edges, dtype=np.float64)
        keep = self.edge_map >= 0
        out[self.edge_map[keep]] = old[keep]
        return out


def _identity_maps(network: HierarchicalBusNetwork) -> Tuple[np.ndarray, np.ndarray]:
    return (
        np.arange(network.n_nodes, dtype=np.int64),
        np.arange(network.n_edges, dtype=np.int64),
    )


# --------------------------------------------------------------------------- #
# application
# --------------------------------------------------------------------------- #
def apply_mutation(
    network: HierarchicalBusNetwork, mutation: Mutation
) -> MutationOutcome:
    """Apply one mutation functionally; returns the outcome with the new network.

    Raises :class:`~repro.errors.MutationError` when the mutation is invalid
    for the network (unknown ids, wrong node kinds, or a result that would
    violate the hierarchical-bus-network model).
    """
    if isinstance(mutation, SetEdgeBandwidth):
        return _apply_set_edge_bandwidth(network, mutation)
    if isinstance(mutation, SetBusBandwidth):
        return _apply_set_bus_bandwidth(network, mutation)
    if isinstance(mutation, AttachLeaf):
        return _apply_attach_leaf(network, mutation)
    if isinstance(mutation, DetachLeaf):
        return _apply_detach_leaf(network, mutation)
    if isinstance(mutation, SplitBus):
        return _apply_split_bus(network, mutation)
    raise MutationError(f"unknown mutation type {type(mutation).__name__}")


def apply_mutations(
    network: HierarchicalBusNetwork, mutations: Iterable[Mutation]
) -> Tuple[HierarchicalBusNetwork, List[MutationOutcome]]:
    """Apply a sequence of mutations; returns the final network and outcomes."""
    outcomes: List[MutationOutcome] = []
    for mutation in mutations:
        outcome = apply_mutation(network, mutation)
        outcomes.append(outcome)
        network = outcome.network
    return network, outcomes


def _apply_set_edge_bandwidth(
    network: HierarchicalBusNetwork, mutation: SetEdgeBandwidth
) -> MutationOutcome:
    if mutation.bandwidth <= 0:
        raise BandwidthError(
            f"edge bandwidth must be positive, got {mutation.bandwidth}"
        )
    eid = network.edge_id(mutation.u, mutation.v)  # raises for unknown edges
    bandwidths = network.edge_bandwidths.copy()
    bandwidths[eid] = float(mutation.bandwidth)
    node_map, edge_map = _identity_maps(network)
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=network.with_bandwidths(edge_bandwidths=bandwidths),
        node_map=node_map,
        edge_map=edge_map,
        changed_edge=eid,
    )


def _apply_set_bus_bandwidth(
    network: HierarchicalBusNetwork, mutation: SetBusBandwidth
) -> MutationOutcome:
    if mutation.bandwidth <= 0:
        raise BandwidthError(
            f"bus bandwidth must be positive, got {mutation.bandwidth}"
        )
    bus = int(mutation.bus)
    if bus not in network or not network.is_bus(bus):
        raise MutationError(f"node {bus} is not a bus of the network")
    bandwidths = network.bus_bandwidths.copy()
    bandwidths[bus] = float(mutation.bandwidth)
    node_map, edge_map = _identity_maps(network)
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=network.with_bandwidths(bus_bandwidths=bandwidths),
        node_map=node_map,
        edge_map=edge_map,
        changed_bus=bus,
    )


def _apply_attach_leaf(
    network: HierarchicalBusNetwork, mutation: AttachLeaf
) -> MutationOutcome:
    if mutation.bandwidth <= 0:
        raise BandwidthError(
            f"edge bandwidth must be positive, got {mutation.bandwidth}"
        )
    bus = int(mutation.bus)
    if bus not in network or not network.is_bus(bus):
        raise MutationError(f"cannot attach a leaf to non-bus node {bus}")
    new_node = network.n_nodes
    new_edge = network.n_edges
    # the new leaf and its switch edge take the next ids: (bus, new_node)
    # is canonical because new_node is the largest id
    new = HierarchicalBusNetwork.from_arrays(
        np.append(network.kinds, np.int8(NodeKind.PROCESSOR)),
        network.names + (mutation.name or f"p{new_node}",),
        np.append(network.bus_bandwidths, 1.0),
        np.append(network.edge_u, bus),
        np.append(network.edge_v, new_node),
        np.append(network.edge_bandwidths, float(mutation.bandwidth)),
    )
    node_map, edge_map = _identity_maps(network)
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=new,
        node_map=node_map,
        edge_map=edge_map,
        new_node=new_node,
        new_edge=new_edge,
        touched_bus=bus,
    )


def _apply_detach_leaf(
    network: HierarchicalBusNetwork, mutation: DetachLeaf
) -> MutationOutcome:
    proc = int(mutation.processor)
    if proc not in network or not network.is_processor(proc):
        raise MutationError(f"node {proc} is not a processor of the network")
    if network.n_processors <= 2:
        raise MutationError("cannot detach: a network needs at least two processors")
    (bus,) = network.neighbors(proc)
    if network.degree(bus) <= 2:
        raise MutationError(
            f"cannot detach processor {proc}: bus {bus} would become a leaf"
        )
    removed_edge = network.edge_id(proc, bus)

    node_map = np.arange(network.n_nodes, dtype=np.int64)
    node_map[proc] = -1
    node_map[proc + 1 :] -= 1
    edge_map = np.arange(network.n_edges, dtype=np.int64)
    edge_map[removed_edge] = -1
    edge_map[removed_edge + 1 :] -= 1

    # ids past the removed ones shift down by one; the shift is monotone,
    # so every remaining edge stays canonical
    edge_u = np.delete(network.edge_u, removed_edge)
    edge_v = np.delete(network.edge_v, removed_edge)
    edge_u -= edge_u > proc
    edge_v -= edge_v > proc
    names = network.names
    new = HierarchicalBusNetwork.from_arrays(
        np.delete(network.kinds, proc),
        names[:proc] + names[proc + 1 :],
        np.delete(network.bus_bandwidths, proc),
        edge_u,
        edge_v,
        np.delete(network.edge_bandwidths, removed_edge),
    )
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=new,
        node_map=node_map,
        edge_map=edge_map,
        removed_node=proc,
        removed_edge=removed_edge,
        touched_bus=bus,
    )


def _side_holding(
    network: HierarchicalBusNetwork, bus: int, moved: Tuple[int, ...], target: int
) -> Optional[int]:
    """The node of ``moved`` whose side of ``bus`` holds ``target``, if any.

    With ``target`` the canonical root that node is ``bus``'s canonical
    parent.  Searches only the subtrees hanging off ``bus`` through
    ``moved`` -- the region the split touches -- instead of rooting the
    whole network.
    """
    indptr, across, _edge_ids = network.adjacency
    for m in moved:
        seen = {bus, m}
        stack = [m]
        while stack:
            u = stack.pop()
            if u == target:
                return m
            for v in across[indptr[u] : indptr[u + 1]].tolist():
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
    return None


def _apply_split_bus(
    network: HierarchicalBusNetwork, mutation: SplitBus
) -> MutationOutcome:
    if mutation.bus_bandwidth <= 0 or mutation.trunk_bandwidth <= 0:
        raise BandwidthError("split bandwidths must be positive")
    bus = int(mutation.bus)
    if bus not in network or not network.is_bus(bus):
        raise MutationError(f"cannot split non-bus node {bus}")
    moved = mutation.moved
    if not moved:
        raise MutationError("split_bus needs at least one moved neighbour")
    neighbours = set(network.neighbors(bus))
    bad = [m for m in moved if m not in neighbours]
    if bad:
        raise MutationError(f"moved nodes {bad} are not neighbours of bus {bus}")
    if len(set(moved)) != len(moved):
        raise MutationError("moved neighbours must be distinct")
    parent = _side_holding(network, bus, moved, network.canonical_root())
    if parent is not None:
        raise MutationError(
            f"cannot move the parent {parent} of bus {bus} under the new bus"
        )
    if network.degree(bus) - len(moved) + 1 < 2:
        raise MutationError(f"split would leave bus {bus} with degree < 2")

    new_node = network.n_nodes
    new_edge = network.n_edges
    moved_edge_ids = tuple(network.edge_id(bus, m) for m in moved)
    # moved switch edges keep their ids and are re-targeted to the new bus
    # (the largest id, so (m, new_node) is canonical); the trunk is appended
    mids = np.asarray(moved_edge_ids, dtype=np.int64)
    edge_u = np.append(network.edge_u, bus)
    edge_v = np.append(network.edge_v, new_node)
    edge_u[mids] = moved
    edge_v[mids] = new_node
    new = HierarchicalBusNetwork.from_arrays(
        np.append(network.kinds, np.int8(NodeKind.BUS)),
        network.names + (mutation.name or f"b{new_node}",),
        np.append(network.bus_bandwidths, float(mutation.bus_bandwidth)),
        edge_u,
        edge_v,
        np.append(network.edge_bandwidths, float(mutation.trunk_bandwidth)),
    )
    node_map, edge_map = _identity_maps(network)
    return MutationOutcome(
        mutation=mutation,
        old_network=network,
        network=new,
        node_map=node_map,
        edge_map=edge_map,
        new_node=new_node,
        new_edge=new_edge,
        touched_bus=bus,
        moved_edge_ids=moved_edge_ids,
        moved_nodes=moved,
    )


# --------------------------------------------------------------------------- #
# churn traces
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class TimedMutation:
    """A mutation scheduled before serving request-event index ``time``."""

    time: int
    mutation: Mutation

    def __post_init__(self) -> None:
        if self.time < 0:
            raise MutationError(f"mutation time must be >= 0, got {self.time}")


class ChurnTrace:
    """An ordered sequence of timed mutations, interleavable with requests.

    ``time`` is an index into a request sequence: all mutations with
    ``time == t`` are applied *before* the request event at position ``t``
    is served (ties keep the given order).  Traces are value objects; the
    churn generators in :mod:`repro.workload.churn` build them
    deterministically from a seed.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Iterable[Union[TimedMutation, Tuple[int, Mutation]]]):
        normalized: List[TimedMutation] = []
        for ev in events:
            if isinstance(ev, TimedMutation):
                normalized.append(ev)
            else:
                time, mutation = ev
                normalized.append(TimedMutation(int(time), mutation))
        normalized.sort(key=lambda ev: ev.time)  # stable: preserves tie order
        self._events: Tuple[TimedMutation, ...] = tuple(normalized)

    @property
    def events(self) -> Tuple[TimedMutation, ...]:
        """All timed mutations, sorted by time (stable)."""
        return self._events

    @property
    def mutations(self) -> Tuple[Mutation, ...]:
        """The bare mutations in application order."""
        return tuple(ev.mutation for ev in self._events)

    @property
    def max_time(self) -> int:
        """Largest scheduled time (``-1`` for an empty trace)."""
        return self._events[-1].time if self._events else -1

    def attach_count(self) -> int:
        """Number of :class:`AttachLeaf` mutations in the trace."""
        return sum(1 for ev in self._events if isinstance(ev.mutation, AttachLeaf))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self):
        return iter(self._events)

    def __getitem__(self, index: int) -> TimedMutation:
        return self._events[index]

    def concatenated_with(self, other: "ChurnTrace") -> "ChurnTrace":
        """Merge two traces (events re-sorted by time, stable)."""
        return ChurnTrace(self._events + other.events)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"ChurnTrace(n_mutations={len(self._events)}, max_time={self.max_time})"
