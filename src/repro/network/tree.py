"""The hierarchical bus network data structure.

A hierarchical bus network (Section 1.1 of the paper) is a weighted tree
``T = (P ∪ B, E, b)``:

* the leaves ``P`` are processors and are the only nodes that may store
  copies of shared data objects and that issue read/write requests,
* the inner nodes ``B`` are buses and can neither store copies nor issue
  requests,
* edges model switches; the function ``b`` assigns bandwidths to edges and
  buses.  The paper assumes processor switches (edges incident to a leaf)
  are the slowest part of the system and have bandwidth one, all other
  bandwidths are at least one.

:class:`HierarchicalBusNetwork` is an immutable, array-backed representation
of such a tree with dense integer node ids.  Use :class:`NetworkBuilder` to
construct instances incrementally, or the ready-made topologies in
:mod:`repro.network.builders`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import (
    BandwidthError,
    InvalidEdgeError,
    InvalidNodeError,
    NotATreeError,
    TopologyError,
)
from repro.network.node import BusSpec, NodeKind, NodeSpec, ProcessorSpec

__all__ = ["Edge", "HierarchicalBusNetwork", "NetworkBuilder"]

_PROCESSOR = int(NodeKind.PROCESSOR)
_BUS = int(NodeKind.BUS)
#: Dtype of the node- and edge-id arrays (``repro.core.kernels.INDEX_DTYPE``).
_INDEX = np.int32


class Edge(Tuple[int, int]):
    """Canonical (sorted) undirected edge ``(u, v)`` with ``u < v``."""

    __slots__ = ()

    def __new__(cls, u: int, v: int) -> "Edge":
        if u == v:
            raise InvalidEdgeError(f"self-loop edge ({u}, {v}) is not allowed")
        if u > v:
            u, v = v, u
        return super().__new__(cls, (u, v))

    @property
    def u(self) -> int:
        """Smaller endpoint."""
        return self[0]

    @property
    def v(self) -> int:
        """Larger endpoint."""
        return self[1]

    def other(self, node: int) -> int:
        """Return the endpoint different from ``node``."""
        if node == self[0]:
            return self[1]
        if node == self[1]:
            return self[0]
        raise InvalidEdgeError(f"node {node} is not an endpoint of {self}")


class HierarchicalBusNetwork:
    """Immutable weighted tree with processor leaves and bus inner nodes.

    Instances should normally be created through :class:`NetworkBuilder` or
    the topology factories in :mod:`repro.network.builders`; the constructor
    performs full validation of the hierarchical-bus-network model.

    The network is stored as parallel read-only arrays: node kinds and bus
    bandwidths (per node), canonical ``u < v`` edge endpoints and edge
    bandwidths (per edge), and the adjacency in CSR form (per node, its
    neighbours ascending and the id of the edge to each).  The
    ``Edge`` tuples and the processor / bus id tuples are built on first
    use.  Because no array is ever written after construction, the
    networks :func:`~repro.network.mutation.apply_mutation` derives share
    every array the mutation does not change.

    Parameters
    ----------
    specs:
        One :class:`~repro.network.node.NodeSpec` per node; the position in
        the sequence is the node id.
    edges:
        Iterable of ``(u, v)`` pairs (order irrelevant).
    edge_bandwidths:
        Optional mapping or sequence giving the bandwidth of each edge.  If a
        sequence is given it must be parallel to ``edges``.  Edges without an
        explicit bandwidth default to 1 (processor switch edges) for edges
        incident to a processor and to 1 for bus-bus edges as well.
    validate:
        If true (default), check that the graph is a tree, that leaves are
        exactly the processors, and that bandwidths are positive.
    """

    __slots__ = (
        "_kinds",
        "_names",
        "_bus_bandwidth",
        "_edge_u",
        "_edge_v",
        "_edge_bandwidth",
        "_adj_indptr",
        "_adj_nodes",
        "_adj_edges",
        "_bus_mask",
        "_edges",
        "_processors",
        "_buses",
        "_rooted_cache",
    )

    def __init__(
        self,
        specs: Sequence[NodeSpec],
        edges: Iterable[Tuple[int, int]],
        edge_bandwidths: Optional[object] = None,
        validate: bool = True,
    ) -> None:
        n = len(specs)
        if n == 0:
            raise TopologyError("a network must contain at least one node")
        kinds = np.fromiter((int(s.kind) for s in specs), dtype=np.int8, count=n)
        names = tuple(
            s.name if s.name is not None else ("b" if s.is_bus else "p") + str(i)
            for i, s in enumerate(specs)
        )
        bus_bandwidth = np.fromiter(
            (float(s.bandwidth) if s.is_bus else 1.0 for s in specs),
            dtype=np.float64,
            count=n,
        )
        edge_u, edge_v = _canonical_edges(edges, n)
        m = edge_u.shape[0]
        edge_bandwidth = np.ones(m, dtype=np.float64)
        if isinstance(edge_bandwidths, dict):
            index = {e: i for i, e in enumerate(zip(edge_u.tolist(), edge_v.tolist()))}
            for key, bw in edge_bandwidths.items():
                e = Edge(*key)
                if e not in index:
                    raise InvalidEdgeError(f"bandwidth given for unknown edge {e}")
                edge_bandwidth[index[e]] = float(bw)
        elif edge_bandwidths is not None:
            values = list(edge_bandwidths)
            if len(values) != m:
                raise BandwidthError(
                    "edge_bandwidths sequence must be parallel to edges: "
                    f"expected {m} values, got {len(values)}"
                )
            edge_bandwidth = np.asarray(values, dtype=np.float64)
        self._set_arrays(kinds, names, bus_bandwidth, edge_u, edge_v, edge_bandwidth)
        if validate:
            self.validate()

    def _set_arrays(self, kinds, names, bus_bandwidth, edge_u, edge_v, edge_bandwidth):
        """Freeze the stored arrays and derive the adjacency CSR from them."""
        self._kinds = _frozen(kinds)
        self._names = names
        self._bus_bandwidth = _frozen(bus_bandwidth)
        self._edge_u = _frozen(edge_u)
        self._edge_v = _frozen(edge_v)
        self._edge_bandwidth = _frozen(edge_bandwidth)
        n = kinds.shape[0]
        m = edge_u.shape[0]
        # both directions of every edge, sorted by (node, neighbour)
        ends = np.concatenate([edge_u, edge_v])
        across = np.concatenate([edge_v, edge_u])
        order = np.argsort(ends.astype(np.int64) * n + across)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(ends, minlength=n), out=indptr[1:])
        self._adj_indptr = _frozen(indptr)
        self._adj_nodes = _frozen(across[order])
        self._adj_edges = _frozen(np.tile(np.arange(m, dtype=_INDEX), 2)[order])
        self._bus_mask = None
        self._edges = None
        self._processors = None
        self._buses = None
        self._rooted_cache: Dict[int, object] = {}

    @classmethod
    def from_arrays(
        cls,
        kinds: np.ndarray,
        names: Sequence[str],
        bus_bandwidths: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_bandwidths: np.ndarray,
    ) -> "HierarchicalBusNetwork":
        """Build a network directly from its storage arrays, unvalidated.

        ``edge_u`` / ``edge_v`` must be canonical (``u < v``) and in range;
        the arrays are taken over (frozen), not copied.  The caller vouches
        for the model invariants -- the mutation layer, whose closed
        mutation set keeps a valid tree valid and checks the nodes each
        mutation touches; call :meth:`validate` on anything else.
        """
        net = object.__new__(cls)
        net._set_arrays(
            np.asarray(kinds, dtype=np.int8),
            tuple(names),
            np.asarray(bus_bandwidths, dtype=np.float64),
            np.asarray(edge_u, dtype=_INDEX),
            np.asarray(edge_v, dtype=_INDEX),
            np.asarray(edge_bandwidths, dtype=np.float64),
        )
        return net

    def with_bandwidths(
        self,
        edge_bandwidths: Optional[np.ndarray] = None,
        bus_bandwidths: Optional[np.ndarray] = None,
    ) -> "HierarchicalBusNetwork":
        """A copy with new bandwidth arrays, sharing every structural array.

        The given arrays are taken over (frozen), not copied.  Only their
        shape and positivity are checked: the structure is this network's.
        """
        new = object.__new__(type(self))
        for slot in self.__slots__:
            setattr(new, slot, getattr(self, slot))
        new._rooted_cache = {}
        for slot, arr, what in (
            ("_edge_bandwidth", edge_bandwidths, "edge"),
            ("_bus_bandwidth", bus_bandwidths, "bus"),
        ):
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=np.float64)
            if arr.shape != getattr(self, slot).shape:
                raise BandwidthError(f"{what} bandwidths must keep their shape")
            if np.any(arr <= 0):
                raise BandwidthError(f"all {what} bandwidths must be positive")
            setattr(new, slot, _frozen(arr))
        return new

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the hierarchical-bus-network invariants.

        Raises
        ------
        NotATreeError
            If the graph is disconnected or contains a cycle.
        TopologyError
            If a bus is a leaf or a processor is an inner node (except for
            the degenerate single-processor network), or the single node is
            a bus.
        BandwidthError
            If any bandwidth is not positive.
        """
        n = self.n_nodes
        m = self.n_edges
        if m != n - 1:
            raise NotATreeError(f"a tree on {n} nodes has {n - 1} edges, got {m}")
        # with n - 1 edges the graph is a tree iff it is connected
        ptr = self._adj_indptr.tolist()
        across = self._adj_nodes.tolist()
        seen = bytearray(n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            for v in across[ptr[u] : ptr[u + 1]]:
                if not seen[v]:
                    seen[v] = 1
                    count += 1
                    stack.append(v)
        if count != n:
            raise NotATreeError("the network graph is not connected")

        if n == 1:
            if self._kinds[0] != _PROCESSOR:
                raise TopologyError("a single-node network must be a processor")
        else:
            degree = np.diff(self._adj_indptr)
            is_processor = self._kinds == _PROCESSOR
            bad = np.flatnonzero(np.where(is_processor, degree != 1, degree < 2))
            if bad.size:
                v = int(bad[0])
                if is_processor[v]:
                    raise TopologyError(
                        f"processor {v} must be a leaf, has degree {degree[v]}"
                    )
                raise TopologyError(
                    f"bus {v} must be an inner node, has degree {degree[v]}"
                )
        if np.any(self._edge_bandwidth <= 0):
            raise BandwidthError("all edge bandwidths must be positive")
        if np.any(self._bus_bandwidth <= 0):
            raise BandwidthError("all bus bandwidths must be positive")

    # ------------------------------------------------------------------ #
    # storage arrays (read-only, shared across derived networks)
    # ------------------------------------------------------------------ #
    @property
    def kinds(self) -> np.ndarray:
        """Per-node :class:`~repro.network.node.NodeKind` values (int8)."""
        return self._kinds

    @property
    def edge_u(self) -> np.ndarray:
        """Smaller endpoint of every edge, by edge id (int32)."""
        return self._edge_u

    @property
    def edge_v(self) -> np.ndarray:
        """Larger endpoint of every edge, by edge id (int32)."""
        return self._edge_v

    @property
    def bus_mask(self) -> np.ndarray:
        """Boolean per-node mask of the buses."""
        if self._bus_mask is None:
            self._bus_mask = _frozen(self._kinds == _BUS)
        return self._bus_mask

    @property
    def adjacency(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Adjacency and incidence CSR ``(indptr, neighbours, edge_ids)``.

        ``neighbours[indptr[v]:indptr[v+1]]`` are the neighbours of ``v``
        in ascending id order and ``edge_ids`` the edge to each.
        """
        return self._adj_indptr, self._adj_nodes, self._adj_edges

    @property
    def names(self) -> Tuple[str, ...]:
        """All node names, by node id."""
        return self._names

    # ------------------------------------------------------------------ #
    # basic accessors
    # ------------------------------------------------------------------ #
    @property
    def n_nodes(self) -> int:
        """Total number of nodes ``|P ∪ B|``."""
        return int(self._kinds.shape[0])

    @property
    def n_edges(self) -> int:
        """Number of edges ``|E|`` (equals ``n_nodes - 1``)."""
        return int(self._edge_u.shape[0])

    @property
    def n_processors(self) -> int:
        """Number of processors ``|P|``."""
        return len(self.processors)

    @property
    def n_buses(self) -> int:
        """Number of buses ``|B|``."""
        return len(self.buses)

    @property
    def processors(self) -> Tuple[int, ...]:
        """Node ids of all processors (leaves), ascending."""
        if self._processors is None:
            self._processors = tuple(np.flatnonzero(~self.bus_mask).tolist())
        return self._processors

    @property
    def buses(self) -> Tuple[int, ...]:
        """Node ids of all buses (inner nodes), ascending."""
        if self._buses is None:
            self._buses = tuple(np.flatnonzero(self.bus_mask).tolist())
        return self._buses

    @property
    def edges(self) -> Tuple[Edge, ...]:
        """All edges in id order (the order used by edge-indexed arrays)."""
        if self._edges is None:
            new = tuple.__new__  # the endpoints are canonical already
            self._edges = tuple(
                new(Edge, pair)
                for pair in zip(self._edge_u.tolist(), self._edge_v.tolist())
            )
        return self._edges

    def nodes(self) -> range:
        """Iterate over all node ids."""
        return range(self.n_nodes)

    def is_processor(self, node: int) -> bool:
        """``True`` iff ``node`` is a processor (leaf)."""
        self._check_node(node)
        return self._kinds[node] == _PROCESSOR

    def is_bus(self, node: int) -> bool:
        """``True`` iff ``node`` is a bus (inner node)."""
        self._check_node(node)
        return self._kinds[node] == _BUS

    def kind(self, node: int) -> NodeKind:
        """Return the :class:`~repro.network.node.NodeKind` of ``node``."""
        self._check_node(node)
        return NodeKind(int(self._kinds[node]))

    def name(self, node: int) -> str:
        """Human readable name of ``node``."""
        self._check_node(node)
        return self._names[node]

    def node_by_name(self, name: str) -> int:
        """Return the id of the node with the given name.

        Raises :class:`~repro.errors.InvalidNodeError` if no node has that
        name.  Names are not required to be unique; the smallest matching id
        is returned.
        """
        try:
            return self._names.index(name)
        except ValueError:
            raise InvalidNodeError(f"no node named {name!r}") from None

    def _row(self, node: int) -> slice:
        return slice(int(self._adj_indptr[node]), int(self._adj_indptr[node + 1]))

    def neighbors(self, node: int) -> Sequence[int]:
        """Neighbours of ``node`` in ascending id order."""
        self._check_node(node)
        return tuple(self._adj_nodes[self._row(node)].tolist())

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        self._check_node(node)
        return int(self._adj_indptr[node + 1] - self._adj_indptr[node])

    def incident_edge_ids(self, node: int) -> Sequence[int]:
        """Ids of the edges incident to ``node``, ascending."""
        self._check_node(node)
        return tuple(sorted(self._adj_edges[self._row(node)].tolist()))

    # ------------------------------------------------------------------ #
    # edges and bandwidths
    # ------------------------------------------------------------------ #
    def edge_id(self, u: int, v: int) -> int:
        """Return the id of edge ``{u, v}``.

        Raises :class:`~repro.errors.InvalidEdgeError` if the edge does not
        exist.
        """
        e = Edge(u, v)
        if 0 <= e.u and e.v < self.n_nodes:
            row = self._row(e.u)
            k = row.start + int(np.searchsorted(self._adj_nodes[row], e.v))
            if k < row.stop and self._adj_nodes[k] == e.v:
                return int(self._adj_edges[k])
        raise InvalidEdgeError(f"edge {e} does not exist")

    def has_edge(self, u: int, v: int) -> bool:
        """``True`` iff ``{u, v}`` is an edge of the network."""
        if u == v:
            return False
        try:
            self.edge_id(u, v)
        except InvalidEdgeError:
            return False
        return True

    def edge_endpoints(self, edge_id: int) -> Edge:
        """Return the canonical ``(u, v)`` endpoints of an edge id."""
        m = self.n_edges
        if not -m <= edge_id < m:
            raise InvalidEdgeError(f"edge id {edge_id} out of range")
        return tuple.__new__(
            Edge, (int(self._edge_u[edge_id]), int(self._edge_v[edge_id]))
        )

    def edge_bandwidth(self, u: int, v: Optional[int] = None) -> float:
        """Bandwidth ``b(e)`` of an edge, by id or by endpoints."""
        if v is None:
            eid = int(u)
            if not 0 <= eid < self.n_edges:
                raise InvalidEdgeError(f"edge id {eid} out of range")
        else:
            eid = self.edge_id(u, v)
        return float(self._edge_bandwidth[eid])

    def bus_bandwidth(self, node: int) -> float:
        """Bandwidth ``b(B)`` of a bus node."""
        self._check_node(node)
        if not self.is_bus(node):
            raise InvalidNodeError(f"node {node} is not a bus")
        return float(self._bus_bandwidth[node])

    @property
    def edge_bandwidths(self) -> np.ndarray:
        """Read-only array of edge bandwidths indexed by edge id."""
        return self._edge_bandwidth

    @property
    def bus_bandwidths(self) -> np.ndarray:
        """Read-only array of per-node bus bandwidths (1.0 for processors)."""
        return self._bus_bandwidth

    # ------------------------------------------------------------------ #
    # rooted views
    # ------------------------------------------------------------------ #
    def rooted(self, root: Optional[int] = None) -> "RootedTree":
        """Return a (cached) :class:`~repro.network.rooted.RootedTree` view.

        Parameters
        ----------
        root:
            Node to use as root.  Defaults to the canonical root: the bus
            with the smallest id, or node 0 for a bus-less (single node)
            network.
        """
        if root is None:
            root = self.canonical_root()
        self._check_node(root)
        view = self._rooted_cache.get(root)
        if view is None:
            from repro.network.rooted import RootedTree

            view = RootedTree(self, root)
            self._rooted_cache[root] = view
        return view  # type: ignore[return-value]

    def canonical_root(self) -> int:
        """The default root: smallest-id bus, or node 0 if there is no bus."""
        first = int(np.argmax(self.bus_mask))
        return first if self.bus_mask[first] else 0

    def height(self, root: Optional[int] = None) -> int:
        """Height of the tree rooted at ``root`` (canonical root by default)."""
        return self.rooted(root).height

    def max_degree(self) -> int:
        """Maximum node degree ``degree(T)``."""
        return int(np.diff(self._adj_indptr).max())

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def _check_node(self, node: int) -> None:
        if not isinstance(node, (int, np.integer)) or not 0 <= node < self.n_nodes:
            raise InvalidNodeError(f"invalid node id {node!r}")

    def __contains__(self, node: object) -> bool:
        return isinstance(node, (int, np.integer)) and 0 <= int(node) < self.n_nodes

    def __len__(self) -> int:
        return self.n_nodes

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n_nodes))

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"HierarchicalBusNetwork(n_processors={self.n_processors}, "
            f"n_buses={self.n_buses}, height={self.height()})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HierarchicalBusNetwork):
            return NotImplemented
        return (
            np.array_equal(self._kinds, other._kinds)
            and np.array_equal(self._edge_u, other._edge_u)
            and np.array_equal(self._edge_v, other._edge_v)
            and np.allclose(self._edge_bandwidth, other._edge_bandwidth)
            and np.allclose(self._bus_bandwidth, other._bus_bandwidth)
        )

    def __hash__(self) -> int:
        return hash((self.edges, self._kinds.tobytes()))


def _frozen(arr: np.ndarray) -> np.ndarray:
    """Mark ``arr`` read-only (arrays are shared between derived networks)."""
    arr.flags.writeable = False
    return arr


def _canonical_edges(
    edges: Iterable[Tuple[int, int]], n: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Canonical ``(edge_u, edge_v)`` arrays of an edge list.

    Raises for the first self-loop, else the first out-of-range edge, else
    the first repeated edge (in input order).
    """
    pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
    lo = pairs.min(axis=1)
    hi = pairs.max(axis=1)
    for bad, error, message in (
        (lo == hi, InvalidEdgeError, "self-loop edge {} is not allowed"),
        ((lo < 0) | (hi >= n), InvalidNodeError, "edge {} references an unknown node"),
    ):
        if bad.any():
            i = int(np.argmax(bad))
            raise error(message.format((int(lo[i]), int(hi[i]))))
    first = np.unique(lo * n + hi, return_index=True)[1]
    if first.size < lo.size:
        i = int(np.setdiff1d(np.arange(lo.size), first)[0])
        raise InvalidEdgeError(f"duplicate edge {Edge(int(lo[i]), int(hi[i]))}")
    return lo.astype(_INDEX), hi.astype(_INDEX)


class NetworkBuilder:
    """Incrementally build a :class:`HierarchicalBusNetwork`.

    Example
    -------
    >>> builder = NetworkBuilder()
    >>> root = builder.add_bus("root", bandwidth=4)
    >>> for i in range(3):
    ...     p = builder.add_processor(f"p{i}")
    ...     _ = builder.connect(p, root)
    >>> net = builder.build()
    >>> net.n_processors, net.n_buses
    (3, 1)
    """

    def __init__(self) -> None:
        self._specs: List[NodeSpec] = []
        self._edges: List[Tuple[int, int]] = []
        self._edge_bandwidths: List[float] = []

    @property
    def n_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._specs)

    def add_processor(self, name: Optional[str] = None) -> int:
        """Add a processor (leaf) node and return its id."""
        self._specs.append(ProcessorSpec(name))
        return len(self._specs) - 1

    def add_bus(self, name: Optional[str] = None, bandwidth: float = 1.0) -> int:
        """Add a bus (inner) node with bandwidth ``b(B)`` and return its id."""
        self._specs.append(BusSpec(name, bandwidth))
        return len(self._specs) - 1

    def connect(self, u: int, v: int, bandwidth: float = 1.0) -> Tuple[int, int]:
        """Add the switch edge ``{u, v}`` with bandwidth ``b(e)``.

        Returns the canonical ``(min, max)`` edge tuple.
        """
        if not (0 <= u < self.n_nodes and 0 <= v < self.n_nodes):
            raise InvalidNodeError(f"cannot connect unknown nodes ({u}, {v})")
        if bandwidth <= 0:
            raise BandwidthError(f"edge bandwidth must be positive, got {bandwidth}")
        e = (min(u, v), max(u, v))
        self._edges.append(e)
        self._edge_bandwidths.append(float(bandwidth))
        return e

    def build(self, validate: bool = True) -> HierarchicalBusNetwork:
        """Freeze the builder into a validated network."""
        return HierarchicalBusNetwork(
            self._specs,
            self._edges,
            edge_bandwidths=list(self._edge_bandwidths),
            validate=validate,
        )
