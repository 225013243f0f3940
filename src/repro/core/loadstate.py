"""Incremental congestion engine shared by the replay layers.

PR 1 vectorized the *batch* cost model: given a whole placement, the sparse
path-incidence structure of :mod:`repro.core.pathmatrix` evaluates all loads
in a few numpy scatters.  The layers that *replay requests* -- the online
strategies of :mod:`repro.dynamic`, the round simulator of
:mod:`repro.distributed.request_sim` and the tentative-move searches of
:mod:`repro.core.optimal` / :mod:`repro.core.deletion` -- have the opposite
access shape: many small deltas (one path, one Steiner tree, one candidate
column) interleaved with congestion reads.  Recomputing bus loads and the
max relative load from scratch on every read makes each of those layers
quadratic in practice.

:class:`LoadState` is the shared substrate for that access shape:

* **O(path) delta application.**  ``apply_path`` / ``apply_steiner`` /
  ``apply_edges`` scatter a delta onto the touched entries only.  Edge and
  bus loads live in one fused array (bus loads doubled, i.e. the plain
  incident-edge sum), so a cached path entry updates and re-checks both
  with a single fancy-indexed gather/scatter.  Whole per-edge vectors
  (candidate placements, batched request chunks) go through
  ``apply_edge_loads`` / ``apply_pairs``.
* **Lazily-repaired running max.**  The congestion (max relative load over
  edges and buses) is kept incrementally: a non-negative delta can only
  raise relative loads, so the running max is repaired from the touched
  entries alone.  A negative delta marks the value stale and the next read
  performs one vectorized rescan.
* **Snapshot / rollback.**  ``snapshot()`` opens a journal; ``rollback``
  re-applies the journalled deltas negated and restores the congestion
  value recorded at snapshot time, so local search and branch-and-bound can
  tentatively evaluate moves in O(touched entries) instead of re-deriving
  loads with :func:`repro.core.congestion.compute_loads`.

All loads of the cost model are integer-valued (request counts) and bus
loads are half-integers, so every update -- in any order, including the
negated rollback replay -- is exact in double precision.  This is what makes
the bit-for-bit parity guarantees of the property tests possible.

**One substrate, K lanes.**  :class:`StackedLoadState` owns everything
that only depends on the topology -- the path matrix, the endpoint,
denominator and incidence arrays, the path/Steiner scatter-entry caches --
and the loads of K lanes as one ``(K, n_edges + n_nodes)`` array, carried
over a topology mutation by one array surgery.  Every lane is a plain
:class:`LoadState` bound to one row: it keeps a cached 1-D view of that
row, its own running-max tracker and its own snapshot journal.  A
standalone ``LoadState(network)`` is lane 0 of a private one-lane stack;
a fleet of K strategies sits on the K lanes of one shared stack, so
batched charges (:meth:`StackedLoadState.apply_edge_loads_lanes`) amortise
the index computations across all lanes.  The exactness argument above is
order-free, so a lane row is bit-for-bit the row of a standalone state fed
the same charges.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.core import kernels
from repro.errors import AlgorithmError, MutationError

__all__ = ["LoadState", "LoadSnapshot", "StackedLoadState"]


class LoadSnapshot:
    """Opaque token returned by :meth:`LoadState.snapshot`.

    Records the journal position and the congestion tracker state at
    snapshot time; :meth:`LoadState.rollback` restores both exactly.
    ``epoch`` pins the snapshot to the topology it was taken on: a snapshot
    cannot be rolled back or committed across a :meth:`LoadState.repair`.
    """

    __slots__ = ("mark", "congestion", "stale", "active", "epoch")

    def __init__(self, mark: int, congestion: float, stale: bool, epoch: int = 0) -> None:
        self.mark = mark
        self.congestion = congestion
        self.stale = stale
        self.active = True
        self.epoch = epoch


class LoadState:
    """Incremental edge/bus load and congestion bookkeeping for one network.

    Parameters
    ----------
    network:
        The :class:`~repro.network.tree.HierarchicalBusNetwork`.
    rooted:
        Optional rooted view; defaults to the network's cached canonical
        rooting (the same one the batch evaluators use).

    Internally all loads live in one fused array of length
    ``n_edges + n_nodes``: the edge block holds per-edge loads, the node
    block holds *doubled* bus loads (the plain incident-edge sum; halving
    happens on read so every increment stays integer-valued and exact).
    Relative loads divide the fused array by a fused bandwidth array, which
    turns both the rescan and the per-delta running-max repair into a
    single gather / divide / max.

    The fused array is row ``lane_index`` of :attr:`stack`, the
    :class:`StackedLoadState` that owns the geometry; a state built with
    this constructor is lane 0 of a private one-lane stack.
    """

    __slots__ = (
        "stack",
        "lane_index",
        "_loads",
        "_congestion",
        "_stale",
        "_journal",
        "_snapshots",
    )

    def __init__(self, network, rooted=None) -> None:
        StackedLoadState.__new__(StackedLoadState)._build(network, rooted, [self])

    def _bind(self, stack: "StackedLoadState", lane_index: int) -> None:
        """Make this state lane ``lane_index`` of ``stack``, with zero loads."""
        self.stack = stack
        self.lane_index = lane_index
        self._loads = stack._loads[lane_index]
        self._congestion = 0.0
        self._stale = False
        self._journal: List[Tuple[str, object, object]] = []
        self._snapshots: List[LoadSnapshot] = []

    def _rebind(self) -> None:
        """Follow the stack's repaired rows; the max is rescanned lazily."""
        self._loads = self.stack._loads[self.lane_index]
        self._stale = True
        self._journal.clear()

    # ------------------------------------------------------------------ #
    # geometry (owned by the stack)
    # ------------------------------------------------------------------ #
    @property
    def network(self):
        return self.stack.network

    @property
    def rooted(self):
        return self.stack.rooted

    @property
    def pm(self):
        return self.stack.pm

    @property
    def n_edges(self) -> int:
        return self.stack.n_edges

    @property
    def n_nodes(self) -> int:
        return self.stack.n_nodes

    def path_length(self, src: int, dst: int) -> int:
        """Number of edges on the path ``src -> dst`` (cached)."""
        if src == dst:
            return 0
        return int(self.stack._path_entry(src, dst)[0].size)

    def pair_costs(self, u, v) -> np.ndarray:
        """Path lengths of the pairs ``u[i] -> v[i]`` (vectorized)."""
        return self.stack.pm.distances(u, v)

    def nearest_in_set(self, nodes, candidates: Sequence[int]) -> np.ndarray:
        """Nearest candidate per node (ties to the smallest id), vectorized."""
        return self.stack.pm.nearest_in_set(np.asarray(nodes, dtype=np.int64), candidates)

    def memory_bytes(self) -> int:
        """Bytes held by the substrate arrays (see :meth:`StackedLoadState.memory_bytes`)."""
        return self.stack.memory_bytes()

    # ------------------------------------------------------------------ #
    # reads
    # ------------------------------------------------------------------ #
    @property
    def edge_loads(self) -> np.ndarray:
        """Per-edge accumulated loads (live view of the fused array)."""
        return self._loads[: self.stack.n_edges]

    @property
    def bus_loads(self) -> np.ndarray:
        """Per-node bus loads (zero for processors), derived incrementally."""
        return self._loads[self.stack.n_edges :] * 0.5

    def bus_load(self, bus: int) -> float:
        """Load of one bus (half the incident-edge load sum)."""
        return float(self._loads[self.stack.n_edges + bus]) * 0.5

    @property
    def total_load(self) -> float:
        """Total communication load (sum of all edge loads)."""
        return float(self._loads[: self.stack.n_edges].sum())

    @property
    def congestion(self) -> float:
        """Max relative load over edges and buses (lazily repaired)."""
        if self._stale:
            self._congestion = self._rescan()
            self._stale = False
        return self._congestion

    def _rescan(self) -> float:
        if not self._loads.size:
            return 0.0
        return kernels.rescan(self._loads, self.stack._denom)

    def verify_bus_loads(self) -> bool:
        """Debug check: incremental bus loads match a CSR recomputation."""
        stack = self.stack
        edge_loads = self.edge_loads
        for bus in stack._bus_nodes:
            expected = edge_loads[stack.incident_edge_ids(int(bus))].sum()
            if expected != self._loads[stack.n_edges + bus]:
                return False
        return True

    # ------------------------------------------------------------------ #
    # delta application
    # ------------------------------------------------------------------ #
    def _apply_entry(self, entry: Tuple[np.ndarray, ...], amount: float) -> None:
        _ids, fused, inc, denom = entry
        loads = self._loads
        loads[fused] += inc * amount
        if not self._stale:
            if amount >= 0:
                value = float((loads[fused] / denom).max())
                if value > self._congestion:
                    self._congestion = value
            else:
                self._stale = True
        if self._snapshots:
            self._journal.append(("entry", entry, amount))

    def apply_path(self, src: int, dst: int, amount: float = 1.0) -> int:
        """Charge ``amount`` on every edge of the tree path ``src -> dst``.

        Returns the path length in edges.  Scatter entries are cached per
        endpoint pair, so replaying a hot request path costs one O(path)
        fancy-indexed update with no tree walk.
        """
        if src == dst:
            return 0
        entry = self.stack._path_entry(src, dst)
        if amount != 0:
            self._apply_entry(entry, amount)
        return int(entry[0].size)

    def apply_steiner(self, terminals: Iterable[int], amount: float = 1.0) -> int:
        """Charge ``amount`` on every edge of the Steiner tree of ``terminals``.

        Returns the number of Steiner edges.  Cached per terminal set.
        """
        key = frozenset(int(t) for t in terminals)
        entry = self.stack._steiner_entry(key)
        if entry[0].size and amount != 0:
            self._apply_entry(entry, amount)
        return int(entry[0].size)

    def apply_edges(self, edge_ids, amount: float = 1.0) -> int:
        """Add ``amount`` to every listed edge (ids may repeat); O(len(ids)).

        Returns the number of edge entries charged.  Bus loads and the
        congestion tracker are updated from the touched entries alone.
        """
        ids = np.asarray(edge_ids, dtype=np.int64)
        if ids.size == 0 or amount == 0:
            return 0
        stack = self.stack
        np.add.at(self._loads, ids, amount)
        nodes = np.concatenate([stack._edge_u[ids], stack._edge_v[ids]])
        buses = nodes[stack._node_is_bus[nodes]] + stack.n_edges
        np.add.at(self._loads, buses, amount)
        if not self._stale:
            if amount >= 0:
                touched = np.concatenate([ids, buses])
                value = float((self._loads[touched] / stack._denom[touched]).max())
                if value > self._congestion:
                    self._congestion = value
            else:
                self._stale = True
        if self._snapshots:
            self._journal.append(("edges", (ids, buses), amount))
        return int(ids.size)

    def apply_edge_loads(self, vector: np.ndarray) -> None:
        """Add a whole per-edge load vector (one candidate / batch column).

        The caller must not mutate ``vector`` while a snapshot that saw this
        apply is still open (the journal keeps a reference, not a copy).
        """
        vec = np.ascontiguousarray(vector, dtype=np.float64)
        if vec.shape != (self.stack.n_edges,):
            raise AlgorithmError("edge-load vector has the wrong shape")
        any_negative = self._scatter_vector(vec, 1.0)
        if not self._stale:
            if not any_negative:
                # a full column touches everything: one vectorized rescan
                value = self._rescan()
                if value > self._congestion:
                    self._congestion = value
            else:
                self._stale = True
        if self._snapshots:
            self._journal.append(("vector", vec, None))

    def _scatter_vector(self, vec: np.ndarray, sign: float) -> bool:
        """Fused edge-block + bus-fold apply of one per-edge column.

        Returns whether any entry of ``vec`` fails ``>= 0`` (the staleness
        trigger); the rollback path ignores the flag.
        """
        stack = self.stack
        return kernels.apply_column(
            self._loads,
            vec,
            stack._edge_u,
            stack._edge_v,
            stack._node_is_bus,
            stack.n_edges,
            sign,
        )

    def apply_pairs(self, u, v, w) -> None:
        """Charge weighted request pairs ``u[i] -> v[i]`` in one batch.

        Equivalent to ``apply_path`` per pair (exactly, for integer-valued
        weights) but evaluated through the path-incidence operator.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if u.size == 0:
            return
        self.apply_edge_loads(self.stack.pm.pair_edge_loads(u, v, w))

    # ------------------------------------------------------------------ #
    # tentative evaluation
    # ------------------------------------------------------------------ #
    def trial_congestions(self, columns: np.ndarray) -> np.ndarray:
        """Congestion of (current state + column) for every column, read-only.

        ``columns`` has shape ``(n_edges, k)``; the result has shape ``(k,)``.
        Used by search layers to score candidate moves in one pass without
        mutating the state, and by the marked chunk replay to read the
        congestion at every sample mark of a chunk.  The bus rows of the
        columns are folded with the bus-fold kernel; all loads are
        integers, so each value is bit-for-bit the rescan of the state the
        column would produce.
        """
        stack = self.stack
        cols = np.ascontiguousarray(columns, dtype=np.float64)
        if cols.ndim == 1:
            cols = cols[:, None]
        n_edges = stack.n_edges
        fused = np.empty((self._loads.size, cols.shape[1]), dtype=np.float64)
        fused[:n_edges] = cols
        bus2 = fused[n_edges:]
        bus2[:] = 0.0
        kernels.bus_fold(bus2, stack._edge_u, stack._edge_v, stack._node_is_bus, cols)
        fused += self._loads[:, None]
        return (fused / stack._denom[:, None]).max(axis=0)

    # ------------------------------------------------------------------ #
    # snapshot / rollback
    # ------------------------------------------------------------------ #
    def snapshot(self) -> LoadSnapshot:
        """Start journalling deltas; returns a token for rollback/commit.

        Lanes of a stack with more than one lane do not journal (their
        repair is shared with the other lanes); tentative-move search
        layers keep a standalone state.
        """
        if self.stack.n_lanes > 1:
            raise AlgorithmError(
                "fleet lanes do not support snapshot/rollback: use a standalone "
                "LoadState for tentative-move search"
            )
        snap = LoadSnapshot(
            len(self._journal), self._congestion, self._stale, self.stack._topology_epoch
        )
        self._snapshots.append(snap)
        return snap

    def _check_epoch(self, snap: LoadSnapshot) -> None:
        if snap.epoch != self.stack._topology_epoch:
            raise MutationError(
                "cannot rollback or commit across a topology mutation: the "
                "snapshot was taken before repair() changed the network; "
                "journalled deltas no longer address the fused load array"
            )

    def rollback(self, snap: LoadSnapshot) -> None:
        """Undo every delta applied since ``snap`` (LIFO discipline).

        Also restores the congestion tracker recorded at snapshot time, so a
        rolled-back tentative move leaves no staleness behind.  Raises
        :class:`~repro.errors.MutationError` when the snapshot predates a
        :meth:`repair` -- rolling journalled deltas onto a repaired array
        would silently corrupt the loads.
        """
        self._check_epoch(snap)
        self._pop_to(snap)
        while len(self._journal) > snap.mark:
            kind, payload, amount = self._journal.pop()
            if kind == "entry":
                _ids, fused, inc, _denom = payload
                self._loads[fused] -= inc * amount
            elif kind == "edges":
                ids, buses = payload
                np.add.at(self._loads, ids, -amount)
                np.add.at(self._loads, buses, -amount)
            else:  # "vector"
                self._scatter_vector(payload, -1.0)
        self._congestion = snap.congestion
        self._stale = snap.stale

    def commit(self, snap: LoadSnapshot) -> None:
        """Keep every delta applied since ``snap`` and close the snapshot."""
        self._check_epoch(snap)
        self._pop_to(snap)
        if not self._snapshots:
            self._journal.clear()

    def _pop_to(self, snap: LoadSnapshot) -> None:
        if not snap.active:
            raise AlgorithmError("snapshot was already rolled back or committed")
        while self._snapshots:
            top = self._snapshots.pop()
            top.active = False
            if top is snap:
                return
        raise AlgorithmError("snapshot does not belong to this LoadState")

    def load_profile(self):
        """Materialise the current state as a static :class:`LoadProfile`."""
        from repro.core.congestion import LoadProfile

        return LoadProfile(
            network=self.network,
            edge_loads=self.edge_loads.copy(),
            bus_loads=self.bus_loads,
        )

    # ------------------------------------------------------------------ #
    # topology repair
    # ------------------------------------------------------------------ #
    def repair(self, outcomes) -> None:
        """Carry this state over one or more topology mutations, in place.

        ``outcomes`` is a single :class:`~repro.network.mutation.MutationOutcome`
        or a sequence of them (applied in order; each must start from the
        network the previous one produced).  After repair the state is
        **bit-for-bit equal to a from-scratch rebuild**: a fresh
        ``LoadState(outcome.network)`` charged with
        ``outcome.mapped_edge_loads(old_edge_loads)`` -- removed edges drop
        their loads, new edges start at zero, bus rows and relative-load
        denominators follow.  The repair is one array surgery over the
        whole stack (:meth:`StackedLoadState.repair`), so every lane of a
        fleet is carried over at once and the other lanes' calls with the
        same outcomes are no-ops.

        Exactness relies on loads being integer-valued (invariant 2 of
        ARCHITECTURE.md).  Snapshots cannot cross a repair: repairing with
        open snapshots raises :class:`~repro.errors.MutationError` (the
        journalled tentative deltas would otherwise silently become
        permanent), and any later :meth:`rollback` / :meth:`commit` of a
        snapshot taken before a repair raises it too.
        """
        self.stack.repair(outcomes)

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Zero all loads and drop journal/snapshot state (caches survive)."""
        if self._snapshots:
            raise AlgorithmError("cannot reset while snapshots are open")
        self._loads[:] = 0.0
        self._congestion = 0.0
        self._stale = False
        self._journal.clear()


class StackedLoadState:
    """K load lanes over one shared substrate: the owner of all load storage.

    Replaying the same request/churn timeline under K strategies against K
    independent substrates pays K times for everything that only depends
    on the *topology*: scatter-entry construction, bus folds, congestion
    rescans and churn repairs.  The stack keeps

    * **shared geometry** -- one :class:`~repro.core.pathmatrix.PathMatrix`,
      one denominator array and one path/Steiner scatter-entry cache for
      all lanes;
    * **one fused load array** of shape ``(K, n_edges + n_nodes)``; lane
      ``k`` is the :class:`LoadState` ``lane(k)`` bound to row ``k``, with
      its own running-max tracker;
    * **lane-broadcast batch charges** -- :meth:`apply_edge_loads_lanes`
      adds one per-edge column per lane in a single batched scatter and
      one batched rescan;
    * **one churn repair** -- :meth:`repair` carries *all* lanes over a
      topology mutation with a single 2-D array surgery (debit/credit per
      lane row), and is idempotent per
      :class:`~repro.network.mutation.MutationOutcome` so every lane's
      strategy can call it through its own view without double-applying.

    All charges are integer-valued (ARCHITECTURE.md invariant 2), so each
    lane row is bit-for-bit the fused array of a standalone
    :class:`LoadState` fed the same charges in any order -- the fleet
    parity tests pin this down.  Lanes of a stack with more than one lane
    do not journal: their :meth:`LoadState.snapshot` raises.
    """

    __slots__ = (
        "network",
        "rooted",
        "pm",
        "n_edges",
        "n_nodes",
        "n_lanes",
        "_loads",
        "_lanes",
        "_denom",
        "_edge_u",
        "_edge_v",
        "_node_is_bus",
        "_bus_nodes",
        "_inc_indptr",
        "_inc_edges",
        "_path_cache",
        "_steiner_cache",
        "_topology_epoch",
    )

    def __init__(self, network, n_lanes: int, rooted=None) -> None:
        if n_lanes < 1:
            raise AlgorithmError("a stacked load state needs at least one lane")
        lanes = [LoadState.__new__(LoadState) for _ in range(int(n_lanes))]
        self._build(network, rooted, lanes)

    def _build(self, network, rooted, lanes) -> None:
        """Derive the geometry, allocate one zero row per lane, bind the lanes."""
        self.network = network
        self.rooted = rooted if rooted is not None else network.rooted()
        self.pm = self.rooted.path_matrix()

        self.n_edges = network.n_edges
        self.n_nodes = network.n_nodes

        # endpoint / bus arrays are the network's own read-only arrays, read
        # through the path matrix, so huge networks hold one int32 copy
        self._edge_u = self.pm._edge_u
        self._edge_v = self.pm._edge_v
        self._node_is_bus = self.pm._bus_mask
        self._bus_nodes = np.flatnonzero(self.pm._bus_mask)

        self._denom = self._build_denominators(network)
        self._inc_indptr, _, self._inc_edges = network.adjacency

        self._path_cache: dict = {}
        self._steiner_cache: dict = {}
        self._topology_epoch = 0

        self.n_lanes = len(lanes)
        self._loads = np.zeros(
            (self.n_lanes, self.n_edges + self.n_nodes), dtype=np.float64
        )
        self._lanes = tuple(lanes)
        for k, lane in enumerate(lanes):
            lane._bind(self, k)

    @property
    def lanes(self) -> Tuple[LoadState, ...]:
        """All lane states, in lane order."""
        return self._lanes

    def lane(self, index: int) -> LoadState:
        """The state of one lane (stable across repairs)."""
        return self._lanes[index]

    # ------------------------------------------------------------------ #
    # geometry
    # ------------------------------------------------------------------ #
    def _build_denominators(self, network) -> np.ndarray:
        """Fused relative-load denominators for the current edge/node arrays.

        Edge bandwidths, then doubled bus bandwidths (the node block stores
        doubled loads).  Processor rows always hold zero load; their
        denominator is pinned to 1 so the whole-array rescan never divides
        by a meaningless bandwidth.  Shared by construction and
        :meth:`repair` so the two paths cannot diverge.
        """
        denom = np.ones(self.n_edges + self.n_nodes, dtype=np.float64)
        denom[: self.n_edges] = np.asarray(network.edge_bandwidths, dtype=np.float64)
        bus_bw2 = 2.0 * np.asarray(network.bus_bandwidths, dtype=np.float64)
        denom[self.n_edges + self._bus_nodes] = bus_bw2[self._bus_nodes]
        return denom

    def incident_edge_ids(self, node: int) -> np.ndarray:
        """Edge ids incident to ``node`` (precomputed CSR slice)."""
        return self._inc_edges[self._inc_indptr[node] : self._inc_indptr[node + 1]]

    def memory_bytes(self) -> int:
        """Bytes held by the substrate arrays (the memory audit hook).

        Counts the fused load array of all lanes, the denominator /
        incidence arrays and the shared
        :class:`~repro.core.pathmatrix.PathMatrix` tables, with arrays
        shared between the two deduplicated by identity.
        """
        pm = self.pm
        arrays = {
            id(a): a
            for a in (
                self._loads,
                self._denom,
                self._edge_u,
                self._edge_v,
                self._node_is_bus,
                self._bus_nodes,
                self._inc_indptr,
                self._inc_edges,
                pm._parent,
                pm._parent_edge,
                pm._depth,
                pm._up,
                pm._rp_indptr,
                pm._rp_edges,
                pm._rp_nodes,
                pm._edge_u,
                pm._edge_v,
                pm._bus_mask,
            )
        }
        return int(sum(a.nbytes for a in arrays.values()))

    # ------------------------------------------------------------------ #
    # scatter entries (shared by all lanes)
    # ------------------------------------------------------------------ #
    def _make_entry(self, edge_ids: np.ndarray) -> Tuple[np.ndarray, ...]:
        """Precompute the scatter entry of a fixed edge set (path / Steiner).

        The edge ids of a tree path or Steiner tree are distinct, so the
        fused indices (edges, then touched bus rows) can use plain fancy
        indexing instead of ``np.add.at``; the entry carries the per-index
        increments (1 per edge, the endpoint multiplicity per bus -- a bus
        interior to a path is touched by two of its edges) and the gathered
        denominators for the one-gather running-max repair.
        """
        nodes = np.concatenate([self._edge_u[edge_ids], self._edge_v[edge_ids]])
        buses = nodes[self._node_is_bus[nodes]]
        bus_nodes, mult = np.unique(buses, return_counts=True)
        fused = np.concatenate([edge_ids, self.n_edges + bus_nodes])
        inc = np.concatenate([np.ones(edge_ids.size), mult.astype(np.float64)])
        return (edge_ids, fused, inc, self._denom[fused])

    def _path_entry(self, src: int, dst: int) -> Tuple[np.ndarray, ...]:
        key = (src, dst) if src < dst else (dst, src)
        entry = self._path_cache.get(key)
        if entry is None:
            ids = np.asarray(self.rooted.path_edge_ids(src, dst), dtype=np.int64)
            entry = self._make_entry(ids)
            self._path_cache[key] = entry
        return entry

    def _steiner_entry(self, key: frozenset) -> Tuple[np.ndarray, ...]:
        entry = self._steiner_cache.get(key)
        if entry is None:
            ids = np.asarray(self.rooted.steiner_edge_ids(key), dtype=np.int64)
            entry = self._make_entry(ids)
            self._steiner_cache[key] = entry
        return entry

    def _refresh_cached_denoms(self) -> None:
        """Re-gather the denominators cached inside every scatter entry."""
        for cache in (self._path_cache, self._steiner_cache):
            for key, (ids, fused, inc, _denom) in list(cache.items()):
                cache[key] = (ids, fused, inc, self._denom[fused])

    # ------------------------------------------------------------------ #
    # lane-broadcast batch application
    # ------------------------------------------------------------------ #
    def apply_edge_loads_lanes(self, lanes, columns: np.ndarray) -> None:
        """Add one per-edge load column per listed lane, batched.

        ``columns`` has shape ``(n_edges, len(lanes))`` (column ``j`` goes
        to lane ``lanes[j]``); the bus fold and the rescan run once over
        the whole block, then each lane's tracker takes its row's value.
        Lane ids must be distinct.  Produces bit-for-bit the loads and
        congestion of ``LoadState.apply_edge_loads`` called per lane.
        """
        lanes = np.ascontiguousarray(lanes, dtype=np.int64)
        cols = np.ascontiguousarray(columns, dtype=np.float64)
        if cols.ndim == 1:
            cols = cols[:, None]
        if cols.shape != (self.n_edges, lanes.size):
            raise AlgorithmError("edge-load column block has the wrong shape")
        if np.unique(lanes).size != lanes.size:
            # a buffered fancy-index "+=" would drop all but one duplicate
            raise AlgorithmError("lane ids must be distinct")
        negative = kernels.apply_columns_lanes(
            self._loads,
            lanes,
            cols,
            self._edge_u,
            self._edge_v,
            self._node_is_bus,
            self.n_edges,
        )
        fresh = []
        for j, k in enumerate(lanes.tolist()):
            lane = self._lanes[k]
            if lane._snapshots:
                lane._journal.append(("vector", np.ascontiguousarray(cols[:, j]), None))
            if negative[j]:
                lane._stale = True
            elif not lane._stale:
                fresh.append(k)
        if fresh:
            values = kernels.rescan_rows(
                self._loads, np.asarray(fresh, dtype=np.int64), self._denom
            )
            for k, value in zip(fresh, values.tolist()):
                lane = self._lanes[k]
                if value > lane._congestion:
                    lane._congestion = value

    # ------------------------------------------------------------------ #
    # topology repair
    # ------------------------------------------------------------------ #
    def repair(self, outcomes) -> None:
        """Carry every lane over one or more topology mutations, in place.

        One 2-D array surgery per outcome debits/credits all lane rows at
        once (see :meth:`LoadState.repair` for the per-lane contract):

        * bandwidth mutations touch only the affected denominator entries
          (and refresh the denominators cached in scatter entries);
        * ``attach_leaf`` appends zero-load columns;
        * ``detach_leaf`` drops the leaf's columns and debits its
          switch-edge load from its bus column;
        * ``split_bus`` debits the moved switch-edge loads from the split
          bus and credits them to the new bus column.

        Path/Steiner scatter caches are cleared on structural mutations
        (they recharge lazily), and every lane is rebound to its new row.
        The repair is **idempotent per outcome sequence**: each lane's
        strategy calls it through its own view with the same outcomes, and
        once the last outcome's network is the stack's network, later
        calls are no-ops.
        """
        from repro.network.mutation import MutationOutcome

        if any(lane._snapshots for lane in self._lanes):
            raise MutationError(
                "cannot repair while snapshots are open: roll back or commit "
                "tentative deltas first (journalled moves would otherwise be "
                "silently committed by the repair)"
            )
        if isinstance(outcomes, MutationOutcome):
            outcomes = [outcomes]
        else:
            outcomes = list(outcomes)
        if outcomes and outcomes[-1].network is self.network:
            return  # already applied through another lane's view
        for outcome in outcomes:
            self._repair_one(outcome)

    def _repair_one(self, outcome) -> None:
        from repro.network.mutation import AttachLeaf, DetachLeaf, SplitBus

        if outcome.old_network is not self.network:
            raise MutationError(
                "mutation outcome does not apply to this state's network"
            )
        new_rooted = self.rooted.repaired(outcome)
        new_pm = self.pm.repaired(outcome, new_rooted)
        network = outcome.network
        n_edges_old = self.n_edges
        mutation = outcome.mutation

        if not outcome.structural:
            if outcome.changed_edge is not None:
                self._denom[outcome.changed_edge] = network.edge_bandwidth(
                    outcome.changed_edge
                )
            if outcome.changed_bus is not None:
                self._denom[n_edges_old + outcome.changed_bus] = (
                    2.0 * network.bus_bandwidth(outcome.changed_bus)
                )
            # scatter entries cache their denominator gather: refresh it
            self._refresh_cached_denoms()
        else:
            edge_block = self._loads[:, :n_edges_old]
            node_block = self._loads[:, n_edges_old:]
            zero = np.zeros((self.n_lanes, 1), dtype=np.float64)
            if isinstance(mutation, AttachLeaf):
                loads = np.concatenate([edge_block, zero, node_block, zero], axis=1)
            elif isinstance(mutation, DetachLeaf):
                node_rows = node_block.copy()
                node_rows[:, outcome.touched_bus] -= edge_block[:, outcome.removed_edge]
                # the masked column gathers come out F-ordered (and
                # concatenate preserves that when every input is F); the
                # lane row views and kernels need a C-ordered stack
                loads = np.ascontiguousarray(
                    np.concatenate(
                        [
                            edge_block[:, outcome.edge_map >= 0],
                            node_rows[:, outcome.node_map >= 0],
                        ],
                        axis=1,
                    )
                )
            elif isinstance(mutation, SplitBus):
                mids = np.asarray(outcome.moved_edge_ids, dtype=np.int64)
                moved_sum = edge_block[:, mids].sum(axis=1)
                node_rows = node_block.copy()
                node_rows[:, outcome.touched_bus] -= moved_sum
                loads = np.concatenate(
                    [edge_block, zero, node_rows, moved_sum[:, None]], axis=1
                )
            else:
                raise MutationError(
                    f"no repair rule for mutation {type(mutation).__name__}"
                )
            self._loads = loads
            self.n_edges = network.n_edges
            self.n_nodes = network.n_nodes
            self._edge_u = new_pm._edge_u
            self._edge_v = new_pm._edge_v
            self._node_is_bus = new_pm._bus_mask
            self._bus_nodes = np.flatnonzero(new_pm._bus_mask)

            self._denom = self._build_denominators(network)
            self._inc_indptr, _, self._inc_edges = network.adjacency

            self._path_cache.clear()
            self._steiner_cache.clear()

        self.network = network
        self.rooted = new_rooted
        self.pm = new_pm
        self._topology_epoch += 1
        for lane in self._lanes:
            lane._rebind()
