"""The simulation engine: one loop behind every replay entry point.

:class:`SimulationEngine` drives a :class:`~repro.sim.protocol.PlacementStrategy`
through the merged timeline of a request sequence and an optional churn
trace.  Between mutation points it stays on the vectorized chunk fast path
(:meth:`serve_chunk`, one path-incidence pass per span); the sinks' sample
positions go into that call as *marks* and come back as the congestion at
each of them, so sampling never cuts a span.  At mutation points it
applies the mutation functionally,
repairs the strategy in place and keeps the reference-id mapping of the
churn model up to date (requests from departed or not-yet-arrived
processors are counted as dropped).  Metrics flow through the pluggable
sinks of :mod:`repro.sim.sinks`.

:class:`RoundReplayDriver` is the round-mode counterpart used by the
store-and-forward request replay: it charges per-round delivery batches
into a :class:`~repro.core.loadstate.LoadState` and notifies the same sink
set once per round.

Both produce **bit-for-bit** the results of the legacy loops they
replaced; ``tests/properties/test_sim_kernel.py`` pins that against
verbatim copies of the pre-refactor implementations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Type

import numpy as np

from repro.dynamic.sequence import RequestEvent, RequestSequence
from repro.errors import SimulationError, WorkloadError
from repro.network.mutation import (
    AttachLeaf,
    ChurnTrace,
    MutationOutcome,
    apply_mutation,
)
from repro.network.node import NodeKind
from repro.sim.protocol import fleet_groups, validate_strategy
from repro.sim.sinks import MetricsSink
from repro.sim.timeline import MutationPoint, merge_timeline

__all__ = [
    "SimulationEngine",
    "EngineStream",
    "SimulationResult",
    "RoundReplayDriver",
]


def _remap_span(
    sequence: RequestSequence,
    start: int,
    stop: int,
    current_of_ref: np.ndarray,
) -> Tuple[Optional[RequestSequence], int, int, Optional[np.ndarray]]:
    """Resolve one serve span under the reference-id mapping.

    The mapping is constant within a span (mutations only happen at span
    boundaries), so the kept events form one chunk.  The span's reference
    ids are in range (:func:`_check_issuers` ran on it).  Returns
    ``(sub, sub_start, sub_stop, kept)``: when every reference maps to
    itself the original sequence slice is returned directly (keeping its
    cached columnar view) with ``kept`` ``None``, otherwise a remapped
    sub-sequence covering exactly the kept events and ``kept``, the
    per-event kept flags of the span; ``sub`` is ``None`` when every
    event of the span dropped.
    """
    kept: List[RequestEvent] = []
    flags: List[bool] = []
    identity = True
    for event in sequence.events[start:stop]:
        proc = int(current_of_ref[event.processor])
        flags.append(proc >= 0)
        if proc < 0:
            identity = False
            continue
        if proc == event.processor:
            kept.append(event)
        else:
            identity = False
            kept.append(RequestEvent(proc, event.obj, event.kind))
    if identity:
        return sequence, start, stop, None
    flags = np.asarray(flags, dtype=bool)
    if kept:
        return RequestSequence(kept, sequence.n_objects), 0, len(kept), flags
    return None, 0, 0, flags


def _check_issuers(network, procs: np.ndarray, current_of_ref=None) -> None:
    """Reject request issuers that are not processors of ``network``.

    ``procs`` is the processor column of the events about to be served, in
    reference ids; ``current_of_ref`` maps them to current node ids under
    churn (``-1``: departed, the remap drops those events) and is ``None``
    when reference ids are node ids.  A bus or out-of-range issuer would
    index out of bounds inside the serving kernels, so every replay path
    runs this -- one range check and one ``kinds`` gather, vectorized --
    before it serves the events.
    """
    if not procs.size:
        return
    n_refs = network.n_nodes if current_of_ref is None else len(current_of_ref)
    lo, hi = int(procs.min()), int(procs.max())
    if lo < 0 or hi >= n_refs:
        raise WorkloadError(
            f"event references processor id {lo if lo < 0 else hi}, but the "
            f"replay universe has {n_refs} reference ids"
        )
    current = procs if current_of_ref is None else current_of_ref[procs]
    bus = (current >= 0) & (network.kinds[current] != NodeKind.PROCESSOR)
    if bus.any():
        raise WorkloadError(
            f"event references id {int(procs[np.argmax(bus)])}, which is a bus "
            "node, not a processor"
        )


class _ReferenceTracker:
    """Reference-id -> current-node mapping of a churn replay.

    Events address processors by *reference id*: original node ids plus
    one fresh id per attach in trace order.  Departed (or not-yet-arrived)
    references map to ``-1`` and their requests drop.  One implementation
    serves :meth:`SimulationEngine.run`, :meth:`SimulationEngine.run_fleet`
    and :class:`EngineStream`, so the three paths cannot drift in churn
    reference semantics (invariants 7 and 10 depend on that).  Given the
    churn ``trace``, the mapping is presized to the whole reference
    universe (attaches still to come map to ``-1``); without one -- a
    stream does not know its future -- it grows by one id per attach.
    """

    __slots__ = ("current_of_ref", "_next_attach")

    def __init__(self, base_n: int, trace: Optional[ChurnTrace] = None) -> None:
        n_refs = base_n + (trace.attach_count() if trace is not None else 0)
        self.current_of_ref = np.full(n_refs, -1, dtype=np.int64)
        self.current_of_ref[:base_n] = np.arange(base_n, dtype=np.int64)
        self._next_attach = base_n

    @property
    def n_refs(self) -> int:
        """Size of the reference-id universe."""
        return len(self.current_of_ref)

    def apply_outcome(self, mutation, outcome: MutationOutcome) -> None:
        """Renumber live references through one applied mutation."""
        alive = self.current_of_ref >= 0
        self.current_of_ref[alive] = outcome.node_map[self.current_of_ref[alive]]
        if isinstance(mutation, AttachLeaf):
            if self._next_attach == len(self.current_of_ref):  # not presized
                self.current_of_ref = np.append(self.current_of_ref, np.int64(-1))
            self.current_of_ref[self._next_attach] = int(outcome.new_node)
            self._next_attach += 1


def _sample_marks(sinks, start: int, stop: int) -> List[int]:
    """The sinks' sample positions strictly inside ``(start, stop)``."""
    marks = set()
    for sink in sinks:
        step = sink.interval
        if step:
            marks.update(range((start // step + 1) * step, stop, step))
    return sorted(marks)


class _MarkedSpan:
    """One serve span resolved for serving at sample marks.

    ``edges`` are the span's absolute segment edges ``(start, *marks,
    stop)`` and ``kept[j]`` counts the events served before ``edges[j]``
    (all of them without a remap; only the kept ones under churn).
    ``sub`` / ``sub_start`` / ``sub_stop`` / ``sub_marks`` address the
    events to serve (``sub`` is ``None`` when every event dropped).
    ``remap`` is ``None`` or the reference-id -> current-node mapping of a
    churn replay.
    """

    __slots__ = ("edges", "kept", "sub", "sub_start", "sub_stop", "sub_marks")

    def __init__(self, sequence, start, stop, offset, marks, remap=None) -> None:
        self.edges = [offset + start, *marks, offset + stop]
        rel = np.asarray(self.edges, dtype=np.int64) - (offset + start)
        flags = None
        if remap is None:
            sub, sub_start, sub_stop = sequence, start, stop
        else:
            sub, sub_start, sub_stop, flags = _remap_span(
                sequence, start, stop, remap
            )
        if flags is None:
            self.kept = rel
        else:
            self.kept = np.concatenate([[0], np.cumsum(flags)])[rel]
        self.sub, self.sub_start, self.sub_stop = sub, sub_start, sub_stop
        self.sub_marks = [sub_start + int(k) for k in self.kept[1:-1]]


def _serve_marked(strategy, span: _MarkedSpan) -> List[float]:
    """Serve one resolved span; the congestion at each of its marks."""
    if span.sub is None:
        return [strategy.account.congestion] * len(span.sub_marks)
    if not span.sub_marks:
        strategy.serve_chunk(span.sub, span.sub_start, span.sub_stop)
        return []
    return np.asarray(strategy.serve_chunk(
        span.sub, span.sub_start, span.sub_stop, marks=span.sub_marks
    ), dtype=np.float64).tolist()


def _emit_segments(engine, edges, kept, congestion) -> Tuple[int, int]:
    """Count one served span and notify ``engine``'s sinks of its segments.

    ``edges`` are the segment edges, ``kept`` the served-event counts at
    them and ``congestion`` the account congestion at the marks
    ``edges[1:-1]`` (at the span end ``boundary_congestion`` reads the
    live account, only if a sink asks).  Each segment gets ``on_span``
    with its own served/dropped split, then ``on_boundary``.  Returns the
    span's ``(served, dropped)`` split.
    """
    served = int(kept[-1] - kept[0])
    dropped = (edges[-1] - edges[0]) - served
    engine.served += served
    engine.dropped += dropped
    if engine.sinks:
        congestion = [*congestion, None]
        kept = kept.tolist()
        for j in range(len(edges) - 1):
            a, b = edges[j], edges[j + 1]
            n_served = kept[j + 1] - kept[j]
            engine._boundary_congestion = congestion[j]
            for sink in engine.sinks:
                sink.on_span(engine, a, b, n_served, (b - a) - n_served)
                sink.on_boundary(engine, b)
    return served, dropped


def _serve_span(engine, sequence, start, stop, offset=0, remap=None):
    """Serve ``sequence[start:stop]`` (absolute positions start at
    ``offset``) for one engine, its sinks' sample positions as marks."""
    span = _MarkedSpan(
        sequence, start, stop, offset,
        _sample_marks(engine.sinks, offset + start, offset + stop), remap,
    )
    congestion = _serve_marked(engine.strategy, span)
    return _emit_segments(engine, span.edges, span.kept, congestion)


@dataclass
class SimulationResult:
    """Outcome of one engine run: strategy, substrate and sink handles."""

    strategy: object
    account: object
    network: object
    n_events: int
    served: int
    dropped: int
    outcomes: List[MutationOutcome] = field(default_factory=list)
    sinks: Tuple[MetricsSink, ...] = ()

    @property
    def congestion(self) -> float:
        """Final congestion of the replayed account."""
        return self.account.congestion

    @property
    def n_mutations(self) -> int:
        """Number of mutations applied during the replay."""
        return len(self.outcomes)

    def sink(self, kind: Type[MetricsSink]) -> Optional[MetricsSink]:
        """First attached sink of the given type (``None`` if absent)."""
        for sink in self.sinks:
            if isinstance(sink, kind):
                return sink
        return None


class _EngineView:
    """What sinks read off an engine: the account and the boundary congestion."""

    _boundary_congestion: Optional[float] = None

    @property
    def account(self):
        """The strategy's cost account (live view)."""
        return self.strategy.account

    @property
    def boundary_congestion(self) -> float:
        """Account congestion at the position of the current ``on_boundary``
        call (at a sample mark the live account is further along)."""
        value = self._boundary_congestion
        return self.account.congestion if value is None else value


class SimulationEngine(_EngineView):
    """Drive one strategy through one request/churn timeline.

    Parameters
    ----------
    strategy:
        Any object implementing the
        :class:`~repro.sim.protocol.PlacementStrategy` protocol.
    sinks:
        Metrics sinks.  Their ``interval`` hints become sample *marks*
        handed into ``serve_chunk``: each sink still sees one
        ``on_span``/``on_boundary`` pair per segment between marks, with
        the congestion at that boundary in :attr:`boundary_congestion`,
        while every span is served in one call.
    chunk_size:
        Optional upper bound on serve-span length (the batch replay
        grid).  ``None`` serves each uninterrupted span as one chunk.
    """

    def __init__(
        self,
        strategy,
        sinks: Sequence[MetricsSink] = (),
        chunk_size: Optional[int] = None,
    ) -> None:
        validate_strategy(strategy)
        if chunk_size is not None and chunk_size < 1:
            raise WorkloadError("chunk_size must be a positive integer")
        self.strategy = strategy
        self.sinks: Tuple[MetricsSink, ...] = tuple(sinks)
        self.chunk_size = chunk_size
        self.n_events = 0
        self.served = 0
        self.dropped = 0
        self.outcomes: List[MutationOutcome] = []

    # ------------------------------------------------------------------ #
    def run(
        self, sequence: RequestSequence, trace: Optional[ChurnTrace] = None
    ) -> SimulationResult:
        """Replay ``sequence`` (interleaved with ``trace``) to completion.

        Without a trace every event is served directly; with one, events
        address processors by reference ids (original ids plus one fresh
        id per attach in trace order), requests from departed or
        not-yet-arrived processors are dropped, and every mutation
        scheduled at time ``t`` is applied before the event at position
        ``t``.
        """
        strategy = self.strategy
        n_objects = getattr(strategy, "n_objects", None)
        if n_objects is not None and sequence.n_objects > n_objects:
            raise WorkloadError(
                "sequence references more objects than the strategy was built for"
            )
        self.n_events = len(sequence)
        self.served = 0
        self.dropped = 0
        self.outcomes = []

        items = merge_timeline(self.n_events, trace, self.chunk_size)

        tracker = remap = None
        if trace is not None:
            tracker = _ReferenceTracker(strategy.network.n_nodes, trace)
            remap = tracker.current_of_ref

        for sink in self.sinks:
            sink.on_begin(self)
        for item in items:
            if isinstance(item, MutationPoint):
                outcome = apply_mutation(strategy.network, item.mutation)
                strategy.apply_mutation(outcome)
                self.outcomes.append(outcome)
                if tracker is not None:
                    tracker.apply_outcome(item.mutation, outcome)
                for sink in self.sinks:
                    sink.on_mutation(self, outcome)
            else:  # ServeSpan
                _check_issuers(
                    strategy.network,
                    sequence.as_arrays()[0][item.start : item.stop],
                    remap,
                )
                _serve_span(self, sequence, item.start, item.stop, remap=remap)
        for sink in self.sinks:
            sink.on_end(self)

        return SimulationResult(
            strategy=strategy,
            account=strategy.account,
            network=strategy.network,
            n_events=self.n_events,
            served=self.served,
            dropped=self.dropped,
            outcomes=self.outcomes,
            sinks=self.sinks,
        )

    # ------------------------------------------------------------------ #
    # fleet replay: all strategies in one stacked pass over the timeline
    # ------------------------------------------------------------------ #
    @classmethod
    def run_fleet(
        cls,
        strategies: Sequence[object],
        sequence: RequestSequence,
        trace: Optional[ChurnTrace] = None,
        sinks: Optional[Sequence[Sequence[MetricsSink]]] = None,
        chunk_size: Optional[int] = None,
    ) -> List[SimulationResult]:
        """Replay one timeline under every strategy at once, stacked.

        The comparative experiment shape of the paper -- the same
        request/churn timeline under a whole strategy family -- pays K
        full passes when run strategy by strategy.  ``run_fleet`` decodes
        the timeline **once**, rebinds every strategy's (fresh) cost
        account onto one lane -- a plain
        :class:`~repro.core.loadstate.LoadState` bound to one row -- of a
        shared :class:`~repro.core.loadstate.StackedLoadState`, and serves
        each span for all K strategies against the stacked substrate:

        * strategies whose class implements the ``serve_chunk_fleet``
          group hook (see :func:`~repro.sim.protocol.fleet_groups`) share
          per-chunk work across their lanes: static lanes share the chunk
          aggregation, batched LCA/distance pass and one lane-broadcast
          edge scatter; adaptive counter lanes
          (:class:`~repro.dynamic.online.EdgeCounterManager` and its
          tournament subclasses) share the chunk decode, the per-object
          position index and one bulk nearest-table build, each lane
          replaying its own counter cascade exactly;
        * every other strategy is served through its own ``serve_chunk``
          against its lane, so custom strategies remain exact;
        * churn mutations are applied once, the stacked substrate is
          repaired once for all lanes, and the reference-id remapping of
          each span is resolved once.

        Per-lane metrics flow through per-strategy sink sets (``sinks[k]``
        observes lane ``k`` through its own engine view).  Each span is
        served once with the union of all lanes' sample marks; every lane's
        sinks then see exactly the segments of its *own* marks, as in a
        sequential run, whatever the other lanes sample.

        The results are **bit-for-bit** those of K sequential
        :meth:`run` calls over fresh strategies (loads, congestion,
        trajectories, drops, cost breakdowns); all charges are integer
        request counts, so lane arithmetic is exact in any order.
        ``tests/properties/test_fleet_parity.py`` pins this.

        Parameters
        ----------
        strategies:
            Distinct, freshly-built strategies sharing one network object
            and unused cost accounts (their states are rebound to fleet
            lanes, which do not support snapshots).
        sequence / trace / chunk_size:
            As in :meth:`run`.
        sinks:
            Optional per-strategy sink sets (``len(sinks) == K``).

        Returns
        -------
        list of SimulationResult, in strategy order.
        """
        from repro.core.loadstate import LoadState, StackedLoadState

        strategies = list(strategies)
        if not strategies:
            raise SimulationError("run_fleet needs at least one strategy")
        if len(set(map(id, strategies))) != len(strategies):
            raise SimulationError("fleet strategies must be distinct instances")
        if sinks is None:
            sinks = [()] * len(strategies)
        sinks = [tuple(lane_sinks) for lane_sinks in sinks]
        if len(sinks) != len(strategies):
            raise SimulationError("run_fleet needs one sink set per strategy")

        base_net = strategies[0].network
        for strategy in strategies:
            validate_strategy(strategy)
            if strategy.network is not base_net:
                raise SimulationError(
                    "fleet strategies must share one network object (build "
                    "them against the same HierarchicalBusNetwork instance)"
                )
            n_objects = getattr(strategy, "n_objects", None)
            if n_objects is not None and sequence.n_objects > n_objects:
                raise WorkloadError(
                    "sequence references more objects than the strategy was "
                    "built for"
                )

        # validate freshness over the whole fleet BEFORE rebinding any
        # account: a rejected fleet must leave every strategy untouched
        for strategy in strategies:
            account = strategy.account
            state = getattr(account, "state", None)
            fresh = (
                isinstance(state, LoadState)
                and not np.any(state._loads)
                and not account.service_units
                and not account.management_units
            )
            if not fresh:
                raise SimulationError(
                    "fleet strategies must be freshly built: their cost "
                    "accounts are rebound onto lanes of one stacked substrate"
                )
        stacked = StackedLoadState(base_net, len(strategies))
        for k, strategy in enumerate(strategies):
            strategy.account.state = stacked.lane(k)

        engines = [
            cls(strategy, sinks=sinks[k], chunk_size=chunk_size)
            for k, strategy in enumerate(strategies)
        ]
        n_events = len(sequence)
        for engine in engines:
            engine.n_events = n_events
            engine.served = 0
            engine.dropped = 0
            engine.outcomes = []

        items = merge_timeline(n_events, trace, chunk_size)

        tracker = remap = None
        if trace is not None:
            tracker = _ReferenceTracker(base_net.n_nodes, trace)
            remap = tracker.current_of_ref

        groups = fleet_groups(strategies)
        index = {id(strategy): k for k, strategy in enumerate(strategies)}

        for engine in engines:
            for sink in engine.sinks:
                sink.on_begin(engine)
        for item in items:
            if isinstance(item, MutationPoint):
                outcome = apply_mutation(strategies[0].network, item.mutation)
                for k, strategy in enumerate(strategies):
                    # the lane repair is idempotent per outcome, so the
                    # stacked substrate is repaired exactly once
                    strategy.apply_mutation(outcome)
                    engines[k].outcomes.append(outcome)
                if tracker is not None:
                    tracker.apply_outcome(item.mutation, outcome)
                for engine in engines:
                    for sink in engine.sinks:
                        sink.on_mutation(engine, outcome)
            else:  # ServeSpan
                start, stop = item.start, item.stop
                _check_issuers(
                    strategies[0].network,
                    sequence.as_arrays()[0][start:stop],
                    remap,
                )
                lane_marks = [
                    _sample_marks(engine.sinks, start, stop) for engine in engines
                ]
                marks = sorted(set().union(*lane_marks))
                span = _MarkedSpan(sequence, start, stop, 0, marks, remap)
                congestion = np.empty((len(marks), len(strategies)))
                for group_cls, members in groups:
                    cols = [index[id(m)] for m in members]
                    if group_cls is None:
                        congestion[:, cols[0]] = _serve_marked(members[0], span)
                    elif span.sub is None:
                        congestion[:, cols] = [
                            m.account.congestion for m in members
                        ]
                    else:
                        congestion[:, cols] = group_cls.serve_chunk_fleet(
                            members, span.sub, span.sub_start, span.sub_stop,
                            marks=span.sub_marks,
                        )
                for k, engine in enumerate(engines):
                    # the lane's own marks: a subset of the union
                    at = np.searchsorted(marks, lane_marks[k]).astype(np.int64)
                    pick = np.concatenate([[0], at + 1, [len(marks) + 1]])
                    _emit_segments(
                        engine, [span.edges[j] for j in pick], span.kept[pick],
                        congestion[at, k].tolist(),
                    )
        for engine in engines:
            for sink in engine.sinks:
                sink.on_end(engine)

        return [
            SimulationResult(
                strategy=engine.strategy,
                account=engine.strategy.account,
                network=engine.strategy.network,
                n_events=engine.n_events,
                served=engine.served,
                dropped=engine.dropped,
                outcomes=engine.outcomes,
                sinks=engine.sinks,
            )
            for engine in engines
        ]


class EngineStream(_EngineView):
    """Incremental, span-feeding counterpart of :meth:`SimulationEngine.run`.

    The offline engine walks a *complete* timeline; a serving front end
    only ever sees a prefix.  ``EngineStream`` accepts request micro-batches
    (:meth:`serve`) and churn mutations (:meth:`mutate`) in arrival order
    and keeps the strategy, its cost account and the attached sinks in
    exactly the state the offline engine would reach after replaying the
    same prefix.  :meth:`finish` seals the stream and returns the same
    :class:`SimulationResult` shape as :meth:`SimulationEngine.run`.

    **Parity contract (ARCHITECTURE invariant 10).**  For any completed
    stream, the final loads, cost units, congestion, served/dropped totals,
    mutation outcomes and sampled trajectories are **bit-for-bit** equal to
    an offline :meth:`SimulationEngine.run` over the recorded sequence and
    churn trace.  This holds for *any* micro-batch partition of the event
    stream because ``serve_chunk`` is contractually equal to event-by-event
    serving, because the stream cuts every batch at the offline
    ``chunk_size`` grid, and because the sinks' sample positions go into
    ``serve_chunk`` as marks, so samples land at identical event positions
    with identical values.  Only span-*granular* observations (e.g. the
    per-span drop list) depend on the partition.

    Differences from the offline run, by necessity of streaming:

    * ``n_events`` is ``-1`` while the stream is open (the total is
      unknown); sinks comparing positions against it must tolerate that.
      :meth:`finish` sets the final count and emits one closing
      ``on_boundary`` at it, which built-in sinks deduplicate.
    * The reference universe grows with the stream: events may only
      address reference ids that already exist (original nodes plus
      attaches applied *so far*).  An id that the offline engine would
      resolve against a later attach (and drop) is rejected here with
      :class:`~repro.errors.WorkloadError` -- failing loud beats silently
      guessing the future.  Batches are validated before any event is
      served, so a rejected batch leaves the account untouched.
    """

    def __init__(
        self,
        strategy,
        sinks: Sequence[MetricsSink] = (),
        chunk_size: Optional[int] = None,
    ) -> None:
        validate_strategy(strategy)
        if chunk_size is not None and chunk_size < 1:
            raise WorkloadError("chunk_size must be a positive integer")
        self.strategy = strategy
        self.sinks: Tuple[MetricsSink, ...] = tuple(sinks)
        self.chunk_size = chunk_size
        self.position = 0
        self.n_events = -1  # unknown until finish()
        self.served = 0
        self.dropped = 0
        self.outcomes: List[MutationOutcome] = []
        self._base_n = strategy.network.n_nodes
        # identity until the first mutation; then the growing
        # reference-id -> current-node mapping (one fresh id per attach)
        self._tracker: Optional[_ReferenceTracker] = None
        self._pending_mutations: List[object] = []
        self._finished = False
        for sink in self.sinks:
            sink.on_begin(self)

    @property
    def n_refs(self) -> int:
        """Size of the current reference-id universe."""
        if self._tracker is None:
            return self._base_n
        return self._tracker.n_refs

    def _check_open(self) -> None:
        if self._finished:
            raise SimulationError("stream is finished; no further feeding")

    def _as_batch(self, events) -> RequestSequence:
        """Events -> one validated micro-batch sequence."""
        if isinstance(events, RequestSequence):
            batch = events
        else:
            events = list(events)
            n_objects = getattr(self.strategy, "n_objects", None)
            if n_objects is None:
                n_objects = 1 + max((ev.obj for ev in events), default=-1)
            batch = RequestSequence(events, n_objects)
        n_objects = getattr(self.strategy, "n_objects", None)
        if n_objects is not None and batch.n_objects > n_objects:
            raise WorkloadError(
                "sequence references more objects than the strategy was built for"
            )
        # the whole batch, before any of it is served: a rejected batch
        # leaves the account untouched
        _check_issuers(
            self.strategy.network,
            batch.as_arrays()[0],
            None if self._tracker is None else self._tracker.current_of_ref,
        )
        return batch

    def serve(self, events) -> Tuple[int, int]:
        """Serve one micro-batch now; returns its ``(served, dropped)`` split.

        ``events`` is an iterable of
        :class:`~repro.dynamic.sequence.RequestEvent` (or a prebuilt
        :class:`~repro.dynamic.sequence.RequestSequence`).  The batch is
        validated atomically, cut only at the ``chunk_size`` grid, and each
        piece goes through the same chunk fast path as the offline engine,
        with the sinks' sample positions inside it as marks -- one
        ``serve_chunk`` call per batch when there is no ``chunk_size``.
        Events from departed reference ids are dropped (counted, not
        served), exactly as offline.
        """
        self._check_open()
        self._flush_mutations()
        batch = self._as_batch(events)
        n = len(batch)
        if n == 0:
            return 0, 0
        start = self.position
        stop = start + n
        edges = [start, stop]
        if self.chunk_size is not None:
            grid = self.chunk_size
            edges[1:1] = range((start // grid + 1) * grid, stop, grid)
        remap = None if self._tracker is None else self._tracker.current_of_ref
        batch_served = batch_dropped = 0
        for a, b in zip(edges, edges[1:]):
            self.position = b
            served, dropped = _serve_span(
                self, batch, a - start, b - start, start, remap
            )
            batch_served += served
            batch_dropped += dropped
        return batch_served, batch_dropped

    def mutate(self, mutation) -> None:
        """Schedule one churn mutation at the current stream position.

        Mutations apply *lazily*: the queue is flushed immediately before
        the next served event (or, for trailing mutations, after the
        closing boundary of :meth:`finish`).  This is exactly the offline
        timeline contract -- a mutation at time ``t`` lands before the
        event at position ``t``, and mutations at or past the final
        position land after the final serve span, so the forced final
        trajectory sample precedes them.
        """
        self._check_open()
        self._pending_mutations.append(mutation)

    def _flush_mutations(self) -> None:
        """Apply every queued mutation, in arrival order."""
        pending, self._pending_mutations = self._pending_mutations, []
        for mutation in pending:
            outcome = apply_mutation(self.strategy.network, mutation)
            self.strategy.apply_mutation(outcome)
            self.outcomes.append(outcome)
            if self._tracker is None:
                self._tracker = _ReferenceTracker(self._base_n)
            self._tracker.apply_outcome(mutation, outcome)
            for sink in self.sinks:
                sink.on_mutation(self, outcome)

    def finish(self) -> SimulationResult:
        """Seal the stream and return the offline-shaped result."""
        self._check_open()
        self._finished = True
        self.n_events = self.position
        self._boundary_congestion = None
        for sink in self.sinks:
            sink.on_boundary(self, self.position)
        self._flush_mutations()
        for sink in self.sinks:
            sink.on_end(self)
        return SimulationResult(
            strategy=self.strategy,
            account=self.strategy.account,
            network=self.strategy.network,
            n_events=self.n_events,
            served=self.served,
            dropped=self.dropped,
            outcomes=self.outcomes,
            sinks=self.sinks,
        )


class RoundReplayDriver:
    """Round-mode kernel: charge delivery rounds into a load state.

    Used by the store-and-forward request replay: the scheduler decides
    *which* traversals complete each round, the driver owns the substrate
    charging and the per-round sink notifications (cumulative congestion,
    delivery counts).
    """

    def __init__(self, state, sinks: Sequence[MetricsSink] = ()) -> None:
        self.state = state
        self.sinks: Tuple[MetricsSink, ...] = tuple(sinks)
        self.n_rounds = 0

    def run(self, rounds) -> int:
        """Apply every round batch in order; returns the round count."""
        for sink in self.sinks:
            sink.on_begin(self)
        for edge_ids in rounds:
            ids = np.asarray(edge_ids, dtype=np.int64)
            self.state.apply_edges(ids)
            index = self.n_rounds
            self.n_rounds += 1
            for sink in self.sinks:
                sink.on_round(self, index, ids.size)
        for sink in self.sinks:
            sink.on_end(self)
        return self.n_rounds
