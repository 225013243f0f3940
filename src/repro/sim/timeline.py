"""Event timelines: the one ordering every replay loop shares.

A request/churn simulation is an ordered walk through two kinds of
timeline items:

* :class:`ServeSpan` -- a half-open range ``[start, stop)`` of request
  events served without interruption (the vectorized chunk fast path);
* :class:`MutationPoint` -- a topology mutation applied *before* the
  request at its scheduled time (the contract of
  :class:`~repro.network.mutation.ChurnTrace`).

:func:`merge_timeline` builds that ordering deterministically from a
sequence length, a churn trace and an optional chunk grid.  Metrics sample
points never cut a span: the engine hands them into each span's
``serve_chunk`` call as marks.  The engine walks the result in order; no replay
layer re-implements the interleaving rules.  (The store-and-forward round
replay has no request timeline -- its scheduler feeds per-round delivery
batches straight into :class:`~repro.sim.engine.RoundReplayDriver`.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Union

from repro.network.mutation import ChurnTrace, Mutation

__all__ = ["ServeSpan", "MutationPoint", "TimelineItem", "merge_timeline"]


@dataclass(frozen=True)
class ServeSpan:
    """Serve the request events ``[start, stop)`` with no interruption."""

    start: int
    stop: int


@dataclass(frozen=True)
class MutationPoint:
    """Apply ``mutation``; scheduled before the request at index ``time``."""

    time: int
    mutation: Mutation


TimelineItem = Union[ServeSpan, MutationPoint]


def merge_timeline(
    n_events: int,
    trace: Optional[ChurnTrace] = None,
    chunk_size: Optional[int] = None,
) -> List[TimelineItem]:
    """Merge requests and churn into one ordered timeline.

    Parameters
    ----------
    n_events:
        Length of the request sequence.
    trace:
        Optional churn trace; every mutation scheduled at time ``t`` is
        placed before the request at position ``t`` (ties keep trace
        order), and mutations scheduled at or past ``n_events`` land after
        the final serve span, in schedule order.
    chunk_size:
        Optional upper bound on serve-span length (the batch replay grid:
        spans break at multiples of ``chunk_size`` counted from 0).

    Returns
    -------
    list of TimelineItem
        Ordered :class:`MutationPoint` / :class:`ServeSpan` items covering
        exactly the events ``0 .. n_events`` and every trace mutation.
    """
    cuts = {0, n_events}
    if chunk_size is not None:
        for b in range(chunk_size, n_events, chunk_size):
            cuts.add(b)

    timed = list(trace.events) if trace is not None else []
    for ev in timed:
        if 0 < ev.time < n_events:
            cuts.add(int(ev.time))

    items: List[TimelineItem] = []
    order = sorted(cuts)
    ti = 0

    def flush_mutations(now: int) -> None:
        nonlocal ti
        while ti < len(timed) and timed[ti].time <= now:
            items.append(MutationPoint(timed[ti].time, timed[ti].mutation))
            ti += 1

    for start, stop in zip(order, order[1:]):
        flush_mutations(start)
        items.append(ServeSpan(start, stop))
    # mutations scheduled during or after the last position (including all
    # of them when the sequence is empty)
    flush_mutations(max(n_events, timed[-1].time if timed else 0))
    return items
