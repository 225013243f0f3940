"""Pluggable metrics sinks for the simulation kernel.

The engine owns *when* things happen (spans, mutations, rounds); sinks own
*what is measured*.  A sink subscribes to the hooks it cares about; every
hook receives the driving engine (or round driver), so sinks read metrics
straight off the shared load-state substrate instead of keeping private
bookkeeping -- the same "one substrate" rule the strategies follow.

**Sample marks.**  A sink's ``interval`` asks for samples at its
multiples.  The engine does not cut serve spans there: it hands the
positions into the span's single ``serve_chunk`` call as marks and gets
the congestion at each of them back.  Sinks still see one ``on_span`` /
``on_boundary`` pair per segment between marks, and read the congestion
at a boundary from ``sim.boundary_congestion`` -- the live account may
already be further along the span.

**Fleet replay.**  Under
:meth:`~repro.sim.engine.SimulationEngine.run_fleet` each strategy keeps
its own sink set, and every hook receives that strategy's per-lane engine
view -- ``sim.account`` reads the strategy's lane of the stacked
substrate, so sinks work unchanged.  Each lane's sinks see exactly the
segments of their own sample positions, so they record what they would
in a sequential run whatever the other lanes sample.

Built-in sinks:

* :class:`TrajectorySink` -- congestion sampled every ``sample_every``
  processed events (plus a forced final sample), the streaming read
  pattern of :func:`repro.dynamic.evaluate.congestion_trajectory` and
  :func:`repro.dynamic.churn.replay_with_churn`;
* :class:`DropAccountingSink` -- served/dropped split per span and in
  total (reference-id requests from departed processors);
* :class:`CostBreakdownSink` -- final service/management/total-load/
  congestion breakdown of the strategy's cost account;
* :class:`RoundStatsSink` -- per-round cumulative congestion and delivery
  counts for the store-and-forward round replay.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = [
    "MetricsSink",
    "TrajectorySink",
    "DropAccountingSink",
    "CostBreakdownSink",
    "RoundStatsSink",
]


class MetricsSink:
    """Base sink: every hook is a no-op; subclasses override what they need.

    ``interval`` (when not ``None``) asks the engine for sample marks at
    multiples of that many events: the sink gets an :meth:`on_boundary`
    call exactly at its sample positions, with the congestion there in
    ``sim.boundary_congestion``, while the engine serves each span in one
    ``serve_chunk`` call.
    """

    interval: Optional[int] = None

    def on_begin(self, sim) -> None:
        """Called once before the first timeline item."""

    def on_span(self, sim, start: int, stop: int, served: int, dropped: int) -> None:
        """Called after each serve span (original event positions)."""

    def on_boundary(self, sim, position: int) -> None:
        """Called after serving up to ``position`` events (ascending);
        ``sim.boundary_congestion`` is the congestion at that position."""

    def on_mutation(self, sim, outcome) -> None:
        """Called after a mutation was applied and the strategy repaired."""

    def on_round(self, sim, index: int, n_delivered: int) -> None:
        """Called after each delivery round (round replay only)."""

    def on_end(self, sim) -> None:
        """Called once after the final timeline item."""


class TrajectorySink(MetricsSink):
    """Sample the congestion every ``sample_every`` processed events.

    Matches the legacy sampling rule exactly: a sample lands after event
    ``i`` whenever ``(i + 1) % sample_every == 0`` or ``i + 1`` is the
    sequence length (the forced final sample).  Dropped events advance the
    position like served ones, as in the churn replay.  Values are the
    engine-reported congestion at each boundary.
    """

    def __init__(self, sample_every: int) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be a positive integer")
        self.sample_every = int(sample_every)
        self._samples: List[float] = []
        self._times: List[int] = []

    @property
    def interval(self) -> int:  # type: ignore[override]
        return self.sample_every

    def on_boundary(self, sim, position: int) -> None:
        if position < 1:
            return
        if position % self.sample_every == 0 or position == sim.n_events:
            if self._times and self._times[-1] == position:
                return
            self._samples.append(sim.boundary_congestion)
            self._times.append(position)

    @property
    def trajectory(self) -> np.ndarray:
        """Sampled congestion values in order."""
        return np.asarray(self._samples, dtype=np.float64)

    @property
    def sample_times(self) -> np.ndarray:
        """Event positions (1-based) at which the samples were taken."""
        return np.asarray(self._times, dtype=np.int64)


class DropAccountingSink(MetricsSink):
    """Track the served/dropped split of reference-id addressed requests."""

    def __init__(self) -> None:
        self.served = 0
        self.dropped = 0
        self.span_drops: List[int] = []

    def on_span(self, sim, start: int, stop: int, served: int, dropped: int) -> None:
        self.served += served
        self.dropped += dropped
        if dropped:
            self.span_drops.append(dropped)


class CostBreakdownSink(MetricsSink):
    """Capture the final cost breakdown of the strategy's account."""

    def __init__(self) -> None:
        self.breakdown: Dict[str, float] = {}

    def on_end(self, sim) -> None:
        account = sim.account
        self.breakdown = {
            "congestion": float(account.congestion),
            "total_load": float(account.total_load),
            "service_load": float(account.service_units),
            "management_load": float(account.management_units),
        }


class RoundStatsSink(MetricsSink):
    """Per-round cumulative congestion and delivery counts (round replay)."""

    def __init__(self) -> None:
        self._congestion: List[float] = []
        self._delivered: List[int] = []

    def on_round(self, sim, index: int, n_delivered: int) -> None:
        self._congestion.append(sim.state.congestion)
        self._delivered.append(int(n_delivered))

    @property
    def round_congestion(self) -> np.ndarray:
        """Cumulative congestion of the traffic delivered up to each round."""
        return np.asarray(self._congestion, dtype=np.float64)

    @property
    def delivered_per_round(self) -> np.ndarray:
        """Number of traversals delivered in each round."""
        return np.asarray(self._delivered, dtype=np.int64)

    @property
    def n_rounds(self) -> int:
        """Number of delivery rounds observed."""
        return len(self._congestion)
