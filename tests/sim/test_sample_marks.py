"""Structural checks of the sample-mark engine: calls, not timings.

Sample positions go into one ``serve_chunk`` call per span as marks
instead of cutting the span.  These tests count the calls that reach the
strategy and pin the complete sink call sequence of a few replays --
spans with their served/dropped split, boundaries with the congestion
reported there, mutations -- against ``data/pinned_sink_calls.json``,
recorded with the engine from before marks existed (when sample
positions cut serve spans and the boundary congestion was read off the
live account), so the observable sink behaviour is provably unchanged.
"""

import json
from pathlib import Path

import pytest

from repro.dynamic.online import EdgeCounterManager, StaticPlacementManager
from repro.dynamic.sequence import RequestSequence
from repro.sim.engine import EngineStream, SimulationEngine
from repro.sim.scenario import build_scenario, scenario_spec
from repro.sim.sinks import MetricsSink, TrajectorySink

PINNED = Path(__file__).parent / "data" / "pinned_sink_calls.json"


class Recorder(MetricsSink):
    """Every sink hook call, with the congestion at each boundary."""

    def __init__(self):
        self.calls = []

    def on_begin(self, sim):
        self.calls.append(["begin"])

    def on_span(self, sim, start, stop, served, dropped):
        self.calls.append(["span", start, stop, served, dropped])

    def on_boundary(self, sim, position):
        self.calls.append(["boundary", position, float(sim.boundary_congestion)])

    def on_mutation(self, sim, outcome):
        self.calls.append(["mutation", outcome.network.n_nodes])

    def on_end(self, sim):
        self.calls.append(["end", sim.n_events, sim.served, sim.dropped])


@pytest.fixture
def serve_chunk_calls(monkeypatch):
    """Count ``serve_chunk`` calls reaching the static and adaptive classes."""
    calls = []
    for cls in (StaticPlacementManager, EdgeCounterManager):
        original = cls.serve_chunk

        def counting(self, sequence, start, stop, marks=(), _original=original):
            calls.append((start, stop, len(marks)))
            return _original(self, sequence, start, stop, marks)

        monkeypatch.setattr(cls, "serve_chunk", counting)
    return calls


def zipf_8192():
    """The registry zipf spec's events looped to 8,192 (its sinks sample
    every 24 events, as derived from the spec's own 96-event sequence)."""
    scenario = build_scenario(scenario_spec("zipf"))[0]
    events = list(scenario.sequence.events)
    sequence = RequestSequence(
        (events * (8192 // len(events) + 1))[:8192], scenario.sequence.n_objects
    )
    return scenario, sequence


def maintenance():
    """A churn scenario with drops, plus a 17-event trajectory grid."""
    scenario = build_scenario(scenario_spec("maintenance"))[0]
    make_sinks = scenario.make_sinks
    return scenario, lambda: [*make_sinks(), TrajectorySink(17)]


def stream_in_batches(strategy, sinks, sequence, trace, sizes=(13, 1, 50, 7)):
    """Feed ``sequence`` through an ``EngineStream`` in cycling batch sizes,
    each mutation at its scheduled time."""
    stream = EngineStream(strategy, sinks=sinks)
    events = list(sequence.events)
    mutations = list(trace.events)
    position = applied = k = 0
    while position < len(events):
        while applied < len(mutations) and mutations[applied].time <= position:
            stream.mutate(mutations[applied].mutation)
            applied += 1
        stop = min(len(events), position + sizes[k % len(sizes)])
        if applied < len(mutations):
            stop = min(stop, max(position + 1, mutations[applied].time))
        stream.serve(events[position:stop])
        position, k = stop, k + 1
    for timed in mutations[applied:]:
        stream.mutate(timed.mutation)
    stream.finish()


def test_zipf_replay_with_spec_sinks_is_one_serve_chunk_call(serve_chunk_calls):
    scenario, sequence = zipf_8192()
    for _name, factory in scenario.strategies:
        serve_chunk_calls.clear()
        SimulationEngine(factory(), sinks=scenario.make_sinks()).run(sequence)
        assert serve_chunk_calls == [(0, 8192, len(range(24, 8192, 24)))]


def test_stream_makes_one_call_per_batch(serve_chunk_calls):
    scenario, sequence = zipf_8192()
    for _name, factory in scenario.strategies:
        serve_chunk_calls.clear()
        stream = EngineStream(factory(), sinks=scenario.make_sinks())
        batches = [(0, 100), (100, 101), (101, 1000), (1000, 8192)]
        for start, stop in batches:
            stream.serve(sequence.events[start:stop])
        stream.finish()
        assert [(a, b) for a, b, _k in serve_chunk_calls] == [
            (0, 100), (0, 1), (0, 899), (0, 7192)
        ]


def test_chunk_grid_still_cuts_spans(serve_chunk_calls):
    scenario, sequence = zipf_8192()
    factory = dict(scenario.strategies)["hindsight-static"]
    SimulationEngine(factory(), sinks=scenario.make_sinks(), chunk_size=4096).run(
        sequence
    )
    assert [(a, b) for a, b, _k in serve_chunk_calls] == [(0, 4096), (4096, 8192)]


def test_sink_calls_equal_the_pinned_sequence():
    pinned = json.loads(PINNED.read_text())
    got = {}

    scenario, sequence = zipf_8192()
    for name, factory in scenario.strategies:
        recorder = Recorder()
        SimulationEngine(factory(), sinks=[*scenario.make_sinks(), recorder]).run(
            sequence
        )
        got[f"zipf-8192/run/{name}"] = recorder.calls

    scenario, make_sinks = maintenance()
    names = [name for name, _ in scenario.strategies]
    for name, factory in scenario.strategies:
        recorder = Recorder()
        SimulationEngine(factory(), sinks=[*make_sinks(), recorder]).run(
            scenario.sequence, scenario.trace
        )
        got[f"maintenance/run/{name}"] = recorder.calls
    recorders = [Recorder() for _ in names]
    SimulationEngine.run_fleet(
        [factory() for _, factory in scenario.strategies],
        scenario.sequence, scenario.trace,
        sinks=[[*make_sinks(), recorder] for recorder in recorders],
    )
    for name, recorder in zip(names, recorders):
        got[f"maintenance/fleet/{name}"] = recorder.calls
    for name, factory in scenario.strategies:
        recorder = Recorder()
        stream_in_batches(
            factory(), [*make_sinks(), recorder], scenario.sequence, scenario.trace
        )
        got[f"maintenance/stream/{name}"] = recorder.calls

    assert sorted(got) == sorted(pinned)
    for key in pinned:
        assert got[key] == pinned[key], key
