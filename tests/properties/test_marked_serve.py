"""Differential suite: one marked ``serve_chunk`` pass equals segment-wise serving.

``serve_chunk(sequence, start, stop, marks)`` serves a whole chunk in one
pass and returns the account congestion after each mark.  It must be
bit-for-bit what serving the chunk segment by segment (one unmarked
``serve_chunk`` per segment between marks, reading the congestion after
each) and what the scalar event loop produce: mark congestions, fused
loads, cost units and holder sets.  The engine-level half pins the same
through :class:`SimulationEngine` and :class:`EngineStream` with sinks --
sampled trajectories, per-segment drop accounting and the full sink call
sequence -- under churn, including a segment whose every event dropped,
sample marks on mutation times and on ``chunk_size`` multiples, and runs
with no marks at all.

Covers the static manager and the adaptive family (edge-counter,
hysteresis, rent-or-buy) on every available kernel backend.  The seed
matrix extends via ``REPRO_MARK_SEEDS`` (comma-separated integers).
"""

import os
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import kernels
from repro.core.extended_nibble import extended_nibble
from repro.dynamic.online import (
    EdgeCounterManager,
    HysteresisCounterManager,
    OnlineStrategy,
    RentOrBuyManager,
    StaticPlacementManager,
)
from repro.dynamic.sequence import READ, WRITE, RequestEvent, RequestSequence
from repro.network.builders import balanced_tree, random_tree
from repro.network.mutation import (
    ChurnTrace,
    DetachLeaf,
    SetBusBandwidth,
    apply_mutation,
)
from repro.sim.engine import EngineStream, SimulationEngine
from repro.sim.sinks import (
    CostBreakdownSink,
    DropAccountingSink,
    MetricsSink,
    TrajectorySink,
)
from repro.workload.churn import mutation_storm, random_valid_mutation
from repro.workload.generators import zipf_pattern

N_OBJECTS = 5
KINDS = ("static", "edge-counter", "hysteresis", "rent-or-buy")
BACKENDS = kernels.available_backends()


def _seed_matrix():
    raw = os.environ.get("REPRO_MARK_SEEDS", "")
    if raw.strip():
        return tuple(int(s) for s in raw.split(","))
    return (0, 1, 2)


SEEDS = _seed_matrix()


def make_strategy(kind, network, seed):
    if kind == "static":
        pattern = zipf_pattern(network, N_OBJECTS, requests_per_processor=4, seed=seed)
        return StaticPlacementManager(network, extended_nibble(network, pattern).placement)
    if kind == "edge-counter":
        return EdgeCounterManager(network, N_OBJECTS, object_size=2)
    if kind == "hysteresis":
        return HysteresisCounterManager(
            network, N_OBJECTS, object_size=2, migration_factor=2
        )
    return RentOrBuyManager(
        network, N_OBJECTS, replicate_threshold=3, migrate_threshold=2,
        invalidation_patience=1,
    )


def random_events(rng, processors, n):
    return [
        RequestEvent(
            int(rng.choice(processors)),
            int(rng.integers(N_OBJECTS)),
            WRITE if rng.random() < 0.3 else READ,
        )
        for _ in range(n)
    ]


def serve_segmentwise(strategy, sequence, start, stop, marks):
    """The definition: one unmarked chunk per segment, congestion after each."""
    out = []
    lo = start
    for mark in marks:
        if mark > lo:
            strategy.serve_chunk(sequence, lo, mark)
            lo = mark
        out.append(strategy.account.congestion)
    if stop > lo:
        strategy.serve_chunk(sequence, lo, stop)
    return np.asarray(out, dtype=np.float64)


def assert_same_state(a, b):
    state_a, state_b = a.account.state, b.account.state
    assert state_a._loads.tobytes() == state_b._loads.tobytes()
    assert a.account.congestion == b.account.congestion
    assert a.account.service_units == b.account.service_units
    assert a.account.management_units == b.account.management_units
    for obj in range(N_OBJECTS):
        assert a.holders(obj) == b.holders(obj)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("churn", (False, True), ids=("plain", "churn"))
@pytest.mark.parametrize("seed", SEEDS)
def test_marked_chunk_equals_segmentwise(backend, kind, churn, seed):
    """Random chunks with random marks (duplicates, at the chunk edges, none)."""
    rng = np.random.default_rng(seed)
    network = random_tree(4, 12, seed=seed)
    with kernels.use_backend(backend):
        one_pass, split, scalar = (
            make_strategy(kind, network, seed) for _ in range(3)
        )
        for step in range(14):
            if churn and step % 3 == 2:
                mutation = random_valid_mutation(one_pass.network, rng)
                for strategy in (one_pass, split, scalar):
                    strategy.apply_mutation(apply_mutation(strategy.network, mutation))
            n = int(rng.integers(0, 70))
            pad = int(rng.integers(0, 4))
            sequence = RequestSequence(
                random_events(rng, one_pass.network.processors, pad + n), N_OBJECTS
            )
            k = 0 if step % 4 == 0 else int(rng.integers(1, 9))
            marks = sorted(int(m) for m in rng.integers(pad, pad + n + 1, size=k))
            got = one_pass.serve_chunk(sequence, pad, pad + n, marks)
            want = serve_segmentwise(split, sequence, pad, pad + n, marks)
            ref = OnlineStrategy.serve_chunk(scalar, sequence, pad, pad + n, marks)
            assert got.shape == (len(marks),)
            assert got.tobytes() == want.tobytes() == ref.tobytes()
            assert_same_state(one_pass, split)
            assert_same_state(one_pass, scalar)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_many_marks_are_served_in_blocks(backend, kind, monkeypatch):
    """More marks than one scratch block holds: the blocked pass is exact."""
    from repro.dynamic import online

    rng = np.random.default_rng(7)
    network = balanced_tree(2, 3, 2)
    # three marks per block
    rows = network.n_edges + network.n_nodes
    monkeypatch.setattr(online, "_MARK_SCRATCH_BYTES", 24 * rows * 3)
    with kernels.use_backend(backend):
        one_pass, split = (make_strategy(kind, network, 7) for _ in range(2))
        sequence = RequestSequence(
            random_events(rng, network.processors, 300), N_OBJECTS
        )
        marks = list(range(0, 301, 7))
        got = one_pass.serve_chunk(sequence, 0, 300, marks)
        want = serve_segmentwise(split, sequence, 0, 300, marks)
        assert got.tobytes() == want.tobytes()
        assert_same_state(one_pass, split)

        # the fleet hooks block the same way
        fleet = SimulationEngine.run_fleet(
            [make_strategy(kind, network, 7) for _ in range(2)], sequence,
            sinks=[[TrajectorySink(7)] for _ in range(2)],
        )
        alone = SimulationEngine(
            make_strategy(kind, network, 7), sinks=[TrajectorySink(7)]
        ).run(sequence)
        for result in fleet:
            assert (result.sink(TrajectorySink).trajectory.tobytes()
                    == alone.sink(TrajectorySink).trajectory.tobytes())
            assert result.account.state.edge_loads.tobytes() == (
                alone.account.state.edge_loads.tobytes()
            )


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("n_segs", (1, 4))
def test_pair_columns_match_per_lane_segment_columns(backend, n_segs):
    """Each (segment, lane) column is the plain pair scatter of its pairs."""
    from repro.dynamic.online import _pair_columns

    rng = np.random.default_rng(5)
    network = balanced_tree(2, 3, 2)
    pm = network.rooted().path_matrix()
    procs = np.asarray(network.processors)
    u = rng.choice(procs, size=40)
    targets = rng.choice(procs, size=(40, 6))
    w = rng.integers(1, 5, size=40).astype(np.float64)
    segs = rng.integers(0, n_segs, size=40)
    with kernels.use_backend(backend):
        columns = _pair_columns(pm, n_segs, u, targets, w, segs)
        assert columns.shape == (network.n_edges, n_segs, 6)
        for seg in range(n_segs):
            rows = segs == seg
            for lane in range(6):
                expected = pm.pair_edge_loads(u[rows], targets[rows, lane], w[rows])
                assert np.array_equal(columns[:, seg, lane], expected)


# --------------------------------------------------------------------------- #
# engine level: sinks, drops, mutation times and the chunk grid
# --------------------------------------------------------------------------- #
class CallRecorder(MetricsSink):
    """Every sink call, with the congestion reported at each boundary."""

    def __init__(self):
        self.calls = []

    def on_span(self, sim, start, stop, served, dropped):
        self.calls.append(("span", start, stop, served, dropped))

    def on_boundary(self, sim, position):
        self.calls.append(("boundary", position, sim.boundary_congestion))

    def on_mutation(self, sim, outcome):
        self.calls.append(("mutation", outcome.network.n_nodes))


def segmentwise(strategy):
    """Force one ``serve_chunk`` call per segment (the pre-mark engine shape)."""
    plain = SimpleNamespace(serve_chunk=strategy.serve_chunk, account=strategy.account)

    def serve_chunk(sequence, start, stop, marks=()):
        return serve_segmentwise(plain, sequence, start, stop, marks)

    strategy.serve_chunk = serve_chunk
    return strategy


def make_sinks(interval):
    return [
        TrajectorySink(interval),
        DropAccountingSink(),
        CostBreakdownSink(),
        CallRecorder(),
    ]


def observe(result):
    trajectory = result.sink(TrajectorySink)
    drops = result.sink(DropAccountingSink)
    return {
        "trajectory": trajectory.trajectory.tobytes(),
        "times": trajectory.sample_times.tolist(),
        "drops": (drops.served, drops.dropped, drops.span_drops),
        "breakdown": result.sink(CostBreakdownSink).breakdown,
        "calls": result.sink(CallRecorder).calls,
        "totals": (result.n_events, result.served, result.dropped, result.n_mutations),
    }


def crafted_instance():
    """A detach that drops a whole sample segment, a bandwidth change on a
    sample mark, and sample marks on the chunk grid."""
    network = balanced_tree(2, 2, 2)
    procs = network.processors
    victim, others = procs[0], procs[1:]
    rng = np.random.default_rng(3)
    events = []
    for i in range(60):
        proc = victim if 10 <= i < 20 else int(rng.choice(others))
        kind = WRITE if rng.random() < 0.3 else READ
        events.append(RequestEvent(proc, int(rng.integers(N_OBJECTS)), kind))
    trace = ChurnTrace([
        (5, DetachLeaf(victim)),
        (20, SetBusBandwidth(network.buses[0], 3.0)),
        (60, SetBusBandwidth(network.buses[0], 2.0)),
    ])
    return network, RequestSequence(events, N_OBJECTS), trace


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("chunk_size", (None, 30, 7))
def test_engine_crafted_drops_and_coinciding_marks(backend, kind, chunk_size):
    network, sequence, trace = crafted_instance()
    with kernels.use_backend(backend):
        one_pass = SimulationEngine(
            make_strategy(kind, network, 3), sinks=make_sinks(10), chunk_size=chunk_size
        ).run(sequence, trace)
        split = SimulationEngine(
            segmentwise(make_strategy(kind, network, 3)), sinks=make_sinks(10),
            chunk_size=chunk_size,
        ).run(sequence, trace)
    assert observe(one_pass) == observe(split)
    assert_same_state(one_pass.strategy, split.strategy)
    # the segment [10, 20) is all victim traffic after the detach at 5
    inside = [
        call for call in one_pass.sink(CallRecorder).calls
        if call[0] == "span" and 10 <= call[1] and call[2] <= 20
    ]
    assert [call[3] for call in inside] == [0] * len(inside)
    assert sum(call[4] for call in inside) == 10


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_engine_and_stream_random_churn(backend, kind, seed):
    """Random intervals, chunk grids, storms and ragged stream batches."""
    rng = np.random.default_rng(seed + 100)
    network = random_tree(4, 12, seed=seed)
    sequence = RequestSequence(
        random_events(rng, network.processors, 200), N_OBJECTS
    )
    trace = mutation_storm(network, n_mutations=8, start=3, spacing=11, seed=seed)
    interval = int(rng.integers(1, 16))
    chunk_size = (None, int(rng.integers(1, 40)))[seed % 2]
    with kernels.use_backend(backend):
        one_pass = SimulationEngine(
            make_strategy(kind, network, seed), sinks=make_sinks(interval),
            chunk_size=chunk_size,
        ).run(sequence, trace)
        split = SimulationEngine(
            segmentwise(make_strategy(kind, network, seed)),
            sinks=make_sinks(interval), chunk_size=chunk_size,
        ).run(sequence, trace)
        assert observe(one_pass) == observe(split)
        assert_same_state(one_pass.strategy, split.strategy)

        # the same churn-free stream in ragged batches
        plain = SimulationEngine(
            make_strategy(kind, network, seed), sinks=make_sinks(interval),
            chunk_size=chunk_size,
        ).run(sequence)
        stream = EngineStream(
            make_strategy(kind, network, seed), sinks=make_sinks(interval),
            chunk_size=chunk_size,
        )
        events = list(sequence.events)
        position = 0
        while position < len(events):
            step = int(rng.integers(1, 45))
            stream.serve(events[position:position + step])
            position += step
        streamed = stream.finish()
    assert observe(streamed)["trajectory"] == observe(plain)["trajectory"]
    assert observe(streamed)["times"] == observe(plain)["times"]
    assert_same_state(streamed.strategy, plain.strategy)
