"""Workload generation: every input is a function of ``--seed``.

The program under test sees only what is generated here: a scenario spec
(by registry name and seed, or as a JSON file) and the message stream the
client sends.  ``derive`` splits the one run seed into independent seeds
per role, so arrival times, spec seeds and the replay seed never share a
random stream.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.serve.wire import encode_events, mutation_to_dict
from repro.sim.scenario import ScenarioSpec, build_scenario, scenario_spec

from client import Schedule

#: Events per ``requests`` message.
MESSAGE_EVENTS = 16

# serve-zipf: the primary open-loop rate, and the ladder that finds the knee.
ZIPF_RATE = 15000.0
ZIPF_LADDER = (20000.0, 30000.0, 40000.0, 50000.0)
#: p99 ack-latency limit (ms) a ladder rate must meet to count for the knee.
KNEE_P99_LIMIT_MS = 20.0

# serve-churn: per-session open-loop rate (2 sessions share one server).
# Chosen from churn_ladder.py (README "serve-churn rate ladder", 5 seeds):
# up to 1,500 ev/s per session the pooled p50 stays at 3.2-4.3 ms, and the
# p99 scatters between 11 and 80 ms from seed to seed: single long engine
# passes, not queueing.  From 2,000 on the p50 climbs (4.8-7.1 ms at
# 2,000-2,500, ~15 ms at 4,500), and from 2,500 on the p99 stays at
# 60-190 ms on every seed.  So 1,500 is the highest rung below the knee,
# and one session's long passes already show in the other's acks there.
# The server keeps up (no growing backlog) to 6,000 ev/s per session.
CHURN_RATE = 1500.0
CHURN_SESSIONS = 2
#: One mutation about every this many request events, for the whole run.
CHURN_EVERY = 64

# replay-mid: zipf family over balanced-tree(2, 9, 20): 5,631 nodes.
MID_NETWORK = {"builder": "balanced-tree", "args": {"arity": 2, "depth": 9, "leaves_per_bus": 20}}
MID_REQUESTS_PER_PROCESSOR = 4


def derive(seed: int, role: str) -> int:
    """An independent 31-bit seed for one role of one run seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{role}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


def zipf_spec() -> ScenarioSpec:
    """The default ``zipf`` registry scenario (15 nodes, 32 objects, seed 0).

    ``repro serve --scenario zipf`` serves exactly this spec; on
    serve-zipf the run seed drives the arrival times only.
    """
    return scenario_spec("zipf")


def churn_spec(seed: int, n_events: int) -> ScenarioSpec:
    """``storm --large`` (121 nodes), scaled to ``n_events`` request events.

    ``requests_per_processor`` is raised until the sequence holds at least
    ``n_events`` events and the mutation storm is stretched so one
    mutation arrives every :data:`CHURN_EVERY` events from the start.
    """
    base = scenario_spec("storm", seed=derive(seed, "churn-spec") % 100000, large=True)
    processors = build_scenario(base)[0].network.n_processors
    per_processor = -(-n_events // processors)
    workload = dict(base.workload)
    workload["args"] = dict(workload["args"], requests_per_processor=per_processor)
    churn = dict(base.churn[0])
    churn["args"] = dict(
        churn["args"],
        n_mutations=max(1, per_processor * processors // CHURN_EVERY - 1),
        start=CHURN_EVERY,
        spacing=CHURN_EVERY,
    )
    return dataclasses.replace(
        base,
        name="storm-churn",
        description="storm --large with a mutation every 64 events",
        workload=workload,
        churn=(churn,),
        strategies=({"kind": "edge-counter"}, {"kind": "hindsight-static"}),
    )


def mid_spec(seed: int, instance: int) -> ScenarioSpec:
    """One zipf instance over the 5,631-node balanced tree, 20,480 events."""
    base = scenario_spec("zipf", seed=derive(seed, f"mid-spec-{instance}") % 100000)
    workload = dict(base.workload)
    workload["args"] = dict(workload["args"], requests_per_processor=MID_REQUESTS_PER_PROCESSOR)
    return dataclasses.replace(base, name="zipf-mid", network=MID_NETWORK, workload=workload)


def spec_stream(spec: ScenarioSpec) -> Tuple[List, List[Tuple[int, Dict]]]:
    """A spec's request events and timed mutation ops."""
    built = build_scenario(spec)[0]
    mutations = []
    if built.trace is not None:
        mutations = [(int(tm.time), mutation_to_dict(tm.mutation)) for tm in built.trace.events]
    return list(built.sequence.events), mutations


def poisson_offsets(rng: np.random.Generator, rate_eps: float, count: int) -> np.ndarray:
    """Send offsets of ``count`` messages arriving as a Poisson process."""
    gaps = rng.exponential(MESSAGE_EVENTS / rate_eps, size=count)
    return np.cumsum(gaps) - gaps[0]


def looped_schedule(events: Sequence, rate_eps: float, seconds: float, rng: np.random.Generator) -> Schedule:
    """Poisson-timed 16-event messages cycling through ``events``."""
    rows = encode_events(events)
    count = max(1, int(round(rate_eps * seconds / MESSAGE_EVENTS)))
    offsets = poisson_offsets(rng, rate_eps, count)
    items = []
    cursor = 0
    for offset in offsets:
        chunk = [rows[(cursor + k) % len(rows)] for k in range(MESSAGE_EVENTS)]
        cursor = (cursor + MESSAGE_EVENTS) % len(rows)
        items.append((float(offset), "requests", chunk))
    return Schedule(items)


def stream_schedule(
    events: Sequence, mutations: Sequence[Tuple[int, Dict]], rate_eps: float, rng: np.random.Generator
) -> Schedule:
    """The spec's stream in order, mutations sent at their stream times.

    Request messages hold up to 16 events and are cut at mutation times;
    a mutation is sent immediately before the first event at its time.
    """
    rows = encode_events(events)
    times = sorted(mutations, key=lambda item: item[0])
    pieces: List[Tuple[str, object]] = []
    position = 0
    m = 0
    while position < len(rows) or m < len(times):
        while m < len(times) and times[m][0] <= position:
            pieces.append(("mutation", times[m][1]))
            m += 1
        if position >= len(rows):
            break
        stop = min(position + MESSAGE_EVENTS, len(rows))
        if m < len(times):
            stop = min(stop, max(times[m][0], position + 1))
        pieces.append(("requests", rows[position:stop]))
        position = stop
    n_requests = sum(1 for kind, _ in pieces if kind == "requests")
    offsets = iter(poisson_offsets(rng, rate_eps, n_requests))
    items = []
    due = 0.0
    pending = []
    for kind, payload in pieces:
        if kind == "mutation":
            pending.append(payload)
            continue
        due = float(next(offsets))
        items.extend((due, "mutation", op) for op in pending)
        pending = []
        items.append((due, "requests", payload))
    items.extend((due, "mutation", op) for op in pending)
    return Schedule(items)
