"""Correctness gate and offline-replay timings, outside every timed serve region.

A served session is correct when its ``end`` summary equals an offline
``SimulationEngine.run`` over the exact stream the client sent (events
and mutations at their stream positions) -- invariant 10.  A journal is
correct when ``replay_recording`` reproduces the summary it recorded.
Each check returns ``None`` or a one-line description of the mismatch.
"""

from __future__ import annotations

import gc
import json
import statistics
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.dynamic.sequence import RequestSequence
from repro.network.mutation import ChurnTrace, TimedMutation
from repro.serve.batcher import result_record
from repro.serve.recorder import replay_recording
from repro.serve.wire import decode_events, mutation_from_dict
from repro.sim.engine import SimulationEngine
from repro.sim.scenario import ScenarioSpec, build_scenario

from client import SessionLog
from common import Timed

#: Events of a served stream's prefix that the timed offline passes replay.
PREFIX_EVENTS = 8192
#: Timed offline passes per strategy; the median pass sets ``replay_eps``.
REPLAY_PASSES = 10
#: Timed hindsight-static constructions; a short placement varies by 2x.
PLACEMENTS = 15


@lru_cache(maxsize=4)
def _built(spec_json: str):
    return build_scenario(ScenarioSpec.from_json(spec_json))[0]


def built(spec: ScenarioSpec):
    return _built(spec.to_json())


def sent_stream(
    log: SessionLog, n_objects: int, limit: Optional[int] = None
) -> Tuple[RequestSequence, Optional[ChurnTrace]]:
    """The exact request sequence and churn trace one session sent.

    With ``limit``, only the first ``limit`` events and the mutations
    sent before the event at that position.
    """
    rows: List = []
    timed = []
    for _, kind, payload in log.schedule.items:
        if limit is not None and len(rows) >= limit:
            break
        if kind == "requests":
            rows.extend(payload)
        else:
            timed.append(TimedMutation(len(rows), mutation_from_dict(payload)))
    if limit is not None:
        rows = rows[:limit]
    trace = ChurnTrace(timed) if timed else None
    return RequestSequence(decode_events(rows), n_objects), trace


def _offline(spec: ScenarioSpec, strategy: str, sequence, trace):
    scenario = built(spec)
    factory = dict(scenario.strategies)[strategy]
    return SimulationEngine(factory(), sinks=scenario.make_sinks()).run(sequence, trace)


def _diff(label: str, served: Dict, replayed: Dict) -> Optional[str]:
    replayed = json.loads(json.dumps(replayed))
    if served == replayed:
        return None
    keys = sorted(k for k in set(served) | set(replayed) if served.get(k) != replayed.get(k))
    return f"{label}: served summary differs from offline replay in {keys}"


def check_served(spec: ScenarioSpec, strategy: str, log: SessionLog) -> Optional[str]:
    """Served summary == offline replay of the stream the client sent."""
    if log.summary is None:
        return f"session {log.hello.get('token')}: no summary ({log.error})"
    sequence, trace = sent_stream(log, built(spec).sequence.n_objects)
    record = result_record(_offline(spec, strategy, sequence, trace))
    return _diff(f"session {log.hello.get('token')}", log.summary, record)


def check_journal(path) -> Optional[str]:
    """``replay_recording`` of a journal reproduces its recorded summary."""
    replayed, served = replay_recording(path)
    if served is None:
        return f"journal {path.name} has no summary"
    return _diff(f"journal {path.name}", served, replayed)


def replay_throughput(spec: ScenarioSpec, served: str, log: SessionLog) -> Tuple[Dict[str, float], Optional[str]]:
    """Check one served stream, then time offline replays of its prefix.

    The check replays the whole stream under the ``served`` strategy.
    ``place_s`` is the median of :data:`PLACEMENTS` timed hindsight-static
    constructions (the extended-nibble placement).  The timing replays the
    first :data:`PREFIX_EVENTS` events (and the mutations among them)
    :data:`REPLAY_PASSES` times per strategy, each pass with a fresh
    strategy, timing only ``SimulationEngine.run``; ``replay_eps`` is the
    prefix's events over the median pass.  Short segments let
    the speed probe of :class:`common.Timed` follow the machine closely.
    The client's logs are frozen out of the garbage collector meanwhile,
    so collections scan only what the replays allocate.  Returns
    ``(metrics, check)``.
    """
    scenario = built(spec)
    factories = dict(scenario.strategies)
    check = check_served(spec, served, log)
    sequence, trace = sent_stream(log, scenario.sequence.n_objects, PREFIX_EVENTS)
    gc.collect()
    gc.freeze()
    try:
        places, placed = [], []
        for _ in range(PLACEMENTS):
            with Timed() as timed:
                placed.append(factories["hindsight-static"]())
            places.append(timed.scaled)
        out: Dict[str, float] = {"place_s": statistics.median(places)}
        for name in ("hindsight-static", "edge-counter"):
            passes = []
            for k in range(REPLAY_PASSES):
                strategy = placed[k] if name == "hindsight-static" else factories[name]()
                engine = SimulationEngine(strategy, sinks=scenario.make_sinks())
                with Timed() as timed:
                    engine.run(sequence, trace)
                passes.append(timed.scaled)
            out[f"replay_eps.{name}"] = len(sequence) / statistics.median(passes)
    finally:
        gc.unfreeze()
    return out, check
