"""Span tracing from the benchmark's own code, around each layer's entry points.

:func:`install` replaces public functions and methods of the layers with
wrappers that record one span per call: ``(id, parent, name, start,
end, attrs)`` on the host's monotonic clock.  Nothing under ``src/``
changes; the wrappers are installed in the process that runs the layers
(the server, through ``launch_serve.py``, or the replay child) before the
work starts.  Spans stay in memory and are written as JSONL when the run
ends (:meth:`Tracer.write`); the last line holds the call counters.

Two kinds of boundary are not a plain call:

* ``serve.server.pass`` -- one engine pass of the server.  It opens when
  the server's ``server.engine`` fault point fires (the first statement
  of every pass) and closes when the first reply of the pass is encoded
  or the next pass opens.  Spans opened during a pass are its children.
* ``network.rooted.distance`` / ``lca`` -- scalar calls made ~10^5
  times per placement; only counted (inside ``core.extended_nibble``
  spans), never spanned.

Spans of one wire message carry its ``msg`` id; ``session`` ties them to
the session whose hello carried that ``token``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

KERNEL_OPS = (
    "lca", "pair_scatter", "scatter_paths", "apply_column", "rescan", "aggregate_pairs",
    "bus_fold", "pair_scatter_lanes", "apply_columns_lanes", "rescan_rows",
)
#: Kernel ops whose calls per 1000 events are reported one by one.
REPORTED_OPS = KERNEL_OPS[:6]
STRATEGY_LABELS = {"StaticPlacementManager": "hindsight-static", "EdgeCounterManager": "edge-counter"}
LOADSTATE_APPLY = ("apply_edge_loads", "apply_pairs", "apply_path", "apply_edges")
SINK_HOOKS = ("on_begin", "on_span", "on_boundary", "on_mutation", "on_end")

Span = Tuple[int, Optional[int], str, float, float, Optional[Dict]]


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._next = 0
        self._pass: Optional[Tuple[int, float]] = None
        self._last_session: Optional[int] = None
        self._active: Counter = Counter()

    # ------------------------------------------------------------------ #
    def _new_id(self) -> int:
        self._next += 1
        return self._next

    def _parent(self) -> Optional[int]:
        if self._stack:
            return self._stack[-1]
        return self._pass[0] if self._pass is not None else None

    def wrap(self, owner, attr: str, name: str, attrs: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``attrs(args, result)`` returns the span's attribute dict.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            sid = tracer._new_id()
            parent = tracer._parent()
            tracer._stack.append(sid)
            tracer._active[name] += 1
            result = None
            start = time.monotonic()
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.monotonic()
                tracer._stack.pop()
                tracer._active[name] -= 1
                info = attrs(args, result) if attrs is not None else None
                tracer.spans.append((sid, parent, name, start, end, info))

        setattr(owner, attr, traced)

    def count(self, owner, attr: str, name: str, within: Optional[str] = None) -> None:
        """Replace ``owner.attr`` with a wrapper that only counts calls.

        With ``within``, only calls made inside a span of that name count.
        """
        original = getattr(owner, attr)
        counts = self.counts
        active = self._active

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if within is None or active[within]:
                counts[name] += 1
            return original(*args, **kwargs)

        setattr(owner, attr, counted)

    # ------------------------------------------------------------------ #
    def open_pass(self) -> None:
        now = time.monotonic()
        self.close_pass(now)
        self._pass = (self._new_id(), now)

    def close_pass(self, now: Optional[float] = None) -> None:
        if self._pass is not None:
            sid, start = self._pass
            self.spans.append((sid, None, "serve.server.pass", start, now or time.monotonic(), None))
            self._pass = None

    def write(self, path: Path) -> None:
        self.close_pass()
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for sid, parent, name, start, end, info in self.spans:
                row = {"id": sid, "parent": parent, "name": name, "start": start, "end": end}
                if info:
                    row.update(info)
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")
            handle.write(json.dumps({"counters": dict(self.counts)}) + "\n")


def install() -> Tracer:
    """Wrap every layer entry point the per-layer metrics read."""
    from repro import faults
    from repro.core import kernels, loadstate
    from repro.dynamic import evaluate, online
    from repro.network import rooted
    from repro.serve import batcher, recorder, server
    from repro.sim import engine, scenario, sinks

    tracer = Tracer()

    # serve.server: engine passes, and the hello that names each session
    fault_point = faults.fault_point

    def traced_fault_point(name, *args, **kwargs):
        if name == "server.engine":
            tracer.open_pass()
        return fault_point(name, *args, **kwargs)

    faults.fault_point = traced_fault_point

    def session_info(args, result):
        tracer._last_session = id(args[0])
        return {"session": id(args[0])}

    tracer.wrap(batcher.ServeSession, "session_info", "serve.server.session", session_info)

    # serve.wire; encoding a reply ends the engine pass that produced it
    def encode_attrs(args, result):
        message = args[0]
        if message.get("type") == "session":
            return {"token": message.get("token"), "session": tracer._last_session}
        return None

    tracer.wrap(server, "encode_message", "serve.wire.encode", encode_attrs)
    encode = server.encode_message

    def traced_encode(message):
        tracer.close_pass()
        return encode(message)

    server.encode_message = traced_encode
    tracer.wrap(
        server, "decode_message", "serve.wire.decode",
        lambda args, result: {"msg": result.get("id"), "type": result.get("type")} if result else None,
    )
    tracer.wrap(batcher, "decode_events", "serve.wire.decode_events",
                lambda args, result: {"n": len(args[0])})

    # serve.batcher
    tracer.wrap(
        batcher.MicroBatcher, "add", "serve.batcher.add",
        lambda args, result: {"msg": args[1].get("id"), "session": id(args[0].session)},
    )
    tracer.wrap(batcher.ServeSession, "feed", "serve.batcher.feed",
                lambda args, result: {"n": len(args[1])})
    tracer.wrap(batcher.ServeSession, "mutate", "serve.batcher.mutate")

    # serve.recorder
    tracer.wrap(recorder.StreamRecorder, "record_events", "serve.recorder.write",
                lambda args, result: {"n": len(args[1])})
    tracer.wrap(recorder.StreamRecorder, "record_mutation", "serve.recorder.write")

    # sim.engine, sim.sinks, sim.scenario
    tracer.wrap(engine.EngineStream, "serve", "sim.engine.stream")
    tracer.wrap(engine.SimulationEngine, "run", "sim.engine.run",
                lambda args, result: {"n": len(args[1])})
    for cls in (sinks.MetricsSink, sinks.TrajectorySink, sinks.DropAccountingSink, sinks.CostBreakdownSink):
        for hook in SINK_HOOKS:
            if hook in cls.__dict__:
                tracer.wrap(cls, hook, f"sim.sinks.{hook}")
    tracer.count(sinks.TrajectorySink, "on_boundary", "sim.sinks.boundaries")
    tracer.wrap(scenario, "build_scenario", "sim.scenario.build")

    # dynamic.online
    for cls in (online.StaticPlacementManager, online.EdgeCounterManager):
        tracer.wrap(
            cls, "serve_chunk", "dynamic.online.serve_chunk",
            lambda args, result: {"n": args[3] - args[2], "strategy": STRATEGY_LABELS[type(args[0]).__name__]},
        )
    tracer.wrap(online.OnlineStrategy, "apply_mutation", "dynamic.online.apply_mutation")

    # core.kernels (callers go through the module attribute)
    for op in KERNEL_OPS:
        tracer.wrap(kernels, op, f"core.kernels.{op}")

    # core.loadstate
    for method in LOADSTATE_APPLY:
        tracer.wrap(loadstate.LoadState, method, "core.loadstate.apply")
    tracer.wrap(loadstate.LoadState, "apply_steiner", "core.loadstate.steiner")
    tracer.wrap(loadstate.LoadState, "repair", "core.loadstate.repair",
                lambda args, result: {"n": len(args[1]) if isinstance(args[1], (list, tuple)) else 1})

    # core.extended_nibble + network.rooted
    tracer.wrap(evaluate, "extended_nibble", "core.extended_nibble")
    tracer.count(rooted.RootedTree, "distance", "network.rooted.distance", within="core.extended_nibble")
    tracer.count(rooted.RootedTree, "lca", "network.rooted.lca", within="core.extended_nibble")

    # network.mutation (the engine imports it by name)
    tracer.wrap(engine, "apply_mutation", "network.mutation.apply")
    return tracer


# --------------------------------------------------------------------------- #
# reading a trace
# --------------------------------------------------------------------------- #
def read(paths: Iterable[Path]) -> Tuple[List[Dict], Counter]:
    """Spans and summed counters of JSONL trace files, one per traced process.

    Span ids are per file, so the spans of each later file are renumbered.
    """
    spans, counters = [], Counter()
    for path in paths:
        offset = 1 + max((span["id"] for span in spans), default=0)
        with path.open() as handle:
            for line in handle:
                row = json.loads(line)
                if "counters" in row:
                    counters.update(row["counters"])
                    continue
                row["id"] += offset
                if row["parent"] is not None:
                    row["parent"] += offset
                spans.append(row)
    return spans, counters


class Profile:
    """Per-name totals of a span list, with self time."""

    def __init__(self, spans: Iterable[Dict]) -> None:
        self.spans = list(spans)
        self.index = {span["id"]: span for span in self.spans}
        child_time: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        self.calls: Counter = Counter()
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.by_name: Dict[str, List[Dict]] = defaultdict(list)
        for span in self.spans:
            name = span["name"]
            duration = span["end"] - span["start"]
            self.calls[name] += 1
            self.total[name] += duration
            self.self_time[name] += duration - child_time.get(span["id"], 0.0)
            self.by_name[name].append(span)

    def sum_attr(self, name: str, attr: str, **match) -> float:
        return float(sum(
            s.get(attr, 0) for s in self.by_name.get(name, ())
            if all(s.get(k) == v for k, v in match.items())
        ))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _pct(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(
    spans: List[Dict],
    counters: Dict[str, int],
    sends: Optional[Dict[str, List[float]]] = None,
    journal_bytes: int = 0,
) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of one traced run (0 where a layer did no work).

    ``sends`` maps a session token to the client's actual send times of
    its messages (index ``id - 1``), for the server wait metrics.
    """
    p = Profile(spans)
    us = 1e6
    fed = p.sum_attr("serve.batcher.feed", "n")
    replayed = p.sum_attr("sim.engine.run", "n")
    events = fed + replayed
    chunks = p.calls["dynamic.online.serve_chunk"]
    boundaries = counters.get("sim.sinks.boundaries", 0)
    sink_time = sum(p.total[f"sim.sinks.{hook}"] for hook in SINK_HOOKS)
    kernel_calls = sum(p.calls[f"core.kernels.{op}"] for op in KERNEL_OPS)
    kernel_time = sum(p.total[f"core.kernels.{op}"] for op in KERNEL_OPS)
    nibbles = p.calls["core.extended_nibble"]

    waits = _server_waits(p, sends or {})
    pass_ms = [1000.0 * (s["end"] - s["start"]) for s in p.by_name.get("serve.server.pass", ())]

    m: Dict[str, Tuple[float, str]] = {
        "serve.wire.decode_us_per_event": (
            _ratio(us * (p.self_time["serve.wire.decode"] + p.self_time["serve.wire.decode_events"]), fed), "us"),
        "serve.wire.encode_us_per_reply": (_ratio(us * p.total["serve.wire.encode"], p.calls["serve.wire.encode"]), "us"),
        "serve.server.wait_ms.p50": (_pct(waits, 50), "ms"),
        "serve.server.wait_ms.p99": (_pct(waits, 99), "ms"),
        "serve.server.pass_ms.p99": (_pct(pass_ms, 99), "ms"),
        "serve.batcher.feed_us_per_event": (_ratio(us * p.self_time["serve.batcher.feed"], fed), "us"),
        "serve.batcher.feeds": (float(p.calls["serve.batcher.feed"]), "count"),
        "serve.recorder.write_us_per_item": (
            _ratio(us * p.total["serve.recorder.write"], p.calls["serve.recorder.write"]), "us"),
        "serve.recorder.bytes_per_event": (_ratio(journal_bytes, fed), "B"),
        "sim.engine.spans_per_feed": (
            _ratio(sum(1 for s in p.by_name.get("dynamic.online.serve_chunk", ()) if _under(p, s, "sim.engine.stream")),
                   p.calls["sim.engine.stream"]), "count"),
        "sim.engine.self_us_per_span": (
            _ratio(us * (p.self_time["sim.engine.stream"] + p.self_time["sim.engine.run"]), chunks), "us"),
        "sim.sinks.us_per_boundary": (_ratio(us * sink_time, boundaries), "us"),
        "sim.sinks.boundaries_per_kev": (_ratio(1000.0 * boundaries, events), "1/kev"),
        "dynamic.online.serve_chunk_calls": (float(chunks), "count"),
        "dynamic.online.apply_mutation_us": (
            _ratio(us * p.total["dynamic.online.apply_mutation"], p.calls["dynamic.online.apply_mutation"]), "us"),
        "core.kernels.us_per_call": (_ratio(us * kernel_time, kernel_calls), "us"),
        "core.loadstate.apply_us_per_call": (
            _ratio(us * p.total["core.loadstate.apply"], p.calls["core.loadstate.apply"]), "us"),
        "core.loadstate.steiner_us_per_call": (
            _ratio(us * p.total["core.loadstate.steiner"], p.calls["core.loadstate.steiner"]), "us"),
        "core.loadstate.repair_us_per_mutation": (
            _ratio(us * p.total["core.loadstate.repair"], p.sum_attr("core.loadstate.repair", "n")), "us"),
        "core.extended_nibble.s": (_ratio(p.total["core.extended_nibble"], nibbles), "s"),
        "network.rooted.distance_calls": (_ratio(counters.get("network.rooted.distance", 0), nibbles), "count"),
        "network.rooted.lca_calls": (_ratio(counters.get("network.rooted.lca", 0), nibbles), "count"),
        "network.mutation.apply_us": (
            _ratio(us * p.total["network.mutation.apply"], p.calls["network.mutation.apply"]), "us"),
        "sim.scenario.build_s": (_ratio(p.total["sim.scenario.build"], p.calls["sim.scenario.build"]), "s"),
    }
    for label in STRATEGY_LABELS.values():
        n = p.sum_attr("dynamic.online.serve_chunk", "n", strategy=label)
        t = sum(s["end"] - s["start"] for s in p.by_name.get("dynamic.online.serve_chunk", ())
                if s.get("strategy") == label)
        m[f"dynamic.online.serve_chunk_us_per_event.{label}"] = (_ratio(us * t, n), "us")
    for op in REPORTED_OPS:
        m[f"core.kernels.calls_per_kev.{op}"] = (_ratio(1000.0 * p.calls[f"core.kernels.{op}"], events), "1/kev")
    return m


def _under(p: Profile, span: Dict, ancestor: str) -> bool:
    """Whether ``span`` has an ancestor named ``ancestor``."""
    parent = span["parent"]
    while parent is not None:
        node = p.index.get(parent)
        if node is None:
            return False
        if node["name"] == ancestor:
            return True
        parent = node["parent"]
    return False


def _server_waits(p: Profile, sends: Dict[str, List[float]]) -> List[float]:
    """Client send -> start of the engine pass that took the message (ms)."""
    tokens = {s["session"]: s["token"] for s in p.by_name.get("serve.wire.encode", ()) if s.get("token")}
    passes = {s["id"]: s["start"] for s in p.by_name.get("serve.server.pass", ())}
    waits = []
    for span in p.by_name.get("serve.batcher.add", ()):
        start = passes.get(span["parent"])
        sent = sends.get(tokens.get(span.get("session")))
        msg = span.get("msg")
        if start is None or sent is None or msg is None or not 1 <= msg <= len(sent):
            continue
        waits.append(1000.0 * (start - sent[msg - 1]))
    return waits
