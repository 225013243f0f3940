"""Load generator for the streaming placement service (``repro loadgen``).

Replays a scenario-registry workload (or any event/mutation list) against
a running server at a target events/sec and reports what the service
actually sustained: achieved throughput, per-event ack-latency
percentiles and the final served summary.

Two tasks per connection, mirroring the server's split:

* the *sender* paces request batches onto the socket against the target
  rate (a mutation scheduled at stream time ``t`` is sent before the
  event at position ``t``) and awaits ``drain`` -- server backpressure
  slows the sender down rather than ballooning client memory;
* the *receiver* consumes acks; an ack with id ``n`` covers every
  outstanding message with id <= ``n``, and each covered request
  message contributes its event count at ``ack_time - send_time`` to the
  latency distribution.

**Timeouts and reconnect.**  Every socket read is bounded by ``timeout``
(a silent server raises instead of hanging the client forever).  With
``retries > 0`` a lost connection is retried with seeded, jittered
exponential backoff; when the server journals sessions, the client
resumes its session by token -- the server replays the journal and
reports the durable watermark ``(position, n_mutations)``, the client
rewinds both cursors and re-sends only unacked items.  Acks cover only
journaled items (write-ahead order), so the recovered stream is
*exactly-once*: its summary is byte-identical to an uninterrupted run
(ARCHITECTURE invariant 11).  A structured ``overloaded``/``draining``
error is honoured by waiting its ``retry_after`` hint before the next
attempt.
"""

from __future__ import annotations

import asyncio
import json
import random
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import faults
from repro.errors import InjectedFault, SimulationError
from repro.serve.wire import encode_events, encode_message, mutation_to_dict

__all__ = ["run_loadgen", "loadgen", "workload_from_spec"]


def workload_from_spec(spec) -> Tuple[Sequence, List[Tuple[int, Dict]]]:
    """The (events, timed mutation ops) stream of a scenario spec."""
    from repro.sim.scenario import build_scenario

    built = build_scenario(spec)[0]
    mutations: List[Tuple[int, Dict]] = []
    if built.trace is not None:
        mutations = [
            (int(tm.time), mutation_to_dict(tm.mutation))
            for tm in built.trace.events
        ]
    return built.sequence.events, mutations


#: Reply line limit.  asyncio's default (64 KiB) is overrun by the ``end``
#: summary of a long session, whose trajectory grows with its length.
_LINE_LIMIT = 1 << 28


class _Shed(Exception):
    """The server shed this connection (overloaded/draining): retriable."""

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


async def _connect(
    host: str, port: int, timeout: float
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open the connection, retrying while the server comes up."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    while True:
        try:
            return await asyncio.open_connection(host, port, limit=_LINE_LIMIT)
        except OSError:
            if loop.time() >= deadline:
                raise
            await asyncio.sleep(0.1)


async def run_loadgen(
    host: str,
    port: int,
    events: Sequence,
    mutations: Sequence[Tuple[int, Dict]] = (),
    rate: Optional[float] = None,
    batch: int = 64,
    repeat: int = 1,
    connect_timeout: float = 10.0,
    timeout: Optional[float] = 60.0,
    retries: int = 0,
    backoff_base: float = 0.05,
    backoff_max: float = 2.0,
    backoff_seed: int = 0,
) -> Dict[str, object]:
    """Drive one session and measure it; returns the stats document.

    Parameters
    ----------
    events / mutations:
        The stream: request events plus ``(time, op)`` churn ops (op =
        :func:`~repro.serve.wire.mutation_to_dict` encoding).  ``repeat``
        replays the event list that many times back to back (churn is
        sent during the first pass only -- detached processors stay
        detached, so drops keep accruing).
    rate:
        Target events/sec (``None`` = as fast as the server accepts).
    batch:
        Events per ``requests`` message.
    timeout:
        Per-read socket timeout in seconds (``None`` disables -- not
        recommended: a silent server then hangs the client forever).
    retries:
        How many times a lost connection/timeout is retried.  With a
        journaling server the session is *resumed* by token at the
        durable watermark; exactly-once either way.
    backoff_base / backoff_max / backoff_seed:
        Jittered exponential backoff between attempts:
        ``min(backoff_max, backoff_base * 2**k)`` scaled by a seeded
        uniform jitter in [0.5, 1.5).
    """
    if batch < 1:
        raise SimulationError("batch must be a positive integer")
    if repeat < 1:
        raise SimulationError("repeat must be a positive integer")
    events = list(events)
    mutations = sorted(mutations, key=lambda item: item[0])
    total = len(events) * repeat

    loop = asyncio.get_running_loop()
    latencies: List[float] = []
    weights: List[int] = []
    rng = random.Random(backoff_seed)
    progress: Dict[str, object] = {
        "session": None,  # the hello of the session being driven
        "token": None,
        "journal": False,
        "pos": 0,  # events durably acked/journaled (the resume cursor)
        "mi": 0,  # mutations likewise
        "acked": False,  # has *anything* ever been acked?
        "resumed": 0,
    }
    timing: Dict[str, Optional[float]] = {"first": None, "last": None}

    async def read_message(reader) -> Dict:
        if timeout is not None:
            line = await asyncio.wait_for(reader.readline(), timeout)
        else:
            line = await reader.readline()
        if not line:
            raise ConnectionResetError("server closed the connection")
        fault = faults.fault_point("loadgen.recv")
        if fault is not None:
            faults.raise_fault(fault)
        return json.loads(line)

    async def handshake(reader, writer) -> Optional[Dict]:
        """Hello (+ resume on reconnect).  Returns a summary when the
        journal turned out to be sealed (only the final ack was lost)."""
        hello = await read_message(reader)
        if hello.get("type") == "error":
            code = hello.get("code")
            message = hello.get("message", "server error")
            if code in ("overloaded", "draining"):
                raise _Shed(message, hello.get("retry_after", 0.5))
            raise SimulationError(f"loadgen: server reported: {message}")
        if hello.get("type") != "session":
            raise SimulationError(
                f"loadgen: expected session hello, got {hello.get('type')!r}"
            )
        if progress["session"] is None:
            # first connection: adopt this fresh session
            progress["session"] = hello
            progress["token"] = hello.get("token")
            progress["journal"] = bool(hello.get("journal"))
            return None
        # reconnect: resume our session at the server's durable watermark
        if not progress["journal"] or not progress["token"]:
            raise SimulationError(
                "loadgen: connection lost and the server keeps no journal; "
                "cannot resume exactly-once"
            )
        writer.write(
            encode_message({"type": "resume", "token": progress["token"]})
        )
        await writer.drain()
        reply = await read_message(reader)
        rtype = reply.get("type")
        if rtype == "resumed":
            progress["pos"] = int(reply["position"])
            progress["mi"] = int(reply["n_mutations"])
            progress["resumed"] = int(progress["resumed"]) + 1
            return None
        if rtype == "end":
            # the stream had completed; the crash only ate the final ack
            timing["last"] = loop.time()
            return reply.get("summary")
        if (
            rtype == "error"
            and reply.get("code") == "unknown-token"
            and not progress["acked"]
        ):
            # nothing ever became durable server-side (crash before the
            # first journal write); starting over from zero is safe and
            # exactly-once.  The server hung up after the error, so
            # forget the session and reconnect fresh.
            progress["session"] = None
            progress["token"] = None
            progress["pos"] = 0
            progress["mi"] = 0
            raise ConnectionResetError(
                "session was never durable; restarting fresh"
            )
        raise SimulationError(
            f"loadgen: resume failed: {reply.get('message', reply)}"
        )

    async def attempt() -> Optional[Dict]:
        reader, writer = await _connect(host, port, connect_timeout)
        try:
            sealed_summary = await handshake(reader, writer)
            if sealed_summary is not None:
                return sealed_summary
            # message id -> (send time, events covered); acks cumulative
            outstanding: Dict[int, Tuple[float, int]] = {}
            result: Dict[str, Optional[Dict]] = {"summary": None}
            error: List[str] = []

            async def sender() -> None:
                msg_id = 0
                mi = int(progress["mi"])
                pos = pos0 = int(progress["pos"])
                t0 = loop.time()
                if timing["first"] is None:
                    timing["first"] = t0

                def send(message: Dict, n_events: int) -> None:
                    nonlocal msg_id
                    fault = faults.fault_point("loadgen.send")
                    if fault is not None:
                        faults.raise_fault(fault)
                    msg_id += 1
                    message["id"] = msg_id
                    outstanding[msg_id] = (loop.time(), n_events)
                    writer.write(encode_message(message))

                while pos < total:
                    base = pos % len(events)
                    while mi < len(mutations) and mutations[mi][0] <= pos:
                        send({"type": "mutation", "op": mutations[mi][1]}, 0)
                        await writer.drain()
                        mi += 1
                    # a batch never crosses a repeat boundary or a
                    # mutation time
                    stop = min(pos + batch, total, pos + (len(events) - base))
                    if mi < len(mutations):
                        stop = min(stop, mutations[mi][0])
                    if rate:
                        target = t0 + (pos - pos0) / rate
                        delay = target - loop.time()
                        if delay > 0:
                            await asyncio.sleep(delay)
                    chunk = events[base : base + (stop - pos)]
                    send(
                        {"type": "requests", "events": encode_events(chunk)},
                        len(chunk),
                    )
                    await writer.drain()
                    pos = stop
                while mi < len(mutations):  # trailing churn
                    send({"type": "mutation", "op": mutations[mi][1]}, 0)
                    mi += 1
                send({"type": "end"}, 0)
                await writer.drain()

            async def receiver() -> None:
                while True:
                    message = await read_message(reader)
                    mtype = message.get("type")
                    if mtype == "ack":
                        now = loop.time()
                        timing["last"] = now
                        progress["acked"] = True
                        covered = [
                            mid for mid in outstanding if mid <= message["id"]
                        ]
                        for mid in covered:
                            sent_at, n_events = outstanding.pop(mid)
                            if n_events:
                                latencies.append(now - sent_at)
                                weights.append(n_events)
                        # the ack position is the durable watermark: the
                        # journal covers it (write-ahead order), so a
                        # resume never replays past it
                        if "position" in message:
                            progress["pos"] = max(
                                int(progress["pos"]), int(message["position"])
                            )
                    elif mtype == "end":
                        timing["last"] = loop.time()
                        result["summary"] = message.get("summary")
                        return
                    elif mtype == "error":
                        error.append(message.get("message", "server error"))
                        return
                    elif mtype == "session":
                        pass  # late hello duplicate: ignore

            recv_task = asyncio.create_task(receiver())
            try:
                await sender()
                await recv_task
            finally:
                if not recv_task.done():
                    recv_task.cancel()
                try:
                    await recv_task
                except BaseException:
                    # the sender's failure is the primary error; the
                    # receiver's (usually the same broken connection)
                    # must still be retrieved or asyncio warns
                    pass
            if error:
                raise SimulationError(
                    f"loadgen: server reported: {error[0]}"
                )
            if result["summary"] is None:
                raise ConnectionResetError("stream ended without a summary")
            return result["summary"]
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, RuntimeError, OSError):
                pass

    summary: Optional[Dict] = None
    reconnects = 0
    while True:
        try:
            summary = await attempt()
            break
        except _Shed as exc:
            reconnects += 1
            if reconnects > retries:
                raise SimulationError(f"loadgen: {exc}") from exc
            step = min(backoff_max, backoff_base * (2 ** (reconnects - 1)))
            await asyncio.sleep(max(step, exc.retry_after) * (0.5 + rng.random()))
        except (ConnectionError, OSError, asyncio.TimeoutError, InjectedFault) as exc:
            reconnects += 1
            if reconnects > retries:
                raise SimulationError(
                    f"loadgen: connection failed after {reconnects} "
                    f"attempt(s): {exc}"
                ) from exc
            step = min(backoff_max, backoff_base * (2 ** (reconnects - 1)))
            await asyncio.sleep(step * (0.5 + rng.random()))

    if summary is None:
        raise SimulationError("loadgen: stream ended without a summary")

    session = progress["session"]
    wall = max((timing["last"] or 0.0) - (timing["first"] or 0.0), 1e-9)
    lat = np.repeat(
        np.asarray(latencies, dtype=np.float64), np.asarray(weights, dtype=np.int64)
    )
    percentile = (
        (lambda q: float(np.percentile(lat, q) * 1000.0))
        if lat.size
        else (lambda q: 0.0)
    )
    return {
        "n_events": total,
        "n_mutations": len(mutations),
        "repeat": repeat,
        "batch": batch,
        "target_rate": rate,
        "wall_seconds": wall,
        "events_per_sec": total / wall,
        "reconnects": reconnects,
        "resumed": int(progress["resumed"]),
        "latency_ms": {
            "p50": percentile(50),
            "p90": percentile(90),
            "p99": percentile(99),
            "max": float(lat.max() * 1000.0) if lat.size else 0.0,
        },
        "session": {
            key: session.get(key)
            for key in ("scenario", "label", "strategy", "n_nodes", "n_objects")
        }
        if session
        else None,
        "summary": summary,
    }


def loadgen(host: str, port: int, events, mutations=(), **kwargs) -> Dict:
    """Synchronous wrapper around :func:`run_loadgen`."""
    return asyncio.run(run_loadgen(host, port, events, mutations, **kwargs))
