"""The open-loop bench client: one process, one asyncio loop, <= 2 connections.

Each session sends a precomputed schedule of wire lines.  A message is
due at its *scheduled* time and is sent then whether or not earlier
messages were acked (open loop), so a stalled server makes later
messages wait in its queue and that wait is counted: ack latency is
measured from the scheduled send time, not from when the bytes left.
How late the generator itself ran (actual minus scheduled send) is
reported separately, as ``client.late_ms``.

Replies are read with an explicit line limit.  The ``end`` summary
carries the whole sampled trajectory, which outgrows asyncio's 64 KiB
default for long sessions (see README.md, findings).

All timestamps are ``time.monotonic()``, the same clock in every process
on the host, so server-side trace spans can be joined with client sends.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.serve.wire import encode_message

#: Reply line limit: far above the largest summary any run produces.
LINE_LIMIT = 1 << 28

#: Flush the socket buffer once this many bytes are pending.
_DRAIN_BYTES = 1 << 16


@dataclass
class Schedule:
    """One session's items in send order.

    ``items`` holds ``(scheduled offset in s, kind, payload)`` where kind
    is ``"requests"`` (payload: list of ``[proc, obj, "r"|"w"]`` rows) or
    ``"mutation"`` (payload: the mutation op document).
    """

    items: List[Tuple[float, str, object]]

    @property
    def n_events(self) -> int:
        return sum(len(p) for _, k, p in self.items if k == "requests")


@dataclass
class SessionLog:
    """Everything one session observed, on the monotonic clock."""

    schedule: Schedule = field(default_factory=lambda: Schedule([]))
    hello_time: float = 0.0
    hello: Dict = field(default_factory=dict)
    start: float = 0.0
    sent: List[float] = field(default_factory=list)
    acked: List[Optional[float]] = field(default_factory=list)
    ack_positions: List[int] = field(default_factory=list)
    summary: Optional[Dict] = None
    error: Optional[Dict] = None


def spawn_server(argv: List[str], env: Dict[str, str]) -> Tuple[subprocess.Popen, str, int, float]:
    """Start a server process; returns ``(proc, host, port, spawn time)``.

    The server prints ``serving scenario <name> on <host>:<port>`` once
    its listener is bound; everything up to that line is set-up.
    """
    spawned = time.monotonic()
    proc = subprocess.Popen(
        argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )
    line = proc.stdout.readline()
    if " on " not in line:
        proc.kill()
        _, err = proc.communicate()
        raise RuntimeError(f"server did not start: {line!r} {err[-2000:]}")
    host, port = line.rsplit(" on ", 1)[1].strip().rsplit(":", 1)
    return proc, host, int(port), spawned


async def open_session(host: str, port: int):
    """Connect and take the session hello; returns ``(reader, writer, log)``."""
    log = SessionLog()
    reader, writer = await asyncio.open_connection(host, port, limit=LINE_LIMIT)
    log.hello = json.loads(await reader.readline())
    log.hello_time = time.monotonic()
    if log.hello.get("type") != "session":
        raise RuntimeError(f"unexpected hello {log.hello!r}")
    return reader, writer, log


async def drive(reader, writer, log: SessionLog, schedule: Schedule, start: float) -> SessionLog:
    """Send ``schedule`` open loop from monotonic time ``start``; end the session.

    Returns the log with acks, the summary or the error reply.
    """
    log.schedule = schedule
    items = schedule.items
    n = len(items)
    log.sent = [0.0] * n
    log.acked = [None] * n
    lines = [
        encode_message({"type": kind, "id": i + 1, ("events" if kind == "requests" else "op"): payload})
        for i, (_, kind, payload) in enumerate(items)
    ]
    end_line = encode_message({"type": "end", "id": n + 1})
    log.start = start

    async def send() -> None:
        for i, (offset, _, _) in enumerate(items):
            delay = log.start + offset - time.monotonic()
            if delay > 0:
                await asyncio.sleep(delay)
            writer.write(lines[i])
            log.sent[i] = time.monotonic()
            if writer.transport.get_write_buffer_size() > _DRAIN_BYTES:
                await writer.drain()
        writer.write(end_line)
        await writer.drain()

    async def receive() -> None:
        next_unacked = 0
        while True:
            line = await reader.readline()
            if not line:
                return
            now = time.monotonic()
            reply = json.loads(line)
            kind = reply.get("type")
            if kind == "ack":
                upto = min(int(reply["id"]), n)
                while next_unacked < upto:
                    log.acked[next_unacked] = now
                    next_unacked += 1
                if "served" in reply:
                    log.ack_positions.append(int(reply["position"]))
            elif kind == "end":
                log.summary = reply["summary"]
                return
            else:
                log.error = reply
                return

    sender = asyncio.create_task(send())
    try:
        await receive()
    finally:
        if not sender.done():
            sender.cancel()
        try:
            await sender
        except (asyncio.CancelledError, ConnectionError):
            pass
        writer.close()
        try:
            await writer.wait_closed()
        except ConnectionError:
            pass
    return log


async def hello_only(host: str, port: int) -> SessionLog:
    """Connect, take the hello, end the empty session at once."""
    reader, writer, log = await open_session(host, port)
    writer.write(encode_message({"type": "end", "id": 1}))
    await writer.drain()
    while True:
        line = await reader.readline()
        if not line:
            break
        reply = json.loads(line)
        if reply.get("type") == "end":
            log.summary = reply["summary"]
            break
        if reply.get("type") == "error":
            log.error = reply
            break
    writer.close()
    await writer.wait_closed()
    return log
