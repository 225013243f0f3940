"""The two serve workloads: ``repro serve`` in its own process, one client.

The server is started exactly as a user starts it (``python -m repro.cli
serve ...``); a traced run starts it through ``launch_serve.py``, which
installs the span wrappers first and then calls the same entry point, so
both runs keep the two-process layout.  Set-up, peak RSS and CPU time of
the server are read from outside: the spawn-to-hello interval, ``os.wait4``
and ``/proc/<pid>/stat``.
"""

from __future__ import annotations

import asyncio
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

import gate
import workloads as wl
from client import SessionLog, drive, hello_only, open_session, spawn_server
from common import OUT, percentile, proc_cpu_seconds, stop, tail_percentile, wait_exit

#: Throw-away server spawns before and again after the measured server.
#: ``setup_s`` is the median spawn-to-hello time of all of them and the
#: measured server.  The vCPU speed drifts in phases of a few seconds, so
#: spawns spread over the whole run sample more phases than a burst does.
SETUP_SPAWNS_AROUND = 4
#: Latencies of messages due in a session's first WARMUP_SHARE are not counted.
WARMUP_SHARE = 0.15
#: Delay between the last hello and the first scheduled send (s).
LEAD_S = 0.05
#: How long a server may take to exit after its last session (s).
EXIT_TIMEOUT_S = 30.0


@dataclass
class ServerRun:
    """One server process from spawn to exit."""

    setup_s: float
    peak_rss_mib: float
    logs: List[SessionLog]
    cpu_window_s: float


def server_argv(serve_args: List[str], trace_path: Optional[Path]) -> List[str]:
    if trace_path is None:
        return [sys.executable, "-m", "repro.cli", "serve", *serve_args]
    launcher = str(Path(__file__).with_name("launch_serve.py"))
    return [sys.executable, launcher, "--trace-out", str(trace_path), "serve", *serve_args]


def _reap(proc) -> float:
    """Wait for a server to exit; returns its peak RSS in MiB."""
    try:
        usage = wait_exit(proc, EXIT_TIMEOUT_S)
    finally:
        proc.stdout.close()
        proc.stderr.close()
    return usage.ru_maxrss / 1024.0


def spawn_to_hello(argv: List[str], env: Dict[str, str]) -> float:
    """One throw-away server: spawn, take one hello, end, reap."""
    proc, host, port, spawned = spawn_server(argv, env)
    try:
        log = asyncio.run(hello_only(host, port))
        _reap(proc)
    except BaseException:
        stop(proc)
        raise
    if log.summary is None:
        raise RuntimeError(f"empty session got no summary: {log.error}")
    return log.hello_time - spawned


def run_server(
    serve_args: List[str],
    throwaway_args: List[str],
    env: Dict[str, str],
    sessions,
    trace_path: Optional[Path],
    timeout: float,
) -> ServerRun:
    """Drive ``sessions`` on one server; measure set-up on it and on throw-away spawns.

    ``sessions`` is an async callable ``(host, port, pid) -> (logs, cpu
    window seconds)`` that runs every session of the run against the
    server, within ``timeout`` seconds.
    """
    throwaway = server_argv(throwaway_args, None)
    setups = [spawn_to_hello(throwaway, env) for _ in range(SETUP_SPAWNS_AROUND)]
    proc, host, port, spawned = spawn_server(server_argv(serve_args, trace_path), env)
    try:
        logs, cpu_window = asyncio.run(asyncio.wait_for(sessions(host, port, proc.pid), timeout))
        missing = [log.hello.get("token") for log in logs if log.summary is None]
        if missing:
            raise RuntimeError(f"sessions {missing} ended without a summary: {[log.error for log in logs]}")
        rss = _reap(proc)
    except BaseException:
        stop(proc)
        raise
    setups.append(min(log.hello_time for log in logs) - spawned)
    setups += [spawn_to_hello(throwaway, env) for _ in range(SETUP_SPAWNS_AROUND)]
    return ServerRun(float(np.median(setups)), rss, logs, cpu_window)


# --------------------------------------------------------------------------- #
# latency statistics
# --------------------------------------------------------------------------- #
def session_stats(logs: List[SessionLog], offered_eps: float) -> Dict[str, float]:
    """Ack latency from scheduled send, lateness, throughput and batch sizes.

    Samples of several concurrent sessions are pooled; ``offered_eps`` is
    the rate of one session.
    """
    latencies, late, batches = [], [], []
    acked_events, window = 0, 0.0
    for log in logs:
        items = log.schedule.items
        warm = WARMUP_SHARE * (items[-1][0] if items else 0.0)
        for i, (offset, kind, payload) in enumerate(items):
            if kind != "requests" or log.acked[i] is None:
                continue
            acked_events += len(payload)
            if offset >= warm:
                due = log.start + offset
                latencies.append(1000.0 * (log.acked[i] - due))
                late.append(1000.0 * (log.sent[i] - due))
        last_ack = max((t for t in log.acked if t is not None), default=log.start)
        window = max(window, last_ack - log.start)
        deltas = np.diff([0, *log.ack_positions])
        batches.extend(deltas[deltas > 0])
    tail = tail_percentile(len(latencies))
    nan = float("nan")
    return {
        "samples": len(latencies),
        "tail_pct": tail,
        "ack_p50_ms": percentile(latencies, 50) if latencies else nan,
        "ack_p99_ms": percentile(latencies, tail) if tail else nan,
        "late_p99_ms": percentile(late, tail) if tail else nan,
        "served_eps": acked_events / window if window > 0 else 0.0,
        "offered_eps": offered_eps * len(logs),
        "batch_events_p50": float(np.median(batches)) if batches else 0.0,
    }


def failed_events(log: SessionLog) -> int:
    """Events in messages never acked, or all of them without a summary."""
    items = log.schedule.items
    if log.summary is None:
        return log.schedule.n_events
    return sum(len(p) for i, (_, k, p) in enumerate(items) if k == "requests" and log.acked[i] is None)


def _fresh_dir(name: str) -> Path:
    path = OUT / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


# --------------------------------------------------------------------------- #
# serve-zipf
# --------------------------------------------------------------------------- #
def serve_zipf(seed: int, seconds: float, env: Dict[str, str], trace_path: Optional[Path]) -> Dict:
    """``repro serve --scenario zipf --strategy hindsight-static`` at fixed rates.

    The primary session runs at :data:`workloads.ZIPF_RATE`; an untraced
    run then climbs the ladder for ``knee_eps``.  A traced run skips the
    ladder, so its per-layer numbers describe the primary rate only.
    """
    spec = wl.zipf_spec()
    events, _ = wl.spec_stream(spec)
    rng = np.random.default_rng(wl.derive(seed, "zipf-arrivals"))
    ladder = () if trace_path is not None else wl.ZIPF_LADDER
    rates = [wl.ZIPF_RATE, *ladder]
    primary_s = 0.6 * seconds
    rung_s = 0.4 * seconds / len(wl.ZIPF_LADDER)
    schedules = [wl.looped_schedule(events, wl.ZIPF_RATE, primary_s, rng)]
    schedules += [wl.looped_schedule(events, rate, rung_s, rng) for rate in ladder]
    common = ["--scenario", "zipf", "--strategy", "hindsight-static", "--host", "127.0.0.1", "--port", "0"]

    async def sessions(host, port, pid):
        logs, window = [], 0.0
        for k, schedule in enumerate(schedules):
            reader, writer, log = await open_session(host, port)
            cpu0 = proc_cpu_seconds(pid)
            logs.append(await drive(reader, writer, log, schedule, time.monotonic() + LEAD_S))
            if k == 0:
                window = proc_cpu_seconds(pid) - cpu0
        return logs, window

    run = run_server(
        [*common, "--sessions", str(len(schedules))],
        [*common, "--sessions", "1"],
        env, sessions, trace_path, timeout=3 * seconds + 60,
    )
    primary = run.logs[0]
    stats = [session_stats([log], rate) for log, rate in zip(run.logs, rates)]
    knee = max(
        (s["offered_eps"] for s in stats
         if s["ack_p99_ms"] <= wl.KNEE_P99_LIMIT_MS and s["served_eps"] >= 0.97 * s["offered_eps"]),
        default=0.0,
    )
    replay, check = gate.replay_throughput(spec, "hindsight-static", primary)
    checks = [check] + [gate.check_served(spec, "hindsight-static", log) for log in run.logs[1:]]
    return {
        "run": run,
        "stats": stats[0],
        "ladder": stats,
        "knee_eps": knee,
        "checks": checks,
        "replay": replay,
        "events": primary.schedule.n_events,
        "attempted": sum(log.schedule.n_events for log in run.logs),
        "failed": sum(failed_events(log) for log in run.logs),
        "rates": {"primary": wl.ZIPF_RATE, "ladder": list(ladder)},
        "journal_bytes": 0,
    }


# --------------------------------------------------------------------------- #
# serve-churn
# --------------------------------------------------------------------------- #
def serve_churn(
    seed: int, seconds: float, env: Dict[str, str], trace_path: Optional[Path], rate: float = wl.CHURN_RATE
) -> Dict:
    """Two open-loop sessions of a storm-derived churn spec, journal on.

    ``rate`` is the offered rate of each session; ``churn_ladder.py``
    passes other rates to find the knee.
    """
    n_events = int(rate * seconds)
    spec = wl.churn_spec(seed, n_events)
    spec_path = OUT / "churn-spec.json"
    spec_path.write_text(spec.to_json(indent=1))
    events, mutations = wl.spec_stream(spec)
    events = events[:n_events]
    mutations = [(t, op) for t, op in mutations if t < n_events]
    schedules = [
        wl.stream_schedule(events, mutations, rate,
                           np.random.default_rng(wl.derive(seed, f"churn-arrivals-{k}")))
        for k in range(wl.CHURN_SESSIONS)
    ]
    record_dir = _fresh_dir("journals")
    common = ["--spec", str(spec_path), "--strategy", "edge-counter", "--host", "127.0.0.1", "--port", "0"]

    async def sessions(host, port, pid):
        opened = [await open_session(host, port) for _ in schedules]
        cpu0 = proc_cpu_seconds(pid)
        start = time.monotonic() + LEAD_S
        logs = await asyncio.gather(
            *(drive(*conn, schedule, start) for conn, schedule in zip(opened, schedules))
        )
        return list(logs), proc_cpu_seconds(pid) - cpu0

    run = run_server(
        [*common, "--record-dir", str(record_dir), "--sessions", str(len(schedules))],
        [*common, "--record-dir", str(_fresh_dir("journals-setup")), "--sessions", "1"],
        env, sessions, trace_path, timeout=3 * seconds + 60,
    )
    journals = sorted(record_dir.glob("*.jsonl"))
    replay, check = gate.replay_throughput(spec, "edge-counter", run.logs[0])
    checks = [check] + [gate.check_served(spec, "edge-counter", log) for log in run.logs[1:]]
    checks += [gate.check_journal(path) for path in journals]
    if len(journals) != len(run.logs):
        checks.append(f"expected {len(run.logs)} journals, found {len(journals)}")
    return {
        "run": run,
        "stats": session_stats(run.logs, rate),
        "knee_eps": None,
        "checks": checks,
        "replay": replay,
        "events": sum(log.schedule.n_events for log in run.logs),
        "attempted": sum(log.schedule.n_events for log in run.logs),
        "failed": sum(failed_events(log) for log in run.logs),
        "rates": {"per_session": rate, "sessions": wl.CHURN_SESSIONS},
        "journal_bytes": sum(path.stat().st_size for path in journals),
    }
