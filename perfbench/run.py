#!/usr/bin/env python3
"""Benchmark of the placement service and the offline replay.

Run from the root of a checkout::

    python3 perfbench/run.py --workload serve-zipf --seed 1 --seconds 10 --trace 0

Workloads: ``serve-zipf``, ``serve-churn``, ``replay-mid`` (README.md).
With ``--trace 0`` the run is untraced and the result line carries the
end-to-end metrics; with ``--trace 1`` the run is made twice, untraced
and traced, and the result line carries the per-layer metrics of the
traced run plus the tracing overhead.  Every run checks the program's
outputs (gate.py) and prints a human-readable report, then one JSON
result line last.  The exit code is non-zero when a check fails or the
run cannot be made; then no result line is printed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import OUT, BenchError, check_checkout, prepare_environment, provenance  # noqa: E402

#: Workloads (BENCHMARK.json ``workloads``): name, why.
WORKLOADS = {
    "serve-zipf": "15-node zipf served open loop at 15k ev/s: per-span fixed cost, wire, micro-batching and ack path",
    "serve-churn": "121-node storm spec, 2 sessions, journal on, a mutation every 64 events: barriers, repair, journal",
    "replay-mid": "5,631-node offline replay: extended-nibble placement and kernel-bound serve_chunk; no serving layers",
}

#: End-to-end metrics (BENCHMARK.json ``end_to_end``), measured on every workload: unit, better.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
    "cpu_us_per_event": ("us", "lower"),
    "place_s": ("s", "lower"),
    "replay_eps.hindsight-static": ("ev/s", "higher"),
    "replay_eps.edge-counter": ("ev/s", "higher"),
}

#: Per-layer metrics (BENCHMARK.json ``per_layer``) of a traced run: unit, better.
PER_LAYER = {
    "serve.wire.decode_us_per_event": ("us", "lower"),
    "serve.wire.encode_us_per_reply": ("us", "lower"),
    "serve.server.wait_ms.p50": ("ms", "lower"),
    "serve.server.wait_ms.p99": ("ms", "lower"),
    "serve.server.batch_events.p50": ("count", "higher"),
    "serve.server.pass_ms.p99": ("ms", "lower"),
    "serve.batcher.feed_us_per_event": ("us", "lower"),
    "serve.batcher.feeds": ("count", "lower"),
    "serve.recorder.write_us_per_item": ("us", "lower"),
    "serve.recorder.bytes_per_event": ("B", "lower"),
    "sim.engine.spans_per_feed": ("count", "lower"),
    "sim.engine.self_us_per_span": ("us", "lower"),
    "sim.sinks.us_per_boundary": ("us", "lower"),
    "sim.sinks.boundaries_per_kev": ("1/kev", "lower"),
    "dynamic.online.serve_chunk_us_per_event.hindsight-static": ("us", "lower"),
    "dynamic.online.serve_chunk_us_per_event.edge-counter": ("us", "lower"),
    "dynamic.online.serve_chunk_calls": ("count", "lower"),
    "dynamic.online.apply_mutation_us": ("us", "lower"),
    "core.kernels.calls_per_kev.lca": ("1/kev", "lower"),
    "core.kernels.calls_per_kev.pair_scatter": ("1/kev", "lower"),
    "core.kernels.calls_per_kev.scatter_paths": ("1/kev", "lower"),
    "core.kernels.calls_per_kev.apply_column": ("1/kev", "lower"),
    "core.kernels.calls_per_kev.rescan": ("1/kev", "lower"),
    "core.kernels.calls_per_kev.aggregate_pairs": ("1/kev", "lower"),
    "core.kernels.us_per_call": ("us", "lower"),
    "core.loadstate.apply_us_per_call": ("us", "lower"),
    "core.loadstate.steiner_us_per_call": ("us", "lower"),
    "core.loadstate.repair_us_per_mutation": ("us", "lower"),
    "core.extended_nibble.s": ("s", "lower"),
    "network.rooted.distance_calls": ("count", "lower"),
    "network.rooted.lca_calls": ("count", "lower"),
    "network.mutation.apply_us": ("us", "lower"),
    "sim.scenario.build_s": ("s", "lower"),
    "client.late_ms.p99": ("ms", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def measure(workload: str, seed: int, seconds: float, env, trace_path):
    """One run of a workload; returns (end-to-end metrics, report-only metrics, raw)."""
    if workload == "replay-mid":
        import replay_bench

        raw = replay_bench.replay_mid(seed, seconds, env, OUT, trace_path)
        e2e = {
            "setup_s": raw["setup_s"],
            "peak_rss_mib": raw["peak_rss_mib"],
            "cpu_us_per_event": raw["cpu_us_per_event"],
            "place_s": raw["place_s"],
            **raw["replay"],
        }
        raw["failed"] = 0
        return e2e, {"failed_frac": (0.0, "ratio")}, raw

    import serve_bench

    runner = serve_bench.serve_zipf if workload == "serve-zipf" else serve_bench.serve_churn
    raw = runner(seed, seconds, env, trace_path)
    run, stats = raw["run"], raw["stats"]
    events = raw["events"]
    e2e = {
        "setup_s": run.setup_s,
        "peak_rss_mib": run.peak_rss_mib,
        "cpu_us_per_event": 1e6 * run.cpu_window_s / events,
        "place_s": raw["replay"]["place_s"],
        "replay_eps.hindsight-static": raw["replay"]["replay_eps.hindsight-static"],
        "replay_eps.edge-counter": raw["replay"]["replay_eps.edge-counter"],
    }
    tail = stats["tail_pct"]
    extra = {
        "ack_p50_ms": (stats["ack_p50_ms"], "ms", f"n={stats['samples']} messages after warm-up"),
        "ack_p99_ms": (stats["ack_p99_ms"], "ms", f"p{tail} of n={stats['samples']}"),
        "served_eps": (stats["served_eps"], "ev/s", f"offered {stats['offered_eps']:.0f} ev/s"),
        "failed_frac": (raw["failed"] / raw["attempted"], "ratio", f"of {raw['attempted']} events"),
        "client.late_ms.p99": (stats["late_p99_ms"], "ms", "generator lateness"),
        "serve.server.batch_events.p50": (stats["batch_events_p50"], "count", "from ack positions"),
    }
    if raw["knee_eps"] is not None:
        extra["knee_eps"] = (raw["knee_eps"], "ev/s", "highest ladder rate with p99 <= limit")
    return e2e, extra, raw


def traced_layers(workload: str, raw, untraced_e2e, traced_e2e, trace_path: Path):
    """Per-layer metrics of a traced run (every layer, 0 where it did no work)."""
    import tracing

    spans, counters = tracing.read(raw.get("trace_paths") or [trace_path])
    sends = {}
    journal_bytes = 0
    if workload != "replay-mid":
        for log in raw["run"].logs:
            sends[log.hello.get("token")] = log.sent
        journal_bytes = raw["journal_bytes"]
    layers = tracing.layer_metrics(spans, counters, sends, journal_bytes)
    if workload == "replay-mid":
        layers["client.late_ms.p99"] = (0.0, "ms")
        layers["serve.server.batch_events.p50"] = (0.0, "count")
    else:
        layers["client.late_ms.p99"] = (raw["stats"]["late_p99_ms"], "ms")
        layers["serve.server.batch_events.p50"] = (raw["stats"]["batch_events_p50"], "count")
    layers["trace.overhead_frac"] = (
        traced_e2e["cpu_us_per_event"] / untraced_e2e["cpu_us_per_event"] - 1.0, "ratio")
    return layers


def _fmt(value: float) -> str:
    if isinstance(value, float) and (math.isnan(value) or math.isinf(value)):
        return str(value)
    return f"{value:.6g}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        check_checkout()
        env = prepare_environment()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    started = time.monotonic()
    e2e, extra, raw = measure(args.workload, args.seed, args.seconds, env, None)
    checks = [c for c in raw["checks"] if c]
    layers = {}
    if args.trace:
        trace_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        trace_path.unlink(missing_ok=True)
        traced_e2e, _, traced_raw = measure(args.workload, args.seed, args.seconds, env, trace_path)
        checks += [c for c in traced_raw["checks"] if c]
        layers = traced_layers(args.workload, traced_raw, e2e, traced_e2e, trace_path)

    rates = raw.get("rates", {})
    prov = provenance(args.seed, args.workload, bool(args.trace), rates)
    print(f"# perfbench {args.workload}: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, value in e2e.items():
        print(f"{name:34s} {_fmt(value):>14s} {END_TO_END[name][0]}")
    for name, (value, unit, *note) in extra.items():
        print(f"{name:34s} {_fmt(value):>14s} {unit}  {' '.join(note)}")
    for name, (value, unit) in sorted(layers.items()):
        print(f"{name:50s} {_fmt(value):>14s} {unit}")
    for check in checks:
        print(f"CHECK FAILED: {check}")
    print(f"# wall {time.monotonic() - started:.1f} s, correct={not checks}")

    result_doc = {
        "provenance": prov,
        "end_to_end": e2e,
        "report": {k: v[0] for k, v in extra.items()},
        "per_layer": {k: v[0] for k, v in layers.items()},
        "checks": checks,
    }
    if "ladder" in raw:
        result_doc["ladder"] = raw["ladder"]
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result_doc, indent=1, default=float))
    if checks:
        return 1
    if args.trace:
        metrics = {k: (layers[k][0], unit) for k, (unit, _) in PER_LAYER.items()}
    else:
        metrics = {k: (e2e[k], unit) for k, (unit, _) in END_TO_END.items()}
    line = {
        "correct": True,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
