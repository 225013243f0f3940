#!/usr/bin/env python3
"""Steadiness check: run each workload on several seeds, report the spread.

    python3 perfbench/steady.py --runs 10 --seconds 10                    # two sets, report only
    python3 perfbench/steady.py --runs 10 --seconds 10 --sets 1 --write   # also write BENCHMARK.json

A set runs every workload on ``--runs`` consecutive seeds; set ``s``
starts at seed ``seed0 + s * runs``.  For every end-to-end metric and
workload it prints each set's median, first and third quartile
(``statistics.quantiles(values, n=4)``) and the spread
``(q3 - q1) / median``, and the change of the median from the first set
to each later one, in the metric's worse direction.  The service metrics
that are reported but not gated (``ack_p50_ms``, ``ack_p99_ms``,
``served_eps``, ``knee_eps``, ``client.late_ms.p99``) are printed the
same way, from the runs' result documents.

A metric's regression bound is three times its largest spread over the
workloads and sets, rounded up to 0.05 and kept within [0.05, 0.25].
``setup_s`` gets its own derived bound or the largest bound of the other
metrics, whichever is larger, so that it has the largest bound.  The exit
status is 1 when a gated spread (``setup_s`` excepted) or a change of a
median exceeds the bound derived here, or the one already in
BENCHMARK.json when that is smaller.  ``--write`` puts the derived bounds
into BENCHMARK.json.  Raw results go to ``.bench_build/perfbench/steady/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from common import OUT, ROOT  # noqa: E402
from run import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

MIN_BOUND, MAX_BOUND = 0.05, 0.25
#: Reported, not gated: read from each run's result document.
REPORTED = {
    "ack_p50_ms": "lower",
    "ack_p99_ms": "lower",
    "served_eps": "higher",
    "knee_eps": "higher",
    "client.late_ms.p99": "lower",
}


def run_once(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    started = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - started
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stdout[-3000:]}\n{done.stderr[-3000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: incorrect or failed operations: {result}")
    document = json.loads((OUT / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    return {
        "wall_s": wall,
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "report": {k: v for k, v in document["report"].items() if k in REPORTED},
    }


def spread(values) -> tuple:
    """Median, first and third quartile, and ``(q3 - q1) / median``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3, (q3 - q1) / q2 if q2 else float("nan")


def clamp(raw: float) -> float:
    return min(MAX_BOUND, max(MIN_BOUND, math.ceil(raw * 20.0 - 1e-9) / 20.0))


def derive_bounds(spreads) -> dict:
    """Bounds from every spread seen per metric; ``setup_s`` gets the largest."""
    bounds = {name: clamp(3.0 * max(s)) for name, s in spreads.items()}
    others = max(b for name, b in bounds.items() if name != "setup_s")
    bounds["setup_s"] = max(bounds["setup_s"], others)
    return bounds


def worse_change(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=1000)
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    parser.add_argument("--write", action="store_true", help="write BENCHMARK.json from the spreads")
    args = parser.parse_args(argv)

    # raw[set][workload] = list of outcomes
    raw = []
    for index in range(args.sets):
        raw.append({})
        for workload in args.workloads:
            raw[index][workload] = []
            for k in range(args.runs):
                seed = args.seed0 + index * args.runs + k
                outcome = run_once(workload, seed, args.seconds)
                raw[index][workload].append(outcome)
                print(f"set {index} {workload} seed {seed}: {outcome['wall_s']:.1f} s", flush=True)
    out = OUT / "steady"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"steady-{int(time.time())}.json").write_text(json.dumps(raw, indent=1))

    directions = {name: better for name, (_, better) in END_TO_END.items()}
    spreads = {name: [] for name in END_TO_END}
    medians = {}
    print(f"\n{'set':3s} {'workload':12s} {'metric':30s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s}")
    for index, sets in enumerate(raw):
        for workload, outcomes in sets.items():
            for source, names in (("metrics", END_TO_END), ("report", REPORTED)):
                for name in names:
                    values = [o[source][name] for o in outcomes if name in o[source]]
                    if len(values) < 2:
                        continue
                    q2, q1, q3, s = spread(values)
                    medians[index, workload, name] = q2
                    if source == "metrics":
                        spreads[name].append(s)
                    label = name if source == "metrics" else f"{name} (not gated)"
                    print(f"{index:<3d} {workload:12s} {label:30s} {q2:12.6g} {q1:12.6g} {q3:12.6g} {s:8.3f}")
            walls = [o["wall_s"] for o in outcomes]
            print(f"{index:<3d} {workload:12s} {'(wall s per run)':30s} "
                  f"{statistics.median(walls):12.1f} max {max(walls):.1f}")

    bounds = derive_bounds(spreads)
    declared = {}
    if (ROOT / "BENCHMARK.json").exists():
        declared = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    limits = {name: min(bounds[name], declared.get(name, bounds[name])) for name in bounds}
    print("\nbounds derived:", json.dumps(bounds))
    over = []
    for name, seen in spreads.items():
        if name != "setup_s" and max(seen) > limits[name]:
            over.append(f"{name}: spread {max(seen):.3f} > bound {limits[name]}")
    if args.sets > 1:
        print(f"\n{'workload':12s} {'metric':30s} {'worse by (later set vs set 0)':>30s}")
        for workload in args.workloads:
            for name, better in directions.items():
                changes = [worse_change(medians[0, workload, name], medians[i, workload, name], better)
                           for i in range(1, args.sets)]
                print(f"{workload:12s} {name:30s} " + " ".join(f"{c:+8.3f}" for c in changes))
                if max(changes) > limits[name]:
                    over.append(f"{workload} {name}: median worse by {max(changes):.3f} > bound {limits[name]}")
    for line in over:
        print("OVER:", line)
    if args.write:
        document = {
            "command": ["python3", "perfbench/run.py"],
            "paths": ["perfbench"],
            "run_seconds": args.seconds,
            "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
            "end_to_end": [
                {"name": name, "unit": unit, "better": better, "bound": bounds[name]}
                for name, (unit, better) in END_TO_END.items()
            ],
            "per_layer": [
                {"name": name, "unit": unit, "better": better} for name, (unit, better) in PER_LAYER.items()
            ],
        }
        (ROOT / "BENCHMARK.json").write_text(json.dumps(document, indent=2) + "\n")
        print("wrote BENCHMARK.json")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main())
