#!/usr/bin/env python3
"""Rate ladder of the serve-churn workload: where its knee is.

    python3 perfbench/churn_ladder.py --seed 1 --seconds 6 --rates 1500 3000 4500 6000

Runs serve-churn (two sessions, journal on, a mutation every 64 events)
once per offered rate per session, with every correctness check, and
prints the pooled ack latency from the scheduled send, the served rate
and the server's CPU time per event.  ``workloads.CHURN_RATE`` is chosen
from this table: the highest rate before the p50 and p99 start to climb
with the offered rate (see the note at the constant).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import BenchError, check_checkout, prepare_environment  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--rates", type=float, nargs="+", default=[1500.0, 3000.0, 4500.0, 6000.0])
    args = parser.parse_args(argv)
    try:
        check_checkout()
        env = prepare_environment()
    except BenchError as exc:
        print(f"churn_ladder: {exc}", file=sys.stderr)
        return 2

    import serve_bench

    print(f"{'rate/session':>12s} {'offered':>8s} {'served':>8s} {'p50 ms':>8s} {'p99 ms':>8s} "
          f"{'late99':>7s} {'cpu us/ev':>9s} {'n':>6s}")
    for rate in args.rates:
        raw = serve_bench.serve_churn(args.seed, args.seconds, env, None, rate=rate)
        failed = [c for c in raw["checks"] if c]
        if failed or raw["failed"]:
            print(f"{rate:12.0f} FAILED: {failed} failed events {raw['failed']}")
            return 1
        s = raw["stats"]
        cpu = 1e6 * raw["run"].cpu_window_s / raw["events"]
        print(f"{rate:12.0f} {s['offered_eps']:8.0f} {s['served_eps']:8.0f} {s['ack_p50_ms']:8.2f} "
              f"{s['ack_p99_ms']:8.2f} {s['late_p99_ms']:7.2f} {cpu:9.1f} {s['samples']:6d}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
