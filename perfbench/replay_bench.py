"""The ``replay-mid`` workload: in-process offline replay, as ``repro simulate`` does it.

The replay runs in child processes (``python perfbench/replay_bench.py
--seed S --index I --placed N --out F``), one after another, so each
child's peak RSS is its own.  A run replays 2N scenario instances derived
from the run seed, so that no single random instance sets the figures.
Child I builds instance I, constructs ``hindsight-static`` -- the
extended-nibble placement, ``place_s`` -- and replays it and a fresh
``edge-counter`` with ``SimulationEngine.run`` (after one untimed
edge-counter replay that pays the process's lazy set-up); then it builds
instance
I + N and replays ``edge-counter`` only (an edge-counter replay moves by
about 10% from one instance to the next and costs far less than a
placement).  Each instance's edge-counter replay is timed
:data:`EDGE_PASSES` times with fresh strategies and the median pass
counts.  The placement's speed also shifts by up to ~25% from one process
to the next, which is why the work is spread over N processes.
``setup_s`` is the median build, ``place_s`` the mean placement,
``replay_eps`` events over summed (median) run time, and
``cpu_us_per_event`` the CPU time of every timed pass over the events
those passes replayed.  Every timing is scaled to reference speed
(:class:`common.Timed`).  The parent checks every record
against an independent replay of the same inputs through the fleet
engine.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional

from common import Timed, stop, wait_exit

#: Approximate seconds of work per child process, and the fewest children per run.
ROUND_S = 2.5
MIN_ROUNDS = 2
#: Timed edge-counter passes per instance, each with a fresh strategy; the
#: median pass counts.  One pass is ~0.2 s, short enough for the vCPU
#: speed drift to move it by 20%.
EDGE_PASSES = 3
#: How long one replay child may run (s).
CHILD_TIMEOUT_S = 120.0
STRATEGIES = ("hindsight-static", "edge-counter")


def record_of(result) -> Dict:
    """The canonical result record, with a lane-independent load hash.

    ``loads_sha256`` hashes the substrate's internal array, whose layout
    differs between a sequential and a fleet replay; the edge-load vector
    is the same in both.
    """
    import numpy as np

    from repro.serve.batcher import result_record

    record = result_record(result)
    record.pop("loads_sha256", None)
    loads = np.ascontiguousarray(result.account.state.edge_loads, dtype=np.float64)
    record["edge_loads_sha256"] = hashlib.sha256(loads.tobytes()).hexdigest()
    return json.loads(json.dumps(record))


def children(seconds: float) -> int:
    """Child processes per run: one round of work each, ~ROUND_S long."""
    return max(MIN_ROUNDS, int(round(seconds / ROUND_S)))


def child(seed: int, index: int, placed: int, out: Path, trace_out: Optional[Path]) -> None:
    """Replay instances ``index`` (both strategies) and ``index + placed`` (edge-counter).

    Writes the timings and result records to ``out``.
    """
    tracer = None
    if trace_out is not None:
        import tracing

        tracer = tracing.install()
    from repro.sim.engine import SimulationEngine
    from repro.sim.scenario import build_scenario

    import workloads as wl

    times = {"build": [], "place": [], **{name: [] for name in STRATEGIES}}
    events = {name: 0 for name in STRATEGIES}
    cpu, cpu_events = 0.0, 0
    records = []
    for k in (index, index + placed):
        spec = wl.mid_spec(seed, k)
        with Timed() as timed:
            scenario = build_scenario(spec)[0]
        times["build"].append(timed.scaled)
        factories = dict(scenario.strategies)
        if k == index:
            # untimed: the first replay in a process pays its lazy set-up
            SimulationEngine(factories["edge-counter"](), sinks=scenario.make_sinks()).run(
                scenario.sequence, scenario.trace)
        strategies = [("edge-counter", [factories["edge-counter"]] * EDGE_PASSES)]
        if k == index:
            with Timed() as timed:
                placed_strategy = factories["hindsight-static"]()
            times["place"].append(timed.scaled)
            strategies.append(("hindsight-static", [lambda: placed_strategy]))
        record = {}
        for name, makers in strategies:
            passes = []
            for make in makers:
                engine = SimulationEngine(make(), sinks=scenario.make_sinks())
                with Timed() as timed:
                    result = engine.run(scenario.sequence, scenario.trace)
                passes.append(timed.scaled)
                cpu += timed.cpu * timed.factor
                cpu_events += len(scenario.sequence)
            times[name].append(statistics.median(passes))
            events[name] += len(scenario.sequence)
            record[name] = record_of(result)
        records.append({"spec": spec.to_dict(), "records": record})
    out.write_text(json.dumps({"times": times, "events": events, "cpu_s": cpu, "cpu_events": cpu_events,
                               "instances": records}))
    if tracer is not None:
        tracer.write(trace_out)


def independent_records(spec_doc: Dict, names) -> Dict[str, Dict]:
    """The same inputs replayed in this process through ``run_fleet``."""
    from repro.sim.engine import SimulationEngine
    from repro.sim.scenario import ScenarioSpec, build_scenario

    scenario = build_scenario(ScenarioSpec.from_dict(spec_doc))[0]
    factories = dict(scenario.strategies)
    results = SimulationEngine.run_fleet(
        [factories[name]() for name in names],
        scenario.sequence,
        scenario.trace,
        sinks=[scenario.make_sinks() for _ in names],
    )
    return {name: record_of(result) for name, result in zip(names, results)}


def replay_mid(seed: int, seconds: float, env: Dict[str, str], out_dir: Path, trace_path: Optional[Path]) -> Dict:
    """Run the children one after another, reap each with ``os.wait4``, gate the records.

    A traced run writes one span file per child next to ``trace_path``.
    """
    n = children(seconds)
    documents, rss, trace_paths = [], [], []
    for index in range(n):
        out = out_dir / f"replay-child-{index}.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(Path(__file__).resolve()), "--seed", str(seed),
                "--index", str(index), "--placed", str(n), "--out", str(out)]
        if trace_path is not None:
            trace_paths.append(trace_path.with_name(f"{trace_path.stem}.{index}.jsonl"))
            argv += ["--trace-out", str(trace_paths[-1])]
        proc = subprocess.Popen(argv, env=env)
        try:
            rss.append(wait_exit(proc, CHILD_TIMEOUT_S).ru_maxrss / 1024.0)
        except BaseException:
            stop(proc)
            raise
        documents.append(json.loads(out.read_text()))
    checks = []
    for document in documents:
        for instance in document["instances"]:
            names = sorted(instance["records"])
            expected = independent_records(instance["spec"], names)
            for name in names:
                got = instance["records"][name]
                if got != expected[name]:
                    keys = sorted(k for k in set(got) | set(expected[name]) if got.get(k) != expected[name].get(k))
                    checks.append(f"replay {instance['spec']['name']} {name}: differs from the fleet replay in {keys}")
    times = {key: [t for d in documents for t in d["times"][key]] for key in documents[0]["times"]}
    events = {name: sum(d["events"][name] for d in documents) for name in STRATEGIES}
    total = sum(events.values())
    return {
        "checks": checks,
        "trace_paths": trace_paths,
        "peak_rss_mib": max(rss),
        "setup_s": statistics.median(times["build"]),
        "place_s": statistics.fmean(times["place"]),
        "replay": {f"replay_eps.{name}": events[name] / sum(times[name]) for name in STRATEGIES},
        "cpu_us_per_event": 1e6 * sum(d["cpu_s"] for d in documents) / sum(d["cpu_events"] for d in documents),
        "attempted": total,
        "events": total,
    }


def _main(argv) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--placed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    args = parser.parse_args(argv)
    child(args.seed, args.index, args.placed, args.out, args.trace_out)
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
