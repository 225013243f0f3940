"""Artifact-generated reports: ``RESULTS.md`` as a pure function of data.

Every number in the generated report comes from a stored registry
artifact (scenario/experiment records) or from the committed benchmark
trajectory (``benchmarks/BENCH_history.json``) -- never from hand
transcription (ARCHITECTURE.md invariant 8).  Given the same registry and
bench history the output is byte-identical, which is what lets CI fail on
drift between the committed ``RESULTS.md`` and a regeneration
(``repro lab report --check``).

Sections:

* **Scenario results** -- one row per (scenario, sweep label, strategy)
  run: congestion, served/dropped split, drop rate, cost breakdown.
* **Competitive ratios** -- per scenario, each strategy's congestion
  relative to the hindsight-static baseline of the same run.
* **Strategy tournament** -- the leaderboard of the pinned tournament
  strategy set raced across every scenario family
  (:mod:`repro.lab.tournament`): wins, entries and mean congestion ratio
  per strategy, plus the per-group detail table.
* **Experiments** -- a summary row per experiment artifact plus each
  experiment's record table (truncated with an explicit marker).
* **Benchmark trajectory** -- the machine-independent speedup ratios
  (fleet stacked-vs-sequential, churn repair-vs-rebuild, online
  incremental-vs-scalar, kernel overhead) derived from the committed
  bench-history medians, one row per recorded run.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence

from repro.analysis.report import format_value, markdown_section
from repro.errors import LabError
from repro.lab.registry import ENGINE_VERSION, LabEntry, LabRegistry

__all__ = ["generate_results", "check_results", "GENERATED_MARKER"]

GENERATED_MARKER = (
    "<!-- GENERATED FILE -- do not edit by hand.  Regenerate with\n"
    "     `repro lab report --write` from the committed lab registry\n"
    "     (see docs/LAB.md); CI fails on drift via `repro lab report --check`. -->"
)

#: Columns of the scenario results table (record keys of
#: :func:`repro.sim.scenario.run_scenario`).
_SCENARIO_COLUMNS = (
    "scenario",
    "label",
    "strategy",
    "congestion",
    "served",
    "dropped",
    "drop_rate",
    "service_load",
    "management_load",
)

_EXPERIMENT_MAX_ROWS = 16

#: (numerator, denominator) bench-history median keys per derived ratio.
_BENCH_RATIOS = (
    (
        "fleet speedup (stacked vs sequential)",
        "benchmarks/bench_fleet.py::test_sequential_fleet_small",
        "benchmarks/bench_fleet.py::test_fleet_replay_small",
    ),
    (
        "churn repair speedup (repair vs rebuild)",
        "benchmarks/bench_churn.py::test_churn_rebuild_small",
        "benchmarks/bench_churn.py::test_churn_repair_small",
    ),
    (
        "online incremental speedup (scalar event loop vs incremental)",
        "benchmarks/bench_online.py::test_replay_event_reference_small",
        "benchmarks/bench_online.py::test_replay_event_incremental_small",
    ),
    (
        "adaptive fleet speedup (batched vs lane-by-lane)",
        "benchmarks/bench_fleet.py::test_adaptive_lane_by_lane_small",
        "benchmarks/bench_fleet.py::test_adaptive_fleet_small",
    ),
    (
        "kernel overhead (engine vs direct chunk path)",
        "benchmarks/bench_sim.py::test_engine_batch_small",
        "benchmarks/bench_sim.py::test_direct_batch_small",
    ),
    (
        "huge replay speedup (compiled vs numpy reference)",
        "benchmarks/bench_huge.py::test_huge_replay_numpy_reference",
        "benchmarks/bench_huge.py::test_huge_replay_compiled",
    ),
    (
        "sampling cost, hindsight-static (spec sinks vs none)",
        "benchmarks/bench_sim.py::test_zipf_x300_replay[spec-sinks-hindsight-static]",
        "benchmarks/bench_sim.py::test_zipf_x300_replay[no-sinks-hindsight-static]",
    ),
    (
        "sampling cost, edge-counter (spec sinks vs none)",
        "benchmarks/bench_sim.py::test_zipf_x300_replay[spec-sinks-edge-counter]",
        "benchmarks/bench_sim.py::test_zipf_x300_replay[no-sinks-edge-counter]",
    ),
)


def _scenario_rows(payloads: Sequence[Mapping]) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for payload in payloads:
        for record in payload["records"]:
            n_events = int(record.get("n_events", 0)) or 1
            rows.append(
                {
                    **{k: record.get(k, "") for k in _SCENARIO_COLUMNS},
                    "drop_rate": float(record.get("dropped", 0)) / n_events,
                }
            )
    return rows


def _ratio_rows(payloads: Sequence[Mapping]) -> List[Dict[str, object]]:
    """Per (scenario, label): strategy congestion / hindsight-static congestion."""
    rows: List[Dict[str, object]] = []
    for payload in payloads:
        by_label: Dict[str, List[Mapping]] = {}
        for record in payload["records"]:
            by_label.setdefault(str(record.get("label", "")), []).append(record)
        for label, records in by_label.items():
            baseline = next(
                (
                    float(r["congestion"])
                    for r in records
                    if r.get("strategy") == "hindsight-static"
                ),
                None,
            )
            for record in records:
                congestion = float(record["congestion"])
                rows.append(
                    {
                        "scenario": record.get("scenario", ""),
                        "label": label,
                        "strategy": record.get("strategy", ""),
                        "congestion": congestion,
                        "vs hindsight-static": (
                            congestion / baseline
                            if baseline
                            else "n/a"
                        ),
                    }
                )
    return rows


def _bench_rows(bench_history: Optional[Path]) -> List[Dict[str, object]]:
    if bench_history is None or not Path(bench_history).exists():
        return []
    document = json.loads(Path(bench_history).read_text())
    rows: List[Dict[str, object]] = []
    for run in document.get("runs", []):
        medians = run.get("medians", {})
        row: Dict[str, object] = {"run": run.get("label", "?")}
        for title, numerator, denominator in _BENCH_RATIOS:
            num, den = medians.get(numerator), medians.get(denominator)
            row[title] = (
                f"{float(num) / float(den):.2f}x" if num and den else "n/a"
            )
        rows.append(row)
    return rows


def generate_results(
    registry: LabRegistry,
    entries: Sequence[LabEntry],
    bench_history: "str | Path | None" = None,
) -> str:
    """Render the full results report from stored artifacts.

    Raises :class:`~repro.errors.LabError` when any suite entry has no
    stored run -- a report must never be generated from partial data;
    run ``repro lab run-missing`` first.
    """
    missing = registry.missing(entries)
    if missing:
        names = ", ".join(f"{e.kind}:{e.name}" for e in missing[:8])
        more = f" (+{len(missing) - 8} more)" if len(missing) > 8 else ""
        raise LabError(
            f"cannot generate a report from a partial registry; "
            f"{len(missing)} of {len(entries)} entries missing: {names}{more} "
            f"-- run `repro lab run-missing` first"
        )

    scenario_payloads = [
        registry.get(e.key) for e in entries if e.kind == "scenario"
    ]
    tournament_payloads = [
        registry.get(e.key) for e in entries if e.kind == "tournament"
    ]
    experiment_payloads = [
        registry.get(e.key) for e in entries if e.kind == "experiment"
    ]

    parts: List[str] = [
        "# Results",
        "",
        GENERATED_MARKER,
        "",
        (
            f"Generated from {len(entries)} registry artifacts "
            f"({len(scenario_payloads)} scenario runs, "
            f"{len(tournament_payloads)} tournament runs, "
            f"{len(experiment_payloads)} experiments) at engine version "
            f"{ENGINE_VERSION}.  Every value below is read from a stored "
            f"artifact keyed by `(spec_hash, seed, engine_version)`; see "
            f"docs/LAB.md for the provenance contract."
        ),
        "",
    ]

    scenario_rows = _scenario_rows(scenario_payloads)
    parts.append(
        markdown_section(
            "Scenario results", scenario_rows, columns=list(_SCENARIO_COLUMNS)
        )
    )
    parts.append("")
    parts.append(
        markdown_section(
            "Competitive ratios vs hindsight-static",
            _ratio_rows(scenario_payloads),
        )
    )
    parts.append("")

    if tournament_payloads:
        from repro.lab.tournament import leaderboard_rows

        parts.append(
            markdown_section(
                "Strategy tournament leaderboard",
                leaderboard_rows(tournament_payloads),
            )
        )
        parts.append(
            "\n*A strategy wins a (scenario, sweep label) group when no "
            "competitor reached lower final congestion (ties share the "
            "win); the ratio column is its mean congestion relative to "
            "the hindsight-static baseline of the same group.  Rerun "
            "with `repro lab run-missing --suite tournament`.*"
        )
        parts.append("")
        parts.append(
            markdown_section(
                "Tournament detail (per scenario and strategy)",
                _ratio_rows(tournament_payloads),
                level=3,
            )
        )
        parts.append("")

    summary_rows = [
        {
            "experiment": p["name"],
            "seed": p["seed"],
            "records": p["n_records"],
            "spec_hash": str(p["spec_hash"])[:12],
        }
        for p in experiment_payloads
    ]
    parts.append(markdown_section("Experiments", summary_rows))
    parts.append("")
    for payload in experiment_payloads:
        parts.append(
            markdown_section(
                f"{payload['name']} (seed {format_value(payload['seed'])})",
                payload["records"],
                max_rows=_EXPERIMENT_MAX_ROWS,
                level=3,
            )
        )
        parts.append("")

    bench_rows = _bench_rows(Path(bench_history) if bench_history else None)
    if bench_rows:
        parts.append(
            markdown_section(
                "Benchmark trajectory (derived speedup ratios)", bench_rows
            )
        )
        parts.append(
            "\n*Ratios are derived from the committed "
            "`benchmarks/BENCH_history.json` medians (one row per recorded "
            "bench run); absolute timings are machine-dependent and live "
            "only in the history file.*"
        )
        parts.append("")

    return "\n".join(parts).rstrip() + "\n"


def check_results(
    registry: LabRegistry,
    entries: Sequence[LabEntry],
    results_path: "str | Path",
    bench_history: "str | Path | None" = None,
) -> List[str]:
    """Compare the committed report against a regeneration.

    Returns a list of human-readable drift lines (empty = in sync).
    """
    expected = generate_results(registry, entries, bench_history=bench_history)
    path = Path(results_path)
    if not path.exists():
        return [f"{path} does not exist (run `repro lab report --write`)"]
    actual = path.read_text()
    if actual == expected:
        return []
    import difflib

    diff = list(
        difflib.unified_diff(
            actual.splitlines(),
            expected.splitlines(),
            fromfile=str(path),
            tofile="regenerated",
            lineterm="",
            n=1,
        )
    )
    head = diff[:40]
    if len(diff) > 40:
        head.append(f"... (+{len(diff) - 40} more diff lines)")
    return head
