"""Experiment lab: persistent run registry and artifact-generated reports.

``repro.lab`` makes sweeps resumable and reported numbers reproducible:

* :mod:`repro.lab.registry` -- a content-addressed run registry keyed by
  ``(spec_hash, seed, engine_version)`` with a resumable ``run_missing``
  sweep driver over the persistent worker pool;
* :mod:`repro.lab.reports` -- ``RESULTS.md`` generated purely from stored
  artifacts (plus the committed benchmark trajectory), checked against
  drift in CI;
* :mod:`repro.lab.tournament` -- the pinned strategy-tournament set and
  the leaderboard derived from stored tournament artifacts.

The ``repro lab`` CLI (``run-missing`` / ``status`` / ``report`` /
``heal`` / ``gc``) exposes them; see ``docs/LAB.md`` for the workflow.
"""

from repro.lab.registry import (
    ENGINE_VERSION,
    LAB_SUITES,
    LabEntry,
    LabRegistry,
    RunKey,
    RunMissingResult,
    canonical_hash,
    canonical_json,
    experiment_entry,
    run_missing,
    scenario_entry,
    suite_entries,
    tournament_entry,
)
from repro.lab.reports import check_results, generate_results
from repro.lab.tournament import (
    TOURNAMENT_STRATEGIES,
    leaderboard_rows,
    tournament_spec,
)

__all__ = [
    "ENGINE_VERSION",
    "LAB_SUITES",
    "LabEntry",
    "LabRegistry",
    "RunKey",
    "RunMissingResult",
    "TOURNAMENT_STRATEGIES",
    "canonical_hash",
    "canonical_json",
    "check_results",
    "experiment_entry",
    "generate_results",
    "leaderboard_rows",
    "run_missing",
    "scenario_entry",
    "suite_entries",
    "tournament_entry",
    "tournament_spec",
]
