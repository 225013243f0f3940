"""Registry semantics: content addressing, index determinism, gc."""

import json

import pytest

from repro.errors import LabError
from repro.lab.registry import (
    ENGINE_VERSION,
    LabEntry,
    LabRegistry,
    RunKey,
    experiment_entry,
    run_missing,
    scenario_entry,
    suite_entries,
)
from repro.sim.scenario import scenario_spec


class TestRecordAndLookup:
    def test_record_get_round_trip(self, tmp_path):
        registry = LabRegistry(tmp_path / "reg")
        entry = scenario_entry(scenario_spec("zipf", seed=0, small=True), 0)
        records = [{"strategy": "edge-counter", "congestion": 3.0}]
        path = registry.record(entry, records)
        assert path.exists()
        assert registry.has(entry.key)
        payload = registry.get(entry.key)
        assert payload["format"] == "repro.lab-artifact/v1"
        assert payload["records"] == records
        assert payload["spec_hash"] == entry.spec_hash
        assert payload["engine_version"] == ENGINE_VERSION
        assert payload["spec"] == dict(entry.document)

    def test_artifact_path_is_content_addressed(self, tmp_path):
        registry = LabRegistry(tmp_path / "reg")
        entry = scenario_entry(scenario_spec("zipf", seed=3, small=True), 3)
        path = registry.artifact_path(entry.key)
        assert path.parent.name == entry.spec_hash[:2]
        assert path.name == f"{entry.spec_hash}-s3-v{ENGINE_VERSION}.json"

    def test_missing_artifact_file_counts_as_missing(self, tmp_path):
        registry = LabRegistry(tmp_path / "reg")
        entry = scenario_entry(scenario_spec("zipf", seed=0, small=True), 0)
        registry.record(entry, [{"x": 1}])
        registry.artifact_path(entry.key).unlink()
        assert not registry.has(entry.key)
        assert registry.missing([entry]) == [entry]
        with pytest.raises(LabError):
            registry.get(entry.key)

    def test_fresh_registry_has_nothing(self, tmp_path, tiny_suite):
        registry = LabRegistry(tmp_path / "reg")
        assert registry.missing(tiny_suite) == list(tiny_suite)
        assert registry.load_index() == {}


class TestIndexDeterminism:
    def test_index_is_sorted_and_wallclock_free(self, tmp_path, tiny_suite):
        registry = LabRegistry(tmp_path / "reg")
        for entry in tiny_suite:
            registry.record(entry, [{"x": 1}])
        document = json.loads(registry.index_path.read_text())
        assert document["format"] == "repro.lab-index/v1"
        assert list(document["entries"]) == sorted(document["entries"])
        for record in document["entries"].values():
            assert set(record) == {
                "name", "kind", "seed", "spec_hash", "engine_version",
                "artifact", "n_records",
            }

    def test_record_order_does_not_change_bytes(self, tmp_path, tiny_suite):
        a = LabRegistry(tmp_path / "a")
        b = LabRegistry(tmp_path / "b")
        for entry in tiny_suite:
            a.record(entry, [{"x": 1}])
        for entry in reversed(tiny_suite):
            b.record(entry, [{"x": 1}])
        assert a.index_path.read_bytes() == b.index_path.read_bytes()

    def test_corrupt_index_is_quarantined_and_rebuilt(self, tmp_path):
        # a torn index is a cache miss, not data loss: load_index
        # quarantines it and rebuilds from the artifact payloads
        registry = LabRegistry(tmp_path / "reg")
        entry = scenario_entry(scenario_spec("zipf", seed=0, small=True), 0)
        registry.record(entry, [{"x": 1}])
        intact = registry.index_path.read_bytes()
        registry.index_path.write_text("{not json")
        assert registry.load_index() == json.loads(intact)["entries"]
        assert registry.index_path.read_bytes() == intact
        assert (registry.root / "index.json.corrupt").exists()
        assert registry.has(entry.key)

    def test_unknown_index_format_raises(self, tmp_path):
        registry = LabRegistry(tmp_path / "reg")
        registry.root.mkdir(parents=True)
        registry.index_path.write_text(json.dumps({"format": "bogus/v9"}))
        with pytest.raises(LabError):
            registry.load_index()


class TestEntries:
    def test_e6_is_rejected(self):
        with pytest.raises(LabError):
            experiment_entry("E6", 0)

    def test_job_json_round_trip(self, tiny_suite):
        for entry in tiny_suite:
            assert LabEntry.from_job_json(entry.to_job_json()) == entry

    def test_run_key_string(self):
        key = RunKey(spec_hash="ab" * 32, seed=7, engine_version="1.0.0")
        assert key.as_string() == f"{'ab' * 32}:7:1.0.0"

    def test_unknown_suite_raises(self):
        with pytest.raises(LabError):
            suite_entries("nope")

    def test_ci_suite_is_pinned(self):
        # the ci suite ignores the knobs: the committed registry must mean
        # the same thing on every machine
        assert suite_entries("ci") == suite_entries("ci", seed=9, large=True)

    def test_full_suite_is_scenarios_tournament_experiments(self):
        full = suite_entries("full", seed=0, small=True)
        scenarios = suite_entries("scenarios", seed=0, small=True)
        tournament = suite_entries("tournament", seed=0, small=True)
        experiments = suite_entries("experiments", seed=0, small=True)
        assert full == scenarios + tournament + experiments
        assert all(e.name != "E6" for e in experiments)
        assert all(e.kind == "scenario" for e in scenarios)
        assert all(e.kind == "tournament" for e in tournament)

    def test_tournament_entries_are_distinct_from_scenarios(self):
        # the strategy set is part of the hashed document, so the
        # tournament run of a family never collides with its plain run
        scenarios = suite_entries("scenarios", seed=0, small=True)
        tournament = suite_entries("tournament", seed=0, small=True)
        assert len(tournament) == len(scenarios)
        assert {e.spec_hash for e in tournament}.isdisjoint(
            {e.spec_hash for e in scenarios}
        )
        assert all(e.name.startswith("tournament/") for e in tournament)

    def test_tournament_spec_only_swaps_strategies(self):
        from repro.lab.tournament import TOURNAMENT_STRATEGIES, tournament_spec
        from repro.sim.scenario import scenario_spec

        base = scenario_spec("zipf", seed=0, small=True)
        spec = tournament_spec("zipf", seed=0, small=True)
        assert spec.strategies == TOURNAMENT_STRATEGIES
        assert (spec.name, spec.network, spec.workload, spec.churn) == (
            base.name,
            base.network,
            base.workload,
            base.churn,
        )

    def test_experiment_seeds_are_sweep_independent(self):
        # the entry seed is the per-experiment seed, so the key of E4 does
        # not depend on which other experiments ride in the suite
        from repro.analysis.runner import EXPERIMENT_IDS, experiment_seeds

        full = experiment_seeds(0, EXPERIMENT_IDS)
        entry = experiment_entry("E4", full["E4"], small=True)
        assert entry.seed == experiment_seeds(0, ["E4"])["E4"]


class TestGc:
    def test_gc_removes_stale_runs(self, tmp_path, tiny_suite):
        registry = LabRegistry(tmp_path / "reg")
        for entry in tiny_suite:
            registry.record(entry, [{"x": 1}])
        keep = tiny_suite[:2]
        removed = registry.gc(keep)
        assert len(removed) == 2
        assert registry.missing(keep) == []
        assert registry.missing(tiny_suite) == list(tiny_suite[2:])
        for entry in tiny_suite[2:]:
            assert not registry.artifact_path(entry.key).exists()

    def test_gc_dry_run_touches_nothing(self, tmp_path, tiny_suite):
        registry = LabRegistry(tmp_path / "reg")
        for entry in tiny_suite:
            registry.record(entry, [{"x": 1}])
        before = registry.index_path.read_bytes()
        removed = registry.gc(tiny_suite[:1], dry_run=True)
        assert len(removed) == 3
        assert registry.index_path.read_bytes() == before
        assert registry.missing(tiny_suite) == []

    def test_gc_removes_orphan_artifacts(self, tmp_path, tiny_suite):
        registry = LabRegistry(tmp_path / "reg")
        registry.record(tiny_suite[0], [{"x": 1}])
        orphan = registry.root / "artifacts" / "zz" / "orphan.json"
        orphan.parent.mkdir(parents=True)
        orphan.write_text("{}")
        removed = registry.gc(tiny_suite)
        assert "artifacts/zz/orphan.json" in removed
        assert not orphan.exists()

    def test_gc_of_complete_suite_is_noop(self, tmp_path, tiny_suite):
        registry = LabRegistry(tmp_path / "reg")
        for entry in tiny_suite:
            registry.record(entry, [{"x": 1}])
        before = registry.index_path.read_bytes()
        assert registry.gc(tiny_suite) == []
        assert registry.index_path.read_bytes() == before


class TestRunMissingValidation:
    def test_bad_parallel_rejected(self, tmp_path, tiny_suite):
        with pytest.raises(ValueError):
            run_missing(LabRegistry(tmp_path), tiny_suite, parallel=0)

    def test_failed_run_is_not_registered(self, tmp_path, tiny_suite, monkeypatch):
        from repro.analysis import runner as runner_mod

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(runner_mod.EXPERIMENT_RUNNERS, "E1", boom)
        registry = LabRegistry(tmp_path / "reg")
        entries = [e for e in tiny_suite if e.name == "E1"]
        with pytest.raises(LabError):
            run_missing(registry, entries, parallel=1)
        assert registry.missing(entries) == entries


class TestBackendProvenance:
    """Artifacts name the kernel backend; *records* never depend on it."""

    def test_artifact_carries_active_backend(self, tmp_path):
        from repro.core import kernels

        registry = LabRegistry(tmp_path / "reg")
        entry = scenario_entry(scenario_spec("zipf", seed=0, small=True), 0)
        with kernels.use_backend("numpy"):
            registry.record(entry, [{"strategy": "edge-counter", "congestion": 3.0}])
            assert registry.get(entry.key)["backend"] == "numpy"

    def test_records_byte_identical_across_backends(self, tmp_path):
        """Pinned: a scenario run serializes to the same record bytes on
        cc and numpy, so the registry's content addressing and
        everything derived from ``records`` is backend-independent (the
        ``backend`` provenance field is the artifact's only varying byte).
        """
        from repro.core import kernels
        from repro.lab.registry import canonical_json
        from repro.sim.scenario import run_scenario

        if "cc" not in kernels.available_backends():
            pytest.skip("no cc kernel backend to compare against numpy")

        spec = scenario_spec("zipf", seed=0, small=True)
        entry = scenario_entry(spec, 0)
        serialized = {}
        artifacts = {}
        for name in ("numpy", "cc"):
            with kernels.use_backend(name):
                records = run_scenario(spec)
                registry = LabRegistry(tmp_path / name)
                path = registry.record(entry, records)
            serialized[name] = canonical_json({"records": records})
            artifacts[name] = json.loads(path.read_text())
        assert serialized["cc"] == serialized["numpy"]
        ours, ref = dict(artifacts["cc"]), dict(artifacts["numpy"])
        assert ours.pop("backend") == "cc"
        assert ref.pop("backend") == "numpy"
        assert ours == ref  # the provenance field is the only difference
