"""Tests for the experiment runner table and its seeding contract."""

import json
from pathlib import Path

import pytest

from repro.analysis.runner import EXPERIMENT_IDS, experiment_seeds, run_experiment

COMMITTED_REGISTRY = Path(__file__).resolve().parents[2] / "lab" / "registry"


class TestSeeds:
    def test_deterministic(self):
        assert experiment_seeds(0, EXPERIMENT_IDS) == experiment_seeds(
            0, EXPERIMENT_IDS
        )

    def test_seed_independent_of_peer_selection(self):
        full = experiment_seeds(7, EXPERIMENT_IDS)
        subset = experiment_seeds(7, ["E4", "E7"])
        assert subset["E4"] == full["E4"]
        assert subset["E7"] == full["E7"]

    def test_base_seed_changes_seeds(self):
        assert experiment_seeds(0, ["E1"]) != experiment_seeds(1, ["E1"])

    def test_seed_matrix_natural_order(self):
        # E10/E11 sort after E9, so E1..E9 keep their entropy indices (and
        # therefore their per-experiment seeds) from before they existed
        assert EXPERIMENT_IDS[0] == "E1"
        assert list(EXPERIMENT_IDS[9:]) == ["E10", "E11"]
        assert list(EXPERIMENT_IDS[:9]) == [f"E{i}" for i in range(1, 10)]


class TestRunExperiment:
    def test_returns_records(self):
        for exp_id in ("E1", "E4"):
            records = run_experiment(exp_id, experiment_seeds(0, [exp_id])[exp_id])
            assert isinstance(records, list) and len(records) > 0

    def test_unknown_id_rejected(self):
        with pytest.raises(KeyError):
            run_experiment("E99", 0)

    def test_small_and_large_mutually_exclusive(self):
        with pytest.raises(ValueError):
            run_experiment("E5", 0, small=True, large=True)

    def test_failing_runner_raises(self, monkeypatch):
        from repro.analysis import runner as runner_mod

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(runner_mod.EXPERIMENT_RUNNERS, "E1", boom)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            run_experiment("E1", 0)

    @pytest.mark.parametrize("exp_id", ["E4", "E10"])
    def test_records_equal_the_committed_registry_artifact(self, exp_id):
        # `repro experiment <id> --small` prints these records, so it
        # reports exactly the numbers RESULTS.md is generated from
        from repro.lab.registry import LabRegistry, _json_default, experiment_entry

        seed = experiment_seeds(0, [exp_id])[exp_id]
        stored = LabRegistry(COMMITTED_REGISTRY).get(
            experiment_entry(exp_id, seed, small=True).key
        )
        records = run_experiment(exp_id, seed, small=True)
        encoded = json.loads(json.dumps(records, default=_json_default))
        assert encoded == stored["records"]


class TestExperimentSuiteSweep:
    """The experiments lab suite replaces the old experiment sweep command."""

    def test_parallel_sweep_byte_identical_to_serial(self, tmp_path):
        from repro.lab.registry import LabRegistry, run_missing, suite_entries

        entries = [
            entry
            for entry in suite_entries("experiments", seed=3, small=True)
            if entry.name in ("E1", "E4", "E7")
        ]
        serial = LabRegistry(tmp_path / "serial")
        fanned = LabRegistry(tmp_path / "fanned")
        run_missing(serial, entries, parallel=1)
        run_missing(fanned, entries, parallel=3)
        assert fanned.index_path.read_bytes() == serial.index_path.read_bytes()
        for entry in entries:
            assert (
                fanned.artifact_path(entry.key).read_bytes()
                == serial.artifact_path(entry.key).read_bytes()
            )

    def test_suite_is_every_runner_but_e6(self):
        # E6's records are wall-clock timings: `repro experiment E6` runs
        # it, but the content-addressed registry cannot hold it
        from repro.lab.registry import suite_entries

        entries = suite_entries("experiments", seed=0, small=True)
        assert [entry.name for entry in entries] == [
            exp_id for exp_id in EXPERIMENT_IDS if exp_id != "E6"
        ]
        seeds = experiment_seeds(0, EXPERIMENT_IDS)
        assert all(entry.seed == seeds[entry.name] for entry in entries)
        assert {entry.kind for entry in entries} == {"experiment"}

    def test_artifacts_hold_the_run_experiment_records(self, tmp_path):
        from repro.lab.registry import (
            LabRegistry,
            _json_default,
            run_missing,
            suite_entries,
        )

        entries = [
            entry
            for entry in suite_entries("experiments", seed=5, small=True)
            if entry.name in ("E1", "E7")
        ]
        registry = LabRegistry(tmp_path / "reg")
        result = run_missing(registry, entries)
        assert result.n_executed == 2
        for entry in entries:
            payload = registry.get(entry.key)
            assert payload["kind"] == "experiment"
            assert payload["spec"] == {
                "kind": "experiment",
                "experiment": entry.name,
                "small": True,
                "large": False,
            }
            records = run_experiment(entry.name, entry.seed, small=True)
            encoded = json.loads(json.dumps(records, default=_json_default))
            assert payload["records"] == encoded
            assert payload["n_records"] == len(records)

    def test_failed_experiment_is_reported_and_not_stored(
        self, tmp_path, monkeypatch
    ):
        from repro.analysis import runner as runner_mod
        from repro.errors import LabError
        from repro.lab.registry import LabRegistry, run_missing, suite_entries

        entries = [
            entry
            for entry in suite_entries("experiments", seed=0, small=True)
            if entry.name in ("E1", "E4", "E7")
        ]
        real_e4 = runner_mod.EXPERIMENT_RUNNERS["E4"]

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        monkeypatch.setitem(runner_mod.EXPERIMENT_RUNNERS, "E4", boom)
        registry = LabRegistry(tmp_path / "reg")
        with pytest.raises(
            LabError,
            match=rf"experiment E4 \(seed {entries[1].seed}\) failed: "
            "RuntimeError: synthetic failure",
        ):
            run_missing(registry, entries)
        assert registry.has(entries[0].key)
        assert not registry.has(entries[1].key)
        assert not registry.has(entries[2].key)

        monkeypatch.setitem(runner_mod.EXPERIMENT_RUNNERS, "E4", real_e4)
        resumed = run_missing(registry, entries)
        assert resumed.already_stored == 1
        assert resumed.n_executed == 2
