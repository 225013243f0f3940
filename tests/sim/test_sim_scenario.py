"""Tests for the declarative scenario registry (spec, JSON, building, running)."""

import json

import pytest

from repro.errors import SimulationError
from repro.sim.scenario import (
    SCENARIO_FAMILIES,
    ScenarioSpec,
    build_scenario,
    list_scenarios,
    register_scenario,
    run_scenario,
    scenario_spec,
)

NEW_FAMILIES = ("adversarial-storm", "flash-crowd-recovery", "fleet-sweep")


class TestRegistry:
    def test_all_families_registered(self):
        names = list_scenarios()
        # the re-expressed E9 + E10 suites ...
        for name in ("zipf", "adversarial", "phase-shift",
                     "flash-crowd", "maintenance", "degradation", "storm"):
            assert name in names
        # ... plus the new families
        for name in NEW_FAMILIES:
            assert name in names

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError):
            scenario_spec("earthquake")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(SimulationError):
            register_scenario("zipf", SCENARIO_FAMILIES["zipf"])


class TestSpecRoundTrip:
    @pytest.mark.parametrize("name", sorted(SCENARIO_FAMILIES))
    def test_json_round_trip_is_lossless(self, name):
        spec = scenario_spec(name, seed=3, small=True)
        text = spec.to_json(indent=2)
        restored = ScenarioSpec.from_json(text)
        # the JSON document is stable under a second round trip
        assert restored.to_json(indent=2) == text
        assert json.loads(text)["format"] == "repro.scenario-spec/v1"

    @pytest.mark.parametrize("name", ["storm", "flash-crowd-recovery"])
    def test_round_tripped_spec_builds_identical_scenario(self, name):
        spec = scenario_spec(name, seed=5, small=True)
        (direct,) = build_scenario(spec)[:1]
        (restored,) = build_scenario(ScenarioSpec.from_json(spec.to_json()))[:1]
        assert direct.sequence.events == restored.sequence.events
        assert direct.trace.mutations == restored.trace.mutations
        assert direct.network.n_nodes == restored.network.n_nodes

    def test_explicitly_empty_sections_survive_round_trip(self):
        spec = ScenarioSpec(
            name="bare",
            description="",
            network={"builder": "single-bus", "args": {"n_processors": 4}},
            workload={"kind": "pattern", "generator": "uniform",
                      "args": {"n_objects": 4, "seed": 0}, "sequence_seed": 1},
            strategies=({"kind": "edge-counter"},),
            sinks=(),
        )
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored.sinks == ()
        assert restored.strategies == ({"kind": "edge-counter"},)
        (record,) = run_scenario(restored)
        assert "trajectory" not in record  # no sinks were attached

    def test_unknown_format_rejected(self):
        with pytest.raises(SimulationError):
            ScenarioSpec.from_dict({"format": "bogus/v9", "name": "x",
                                    "network": {}, "workload": {}})

    @pytest.mark.parametrize("key", ("name", "network", "workload"))
    def test_missing_required_key_is_named(self, key):
        document = scenario_spec("zipf", small=True).to_dict()
        del document[key]
        with pytest.raises(SimulationError, match=repr(key)):
            ScenarioSpec.from_dict(document)

    def test_non_object_document_rejected(self):
        with pytest.raises(SimulationError, match="JSON object"):
            ScenarioSpec.from_json("[]")
        with pytest.raises(SimulationError, match="not valid JSON"):
            ScenarioSpec.from_json("{")

    def test_unknown_component_keys_rejected(self):
        spec = ScenarioSpec(
            name="broken",
            description="",
            network={"builder": "moebius-strip"},
            workload={"kind": "pattern", "generator": "zipf",
                      "args": {"n_objects": 4}},
        )
        with pytest.raises(SimulationError, match="network builder"):
            build_scenario(spec)


class TestBuildAndRun:
    def test_seed_changes_sequence(self):
        a = build_scenario(scenario_spec("zipf", seed=0, small=True))[0]
        b = build_scenario(scenario_spec("zipf", seed=1, small=True))[0]
        assert a.sequence.events != b.sequence.events

    def test_fleet_sweep_builds_multiple_sizes(self):
        built = build_scenario(scenario_spec("fleet-sweep", small=True))
        assert len(built) >= 2
        sizes = [b.network.n_processors for b in built]
        assert sizes == sorted(sizes) and sizes[0] < sizes[-1]
        labels = [b.label for b in built]
        assert len(set(labels)) == len(labels)

    @pytest.mark.parametrize("name", NEW_FAMILIES)
    def test_new_families_run_end_to_end(self, name):
        records = run_scenario(scenario_spec(name, seed=0, small=True))
        assert records
        for rec in records:
            assert rec["served"] + rec["dropped"] == rec["n_events"]
            assert rec["repair_consistent"]
            assert rec["congestion"] >= 0
            assert len(rec["trajectory"]) >= 1

    def test_flash_crowd_recovery_drops_late_crowd_requests(self):
        records = run_scenario(scenario_spec("flash-crowd-recovery", seed=0, small=True))
        # the crowd departs before the trace ends, so some of its requests drop
        assert all(rec["dropped"] > 0 for rec in records)
        # and the crowd is gone from the final network
        base = build_scenario(scenario_spec("flash-crowd-recovery", seed=0, small=True))[0]
        assert all(
            rec["n_processors_final"] == base.network.n_processors for rec in records
        )

    def test_adversarial_storm_applies_mutations(self):
        records = run_scenario(scenario_spec("adversarial-storm", seed=0, small=True))
        assert all(rec["n_mutations"] > 0 for rec in records)

    def test_first_touch_strategy_kind(self):
        spec = scenario_spec("zipf", seed=0, small=True)
        spec = ScenarioSpec.from_dict(
            {**spec.to_dict(), "strategies": [{"kind": "first-touch"}]}
        )
        (record,) = run_scenario(spec)
        assert record["strategy"] == "first-touch"
        # never adapting means no management traffic at all
        assert record["management_load"] == 0


class TestFleetEqualsSequential:
    """``run_scenario`` replays multi-strategy entries as one stacked fleet;
    its records must equal an explicit strategy-by-strategy replay
    (invariant 7 at the record level, sinks included)."""

    @staticmethod
    def sequential_records(spec):
        from repro.sim.engine import SimulationEngine
        from repro.sim.scenario import _strategy_record

        return [
            _strategy_record(
                built,
                sname,
                SimulationEngine(factory(), sinks=built.make_sinks()).run(
                    built.sequence, built.trace
                ),
            )
            for built in build_scenario(spec)
            for sname, factory in built.strategies
        ]

    @pytest.mark.parametrize("name", ["zipf", "storm", "fleet-sweep"])
    def test_fleet_records_equal_serial(self, name):
        spec = scenario_spec(name, seed=0, small=True)
        fleet = run_scenario(spec)
        assert len(fleet) >= 2 and all("trajectory" in r for r in fleet)
        assert json.dumps(fleet) == json.dumps(self.sequential_records(spec))

    def test_churn_scenario_other_seed(self):
        spec = scenario_spec("storm", seed=1, small=True)
        assert json.dumps(run_scenario(spec)) == json.dumps(
            self.sequential_records(spec)
        )

    def test_multi_strategy_entries_replay_as_one_fleet_pass(self, monkeypatch):
        from repro.sim.engine import SimulationEngine

        real_fleet = SimulationEngine.run_fleet
        lanes = []

        def counting_fleet(managers, *args, **kwargs):
            lanes.append(len(managers))
            return real_fleet(managers, *args, **kwargs)

        def no_single_run(self, *args, **kwargs):
            raise AssertionError("multi-strategy entry replayed lane by lane")

        spec = scenario_spec("fleet-sweep", seed=0, small=True)
        monkeypatch.setattr(
            SimulationEngine, "run_fleet", staticmethod(counting_fleet)
        )
        monkeypatch.setattr(SimulationEngine, "run", no_single_run)
        records = run_scenario(spec)
        assert lanes == [len(spec.strategies)] * len(spec.sweep)
        assert len(records) == sum(lanes)

    def test_single_strategy_entry_replays_through_engine_run(self, monkeypatch):
        import dataclasses

        from repro.sim.engine import SimulationEngine

        spec = scenario_spec("storm", seed=0, small=True)
        single = dataclasses.replace(spec, strategies=spec.strategies[1:2])
        expected = self.sequential_records(single)

        def no_fleet(*args, **kwargs):
            raise AssertionError("a single strategy needs no fleet pass")

        monkeypatch.setattr(SimulationEngine, "run_fleet", staticmethod(no_fleet))
        records = run_scenario(single)
        assert [r["strategy"] for r in records] == ["edge-counter"]
        assert json.dumps(records) == json.dumps(expected)

    def test_parallel_suite_sweep_stores_the_run_scenario_records(self, tmp_path):
        # the lab executor is the only fan-out: entries spread over worker
        # processes must store exactly what an in-process replay returns
        from repro.lab.registry import LabRegistry, run_missing, scenario_entry

        specs = [
            scenario_spec(name, seed=0, small=True)
            for name in ("zipf", "storm", "fleet-sweep")
        ]
        entries = [scenario_entry(spec, 0) for spec in specs]
        registry = LabRegistry(tmp_path / "reg")
        assert run_missing(registry, entries, parallel=2).n_executed == 3
        for spec, entry in zip(specs, entries):
            stored = registry.get(entry.key)["records"]
            assert stored == json.loads(json.dumps(run_scenario(spec)))
