"""Tests for the high-level experiment runners (E1 -- E10)."""

from repro.analysis.experiments import (
    churn_scenario_suite,
    experiment_approximation_ratio,
    experiment_baseline_comparison,
    experiment_deletion_invariants,
    experiment_distributed_rounds,
    experiment_hardness_reduction,
    experiment_nibble_optimality,
    experiment_online_streaming,
    experiment_runtime_scaling,
    experiment_scenario_registry,
    experiment_sci_equivalence,
    experiment_topology_churn,
    standard_instance_suite,
    streaming_scenario_suite,
)


class TestInstanceSuite:
    def test_suite_is_valid(self):
        suite = standard_instance_suite(small=True)
        assert len(suite) >= 8
        labels = [label for label, _net, _pat in suite]
        assert len(set(labels)) == len(labels)
        for _label, net, pat in suite:
            pat.validate_for(net)

    def test_small_flag_reduces_objects(self):
        small = standard_instance_suite(small=True)
        big = standard_instance_suite(small=False)
        small_objects = sum(pat.n_objects for _l, _n, pat in small)
        big_objects = sum(pat.n_objects for _l, _n, pat in big)
        assert small_objects < big_objects


class TestE1:
    def test_ring_and_bus_models_agree(self):
        records = experiment_sci_equivalence()
        assert records
        assert all(rec["match"] for rec in records)


class TestE2:
    def test_equivalence_on_all_rows(self):
        records = experiment_hardness_reduction(item_counts=(3, 4), instances_per_count=1)
        assert records
        assert all(rec["equivalence"] for rec in records)
        # both YES and NO instances appear
        assert {rec["partition_solvable"] for rec in records} == {True, False}


class TestE3:
    def test_nibble_claims_hold(self):
        records = experiment_nibble_optimality(seeds=(0, 1))
        assert records
        assert all(rec["kappa_bound_holds"] for rec in records)
        assert all(rec["connected"] for rec in records)


class TestE4:
    def test_deletion_window_holds(self):
        records = experiment_deletion_invariants(seeds=(0, 1))
        assert records
        assert all(rec["window_holds"] for rec in records)
        assert all(rec["copies_after"] >= 1 for rec in records)


class TestE5:
    def test_all_within_factor_seven(self):
        records = experiment_approximation_ratio(small=True)
        assert records
        assert all(rec["within_7x"] for rec in records)
        assert max(rec["ratio_lb"] for rec in records) <= 7.0 + 1e-9


class TestE6:
    def test_runtime_sweep_rows(self):
        records = experiment_runtime_scaling(
            object_counts=(4, 8), heights=(2, 4), degrees=(4, 8)
        )
        sweeps = {rec["parameter"] for rec in records}
        assert sweeps == {"objects", "height", "degree"}
        assert all(rec["seconds"] > 0 for rec in records)


class TestE7:
    def test_distributed_round_rows(self):
        records = experiment_distributed_rounds(object_counts=(4,), heights=(2,))
        assert len(records) == 2
        assert all(rec["total_rounds"] > 0 for rec in records)


class TestE8:
    def test_extended_nibble_is_competitive(self):
        records = experiment_baseline_comparison(small=True)
        by_instance = {}
        for rec in records:
            by_instance.setdefault(rec["instance"], {})[rec["strategy"]] = rec["congestion"]
        for label, values in by_instance.items():
            best = min(values.values())
            # the extended-nibble is never more than 7x the best strategy here
            assert values["extended-nibble"] <= 7 * best + 1e-9

    def test_replay_columns_present_when_requested(self):
        records = experiment_baseline_comparison(small=True, with_replay=True, replay_batch=8)
        assert all("replay_makespan" in rec for rec in records)
        assert all(rec["replay_slowdown"] >= 1.0 - 1e-9 for rec in records)


class TestE9:
    def test_scenario_suite_shapes(self):
        suite = streaming_scenario_suite(small=True)
        names = [name for name, _net, _seq in suite]
        assert names == ["zipf", "adversarial", "phase-shift"]
        for _name, net, seq in suite:
            seq.validate_for(net)
            assert len(seq) > 0

    def test_online_streaming_rows(self):
        records = experiment_online_streaming(small=True)
        scenarios = {rec["scenario"] for rec in records}
        assert scenarios == {"zipf", "adversarial", "phase-shift"}
        strategies = {rec["strategy"] for rec in records}
        assert {"hindsight-static", "edge-counter", "edge-counter/trajectory"} <= strategies
        # the static reference rows normalise to ratio 1 against themselves
        for rec in records:
            if rec["strategy"] == "hindsight-static":
                assert rec["ratio_vs_static"] == 1.0
        # the sampled trajectories are running maxima, hence monotone
        for rec in records:
            if rec["strategy"] == "edge-counter/trajectory":
                assert rec["monotone"]


class TestE10:
    def test_scenario_suite_shapes(self):
        suite = churn_scenario_suite(small=True)
        names = [name for name, _net, _seq, _trace in suite]
        assert names == ["flash-crowd", "maintenance", "degradation", "storm"]
        for _name, _net, seq, trace in suite:
            assert len(seq) > 0
            assert len(trace) > 0

    def test_suite_scenarios_are_the_simulate_families(self):
        # E10's scenarios are registered families, each seeded on its own,
        # so `repro simulate --scenario <name>` replays exactly one of them
        from repro.sim.scenario import build_scenario, scenario_spec

        suite = churn_scenario_suite(seed=3, small=True)
        assert [name for name, *_ in suite] == [
            "flash-crowd", "maintenance", "degradation", "storm"
        ]
        for name, _net, seq, trace in suite:
            (built,) = build_scenario(scenario_spec(name, seed=3, small=True))
            assert seq.events == built.sequence.events
            assert trace.mutations == built.trace.mutations

    def test_topology_churn_rows(self):
        records = experiment_topology_churn(small=True)
        scenarios = {rec["scenario"] for rec in records}
        assert scenarios == {"flash-crowd", "maintenance", "degradation", "storm"}
        for rec in records:
            assert rec["served"] + rec["dropped"] == rec["n_events"]
            assert rec["repair_consistent"]
            assert rec["n_mutations"] > 0


class TestE11:
    def test_scenario_registry_rows(self):
        records = experiment_scenario_registry(small=True)
        scenarios = {rec["scenario"] for rec in records}
        assert scenarios == {
            "adversarial-storm", "flash-crowd-recovery", "fleet-sweep",
        }
        for rec in records:
            assert rec["served"] + rec["dropped"] == rec["n_events"]
            assert rec["repair_consistent"]
        # the fleet sweep contributes one labelled sub-run per network size
        fleet_labels = {
            rec["label"] for rec in records if rec["scenario"] == "fleet-sweep"
        }
        assert len(fleet_labels) >= 2

    def test_deterministic_for_fixed_seed(self):
        assert experiment_scenario_registry(seed=4, small=True) == (
            experiment_scenario_registry(seed=4, small=True)
        )
