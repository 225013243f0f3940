"""Tests for the command-line interface."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main


def run_cli(args):
    stream = io.StringIO()
    code = main(args, stream=stream)
    return code, stream.getvalue()


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "E99"])

    def test_experiment_choices_in_natural_order(self):
        from repro.analysis.runner import EXPERIMENT_IDS

        (sub,) = [
            a for a in build_parser()._actions if a.dest == "command"
        ]
        exp = sub.choices["experiment"]
        (id_action,) = [a for a in exp._actions if a.dest == "id"]
        assert list(id_action.choices) == list(EXPERIMENT_IDS)

    @pytest.mark.parametrize("command", ["run-experiments", "tournament", "churn"])
    def test_retired_sweep_commands_are_unknown(self, command):
        # their sweeps are lab suites now (`repro lab run-missing --suite ...`)
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args([command])
        assert excinfo.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--scenario", "storm", "--fleet"],
            ["simulate", "--scenario", "storm", "--parallel", "2"],
            ["lab", "run-missing", "--fleet"],
        ],
    )
    def test_retired_executor_knobs_are_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    @pytest.mark.parametrize("command", ["run-missing", "status", "report", "gc"])
    def test_lab_suite_choices_come_from_lab_suites(self, command):
        from repro.lab.registry import LAB_SUITES

        (sub,) = [a for a in build_parser()._actions if a.dest == "command"]
        (lab_sub,) = [
            a for a in sub.choices["lab"]._actions if a.dest == "lab_command"
        ]
        (suite,) = [
            a for a in lab_sub.choices[command]._actions if a.dest == "suite"
        ]
        assert list(suite.choices) == list(LAB_SUITES)

    def test_unknown_lab_suite_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["lab", "run-missing", "--suite", "nightly"])
        assert excinfo.value.code == 2


class TestGenerateAndInfo:
    def test_generate_balanced_network_and_info(self, tmp_path):
        out = tmp_path / "net.json"
        code, text = run_cli(
            [
                "generate-network",
                "--topology",
                "balanced",
                "--arity",
                "2",
                "--depth",
                "2",
                "--leaves-per-bus",
                "2",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert "balanced network" in text

        code, text = run_cli(["info", str(out)])
        assert code == 0
        assert "n_processors" in text

    @pytest.mark.parametrize(
        "topology", ["single-bus", "star", "path", "fat-tree", "random"]
    )
    def test_all_topologies(self, tmp_path, topology):
        out = tmp_path / f"{topology}.json"
        code, _ = run_cli(
            ["generate-network", "--topology", topology, "-o", str(out)]
        )
        assert code == 0 and out.exists()


class TestWorkloadAndPlace:
    @pytest.fixture
    def instance_files(self, tmp_path):
        net_path = tmp_path / "net.json"
        wl_path = tmp_path / "wl.json"
        run_cli(
            ["generate-network", "--topology", "balanced", "--depth", "2", "-o", str(net_path)]
        )
        run_cli(
            [
                "generate-workload",
                "--network",
                str(net_path),
                "--kind",
                "zipf",
                "--objects",
                "8",
                "--requests",
                "16",
                "-o",
                str(wl_path),
            ]
        )
        return net_path, wl_path

    def test_generate_workload_kinds(self, tmp_path):
        net_path = tmp_path / "net.json"
        run_cli(["generate-network", "--topology", "single-bus", "-o", str(net_path)])
        for kind in ("uniform", "hotspot", "local", "counter", "web"):
            out = tmp_path / f"{kind}.json"
            code, text = run_cli(
                [
                    "generate-workload",
                    "--network",
                    str(net_path),
                    "--kind",
                    kind,
                    "--objects",
                    "6",
                    "-o",
                    str(out),
                ]
            )
            assert code == 0
            data = json.loads(out.read_text())
            assert data["format"] == "repro.workload/v1"

    def test_place_extended_nibble(self, instance_files, tmp_path):
        net_path, wl_path = instance_files
        out = tmp_path / "placement.json"
        code, text = run_cli(
            [
                "place",
                "--network",
                str(net_path),
                "--workload",
                str(wl_path),
                "--strategy",
                "extended-nibble",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert "congestion" in text and "lower bound" in text
        data = json.loads(out.read_text())
        assert data["strategy"] == "extended-nibble"
        assert len(data["holders"]) == 8

    def test_place_with_local_search_refinement(self, instance_files):
        net_path, wl_path = instance_files
        code, text = run_cli(
            [
                "place",
                "--network",
                str(net_path),
                "--workload",
                str(wl_path),
                "--strategy",
                "extended-nibble",
                "--refine",
            ]
        )
        assert code == 0
        assert "local-search moves" in text
        assert "congestion before refine" in text

    @pytest.mark.parametrize("strategy", ["owner", "greedy", "full-replication"])
    def test_place_baselines(self, instance_files, strategy):
        net_path, wl_path = instance_files
        code, text = run_cli(
            [
                "place",
                "--network",
                str(net_path),
                "--workload",
                str(wl_path),
                "--strategy",
                strategy,
            ]
        )
        assert code == 0
        assert strategy in text


class TestExperimentCommand:
    def test_experiment_e1(self):
        code, text = run_cli(["experiment", "E1"])
        assert code == 0
        assert "experiment E1" in text
        assert "ringlet" in text

    def test_experiment_e5_small(self):
        code, text = run_cli(["experiment", "E5", "--small"])
        assert code == 0
        assert "ratio_lb" in text

    def test_experiment_e9_small(self):
        code, text = run_cli(["experiment", "E9", "--small"])
        assert code == 0
        assert "hindsight-static" in text
        assert "phase-shift" in text

    def test_experiment_e10_small(self):
        from repro.analysis.runner import experiment_seeds

        code, text = run_cli(["experiment", "E10", "--small"])
        assert code == 0
        # the seed the lab registry keys E10 by, not the runner default
        assert f"experiment E10 (seed {experiment_seeds(0, ['E10'])['E10']})" in text
        assert "flash-crowd" in text
        assert "storm" in text
        assert "hindsight-static" in text
        assert "repair_consistent" in text

    def test_experiment_e10_small_prints_the_registry_rows(self):
        from pathlib import Path

        from repro.analysis.runner import experiment_seeds
        from repro.cli import _print_records
        from repro.lab.registry import LabRegistry, experiment_entry

        seed = experiment_seeds(0, ["E10"])["E10"]
        committed = Path(__file__).resolve().parents[1] / "lab" / "registry"
        stored = LabRegistry(committed).get(
            experiment_entry("E10", seed, small=True).key
        )
        code, text = run_cli(["experiment", "E10", "--small"])
        assert code == 0
        # artifacts store keys sorted; print them in the table's column order
        columns = text.splitlines()[1].split()
        assert sorted(columns) == sorted(stored["records"][0])
        expected = io.StringIO()
        _print_records(
            [{col: rec[col] for col in columns} for rec in stored["records"]],
            expected,
        )
        assert expected.getvalue() in text


class TestChurnScenarios:
    """The churn families replay through `simulate` (E10's building blocks)."""

    @pytest.mark.parametrize(
        "scenario", ["flash-crowd", "maintenance", "degradation", "storm"]
    )
    def test_simulate_churn_family(self, tmp_path, scenario):
        out = tmp_path / "churn.json"
        code, text = run_cli(
            ["simulate", "--scenario", scenario, "--small", "--seed", "1",
             "-o", str(out)]
        )
        assert code == 0
        assert f"scenario {scenario}" in text
        assert "edge-counter" in text and "hindsight-static" in text
        data = json.loads(out.read_text())
        assert data["scenario"] == scenario
        assert len(data["records"]) == 2
        for rec in data["records"]:
            assert rec["n_mutations"] > 0
            assert rec["served"] + rec["dropped"] == rec["n_events"]
            assert rec["congestion"] >= 0
            assert len(rec["trajectory"]) >= 1
            assert rec["repair_consistent"]

    def test_unknown_scenario_rejected(self):
        code, text = run_cli(["simulate", "--scenario", "earthquake", "--small"])
        assert code == 2
        assert "unknown scenario 'earthquake'" in text


class TestClosedOutput:
    """A reader that closes the output early ends the command quietly."""

    class ClosedStream(io.StringIO):
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

    def test_broken_pipe_exits_zero(self):
        assert main(["simulate", "--list"], stream=self.ClosedStream()) == 0

    def test_piped_into_head_exits_zero_without_traceback(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        child = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "simulate", "--list"],
            env={**os.environ, "PYTHONPATH": src},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        child.stdout.readline()
        child.stdout.close()  # what `| head -1` does after its line
        stderr = child.stderr.read()
        child.stderr.close()
        assert child.wait(timeout=60) == 0
        assert b"BrokenPipeError" not in stderr


class TestSimulateCommand:
    def test_list_scenarios(self):
        code, text = run_cli(["simulate", "--list"])
        assert code == 0
        for name in ("zipf", "storm", "adversarial-storm",
                     "flash-crowd-recovery", "fleet-sweep"):
            assert name in text

    @pytest.mark.parametrize(
        "scenario", ["adversarial-storm", "flash-crowd-recovery", "fleet-sweep"]
    )
    def test_new_scenarios_end_to_end_with_artifact(self, tmp_path, scenario):
        out = tmp_path / "sim.json"
        code, text = run_cli(
            ["simulate", "--scenario", scenario, "--small", "-o", str(out)]
        )
        assert code == 0
        assert f"scenario {scenario}" in text
        data = json.loads(out.read_text())
        assert data["format"] == "repro.sim-result/v1"
        assert data["scenario"] == scenario
        from repro.core.kernels import active_backend

        assert data["backend"] == active_backend()
        assert data["spec"]["format"] == "repro.scenario-spec/v1"
        assert len(data["records"]) >= 2
        for rec in data["records"]:
            assert rec["served"] + rec["dropped"] == rec["n_events"]
            assert rec["repair_consistent"]

    def test_spec_file_round_trip(self, tmp_path):
        from repro.sim.scenario import scenario_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(scenario_spec("storm", seed=2, small=True).to_json())
        code, text = run_cli(["simulate", "--spec", str(spec_path)])
        assert code == 0
        assert "scenario storm" in text

    def test_requires_scenario_or_spec(self):
        code, text = run_cli(["simulate"])
        assert code == 2
        assert "--scenario" in text

    def test_scenario_and_spec_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["simulate", "--scenario", "storm", "--spec", "x.json"]
            )

    def test_spec_artifact_records_no_cli_seed(self, tmp_path):
        from repro.sim.scenario import scenario_spec

        spec_path = tmp_path / "spec.json"
        spec_path.write_text(scenario_spec("zipf", seed=2, small=True).to_json())
        out = tmp_path / "out.json"
        code, _ = run_cli(["simulate", "--spec", str(spec_path), "-o", str(out)])
        assert code == 0
        # the CLI --seed default did not produce this run; the artifact must
        # not claim it did (the spec document carries its own seeds)
        assert json.loads(out.read_text())["seed"] is None

    def test_seedless_spec_is_byte_deterministic(self, tmp_path):
        # regression: specs omitting every optional seed used to fall back
        # to fresh OS entropy per run; missing seeds now derive from the
        # spec hash, so two runs must produce byte-identical artifacts
        from repro.sim.scenario import scenario_spec

        document = scenario_spec("storm", seed=2, small=True).to_dict()
        document["workload"]["args"].pop("seed", None)
        document["workload"].pop("sequence_seed", None)
        for entry in document["churn"] or []:
            entry["args"].pop("seed", None)
        spec_path = tmp_path / "seedless.json"
        spec_path.write_text(json.dumps(document))

        artifacts = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code, _ = run_cli(["simulate", "--spec", str(spec_path), "-o", str(out)])
            assert code == 0
            artifacts.append(out.read_bytes())
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize("scenario", ["storm", "fleet-sweep"])
    def test_records_equal_single_strategy_runs(self, tmp_path, scenario):
        # several strategies replay as one stacked fleet pass, one strategy
        # through the plain engine; the records must not tell them apart
        from repro.sim.scenario import scenario_spec

        document = scenario_spec(scenario, seed=1, small=True).to_dict()
        out = tmp_path / "all.json"
        spec_path = tmp_path / "all-spec.json"
        spec_path.write_text(json.dumps(document))
        code, _ = run_cli(["simulate", "--spec", str(spec_path), "-o", str(out)])
        assert code == 0
        together = json.loads(out.read_text())["records"]

        alone = []
        for index, strategy in enumerate(document["strategies"]):
            single = dict(document, strategies=[strategy])
            spec_path = tmp_path / f"spec-{index}.json"
            spec_path.write_text(json.dumps(single))
            out = tmp_path / f"out-{index}.json"
            code, _ = run_cli(
                ["simulate", "--spec", str(spec_path), "-o", str(out)]
            )
            assert code == 0
            alone.append(json.loads(out.read_text())["records"])
        # run_scenario orders records by sub-scenario, then strategy
        n_strategies = len(document["strategies"])
        assert len(together) == n_strategies * len(alone[0])
        for position, record in enumerate(together):
            sub, index = divmod(position, n_strategies)
            assert record == alone[index][sub]


class TestServeCommands:
    def test_serve_loadgen_replay_check_round_trip(self, tmp_path):
        import socket
        import threading

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        spec_args = ["--scenario", "storm", "--small", "--seed", "0"]
        record_dir = tmp_path / "recordings"
        serve_result = {}

        def serve():
            serve_result["code"], serve_result["text"] = run_cli(
                ["serve", *spec_args, "--port", str(port),
                 "--sessions", "1", "--record-dir", str(record_dir)]
            )

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        report = tmp_path / "report.json"
        code, text = run_cli(
            ["loadgen", *spec_args, "--port", str(port),
             "--report", str(report)]
        )
        thread.join(timeout=30)
        assert code == 0
        assert "achieved" in text
        assert serve_result["code"] == 0
        assert "served 1 sessions" in serve_result["text"]
        stats = json.loads(report.read_text())
        assert stats["summary"]["n_events"] == stats["n_events"]

        (recording,) = record_dir.glob("session-*.jsonl")
        code, text = run_cli(["replay-stream", str(recording), "--check"])
        assert code == 0
        assert "bit-for-bit" in text

    def test_replay_stream_check_fails_on_partial_recording(self, tmp_path):
        from repro.serve import StreamRecorder
        from repro.sim.scenario import scenario_spec

        spec = scenario_spec("zipf", seed=0, small=True)
        path = tmp_path / "partial.jsonl"
        recorder = StreamRecorder(path)
        recorder.write_header(spec.to_dict(), "edge-counter", None, 8)
        recorder.abort("test")
        code, text = run_cli(["replay-stream", str(path), "--check"])
        assert code == 1
        assert "no served summary" in text

    def test_serve_requires_scenario_or_spec(self):
        code, text = run_cli(["serve"])
        assert code == 2
        assert "--scenario" in text


SPEC_COMMANDS = ("simulate", "serve", "loadgen")


class TestSpecInputErrors:
    """A bad spec source is a one-line ``<command>: ...`` error, exit 2."""

    @pytest.mark.parametrize("command", ("serve", "loadgen"))
    def test_unknown_scenario(self, command):
        # simulate's own unknown-scenario error is in TestChurnScenarios
        code, text = run_cli([command, "--scenario", "nope"])
        assert code == 2
        assert text.startswith(f"{command}: unknown scenario 'nope'")

    @pytest.mark.parametrize("key", ("name", "network", "workload"))
    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_spec_without_required_key(self, tmp_path, command, key):
        from repro.sim.scenario import scenario_spec

        document = scenario_spec("zipf", small=True).to_dict()
        del document[key]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        code, text = run_cli([command, "--spec", str(path)])
        assert code == 2
        assert text.startswith(f"{command}: ")
        assert repr(key) in text

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_spec_that_is_not_json(self, tmp_path, command):
        path = tmp_path / "spec.json"
        path.write_text("not json {")
        code, text = run_cli([command, "--spec", str(path)])
        assert code == 2
        assert text.startswith(f"{command}: scenario spec is not valid JSON")

    @pytest.mark.parametrize("command", SPEC_COMMANDS)
    def test_missing_spec_file(self, tmp_path, command):
        code, text = run_cli([command, "--spec", str(tmp_path / "absent.json")])
        assert code == 2
        assert text.startswith(f"{command}: ")
        assert "absent.json" in text


class TestLab:
    """The `repro lab` command group: run-missing, status, report, gc."""

    @pytest.fixture(scope="class")
    def ci_registry(self, tmp_path_factory):
        """A tmp registry populated once with the pinned ci suite."""
        root = tmp_path_factory.mktemp("lab") / "registry"
        code, text = run_cli(
            ["lab", "run-missing", "--registry", str(root), "--suite", "ci"]
        )
        assert code == 0
        return root, text

    def test_run_missing_populates_then_noops(self, ci_registry):
        root, first_text = ci_registry
        assert "0 already stored" in first_text
        code, text = run_cli(
            ["lab", "run-missing", "--registry", str(root), "--suite", "ci"]
        )
        assert code == 0
        assert "0 executed" in text

    def test_status_reports_stored_counts(self, ci_registry, tmp_path):
        from repro.core.kernels import active_backend

        root, _ = ci_registry
        code, text = run_cli(
            ["lab", "status", "--registry", str(root), "--suite", "ci"]
        )
        assert code == 0
        assert f"suite entries stored in {root}" in text
        assert f"(kernel backend: {active_backend()})" in text
        # a fresh registry stores nothing
        code, text = run_cli(
            ["lab", "status", "--registry", str(tmp_path / "empty"), "--suite", "ci"]
        )
        assert code == 0
        assert "0 of" in text

    def test_report_write_and_check_round_trip(self, ci_registry, tmp_path):
        root, _ = ci_registry
        results = tmp_path / "RESULTS.md"
        code, _ = run_cli(
            [
                "lab", "report", "--registry", str(root), "--suite", "ci",
                "--write", "-o", str(results),
                "--bench-history", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 0
        assert results.read_text().startswith("# Results")

        code, text = run_cli(
            [
                "lab", "report", "--registry", str(root), "--suite", "ci",
                "--check", "-o", str(results),
                "--bench-history", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 0
        assert "matches the registry artifacts" in text

        results.write_text(results.read_text() + "drifted\n")
        code, text = run_cli(
            [
                "lab", "report", "--registry", str(root), "--suite", "ci",
                "--check", "-o", str(results),
                "--bench-history", str(tmp_path / "absent.json"),
            ]
        )
        assert code == 1
        assert "out of date" in text

    def test_gc_of_complete_suite_is_noop(self, ci_registry):
        root, _ = ci_registry
        code, text = run_cli(
            ["lab", "gc", "--registry", str(root), "--suite", "ci", "--dry-run"]
        )
        assert code == 0
        assert "would remove 0 stored runs" in text

    def test_write_and_check_are_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["lab", "report", "--write", "--check"])


class TestLabSuites:
    """The experiments and tournament sweeps run as lab suites."""

    def test_experiments_suite_sweep(self, tmp_path):
        from repro.analysis.runner import EXPERIMENT_IDS, experiment_seeds

        root = tmp_path / "registry"
        code, text = run_cli(
            ["lab", "run-missing", "--suite", "experiments", "--small",
             "--registry", str(root)]
        )
        assert code == 0
        ids = [exp_id for exp_id in EXPERIMENT_IDS if exp_id != "E6"]
        seeds = experiment_seeds(0, ids)
        for exp_id in ids:
            assert f"ran experiment {exp_id} (seed {seeds[exp_id]})" in text
        assert "ran experiment E6" not in text
        assert (
            f"suite experiments: {len(ids)} entries, 0 already stored, "
            f"{len(ids)} executed"
        ) in text

    def test_experiments_suite_parallel_sweep_is_byte_identical(self, tmp_path):
        trees = []
        for name, extra in (("serial", []), ("fanned", ["--parallel", "2"])):
            root = tmp_path / name
            code, _ = run_cli(
                ["lab", "run-missing", "--suite", "experiments", "--small",
                 "--registry", str(root), *extra]
            )
            assert code == 0
            trees.append(
                {
                    path.relative_to(root).as_posix(): path.read_bytes()
                    for path in sorted(root.rglob("*"))
                    if path.is_file()
                }
            )
        assert len(trees[0]) > 1
        assert trees[0] == trees[1]

    def test_tournament_suite_then_report_prints_the_leaderboard(self, tmp_path):
        root = tmp_path / "registry"
        common = ["--suite", "tournament", "--small", "--registry", str(root)]
        code, text = run_cli(["lab", "run-missing", *common])
        assert code == 0
        assert "ran tournament tournament/zipf (seed 0)" in text
        code, text = run_cli(
            ["lab", "report", *common,
             "--bench-history", str(tmp_path / "absent.json")]
        )
        assert code == 0
        assert "## Strategy tournament leaderboard" in text
        assert "| hindsight-static |" in text
        assert "Rerun with `repro lab run-missing --suite tournament`" in text
