"""Resume semantics: a killed sweep redoes only the unfinished entries.

The acceptance contract of `repro lab run-missing`: after k of n entries
complete, a re-run executes exactly n - k jobs, and the final registry is
byte-identical to an uninterrupted sweep -- serial or parallel.
"""

import pytest

from repro.errors import LabError
from repro.lab import registry as registry_mod
from repro.lab.registry import LabRegistry, run_missing


def registry_bytes(registry):
    """Every file of a registry as relative-path -> bytes."""
    return {
        path.relative_to(registry.root).as_posix(): path.read_bytes()
        for path in sorted(registry.root.rglob("*.json"))
    }


@pytest.fixture(scope="session")
def uninterrupted(tmp_path_factory, tiny_suite):
    """The reference: one clean serial sweep over the tiny suite."""
    registry = LabRegistry(tmp_path_factory.mktemp("reference") / "reg")
    result = run_missing(registry, tiny_suite, parallel=1)
    assert result.n_executed == len(tiny_suite)
    return registry_bytes(registry)


class TestResume:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_partial_then_resume_runs_only_the_missing(
        self, tmp_path, tiny_suite, uninterrupted, k
    ):
        registry = LabRegistry(tmp_path / "reg")
        first = run_missing(registry, tiny_suite[:k], parallel=1)
        assert first.n_executed == k
        resumed = run_missing(registry, tiny_suite, parallel=1)
        assert resumed.already_stored == k
        assert resumed.n_executed == len(tiny_suite) - k
        assert registry_bytes(registry) == uninterrupted

    def test_complete_registry_executes_nothing(
        self, tmp_path, tiny_suite, uninterrupted
    ):
        registry = LabRegistry(tmp_path / "reg")
        run_missing(registry, tiny_suite, parallel=1)
        again = run_missing(registry, tiny_suite, parallel=1)
        assert again.n_executed == 0
        assert again.already_stored == len(tiny_suite)
        assert registry_bytes(registry) == uninterrupted

    def test_killed_sweep_keeps_finished_work(
        self, tmp_path, tiny_suite, uninterrupted, monkeypatch
    ):
        """Simulate a mid-sweep crash: the 3rd job dies, 2 artifacts survive."""
        registry = LabRegistry(tmp_path / "reg")
        real_execute = registry_mod._execute_entry
        calls = {"n": 0}

        def dying_execute(job_json):
            calls["n"] += 1
            if calls["n"] == 3:
                raise KeyboardInterrupt("sweep killed")
            return real_execute(job_json)

        monkeypatch.setattr(registry_mod, "_execute_entry", dying_execute)
        with pytest.raises(KeyboardInterrupt):
            run_missing(registry, tiny_suite, parallel=1)
        assert len(registry.missing(tiny_suite)) == len(tiny_suite) - 2

        monkeypatch.setattr(registry_mod, "_execute_entry", real_execute)
        resumed = run_missing(registry, tiny_suite, parallel=1)
        assert resumed.already_stored == 2
        assert resumed.n_executed == len(tiny_suite) - 2
        assert registry_bytes(registry) == uninterrupted

    def test_parallel_resume_matches_uninterrupted(
        self, tmp_path, tiny_suite, uninterrupted
    ):
        registry = LabRegistry(tmp_path / "reg")
        run_missing(registry, tiny_suite[:2], parallel=1)
        resumed = run_missing(registry, tiny_suite, parallel=2)
        assert resumed.n_executed == len(tiny_suite) - 2
        assert registry_bytes(registry) == uninterrupted

    def test_dangling_index_entry_is_healed(
        self, tmp_path, tiny_suite, uninterrupted
    ):
        # an artifact deleted out from under the index is re-run, not trusted
        registry = LabRegistry(tmp_path / "reg")
        run_missing(registry, tiny_suite, parallel=1)
        registry.artifact_path(tiny_suite[0].key).unlink()
        healed = run_missing(registry, tiny_suite, parallel=1)
        assert healed.n_executed == 1
        assert registry_bytes(registry) == uninterrupted


class TestFailureIsolation:
    def test_failure_keeps_earlier_artifacts(
        self, tmp_path, tiny_suite, monkeypatch
    ):
        from repro.analysis import runner as runner_mod

        def boom(**kwargs):
            raise RuntimeError("synthetic failure")

        # parallel=1 keeps the failure in-process so the monkeypatch applies
        monkeypatch.setitem(runner_mod.EXPERIMENT_RUNNERS, "E4", boom)
        registry = LabRegistry(tmp_path / "reg")
        with pytest.raises(LabError):
            run_missing(registry, tiny_suite, parallel=1)
        # everything before the failure is registered; the failed entry is not
        missing = registry.missing(tiny_suite)
        assert [e.name for e in missing] == ["E4"]
