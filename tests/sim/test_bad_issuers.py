"""Request issuers that are not processors are rejected, never served.

A bus id or an out-of-range id in a request's processor column would
index out of bounds inside the serving kernels (heap corruption under the
compiled backend, silently wrong loads under numpy).  ``run``,
``run_fleet`` and ``EngineStream`` check each span's issuers against the
network's ``kinds`` array before serving it and raise
:class:`~repro.errors.WorkloadError`.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core import kernels
from repro.dynamic.sequence import RequestEvent, RequestSequence
from repro.errors import WorkloadError
from repro.network.mutation import ChurnTrace
from repro.sim.engine import EngineStream, SimulationEngine
from repro.sim.scenario import build_scenario, scenario_spec

SRC = str(Path(__file__).resolve().parents[2] / "src")
STRATEGIES = ("hindsight-static", "edge-counter")


@pytest.fixture(scope="module")
def zipf():
    return build_scenario(scenario_spec("zipf"))[0]


def reissued(scenario, processor):
    """The scenario's events, every one issued by ``processor``."""
    return RequestSequence(
        [RequestEvent(processor, ev.obj, ev.kind) for ev in scenario.sequence],
        scenario.sequence.n_objects,
    )


def replay(entry, scenario, name, sequence, trace=None):
    make = dict(scenario.strategies)[name]
    if entry == "run":
        return SimulationEngine(make()).run(sequence, trace)
    if entry == "run_fleet":
        return SimulationEngine.run_fleet([make()], sequence, trace)
    stream = EngineStream(make())
    stream.serve(sequence)
    return stream.finish()


BAD_ISSUERS = {
    "bus": (lambda net: net.buses[0], "bus node"),
    "out-of-range": (lambda net: net.n_nodes + 5, "reference ids"),
    "negative": (lambda net: -1, "reference ids"),
}


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("entry", ("run", "run_fleet", "stream"))
@pytest.mark.parametrize("name", STRATEGIES)
@pytest.mark.parametrize("issuer", sorted(BAD_ISSUERS))
def test_bad_issuer_raises(zipf, backend, entry, name, issuer):
    pick, message = BAD_ISSUERS[issuer]
    sequence = reissued(zipf, pick(zipf.network))
    with kernels.use_backend(backend):
        with pytest.raises(WorkloadError, match=message):
            replay(entry, zipf, name, sequence)


@pytest.mark.parametrize("entry", ("run", "run_fleet"))
def test_bus_issuer_rejected_under_churn(zipf, entry):
    # with a trace the check reads the reference-id remap first
    sequence = reissued(zipf, zipf.network.buses[0])
    with pytest.raises(WorkloadError, match="bus node"):
        replay(entry, zipf, "edge-counter", sequence, ChurnTrace([]))


def test_reused_strategy_is_rejected_not_a_crash():
    """A strategy replayed twice over a churn trace sees stale node ids.

    Its network is the mutated one after the first pass, so the second
    pass's reference ids name buses.  Run in a child process: a
    regression corrupts the heap and would kill the test runner.
    """
    code = textwrap.dedent(
        """
        from repro.errors import ReproError
        from repro.sim.engine import SimulationEngine
        from repro.sim.scenario import build_scenario, scenario_spec

        scenario = build_scenario(scenario_spec("storm", seed=3))[0]
        strategy = dict(scenario.strategies)["hindsight-static"]()
        SimulationEngine(strategy).run(scenario.sequence, scenario.trace)
        try:
            SimulationEngine(strategy).run(scenario.sequence, scenario.trace)
        except ReproError as exc:
            print("rejected", type(exc).__name__)
        """
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["rejected", "WorkloadError"]
