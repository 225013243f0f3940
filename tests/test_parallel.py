"""Pool-lifecycle tests for the persistent worker pools.

The sweep layers share long-lived ``ProcessPoolExecutor``s; a worker
killed mid-job (OOM, segfault) breaks its executor permanently.  These
tests pin the public-API recovery contract: :func:`repro.parallel.iter_jobs`
catches :class:`~concurrent.futures.process.BrokenProcessPool`, replaces
the dead pool, and resubmits the undelivered jobs once -- and
:func:`repro.parallel.shutdown_pools` tolerates already-broken pools (it
runs at interpreter exit).
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path

import pytest

from repro.parallel import (
    BrokenProcessPool,
    iter_jobs,
    persistent_pool,
    shutdown_pools,
)


# --------------------------------------------------------------------------- #
# worker-side helpers (module-level so they pickle into the workers)
# --------------------------------------------------------------------------- #
def _ok(value):
    return ("ok", value)


def _log_call(log_path, value):
    with open(log_path, "a") as fh:
        fh.write(f"{value}\n")
    return value


def _die_once(sentinel):
    """Kill the worker on first call; succeed once the sentinel exists."""
    path = Path(sentinel)
    if not path.exists():
        path.write_text("died")
        os.kill(os.getpid(), signal.SIGKILL)
    return "survived"


def _die_always():
    os.kill(os.getpid(), signal.SIGKILL)


def _slow_log_call(log_path, value):
    time.sleep(0.05)
    return _log_call(log_path, value)


def _raise_on(bad, value):
    if value == bad:
        raise RuntimeError(f"job {value} failed")
    return value


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test starts and ends with no resident pools."""
    shutdown_pools()
    yield
    shutdown_pools()


# --------------------------------------------------------------------------- #
# iter_jobs
# --------------------------------------------------------------------------- #
def run_all(max_workers, fn, jobs):
    """Drain :func:`iter_jobs` into a submission-ordered result list."""
    results = dict(iter_jobs(max_workers, fn, jobs))
    return [results[index] for index in range(len(jobs))]


class TestIterJobsRecovery:
    def test_killed_worker_is_replaced_and_jobs_retry_once(self, tmp_path):
        sentinel = tmp_path / "died-once"
        assert run_all(1, _die_once, [(str(sentinel),)]) == ["survived"]
        assert sentinel.exists()

    def test_stale_broken_pool_does_not_poison_later_sweeps(self):
        pool = persistent_pool(1)
        future = pool.submit(_die_always)
        with pytest.raises(BrokenProcessPool):
            future.result()
        # the registry still holds the broken pool; iter_jobs must replace it
        assert run_all(1, _ok, [(1,), (2,)]) == [("ok", 1), ("ok", 2)]
        assert persistent_pool(1) is not pool

    def test_every_index_is_yielded_once_with_its_own_result(self):
        pairs = list(iter_jobs(2, _ok, [(i,) for i in range(8)]))
        assert sorted(index for index, _ in pairs) == list(range(8))
        assert all(result == ("ok", index) for index, result in pairs)

    def test_only_unyielded_jobs_are_resubmitted(self, tmp_path):
        log = tmp_path / "calls.log"
        sentinel = tmp_path / "died-once"
        jobs = [(str(log), "first"), (str(sentinel),)]

        results = {}
        # one worker executes jobs in submission order: the logged job
        # completes and yields, then the dying job breaks the pool
        for index, result in iter_jobs(
            1, _iter_dispatch, [(i, *job) for i, job in enumerate(jobs)]
        ):
            results[index] = result
        assert results == {0: "first", 1: "survived"}
        # the already-yielded job was NOT recomputed by the retry
        assert log.read_text().splitlines() == ["first"]

    def test_persistent_breakage_propagates(self):
        with pytest.raises(BrokenProcessPool):
            list(iter_jobs(1, _die_always, [(), ()]))
        # the broken pool was discarded: the same worker count works again
        assert run_all(1, _ok, [(3,)]) == [("ok", 3)]

    def test_failing_job_propagates_and_pool_stays_usable(self):
        with pytest.raises(RuntimeError, match="job 2 failed"):
            run_all(2, _raise_on, [(2, i) for i in range(4)])
        # a job's exception is not a broken pool: the workers survive
        pool = persistent_pool(2)
        assert run_all(2, _ok, [(5,)]) == [("ok", 5)]
        assert persistent_pool(2) is pool

    def test_abandoned_sweep_cancels_unstarted_jobs(self, tmp_path):
        log = tmp_path / "calls.log"
        jobs = [(str(log), i) for i in range(40)]
        sweep = iter_jobs(1, _slow_log_call, jobs)
        next(sweep)
        sweep.close()
        shutdown_pools()  # waits for whatever the worker already took
        assert len(log.read_text().splitlines()) < len(jobs)


def _iter_dispatch(index, *args):
    """Route one iter_jobs test job to the right worker helper."""
    if index == 0:
        return _log_call(*args)
    return _die_once(*args)


# --------------------------------------------------------------------------- #
# shutdown
# --------------------------------------------------------------------------- #
class TestShutdown:
    def test_shutdown_tolerates_broken_pools(self):
        pool = persistent_pool(1)
        future = pool.submit(_die_always)
        with pytest.raises(BrokenProcessPool):
            future.result()
        shutdown_pools()  # must not raise on the broken pool
        # and the registry is usable again afterwards
        assert run_all(1, _ok, [(0,)]) == [("ok", 0)]

    def test_shutdown_is_idempotent(self):
        persistent_pool(1)
        shutdown_pools()
        shutdown_pools()
