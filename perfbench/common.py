"""Shared helpers of the benchmark: paths, environment, provenance, statistics.

Everything the benchmark writes goes under ``.bench_build/perfbench`` in
the checkout it runs from, so a run reads and writes only inside the
checkout.  Child processes (the ``repro serve`` server, the replay child)
inherit the environment set by :func:`prepare_environment`.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

#: The kernel backend every timing runs on.
BACKEND = "cc"

#: Iterations of the speed probe, a fixed loop of small numpy operations.
PROBE_LOOPS = 3000
#: Probe time (s) that defines the reference speed of scaled timings.
PROBE_REF_S = 0.015


class BenchError(Exception):
    """A run that cannot produce a valid result (exit non-zero, no result)."""


def check_checkout() -> None:
    """Refuse to run outside a checkout of the repository or under faults."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(f"no repro sources under {SRC}: not a checkout of the repo")
    if os.environ.get("REPRO_FAULT_PLAN"):
        raise BenchError("REPRO_FAULT_PLAN is set; refusing to time injected faults")


def prepare_environment() -> Dict[str, str]:
    """Set the benchmark environment for this process and its children.

    The kernel library is cached inside the checkout and compiled here,
    before any timing, so no timed region pays for the C compiler.
    """
    OUT.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_BACKEND"] = BACKEND
    os.environ["REPRO_KERNEL_CACHE"] = str(ROOT / ".bench_build" / "kernels")
    paths = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(paths)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    warm_kernels()
    return dict(os.environ)


def warm_kernels() -> None:
    """Compile (or load from the disk cache) the cc kernel library."""
    import numpy as np

    from repro.core import kernels

    if kernels.active_backend() != BACKEND:
        raise BenchError(f"kernel backend is {kernels.active_backend()!r}, not {BACKEND!r}")
    kernels.rescan(np.zeros(1), np.ones(1))


def provenance(seed: int, workload: str, trace: bool, rates: Dict) -> Dict:
    """What a later run needs to repeat this one at the same settings."""
    import numpy as np

    from repro.core import kernels

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "backend": kernels.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "offered_rates_eps": rates,
    }


def probe() -> float:
    """Seconds the fixed speed-probe loop takes right now.

    Small numpy operations driven from Python, like the replay's own mix
    of interpreter work and short native calls; on the machine this was
    sized on it tracks the replay's speed drift better than a pure
    interpreter loop or a memory-bound copy.
    """
    import numpy as np

    values = np.arange(64.0)
    start = time.perf_counter()
    for _ in range(PROBE_LOOPS):
        scaled = values * 2.0 + 1.0
        scaled.sum()
        np.maximum(scaled, 3.0, out=scaled)
    return time.perf_counter() - start


class Timed:
    """Time a segment and scale it to the reference machine speed.

    On a shared two-vCPU KVM guest each vCPU changes speed by up to ~1.7x
    over a few seconds as other tenants come and go, and the phases of
    the two vCPUs are only weakly correlated.  So the probe runs in the same process right
    before and right after the segment, and ``scaled`` is the segment's
    time multiplied by ``PROBE_REF_S / mean(probe)``: the time it would
    have taken at reference speed.  ``wall`` and ``cpu`` are as measured.
    """

    def __enter__(self) -> "Timed":
        self._probe = probe()
        self._cpu = time.process_time()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.wall = time.perf_counter() - self._start
        self.cpu = time.process_time() - self._cpu
        self.factor = PROBE_REF_S / (0.5 * (self._probe + probe()))
        self.scaled = self.wall * self.factor


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile (at most 99) with >= 10 samples beyond it."""
    if n < 11:
        return None
    return min(99, int(math.floor(100.0 * (1.0 - 10.0 / n))))


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def wait_exit(proc, timeout: float):
    """Reap a child within ``timeout`` seconds; returns its ``rusage``.

    Uses ``os.wait4`` so the child's own peak RSS and CPU time are read;
    raises ``RuntimeError`` if it does not exit in time or exits non-zero.
    """
    deadline = time.monotonic() + timeout
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            raise RuntimeError(f"process {proc.args[:3]} did not exit within {timeout} s")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"process {proc.args[:3]} exited with status {proc.returncode}")
    return usage


def stop(proc) -> None:
    """Kill a child that is still running and wait until it has ended."""
    if proc.returncode is None:
        proc.kill()
        proc.wait()


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU seconds of a live process, read from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    ticks = int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")
