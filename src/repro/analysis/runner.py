"""The experiment runner table and its seeding contract.

The experiment runners in :mod:`repro.analysis.experiments` (E1 -- E11)
are independent of each other.  This module names them
(:data:`EXPERIMENT_RUNNERS`, :data:`EXPERIMENT_IDS`), derives one seed per
experiment (:func:`experiment_seeds`) and runs one experiment at that seed
(:func:`run_experiment`).  Sweeps over several experiments -- resumable,
optionally fanned over worker processes, with one registry artifact per
experiment -- are the ``experiments`` suite of the lab executor
(:func:`repro.lab.registry.run_missing`).

Seeding: every experiment receives its own child of
``numpy.random.SeedSequence(base_seed)``, so results are reproducible for a
fixed ``(base_seed, experiment id)`` pair no matter how many workers run or
in which order they finish.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis import experiments as _experiments

__all__ = [
    "EXPERIMENT_IDS",
    "EXPERIMENT_RUNNERS",
    "experiment_seeds",
    "run_experiment",
]


EXPERIMENT_RUNNERS: Dict[str, Callable] = {
    "E1": _experiments.experiment_sci_equivalence,
    "E2": _experiments.experiment_hardness_reduction,
    "E3": _experiments.experiment_nibble_optimality,
    "E4": _experiments.experiment_deletion_invariants,
    "E5": _experiments.experiment_approximation_ratio,
    "E6": _experiments.experiment_runtime_scaling,
    "E7": _experiments.experiment_distributed_rounds,
    "E8": _experiments.experiment_baseline_comparison,
    "E9": _experiments.experiment_online_streaming,
    "E10": _experiments.experiment_topology_churn,
    "E11": _experiments.experiment_scenario_registry,
}

# Natural (numeric) order: E10 and E11 sort after E9, so the entropy
# indices of E1..E9 -- and therefore their per-experiment seeds -- are
# stable across the registry growing.
EXPERIMENT_IDS: Tuple[str, ...] = tuple(
    sorted(EXPERIMENT_RUNNERS, key=lambda exp_id: int(exp_id[1:]))
)


def _experiment_kwargs(
    runner: Callable, seed: int, small: bool, large: bool
) -> Dict[str, object]:
    """Adapt the shared (seed, small, large) knobs to a runner's signature.

    Runners taking a ``seeds`` sequence (E3, E4) get a block of consecutive
    seeds derived from the experiment seed so their instance count is
    preserved.
    """
    params = inspect.signature(runner).parameters
    kwargs: Dict[str, object] = {}
    if "seed" in params:
        kwargs["seed"] = seed
    if "seeds" in params:
        default = params["seeds"].default
        width = len(default) if isinstance(default, (tuple, list)) else 3
        kwargs["seeds"] = tuple(seed + i for i in range(width))
    if "small" in params:
        kwargs["small"] = small
    if "large" in params:
        kwargs["large"] = large
    return kwargs


def experiment_seeds(base_seed: int, ids: Sequence[str]) -> Dict[str, int]:
    """Deterministic per-experiment seeds derived from one base seed.

    Children of ``SeedSequence(base_seed)`` are assigned in the sorted order
    of the experiment ids, so the seed of an experiment depends only on the
    base seed and its id -- not on which other experiments run alongside it.
    """
    seeds: Dict[str, int] = {}
    for exp_id in set(ids):
        entropy = (int(base_seed), EXPERIMENT_IDS.index(exp_id))
        state = np.random.SeedSequence(entropy).generate_state(1)[0]
        seeds[exp_id] = int(state % 2**31)
    return seeds


def run_experiment(
    exp_id: str, seed: int, small: bool = False, large: bool = False
) -> List[Dict[str, object]]:
    """Run one experiment at one seed and return its result records.

    ``seed`` is the per-experiment seed (:func:`experiment_seeds` derives
    the one the lab registry keys the experiment by).  ``small`` and
    ``large`` select the reduced and the 10--50x larger instance suites
    for the runners that support them.  A failing runner raises.
    """
    runner = EXPERIMENT_RUNNERS[exp_id]
    if small and large:
        raise ValueError("small and large are mutually exclusive")
    return list(runner(**_experiment_kwargs(runner, seed, small, large)))
