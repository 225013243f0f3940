"""High-level experiment runners (E1 -- E11).

The paper has no experimental section; each of its figures and quantitative
theorems is turned into an experiment here (E1 -- E8 of DESIGN.md), plus
the E9/E10/E11 extensions exercising the dynamic model of Section 1.3,
topology churn and the declarative scenario registry.  Every runner
returns a list of plain-dict records (one row of the result table) so the
benchmarks and ``EXPERIMENTS.md`` share the same data.

=====  ==========================================================
 id    paper source / claim
=====  ==========================================================
 E1    Figures 1–2: ring-of-rings ≡ hierarchical bus network
 E2    Theorem 2.1: PARTITION reduction (Fig. 3 gadget)
 E3    Theorem 3.1: nibble per-edge optimality and κ_x bound
 E4    Observation 3.2: deletion keeps every copy in [κ_x, 2κ_x]
 E5    Theorem 4.3: congestion ≤ 7 · C_opt
 E6    Theorem 4.3: sequential runtime scaling
 E7    Theorem 4.3: distributed round counts
 E8    Introduction / [KMRVW99]: congestion vs. baselines & replay
 E9    Section 1.3 / [MMVW97], [MVW99]: online streaming replay
 E10   topology churn: mutable networks, incremental repair
 E11   simulation kernel: declarative scenario registry families
=====  ==========================================================
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.analysis.ratio import measure_ratio
from repro.analysis.scaling import (
    loglog_slope,
    sweep_degree,
    sweep_height,
    sweep_objects,
)
from repro.core.baselines import (
    full_replication_placement,
    greedy_congestion_placement,
    median_leaf_placement,
    owner_placement,
    random_placement,
)
from repro.core.bounds import nibble_lower_bound
from repro.core.congestion import compute_loads, object_edge_loads
from repro.core.deletion import apply_deletion
from repro.core.extended_nibble import extended_nibble
from repro.core.nibble import nibble_placement
from repro.distributed.protocols import distributed_extended_nibble
from repro.distributed.request_sim import replay_requests
from repro.dynamic.churn import replay_with_churn
from repro.dynamic.evaluate import (
    congestion_trajectory,
    evaluate_strategies,
    hindsight_static_manager,
)
from repro.dynamic.online import EdgeCounterManager
from repro.hardness.partition import PartitionInstance, random_partition_instance
from repro.hardness.reduction import verify_reduction
from repro.network.builders import balanced_tree, random_tree, single_bus, star_of_buses
from repro.network.sci import ring_of_rings, transaction_ring_load
from repro.network.tree import HierarchicalBusNetwork
from repro.workload.access import AccessPattern
from repro.workload.adversarial import bisection_stress, replication_trap, write_conflict_pattern
from repro.workload.generators import (
    hotspot_pattern,
    subtree_local_pattern,
    uniform_pattern,
    zipf_pattern,
)
from repro.workload.traces import shared_counter_trace, web_cache_trace

__all__ = [
    "experiment_sci_equivalence",
    "experiment_hardness_reduction",
    "experiment_nibble_optimality",
    "experiment_deletion_invariants",
    "experiment_approximation_ratio",
    "experiment_runtime_scaling",
    "experiment_distributed_rounds",
    "experiment_baseline_comparison",
    "experiment_online_streaming",
    "experiment_topology_churn",
    "experiment_scenario_registry",
    "standard_instance_suite",
    "streaming_scenario_suite",
    "churn_scenario_suite",
    "replay_churn_scenario",
]


# --------------------------------------------------------------------------- #
# shared instance suite
# --------------------------------------------------------------------------- #
def standard_instance_suite(
    seed: int = 0,
    small: bool = False,
    large: bool = False,
) -> List[Tuple[str, HierarchicalBusNetwork, AccessPattern]]:
    """The labelled (topology, workload) pairs used by E5 and E8.

    ``large=True`` switches to networks 10--50× the default node counts
    (hundreds of nodes, hundreds of objects); feasible since the congestion
    evaluation is vectorized through the path-incidence structure.
    """
    instances: List[Tuple[str, HierarchicalBusNetwork, AccessPattern]] = []

    def add(label, net, pat):
        instances.append((label, net, pat))

    if large:
        bus = single_bus(120)
        add("single-bus-xl/uniform", bus, uniform_pattern(bus, 256, seed=seed))
        add("single-bus-xl/counter", bus, shared_counter_trace(bus, 16, 8, 8))

        tree = balanced_tree(3, 4, 3)
        add("balanced-xl/zipf", tree, zipf_pattern(tree, 256, seed=seed))
        add("balanced-xl/local", tree, subtree_local_pattern(tree, 256, seed=seed))
        add("balanced-xl/hotspot", tree, hotspot_pattern(tree, 256, seed=seed))
        add("balanced-xl/bisection", tree, bisection_stress(tree, 128, seed=seed))

        star = star_of_buses(10, 10)
        add("star-xl/web-cache", star, web_cache_trace(star, 256, seed=seed))
        add(
            "star-xl/write-conflict",
            star,
            write_conflict_pattern(star, 128, seed=seed),
        )

        rnd = random_tree(50, 200, seed=seed + 1)
        add("random-xl/uniform", rnd, uniform_pattern(rnd, 192, seed=seed))
        add(
            "random-xl/replication-trap",
            rnd,
            replication_trap(rnd, 96, seed=seed),
        )
        return instances

    bus = single_bus(6 if small else 12)
    add("single-bus/uniform", bus, uniform_pattern(bus, 8 if small else 32, seed=seed))
    add("single-bus/counter", bus, shared_counter_trace(bus, 4, 8, 8))

    tree = balanced_tree(2, 3, 2)
    add("balanced/zipf", tree, zipf_pattern(tree, 8 if small else 32, seed=seed))
    add("balanced/local", tree, subtree_local_pattern(tree, 8 if small else 32, seed=seed))
    add("balanced/hotspot", tree, hotspot_pattern(tree, 8 if small else 32, seed=seed))
    add("balanced/bisection", tree, bisection_stress(tree, 8 if small else 24, seed=seed))

    star = star_of_buses(3, 3)
    add("star/web-cache", star, web_cache_trace(star, 16 if small else 48, seed=seed))
    add("star/write-conflict", star, write_conflict_pattern(star, 8 if small else 24, seed=seed))

    rnd = random_tree(6, 10, seed=seed + 1)
    add("random/uniform", rnd, uniform_pattern(rnd, 8 if small else 24, seed=seed))
    add("random/replication-trap", rnd, replication_trap(rnd, 8 if small else 16, seed=seed))
    return instances


# --------------------------------------------------------------------------- #
# E1 -- Figures 1 and 2
# --------------------------------------------------------------------------- #
def experiment_sci_equivalence(
    n_leaf_rings: int = 3,
    processors_per_ring: int = 3,
    n_transactions: int = 200,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Check that the ring model and the converted bus network agree on loads."""
    rng = np.random.default_rng(seed)
    fabric = ring_of_rings(n_leaf_rings, processors_per_ring)
    conversion = fabric.to_bus_network()
    net = conversion.network

    transactions = []
    for _ in range(n_transactions):
        src = int(rng.integers(0, fabric.n_processors))
        dst = int(rng.integers(0, fabric.n_processors))
        if src == dst:
            continue
        transactions.append((src, dst, 1))

    ring_load, switch_load = transaction_ring_load(fabric, transactions)

    # Evaluate the same transactions as unicast traffic on the bus network.
    rooted = net.rooted()
    edge_load = np.zeros(net.n_edges)
    for src, dst, count in transactions:
        u = conversion.processor_node[src]
        v = conversion.processor_node[dst]
        for eid in rooted.path_edge_ids(u, v):
            edge_load[eid] += count
    bus_load = {}
    for ring_id, bus in conversion.ringlet_node.items():
        incident = list(net.incident_edge_ids(bus))
        bus_load[ring_id] = edge_load[incident].sum() / 2.0

    records = []
    for ring_id in range(fabric.n_ringlets):
        records.append(
            {
                "element": f"ringlet {ring_id}",
                "ring_model_load": ring_load[ring_id],
                "bus_model_load": bus_load[ring_id],
                "match": abs(ring_load[ring_id] - bus_load[ring_id]) < 1e-9,
            }
        )
    for switch_id, eid in conversion.switch_edge.items():
        records.append(
            {
                "element": f"switch {switch_id}",
                "ring_model_load": switch_load[switch_id],
                "bus_model_load": float(edge_load[eid]),
                "match": abs(switch_load[switch_id] - edge_load[eid]) < 1e-9,
            }
        )
    return records


# --------------------------------------------------------------------------- #
# E2 -- Theorem 2.1
# --------------------------------------------------------------------------- #
def experiment_hardness_reduction(
    item_counts: Sequence[int] = (3, 4, 5, 6),
    instances_per_count: int = 2,
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Verify the PARTITION ↔ placement equivalence on random instances."""
    rng = np.random.default_rng(seed)
    records: List[Dict[str, object]] = []
    for n in item_counts:
        for force_yes in (True, False):
            for rep in range(instances_per_count):
                if force_yes:
                    inst = random_partition_instance(
                        n, max_value=9, force_yes=True, rng=rng
                    )
                    if inst.total % 2 != 0:
                        inst = PartitionInstance(tuple(list(inst.sizes) + [1]))
                    if inst.total % 2 != 0:
                        continue
                else:
                    # Deterministic NO instance: one element larger than the
                    # sum of all the others, even total.
                    inst = PartitionInstance(
                        tuple([n + 1 + 2 * rep] + [1] * (n - 1))
                    )
                report = verify_reduction(inst)
                records.append(
                    {
                        "n_items": inst.n,
                        "total": inst.total,
                        "threshold_4k": report.instance.threshold,
                        "partition_solvable": report.partition_solvable,
                        "optimal_congestion": report.optimal_congestion,
                        "witness_congestion": report.witness_congestion
                        if report.witness_congestion is not None
                        else "-",
                        "equivalence": report.equivalence_holds,
                    }
                )
    return records


# --------------------------------------------------------------------------- #
# E3 -- Theorem 3.1
# --------------------------------------------------------------------------- #
def experiment_nibble_optimality(
    seeds: Sequence[int] = (0, 1, 2),
    n_objects: int = 6,
) -> List[Dict[str, object]]:
    """Measure the nibble invariants: connectivity, κ_x bound, edge optimality."""
    records = []
    for seed in seeds:
        net = random_tree(5, 8, seed=seed)
        pat = uniform_pattern(net, n_objects, requests_per_processor=12, seed=seed)
        nib = nibble_placement(net, pat)
        rooted = net.rooted()
        for obj in range(pat.n_objects):
            holders = nib.placement.holders(obj)
            kappa = pat.write_contention(obj)
            loads = object_edge_loads(net, pat, nib.placement, obj)
            steiner = set(rooted.steiner_edge_ids(holders))
            inside = [loads[e] for e in steiner] if steiner else []
            outside_max = max(
                (loads[e] for e in range(net.n_edges) if e not in steiner), default=0.0
            )
            connected = len(rooted.steiner_node_ids(holders)) == len(
                set(rooted.steiner_node_ids(holders)) | set(holders)
            )
            records.append(
                {
                    "seed": seed,
                    "object": obj,
                    "kappa": kappa,
                    "copies": len(holders),
                    "max_edge_load": float(loads.max()) if loads.size else 0.0,
                    "load_inside_Tx": max(inside) if inside else 0.0,
                    "max_load_outside_Tx": float(outside_max),
                    "kappa_bound_holds": bool(loads.max() <= kappa + 1e-9)
                    if kappa > 0 or loads.size == 0
                    else bool(loads.max() <= max(kappa, 0) + 1e-9),
                    "connected": connected,
                }
            )
    return records


# --------------------------------------------------------------------------- #
# E4 -- Observation 3.2
# --------------------------------------------------------------------------- #
def experiment_deletion_invariants(
    seeds: Sequence[int] = (0, 1, 2, 3),
    n_objects: int = 8,
) -> List[Dict[str, object]]:
    """Check the copy-service window [κ_x, 2κ_x] and the 2× load bound."""
    records = []
    for seed in seeds:
        net = random_tree(5, 8, seed=seed)
        pat = uniform_pattern(net, n_objects, requests_per_processor=12, seed=seed)
        nib = nibble_placement(net, pat)
        copies = apply_deletion(net, pat, nib.placement)
        for oc in copies:
            if oc.kappa == 0:
                continue
            served = [c.s for c in oc.copies]
            records.append(
                {
                    "seed": seed,
                    "object": oc.obj,
                    "kappa": oc.kappa,
                    "copies_before": len(nib.placement.holders(oc.obj)),
                    "copies_after": len(oc.copies),
                    "min_served": min(served),
                    "max_served": max(served),
                    "window_holds": all(oc.kappa <= s <= 2 * oc.kappa for s in served),
                }
            )
    return records


# --------------------------------------------------------------------------- #
# E5 -- Theorem 4.3 (approximation factor)
# --------------------------------------------------------------------------- #
def experiment_approximation_ratio(
    seed: int = 0,
    compute_exact: bool = False,
    small: bool = False,
    large: bool = False,
) -> List[Dict[str, object]]:
    """Measure extended-nibble congestion against the lower bound / optimum."""
    records = []
    for label, net, pat in standard_instance_suite(seed=seed, small=small, large=large):
        exact_ok = compute_exact and net.n_processors ** pat.n_objects < 10**7
        rec = measure_ratio(net, pat, label=label, compute_exact=exact_ok)
        records.append(rec.as_dict())
    return records


# --------------------------------------------------------------------------- #
# E6 -- Theorem 4.3 (sequential runtime)
# --------------------------------------------------------------------------- #
def experiment_runtime_scaling(
    object_counts: Sequence[int] = (8, 16, 32, 64),
    heights: Sequence[int] = (2, 4, 8, 16),
    degrees: Sequence[int] = (4, 8, 16, 32),
    repeats: int = 1,
) -> List[Dict[str, object]]:
    """Runtime sweeps in |X|, height(T) and degree(T) with fitted slopes."""
    records: List[Dict[str, object]] = []

    sweeps = {
        "objects": sweep_objects(object_counts, repeats=repeats),
        "height": sweep_height(heights, repeats=repeats),
        "degree": sweep_degree(degrees, repeats=repeats),
    }
    for name, points in sweeps.items():
        slope = loglog_slope(points)
        for p in points:
            rec = p.as_dict()
            rec["loglog_slope_of_sweep"] = slope
            records.append(rec)
    return records


# --------------------------------------------------------------------------- #
# E7 -- Theorem 4.3 (distributed rounds)
# --------------------------------------------------------------------------- #
def experiment_distributed_rounds(
    object_counts: Sequence[int] = (4, 8, 16),
    heights: Sequence[int] = (2, 4, 8),
    seed: int = 0,
) -> List[Dict[str, object]]:
    """Round counts of the distributed strategy vs. |X| and height(T)."""
    from repro.network.builders import path_of_buses

    records = []
    for count in object_counts:
        net = balanced_tree(2, 3, 2)
        pat = uniform_pattern(net, count, requests_per_processor=8, seed=seed)
        rep = distributed_extended_nibble(net, pat)
        records.append(
            {
                "sweep": "objects",
                "value": count,
                "height": net.height(),
                "nibble_rounds": rep.nibble_rounds,
                "deletion_rounds": rep.deletion_rounds,
                "mapping_rounds": rep.mapping_rounds,
                "total_rounds": rep.total_rounds,
                "messages": rep.total_messages,
            }
        )
    for n_buses in heights:
        net = path_of_buses(n_buses, leaves_per_bus=2)
        pat = uniform_pattern(net, 8, requests_per_processor=8, seed=seed)
        rep = distributed_extended_nibble(net, pat)
        records.append(
            {
                "sweep": "height",
                "value": net.height(),
                "height": net.height(),
                "nibble_rounds": rep.nibble_rounds,
                "deletion_rounds": rep.deletion_rounds,
                "mapping_rounds": rep.mapping_rounds,
                "total_rounds": rep.total_rounds,
                "messages": rep.total_messages,
            }
        )
    return records


# --------------------------------------------------------------------------- #
# E8 -- baselines and request replay
# --------------------------------------------------------------------------- #
def experiment_baseline_comparison(
    seed: int = 0,
    small: bool = False,
    large: bool = False,
    with_replay: bool = False,
    replay_batch: int = 4,
) -> List[Dict[str, object]]:
    """Compare congestion (and optionally replay makespan) across strategies."""
    strategies = {
        "extended-nibble": None,  # handled specially to reuse its assignment
        "owner": owner_placement,
        "median-leaf": median_leaf_placement,
        "greedy": greedy_congestion_placement,
        "random": lambda net, pat: random_placement(net, pat, seed=seed),
        "full-replication": full_replication_placement,
    }
    records = []
    for label, net, pat in standard_instance_suite(seed=seed, small=small, large=large):
        lb = nibble_lower_bound(net, pat)
        for name, factory in strategies.items():
            if name == "extended-nibble":
                result = extended_nibble(net, pat)
                placement = result.placement
                assignment = result.assignment
            else:
                placement = factory(net, pat)
                assignment = None
            profile = compute_loads(net, pat, placement, assignment=assignment)
            rec = {
                "instance": label,
                "strategy": name,
                "congestion": profile.congestion,
                "total_load": profile.total_load,
                "lower_bound": lb,
                "ratio_vs_lb": profile.congestion / lb if lb > 0 else 1.0,
            }
            if with_replay:
                replay = replay_requests(
                    net, pat, placement, assignment=assignment, batch=replay_batch
                )
                rec["replay_makespan"] = replay.makespan
                rec["replay_slowdown"] = replay.slowdown
            records.append(rec)
    return records


# --------------------------------------------------------------------------- #
# E9 -- online streaming (dynamic model, Section 1.3 / [MMVW97], [MVW99])
# --------------------------------------------------------------------------- #
def streaming_scenario_suite(
    seed: int = 0,
    small: bool = False,
    large: bool = False,
):
    """Labelled ``(name, network, sequence)`` streaming scenarios for E9.

    Three workload families with qualitatively different online behaviour:

    * ``zipf`` -- stationary skewed popularity (replication pays off);
    * ``adversarial`` -- write-heavy cross-bisection traffic (replication
      never helps, every placement loads the top of the hierarchy);
    * ``phase-shift`` -- producer/consumer channels whose endpoints change
      between phases (the regime where online adaptation can beat any
      single static placement).

    Since the simulation-kernel refactor each scenario is *declared* in
    the :mod:`repro.sim.scenario` registry (network builder + workload as
    plain data); this function materialises the specs and returns the
    same tuples as before, bit-for-bit.

    ``large=True`` switches to networks with hundreds of nodes and request
    sequences with tens of thousands of events, which is only affordable
    because the replay layers sit on the incremental load-state engine.
    """
    from repro.sim.scenario import build_scenario, scenario_spec

    scenarios = []
    for name in ("zipf", "adversarial", "phase-shift"):
        spec = scenario_spec(name, seed=seed, small=small, large=large)
        (built,) = build_scenario(spec)
        scenarios.append((name, built.network, built.sequence))
    return scenarios


def experiment_online_streaming(
    seed: int = 0,
    small: bool = False,
    large: bool = False,
    object_size: int = 4,
    trajectory_samples: int = 4,
) -> List[Dict[str, object]]:
    """E9: stream request traces through the online strategies.

    For every scenario the standard strategy set (hindsight-static
    reference with vectorized batch replay, adaptive edge-counter,
    never-adapting first-touch) serves the sequence on the incremental
    load-state substrate; the edge-counter row additionally reports its
    congestion trajectory at ``trajectory_samples`` evenly spaced points
    (the streaming read pattern that requires the lazily-repaired running
    max).
    """
    records: List[Dict[str, object]] = []
    for name, net, seq in streaming_scenario_suite(seed=seed, small=small, large=large):
        runs = evaluate_strategies(net, seq, object_size=object_size)
        by_name = {rec.strategy: rec for rec in runs}
        static = by_name["hindsight-static"]
        for rec in runs:
            row = rec.as_dict()
            row["scenario"] = name
            row["n_events"] = len(seq)
            row["ratio_vs_static"] = (
                rec.congestion / static.congestion if static.congestion > 0 else 1.0
            )
            records.append(row)

        sample_every = max(1, len(seq) // max(1, trajectory_samples))
        trajectory = congestion_trajectory(
            EdgeCounterManager(net, seq.n_objects, object_size=object_size),
            seq,
            sample_every=sample_every,
        )
        records.append(
            {
                "scenario": name,
                "strategy": "edge-counter/trajectory",
                "n_events": len(seq),
                "congestion": float(trajectory[-1]),
                # keep the LAST samples so the list always ends at the
                # row's final congestion (the sampler appends a forced
                # final point when len(seq) % sample_every != 0)
                "trajectory": [float(x) for x in trajectory[-trajectory_samples:]],
                "monotone": bool(np.all(np.diff(trajectory) >= -1e-9)),
            }
        )
    return records


# --------------------------------------------------------------------------- #
# E10 -- topology churn (mutable bus networks, incremental substrate repair)
# --------------------------------------------------------------------------- #
def churn_scenario_suite(seed: int = 0, small: bool = False, large: bool = False):
    """Labelled ``(name, network, sequence, trace)`` churn scenarios for E10.

    Four churn regimes over the streaming workload families:

    * ``flash-crowd`` -- a burst of new processors joins a third of the way
      into a Zipf trace; the newcomers then issue their own (reference-id
      addressed) read requests against the popular objects;
    * ``maintenance`` -- processors leave at a fixed cadence during a
      subtree-local trace (stranded copies re-home via nearest-copy);
    * ``degradation`` -- trunk and bus bandwidths decay under a hotspot
      trace (loads untouched, congestion climbs through the denominators);
    * ``storm`` -- a seeded mix of every mutation kind, including bus
      splits, through a Zipf trace.

    Each one is also a registered scenario family, so
    ``repro simulate --scenario <name>`` replays it alone.
    """
    from repro.sim.scenario import build_scenario, scenario_spec

    scenarios = []
    for name in ("flash-crowd", "maintenance", "degradation", "storm"):
        spec = scenario_spec(name, seed=seed, small=small, large=large)
        (built,) = build_scenario(spec)
        scenarios.append((name, built.network, built.sequence, built.trace))
    return scenarios


def replay_churn_scenario(
    net,
    seq,
    trace,
    object_size: int = 4,
    trajectory_samples: int = 4,
) -> List[Dict[str, object]]:
    """Replay one churn scenario through the standard strategy pair.

    The static reference (extended nibble on the base-network aggregate,
    holders remapped and re-homed across mutations) and the adaptive
    edge-counter strategy both serve the sequence on the incrementally
    repaired load-state substrate.  Each record carries the served/dropped
    split, the mutation count, the sampled congestion trajectory and a
    substrate self-check (incremental bus loads equal a from-scratch
    recomputation after all repairs).
    """
    strategies = {
        "hindsight-static": lambda: hindsight_static_manager(net, seq),
        "edge-counter": lambda: EdgeCounterManager(
            net, seq.n_objects, object_size=object_size
        ),
    }
    records: List[Dict[str, object]] = []
    for sname, factory in strategies.items():
        result = replay_with_churn(
            factory(),
            seq,
            trace,
            sample_every=max(1, len(seq) // max(1, trajectory_samples)),
        )
        records.append(
            {
                "strategy": sname,
                "n_events": len(seq),
                "served": result.served,
                "dropped": result.dropped,
                "n_mutations": result.n_mutations,
                "congestion": float(result.congestion),
                "total_load": float(result.account.total_load),
                "n_processors_final": result.network.n_processors,
                "trajectory": [
                    float(x) for x in result.trajectory[-trajectory_samples:]
                ],
                "repair_consistent": bool(result.account.state.verify_bus_loads()),
            }
        )
    return records


def experiment_topology_churn(
    seed: int = 0,
    small: bool = False,
    large: bool = False,
    object_size: int = 4,
    trajectory_samples: int = 4,
) -> List[Dict[str, object]]:
    """E10: stream request traces through mutation storms.

    Every scenario of :func:`churn_scenario_suite` is replayed through
    :func:`replay_churn_scenario` (static reference + adaptive
    edge-counter on the incrementally repaired substrate).
    """
    records: List[Dict[str, object]] = []
    for name, net, seq, trace in churn_scenario_suite(seed=seed, small=small, large=large):
        for rec in replay_churn_scenario(
            net, seq, trace,
            object_size=object_size, trajectory_samples=trajectory_samples,
        ):
            records.append({"scenario": name, **rec})
    return records


# --------------------------------------------------------------------------- #
# E11 -- the declarative scenario registry (simulation kernel)
# --------------------------------------------------------------------------- #
def experiment_scenario_registry(
    seed: int = 0,
    small: bool = False,
    large: bool = False,
) -> List[Dict[str, object]]:
    """E11: the new scenario families, declared and replayed via the kernel.

    Exercises the :mod:`repro.sim` stack end-to-end: every scenario is a
    declarative :class:`~repro.sim.scenario.ScenarioSpec` (round-tripped
    through JSON first, so the serialised form is what actually runs),
    materialised by the registry and driven through the
    :class:`~repro.sim.engine.SimulationEngine` with trajectory, cost and
    drop sinks attached:

    * ``adversarial-storm`` -- a mutation storm under write-heavy
      bisection traffic (churn and adversarial workload together);
    * ``flash-crowd-recovery`` -- a multi-phase flash crowd that arrives,
      issues reads and then departs again (late requests drop);
    * ``fleet-sweep`` -- one Zipf workload swept over a fleet of network
      sizes.
    """
    from repro.sim.scenario import ScenarioSpec, run_scenario, scenario_spec

    records: List[Dict[str, object]] = []
    for name in ("adversarial-storm", "flash-crowd-recovery", "fleet-sweep"):
        spec = scenario_spec(name, seed=seed, small=small, large=large)
        spec = ScenarioSpec.from_json(spec.to_json())  # prove the JSON path
        records.extend(run_scenario(spec))
    return records
