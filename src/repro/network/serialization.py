"""JSON (de)serialization of hierarchical bus networks.

The on-disk format is a small, stable dictionary::

    {
      "format": "repro.network/v1",
      "nodes": [
        {"id": 0, "kind": "bus", "name": "root", "bandwidth": 4.0},
        {"id": 1, "kind": "processor", "name": "p0"},
        ...
      ],
      "edges": [
        {"u": 0, "v": 1, "bandwidth": 1.0},
        ...
      ]
    }

Node ids must be dense ``0..n-1``; the decoder validates the topology via
the normal :class:`~repro.network.tree.HierarchicalBusNetwork` constructor.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Union

from repro.errors import SerializationError
from repro.network.node import BusSpec, NodeSpec, ProcessorSpec
from repro.network.tree import HierarchicalBusNetwork

__all__ = [
    "network_to_dict",
    "network_from_dict",
    "save_network",
    "load_network",
    "FORMAT_TAG",
]

FORMAT_TAG = "repro.network/v1"


def network_to_dict(network: HierarchicalBusNetwork) -> Dict[str, Any]:
    """Encode ``network`` into a JSON-serialisable dictionary."""
    nodes = []
    for node in network.nodes():
        entry: Dict[str, Any] = {
            "id": int(node),
            "kind": "bus" if network.is_bus(node) else "processor",
            "name": network.name(node),
        }
        if network.is_bus(node):
            entry["bandwidth"] = float(network.bus_bandwidth(node))
        nodes.append(entry)
    edges = []
    for eid, e in enumerate(network.edges):
        edges.append(
            {
                "u": int(e.u),
                "v": int(e.v),
                "bandwidth": float(network.edge_bandwidth(eid)),
            }
        )
    return {"format": FORMAT_TAG, "nodes": nodes, "edges": edges}


def network_from_dict(data: Dict[str, Any]) -> HierarchicalBusNetwork:
    """Decode a dictionary produced by :func:`network_to_dict`."""
    if not isinstance(data, dict):
        raise SerializationError("network document must be a mapping")
    if data.get("format") != FORMAT_TAG:
        raise SerializationError(
            f"unsupported network format {data.get('format')!r}; "
            f"expected {FORMAT_TAG!r}"
        )
    try:
        raw_nodes = list(data["nodes"])
        raw_edges = list(data["edges"])
    except KeyError as exc:
        raise SerializationError(f"missing key {exc} in network document") from None

    n = len(raw_nodes)
    specs: list[NodeSpec] = [ProcessorSpec()] * n
    seen = [False] * n
    for entry in raw_nodes:
        try:
            node_id = int(entry["id"])
            kind = str(entry["kind"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed node entry {entry!r}") from exc
        if not 0 <= node_id < n or seen[node_id]:
            raise SerializationError(f"node ids must be dense and unique, got {node_id}")
        seen[node_id] = True
        name = entry.get("name")
        if kind == "bus":
            specs[node_id] = BusSpec(name, float(entry.get("bandwidth", 1.0)))
        elif kind == "processor":
            specs[node_id] = ProcessorSpec(name)
        else:
            raise SerializationError(f"unknown node kind {kind!r}")

    edges = []
    bandwidths = []
    for entry in raw_edges:
        try:
            u, v = int(entry["u"]), int(entry["v"])
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(f"malformed edge entry {entry!r}") from exc
        edges.append((u, v))
        bandwidths.append(float(entry.get("bandwidth", 1.0)))

    try:
        return HierarchicalBusNetwork(specs, edges, edge_bandwidths=bandwidths)
    except Exception as exc:  # re-wrap topology errors for callers of the loader
        raise SerializationError(f"decoded network is invalid: {exc}") from exc


def save_network(network: HierarchicalBusNetwork, path: Union[str, Path]) -> None:
    """Write ``network`` to ``path`` as pretty-printed JSON."""
    Path(path).write_text(json.dumps(network_to_dict(network), indent=2))


def load_network(path: Union[str, Path]) -> HierarchicalBusNetwork:
    """Load a network previously written by :func:`save_network`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    return network_from_dict(data)
