"""Partition quality metrics.

The paper reports edge cut (Tables III) under a balance constraint
(imbalance tolerance 3 %, i.e. ubfactor 1.03).  This module provides the
cut, balance, communication volume, and boundary measures used by the
refinement code, the tests, and the benchmark harness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from .csr import CSRGraph

__all__ = [
    "edge_cut",
    "partition_weights",
    "imbalance",
    "is_balanced",
    "boundary_vertices",
    "boundary_from_labels",
    "communication_volume",
    "PartitionQuality",
    "evaluate_partition",
    "validate_partition",
]


def _check_part(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    part = np.asarray(part, dtype=np.int64)
    if part.shape[0] != graph.num_vertices:
        raise InvalidParameterError(
            f"partition has {part.shape[0]} labels for {graph.num_vertices} vertices"
        )
    return part


def edge_cut(graph: CSRGraph, part: np.ndarray) -> int:
    """Total weight of edges whose endpoints are in different partitions."""
    part = _check_part(graph, part)
    cut_arcs = np.repeat(part, graph.degrees()) != part[graph.adjncy]
    return int(graph.adjwgt[cut_arcs].sum()) // 2


def partition_weights(graph: CSRGraph, part: np.ndarray, k: int) -> np.ndarray:
    """Vertex-weight sum per partition (length k)."""
    part = _check_part(graph, part)
    return np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k).astype(
        np.int64
    )


def imbalance(graph: CSRGraph, part: np.ndarray, k: int) -> float:
    """Load imbalance: max partition weight / ideal weight.

    1.0 is perfect balance; the paper's tolerance is 1.03.
    """
    w = partition_weights(graph, part, k)
    total = graph.total_vertex_weight
    if total == 0:
        return 1.0
    ideal = total / k
    return float(w.max()) / ideal


def is_balanced(graph: CSRGraph, part: np.ndarray, k: int, ubfactor: float = 1.03) -> bool:
    return imbalance(graph, part, k) <= ubfactor + 1e-9


def boundary_vertices(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """Vertices with at least one neighbor in a different partition."""
    part = _check_part(graph, part)
    return boundary_from_labels(graph, part, part[graph.adjncy])


def boundary_from_labels(
    graph: CSRGraph, part: np.ndarray, nbr: np.ndarray
) -> np.ndarray:
    """:func:`boundary_vertices`, ascending, from the neighbor labels
    ``nbr = part[graph.adjncy]`` a caller has already gathered.

    The test reads labels only, so an arc of weight 0 still puts its
    endpoints on the boundary.  Its arc-length temporaries are freed on
    return.
    """
    deg = graph.degrees()
    ext = np.repeat(part, deg) != nbr
    rows = np.flatnonzero(deg)
    if rows.size == 0:
        return rows
    # Only rows with arcs: reduceat needs strictly increasing offsets.
    return rows[np.logical_or.reduceat(ext, graph.adjp[rows])]


def communication_volume(graph: CSRGraph, part: np.ndarray, k: int) -> int:
    """Total communication volume: for each vertex, the number of distinct
    external partitions adjacent to it, summed over vertices.

    This is the metric a task-interaction-graph user (paper Sec. I) pays
    for at runtime; it is reported by the mesh-decomposition example.
    """
    part = _check_part(graph, part)
    src = graph.source_array()
    nbr_part = part[graph.adjncy]
    ext = part[src] != nbr_part
    if not np.any(ext):
        return 0
    pairs = src[ext] * np.int64(k) + nbr_part[ext]
    return int(np.unique(pairs).shape[0])


def validate_partition(
    graph: CSRGraph, part: np.ndarray, k: int, ubfactor: float | None = None
) -> None:
    """Raise if ``part`` is not a valid (optionally balanced) k-partition."""
    part = _check_part(graph, part)
    if part.size and (part.min() < 0 or part.max() >= k):
        raise InvalidParameterError(f"partition labels out of range [0, {k})")
    if ubfactor is not None and not is_balanced(graph, part, k, ubfactor):
        raise InvalidParameterError(
            f"partition violates balance: imbalance={imbalance(graph, part, k):.4f} "
            f"> ubfactor={ubfactor}"
        )


@dataclass(frozen=True)
class PartitionQuality:
    """Summary record for one (graph, partition) pair."""

    k: int
    cut: int
    imbalance: float
    comm_volume: int
    boundary_size: int
    min_part_weight: int
    max_part_weight: int
    empty_parts: int

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "cut": self.cut,
            "imbalance": self.imbalance,
            "comm_volume": self.comm_volume,
            "boundary_size": self.boundary_size,
            "min_part_weight": self.min_part_weight,
            "max_part_weight": self.max_part_weight,
            "empty_parts": self.empty_parts,
        }


def evaluate_partition(graph: CSRGraph, part: np.ndarray, k: int) -> PartitionQuality:
    """Compute the full quality record used by benches and EXPERIMENTS.md."""
    part = _check_part(graph, part)
    w = partition_weights(graph, part, k)
    return PartitionQuality(
        k=k,
        cut=edge_cut(graph, part),
        imbalance=imbalance(graph, part, k),
        comm_volume=communication_volume(graph, part, k),
        boundary_size=int(boundary_vertices(graph, part).shape[0]),
        min_part_weight=int(w.min()) if k else 0,
        max_part_weight=int(w.max()) if k else 0,
        empty_parts=int((w == 0).sum()),
    )
