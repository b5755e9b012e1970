"""Dynamic repartitioning for adaptive computations.

The paper's Sec. I application domain — "scheduling, social networks,
and parallel processing" — usually involves *changing* workloads: an
adaptive mesh refines, task costs drift, and yesterday's partition goes
out of balance.  The operator then faces the classic trade-off:

* **scratch-remap** — partition the new weights from scratch (best cut,
  but most vertices change owner: heavy data migration);
* **diffusive repartitioning** — start from the old partition and move
  only what balance requires (minimal migration, slightly worse cut).

Both are built from this library's existing pieces; ``repartition``
returns enough information (cut, migration volume) to choose.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut, imbalance
from ..mtmetis.refinement import balance_rounds, refine_level

__all__ = ["RepartitionResult", "repartition", "migration_volume"]


@dataclass(frozen=True)
class RepartitionResult:
    """Outcome of one repartitioning step."""

    part: np.ndarray
    strategy: str
    cut: int
    imbalance: float
    #: Vertex weight that changes owner relative to the old partition.
    migration: int
    migration_fraction: float


def migration_volume(graph: CSRGraph, old: np.ndarray, new: np.ndarray) -> int:
    """Total vertex weight whose owner changes between two partitions."""
    old = np.asarray(old, dtype=np.int64)
    new = np.asarray(new, dtype=np.int64)
    if old.shape[0] != graph.num_vertices or new.shape[0] != graph.num_vertices:
        raise InvalidParameterError("partitions must cover every vertex")
    return int(graph.vwgt[old != new].sum())


def _diffusive(graph: CSRGraph, old: np.ndarray, k: int, ubfactor: float,
               refine_passes: int) -> np.ndarray:
    """Rebalance the old partition in place: balance diffusion first,
    then boundary refinement to recover the cut."""
    part = np.asarray(old, dtype=np.int64).copy()
    total = graph.total_vertex_weight
    ideal = total / k if k else 0.0
    max_pw = ubfactor * ideal
    pweights = np.bincount(part, weights=graph.vwgt.astype(np.float64), minlength=k)
    for _ in balance_rounds(graph, part, pweights, k, max_pw, 2 * k):
        pass
    part, _ = refine_level(graph, part, k, ubfactor, refine_passes)
    return part


def repartition(
    graph: CSRGraph,
    old_part: np.ndarray,
    k: int,
    strategy: str = "diffusive",
    ubfactor: float = 1.03,
    refine_passes: int = 4,
    method: str = "gp-metis",
    **options,
) -> RepartitionResult:
    """Repartition ``graph`` (typically with updated vertex weights).

    ``strategy`` is ``"diffusive"`` (migrate as little as possible) or
    ``"scratch"`` (full re-partition with ``method``).
    """
    old_part = np.asarray(old_part, dtype=np.int64)
    if old_part.shape[0] != graph.num_vertices:
        raise InvalidParameterError("old_part must cover every vertex")
    if strategy == "diffusive":
        new = _diffusive(graph, old_part, k, ubfactor, refine_passes)
    elif strategy == "scratch":
        from ..api import partition as _partition

        new = _partition(graph, k, method=method, ubfactor=ubfactor, **options).part
    else:
        raise InvalidParameterError(f"unknown strategy {strategy!r}")
    mig = migration_volume(graph, old_part, new)
    return RepartitionResult(
        part=new,
        strategy=strategy,
        cut=edge_cut(graph, new),
        imbalance=imbalance(graph, new, k),
        migration=mig,
        migration_fraction=mig / max(1, graph.total_vertex_weight),
    )
