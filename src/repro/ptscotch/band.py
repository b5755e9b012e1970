"""Banded refinement (PT-Scotch, paper Sec. II.B).

"During the refinement phase of PT-Scotch, a banded diffusion technique
is utilized in which the refinement phase executes on a banded graph
extracted from the initial partitioned graph.  This banded graph
consists of the set of vertices that are located at a specific threshold
distance from the partition separators."

Restricting refinement to the band bounds its cost by the separator size
instead of the whole graph — the anchor vertices representing everything
outside the band cannot move.
"""

from __future__ import annotations

import numpy as np

from .._segments import gather_ranges
from ..graphs.csr import CSRGraph
from ..graphs.metrics import boundary_vertices
from ..mtmetis.refinement import SubIterationStats, refine_level

__all__ = ["band_vertices", "band_refine"]


def band_vertices(graph: CSRGraph, part: np.ndarray, distance: int = 2) -> np.ndarray:
    """Vertices within ``distance`` hops of any partition boundary."""
    if distance < 0:
        raise ValueError("distance must be >= 0")
    frontier = boundary_vertices(graph, part)
    in_band = np.zeros(graph.num_vertices, dtype=bool)
    in_band[frontier] = True
    for _ in range(distance):
        if frontier.size == 0:
            break
        lens = graph.adjp[frontier + 1] - graph.adjp[frontier]
        nbrs = graph.adjncy[gather_ranges(graph.adjp[frontier], lens)]
        fresh = np.unique(nbrs[~in_band[nbrs]])
        in_band[fresh] = True
        frontier = fresh
    return np.where(in_band)[0].astype(np.int64)


def band_refine(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    ubfactor: float = 1.03,
    max_passes: int = 4,
    distance: int = 2,
) -> tuple[np.ndarray, int, list[SubIterationStats]]:
    """Refine only within the band around the separators.

    Builds the induced band subgraph with per-band-vertex weights that
    keep the *global* balance semantics: each band vertex carries its own
    weight, and the partition weight caps are computed against the full
    graph's totals (vertices outside the band are pinned, so their weight
    contribution is constant).

    Returns ``(new_part, band_size, stats)``, the band's sub-iterations.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    band = band_vertices(graph, part, distance)
    if band.size == 0:
        return part, 0, []
    sub, old_of_new = graph.subgraph(band)
    sub_part = part[band]

    # Run the shared lock-free engine on the band subgraph.  Balance caps
    # inside refine_level are computed from the subgraph's totals, which
    # skews them; compensate by running with a tolerance scaled to the
    # band's share of the total weight (pinned weight is immovable).
    band_weight = int(graph.vwgt[band].sum())
    total = graph.total_vertex_weight
    if band_weight == 0 or total == 0:
        return part, int(band.size), []
    # Effective tolerance on the band that bounds global imbalance by
    # ubfactor: global_max <= pinned_max + band_cap.
    eff_ub = 1.0 + (ubfactor - 1.0) * total / band_weight
    new_sub_part, stats = refine_level(
        sub, sub_part, k, min(eff_ub, 2.0), max_passes
    )
    part[band] = new_sub_part
    return part, int(band.size), stats
