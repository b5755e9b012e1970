"""Jostle's interface-region refinement (paper Sec. II.B).

"Each partition creates its own set of boundary vertices with the same
target partition preference, e.g. partition p constructs a set of its
boundary vertices with the preferred target partition q.  At the same
time, partition q creates a similar set of vertices for partition p.
Consequently, these two sets form an interface region.  A serial
optimization technique, e.g. KL, is executed independently on the
different regions.  This technique mitigates the communication-intensive
vertex movements by isolating different regions of the graph."

Adjacent partition pairs are scheduled in conflict-free rounds (a greedy
edge coloring of the partition-adjacency graph), so every region in a
round refines concurrently without sharing vertices.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..graphs.csr import CSRGraph
from ..serial.fm import fm_refine_bisection

__all__ = ["InterfaceRoundStats", "partition_pairs", "pair_rounds", "refine_interfaces"]

#: KL/FM passes per interface region and sweep.
FM_PASSES = 2


@dataclass
class InterfaceRoundStats:
    """One conflict-free round of pairwise interface refinements."""

    pairs: list
    region_sizes: list
    edge_scans: int
    moves: int


def partition_pairs(graph: CSRGraph, part: np.ndarray) -> list[tuple[int, int]]:
    """Adjacent partition pairs (p < q) sharing at least one cut edge."""
    src = graph.source_array()
    cut = part[src] != part[graph.adjncy]
    if not np.any(cut):
        return []
    a = part[src[cut]]
    b = part[graph.adjncy[cut]]
    lo = np.minimum(a, b)
    hi = np.maximum(a, b)
    key = np.unique(lo.astype(np.int64) * (int(part.max()) + 1) + hi)
    base = int(part.max()) + 1
    return [(int(kk // base), int(kk % base)) for kk in key]


def pair_rounds(pairs: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Greedy conflict-free scheduling: no partition appears twice per round."""
    remaining = list(pairs)
    rounds: list[list[tuple[int, int]]] = []
    while remaining:
        used: set[int] = set()
        this_round: list[tuple[int, int]] = []
        rest: list[tuple[int, int]] = []
        for p, q in remaining:
            if p in used or q in used:
                rest.append((p, q))
            else:
                this_round.append((p, q))
                used.add(p)
                used.add(q)
        rounds.append(this_round)
        remaining = rest
    return rounds


def _interface_region(
    graph: CSRGraph, part: np.ndarray, p: int, q: int
) -> tuple[np.ndarray, np.ndarray]:
    """Movable core (p vertices adjacent to q and vice versa) and the
    full region (core + its one-hop same-pair halo).

    Returns ``(core, region)`` — the halo (region minus core) is pinned
    context during refinement.
    """
    src = graph.source_array()
    nbr_part = part[graph.adjncy]
    core_mask = np.zeros(graph.num_vertices, dtype=bool)
    sel = ((part[src] == p) & (nbr_part == q)) | ((part[src] == q) & (nbr_part == p))
    core_mask[src[sel]] = True
    core = np.where(core_mask)[0].astype(np.int64)
    if core.size == 0:
        return core, core
    lens = graph.adjp[core + 1] - graph.adjp[core]
    total = int(lens.sum())
    idx = np.repeat(graph.adjp[core], lens) + (
        np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
    )
    nbrs = graph.adjncy[idx]
    halo = nbrs[(part[nbrs] == p) | (part[nbrs] == q)]
    region = np.union1d(core, halo).astype(np.int64)
    return core, region


def refine_interfaces(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    ubfactor: float,
    fm_passes: int = FM_PASSES,
) -> tuple[np.ndarray, list[InterfaceRoundStats]]:
    """One sweep of pairwise KL/FM over all interface regions.

    The pair's two sides aim at the *global* ideal weight each (combined
    balancing: a region whose pair is jointly overweight sheds load to the
    side with headroom).  Mutates a copy of ``part``; returns it with the
    per-round statistics for the cost model.
    """
    part = np.asarray(part, dtype=np.int64).copy()
    ideal = graph.total_vertex_weight / k if k else 0.0
    stats_out: list[InterfaceRoundStats] = []
    pairs = partition_pairs(graph, part)
    for round_pairs in pair_rounds(pairs):
        region_sizes: list[int] = []
        edge_scans = 0
        moves = 0
        for p, q in round_pairs:
            core, region = _interface_region(graph, part, p, q)
            if region.size < 2:
                region_sizes.append(int(region.size))
                continue
            sub, _old_of_new = graph.subgraph(region)
            labels = (part[region] == q).astype(np.int64)
            # Halo vertices give the FM its context but must not move:
            # their edges to vertices outside the region are invisible
            # to the subgraph and would corrupt the global cut.
            core_mask = np.zeros(graph.num_vertices, dtype=bool)
            core_mask[core] = True
            pinned = ~core_mask[region]
            # Side caps: current region share plus whatever global
            # headroom the partition has under the tolerance.
            w_p = float(np.sum(graph.vwgt[part == p]))
            w_q = float(np.sum(graph.vwgt[part == q]))
            region_p = int(sub.vwgt[labels == 0].sum())
            region_q = int(sub.vwgt[labels == 1].sum())
            cap_p = region_p + max(0.0, ubfactor * ideal - w_p)
            cap_q = region_q + max(0.0, ubfactor * ideal - w_q)
            res = fm_refine_bisection(
                sub, labels, (int(round(cap_p)), int(round(cap_q))),
                ubfactor=1.0, max_passes=fm_passes, pinned=pinned,
            )
            changed = res.part != labels
            moves += int(changed.sum())
            new_labels = np.where(res.part == 1, q, p)
            part[region] = new_labels
            region_sizes.append(int(region.size))
            edge_scans += int(sub.num_directed_edges) * (1 + fm_passes)
        stats_out.append(
            InterfaceRoundStats(
                pairs=round_pairs, region_sizes=region_sizes,
                edge_scans=edge_scans, moves=moves,
            )
        )
    return part, stats_out
