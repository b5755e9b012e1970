"""Spectral recursive bisection — the pre-multilevel state of the art.

The paper's Sec. I/II cite spectral nested dissection (Pothen et al.)
among the heuristics that multilevel methods displaced: "Multilevel
techniques for graph partitioning show great improvements in the quality
of partitions and partitioning speed as compared to other techniques
[4, 5]."  This baseline lets the benchmark suite demonstrate that claim.

Bisection: split at the weighted median of the Fiedler vector (the
eigenvector of the second-smallest eigenvalue of the graph Laplacian),
computed with scipy's Lanczos (dense fallback for tiny subgraphs).
"""

from __future__ import annotations

import numpy as np

from ..engine import Engine, PhaseOutput
from ..exceptions import PartitioningError
from ..graphs.csr import CSRGraph
from ..runtime.clock import SimClock
from ..runtime.trace import Trace
from ..serial.kway import rebalance_pass
from .options import SpectralOptions

__all__ = ["fiedler_vector", "spectral_bisect", "SpectralPartitioner"]

_DENSE_CUTOFF = 64  # below this, dense eigendecomposition is cheaper/safer
#: Modeled Lanczos sweeps per bisection (drives the cost model).
LANCZOS_ITERATIONS = 60


def fiedler_vector(graph: CSRGraph, seed: int = 0) -> np.ndarray:
    """The eigenvector of the second-smallest Laplacian eigenvalue.

    Disconnected graphs have a multiplicity->1 zero eigenvalue, whose
    eigenvectors Lanczos picks differently from process to process; for
    them the component labels are returned instead, a vector that
    separates components, which is still a valid (indeed ideal)
    bisection direction.
    """
    n = graph.num_vertices
    if n < 2:
        raise PartitioningError("Fiedler vector needs at least 2 vertices")
    a = graph.to_scipy()
    from scipy.sparse import diags
    from scipy.sparse.csgraph import connected_components

    n_comp, comp = connected_components(a, directed=False)
    if n_comp > 1:
        return comp.astype(np.float64)

    lap = diags(np.asarray(a.sum(axis=1)).ravel()) - a
    if n <= _DENSE_CUTOFF:
        w, v = np.linalg.eigh(lap.toarray())
        return v[:, np.argsort(w)[1]]
    from scipy.sparse.linalg import eigsh

    rng = np.random.default_rng(seed)
    try:
        w, v = eigsh(
            lap.asfptype(), k=2, sigma=-1e-6, which="LM",
            v0=rng.random(n),
        )
    except Exception:
        # Shift-invert can fail on singular factorizations; fall back to
        # the (slower) smallest-magnitude Lanczos.
        w, v = eigsh(lap.asfptype(), k=2, which="SM", v0=rng.random(n))
    return v[:, np.argsort(w)[1]]


def spectral_bisect(
    graph: CSRGraph, fraction: float = 0.5, seed: int = 0
) -> np.ndarray:
    """0/1 labels: vertices above the weighted ``fraction`` quantile of
    the Fiedler vector form side 1."""
    if graph.num_vertices == 0:
        return np.empty(0, dtype=np.int64)
    if graph.num_vertices == 1:
        return np.zeros(1, dtype=np.int64)
    f = fiedler_vector(graph, seed=seed)
    order = np.argsort(f, kind="stable")
    cum = np.cumsum(graph.vwgt[order])
    target = (1.0 - fraction) * graph.total_vertex_weight
    split = int(np.searchsorted(cum, target, side="left")) + 1
    labels = np.zeros(graph.num_vertices, dtype=np.int64)
    labels[order[min(split, graph.num_vertices - 1):]] = 1
    if labels.min() == labels.max():  # degenerate quantile
        labels[order[graph.num_vertices // 2:]] = 1
    return labels


class SpectralPartitioner(Engine):
    """Recursive spectral bisection to k parts (no multilevel, no FM).

    Cost model: each bisection runs Lanczos — ``LANCZOS_ITERATIONS`` sparse
    mat-vecs over the subgraph, at CPU edge-op rates.  This is what makes
    spectral slow next to multilevel (Sec. II's claim): the whole graph
    is swept ~60+ times per split instead of once per level.
    """

    name = "spectral"
    options_class = SpectralOptions

    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        opts = self.options
        clock.set_phase("spectral")
        n = graph.num_vertices
        part = np.zeros(n, dtype=np.int64)

        stack = [(graph, np.arange(n, dtype=np.int64), k, 0)]
        while stack:
            g, vmap, kk, base = stack.pop()
            if kk == 1 or g.num_vertices == 0:
                part[vmap] = base
                continue
            if g.num_vertices < kk:
                part[vmap] = base + (np.arange(g.num_vertices) % kk)
                continue
            k1 = (kk + 1) // 2
            labels = spectral_bisect(g, fraction=k1 / kk, seed=opts.seed)
            clock.charge(
                "compute",
                self.machine.cpu.edge_seconds(
                    LANCZOS_ITERATIONS * g.num_directed_edges,
                    avg_degree=2 * g.num_edges / max(1, g.num_vertices),
                ),
                count=float(LANCZOS_ITERATIONS * g.num_directed_edges),
                detail=f"lanczos n={g.num_vertices}",
            )
            side1 = np.where(labels == 1)[0]
            side0 = np.where(labels == 0)[0]
            if side1.size == 0 or side0.size == 0:
                part[vmap] = base + (np.arange(g.num_vertices) % kk)
                continue
            sub1, _ = g.subgraph(side1)
            sub0, _ = g.subgraph(side0)
            stack.append((sub1, vmap[side1], k1, base))
            stack.append((sub0, vmap[side0], kk - k1, base + k1))

        if k > 1:
            pweights = np.bincount(
                part, weights=graph.vwgt.astype(np.float64), minlength=k
            )
            ideal = graph.total_vertex_weight / k
            if pweights.max(initial=0.0) > opts.ubfactor * ideal:
                rebalance_pass(graph, part, pweights, k, opts.ubfactor * ideal)
                clock.charge(
                    "compute",
                    self.machine.cpu.edge_seconds(graph.num_directed_edges),
                    count=float(graph.num_directed_edges),
                    detail="rebalance",
                )
        return PhaseOutput(part, Trace())
