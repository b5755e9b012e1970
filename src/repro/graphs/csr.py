"""Compressed Sparse Row graph structure.

The paper (Sec. III) stores the graph on the GPU in CSR form with four
arrays:

* ``adjncy`` — length ``2|E|``, the concatenated adjacency lists,
* ``adjp``   — length ``|V|+1``, offsets of each vertex's list in ``adjncy``
  (called ``xadj`` in Metis),
* ``adjwgt`` — length ``2|E|``, edge weights aligned with ``adjncy``,
* ``vwgt``   — length ``|V|``, vertex weights.

:class:`CSRGraph` is the single graph type used by every partitioner and
every simulated device in this package.  It is immutable by convention:
coarsening produces new graphs rather than mutating existing ones, which
matches the paper's level-by-level pointer-array bookkeeping.

Arrays are stored as ``int64`` indices and ``int64`` weights.  Weights are
integral, as in Metis; generators that want unweighted graphs use weight 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .._segments import gather_ranges
from ..exceptions import InvalidGraphError

__all__ = ["CSRGraph"]

_INDEX_DTYPE = np.int64
_WEIGHT_DTYPE = np.int64


def _as_index_array(a, name: str) -> np.ndarray:
    arr = np.asarray(a)
    if arr.ndim != 1:
        raise InvalidGraphError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if not np.issubdtype(arr.dtype, np.integer):
        if arr.size and not np.all(np.equal(np.mod(arr, 1), 0)):
            raise InvalidGraphError(f"{name} must contain integers")
    return np.ascontiguousarray(arr, dtype=_INDEX_DTYPE)


@dataclass(frozen=True)
class CSRGraph:
    """An undirected, weighted graph in CSR (adjacency-array) form.

    Parameters mirror the paper's array names.  Every undirected edge
    ``{u, v}`` appears twice: once in ``u``'s list and once in ``v``'s.
    Self-loops are disallowed (Metis convention); parallel edges must be
    pre-merged by summing weights (``repro.graphs.build`` does this).
    """

    adjp: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgt: np.ndarray
    name: str = field(default="graph", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "adjp", _as_index_array(self.adjp, "adjp"))
        object.__setattr__(self, "adjncy", _as_index_array(self.adjncy, "adjncy"))
        object.__setattr__(
            self, "adjwgt", np.ascontiguousarray(self.adjwgt, dtype=_WEIGHT_DTYPE)
        )
        object.__setattr__(
            self, "vwgt", np.ascontiguousarray(self.vwgt, dtype=_WEIGHT_DTYPE)
        )

    # ------------------------------------------------------------------
    # Basic shape accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return int(self.adjp.shape[0] - 1)

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|`` (``adjncy`` holds ``2|E|``)."""
        return int(self.adjncy.shape[0] // 2)

    @property
    def num_directed_edges(self) -> int:
        """Length of ``adjncy`` — the number of (u, v) arcs stored."""
        return int(self.adjncy.shape[0])

    @property
    def total_vertex_weight(self) -> int:
        """Sum of all vertex weights (conserved across coarsening levels)."""
        return int(self.vwgt.sum())

    @property
    def total_edge_weight(self) -> int:
        """Sum of edge weights over undirected edges."""
        return int(self.adjwgt.sum()) // 2

    def degrees(self) -> np.ndarray:
        """Vertex degrees (adjacency-list lengths)."""
        return np.diff(self.adjp)

    @property
    def max_degree(self) -> int:
        return int(self.degrees().max(initial=0))

    @property
    def content_digest(self) -> str:
        """Stable hex digest of the four CSR arrays — the graph's identity
        independent of its display ``name``.

        Two generator draws that share a name (``delaunay(300, seed=1)``
        and ``seed=2`` are both ``"delaunay_300"``) digest differently,
        so anything keyed by content — notably the partition-service
        result cache — can tell them apart.  Computed once per instance
        (the arrays are immutable by convention).
        """
        cached = getattr(self, "_content_digest", None)
        if cached is None:
            h = hashlib.sha256()
            for arr in (self.adjp, self.adjncy, self.adjwgt, self.vwgt):
                h.update(arr.tobytes())
                h.update(b"|")
            cached = h.hexdigest()[:16]
            object.__setattr__(self, "_content_digest", cached)
        return cached

    @property
    def nbytes(self) -> int:
        """Total bytes of the four CSR arrays (device-memory footprint)."""
        return int(
            self.adjp.nbytes + self.adjncy.nbytes + self.adjwgt.nbytes + self.vwgt.nbytes
        )

    # ------------------------------------------------------------------
    # Per-vertex views
    # ------------------------------------------------------------------
    def neighbors(self, v: int) -> np.ndarray:
        """View (no copy) of vertex ``v``'s adjacency list."""
        return self.adjncy[self.adjp[v] : self.adjp[v + 1]]

    def edge_weights(self, v: int) -> np.ndarray:
        """View of the edge weights aligned with :meth:`neighbors`."""
        return self.adjwgt[self.adjp[v] : self.adjp[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.adjp[v + 1] - self.adjp[v])

    def iter_edges(self) -> Iterator[tuple[int, int, int]]:
        """Yield each undirected edge once as ``(u, v, w)`` with ``u < v``."""
        for u in range(self.num_vertices):
            nbrs = self.neighbors(u)
            wgts = self.edge_weights(u)
            mask = nbrs > u
            for v, w in zip(nbrs[mask], wgts[mask]):
                yield int(u), int(v), int(w)

    def edge_array(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised form of :meth:`iter_edges`: arrays ``(us, vs, ws)`` with u < v."""
        src = np.repeat(np.arange(self.num_vertices, dtype=_INDEX_DTYPE), self.degrees())
        mask = src < self.adjncy
        return src[mask], self.adjncy[mask], self.adjwgt[mask]

    def source_array(self) -> np.ndarray:
        """For each slot of ``adjncy``, the source vertex that owns the slot."""
        return np.repeat(np.arange(self.num_vertices, dtype=_INDEX_DTYPE), self.degrees())

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check the CSR structural invariants; raise InvalidGraphError on failure.

        Invariants checked:

        1. ``adjp`` is monotone, starts at 0, ends at ``len(adjncy)``.
        2. ``adjncy`` entries are valid vertex ids.
        3. ``adjwgt`` aligns with ``adjncy``; ``vwgt`` aligns with vertices.
        4. No self-loops.
        5. Symmetry: edge (u, v, w) implies edge (v, u, w).
        6. No duplicate neighbors within a single adjacency list.
        7. Weights are positive.
        """
        n = self.num_vertices
        if n < 0:
            raise InvalidGraphError("adjp must have at least one entry")
        if self.adjp[0] != 0:
            raise InvalidGraphError("adjp[0] must be 0")
        if self.adjp[-1] != self.adjncy.shape[0]:
            raise InvalidGraphError(
                f"adjp[-1]={self.adjp[-1]} != len(adjncy)={self.adjncy.shape[0]}"
            )
        if np.any(np.diff(self.adjp) < 0):
            raise InvalidGraphError("adjp must be non-decreasing")
        if self.adjwgt.shape != self.adjncy.shape:
            raise InvalidGraphError("adjwgt must align with adjncy")
        if self.vwgt.shape[0] != n:
            raise InvalidGraphError(f"vwgt has {self.vwgt.shape[0]} entries for {n} vertices")
        if self.adjncy.size:
            if self.adjncy.min() < 0 or self.adjncy.max() >= n:
                raise InvalidGraphError("adjncy contains out-of-range vertex ids")
        if n and self.vwgt.size and self.vwgt.min() <= 0:
            raise InvalidGraphError("vertex weights must be positive")
        if self.adjwgt.size and self.adjwgt.min() <= 0:
            raise InvalidGraphError("edge weights must be positive")

        src = self.source_array()
        if np.any(src == self.adjncy):
            raise InvalidGraphError("self-loops are not allowed")

        # Duplicate detection + symmetry via canonical sorted arc table.
        order = np.lexsort((self.adjncy, src))
        s_sorted = src[order]
        d_sorted = self.adjncy[order]
        w_sorted = self.adjwgt[order]
        if s_sorted.size:
            dup = (s_sorted[1:] == s_sorted[:-1]) & (d_sorted[1:] == d_sorted[:-1])
            if np.any(dup):
                raise InvalidGraphError("duplicate edges within an adjacency list")
        # Symmetry: the multiset of (min, max, w) triples from u<v arcs must
        # equal the multiset from u>v arcs.
        fwd = s_sorted < d_sorted
        rev = ~fwd
        if fwd.sum() != rev.sum():
            raise InvalidGraphError("graph is not symmetric (arc count mismatch)")
        fwd_key = np.stack([s_sorted[fwd], d_sorted[fwd], w_sorted[fwd]], axis=1)
        rev_key = np.stack([d_sorted[rev], s_sorted[rev], w_sorted[rev]], axis=1)
        fwd_key = fwd_key[np.lexsort((fwd_key[:, 2], fwd_key[:, 1], fwd_key[:, 0]))]
        rev_key = rev_key[np.lexsort((rev_key[:, 2], rev_key[:, 1], rev_key[:, 0]))]
        if not np.array_equal(fwd_key, rev_key):
            raise InvalidGraphError("graph is not symmetric (weight or endpoint mismatch)")

    def is_valid(self) -> bool:
        """Non-raising form of :meth:`validate`."""
        try:
            self.validate()
        except InvalidGraphError:
            return False
        return True

    # ------------------------------------------------------------------
    # Conversions / misc
    # ------------------------------------------------------------------
    def to_scipy(self):
        """The graph as a ``scipy.sparse.csr_matrix`` of edge weights."""
        from scipy.sparse import csr_matrix

        n = self.num_vertices
        return csr_matrix(
            (self.adjwgt.astype(np.float64), self.adjncy, self.adjp), shape=(n, n)
        )

    def subgraph(self, vertices: np.ndarray) -> tuple["CSRGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns the subgraph and the mapping array ``old_of_new`` such that
        new vertex ``i`` corresponds to original vertex ``old_of_new[i]``.
        Edges leaving the vertex set are dropped.
        """
        vertices = np.asarray(vertices, dtype=_INDEX_DTYPE)
        n = self.num_vertices
        new_of_old = np.full(n, -1, dtype=_INDEX_DTYPE)
        new_of_old[vertices] = np.arange(vertices.shape[0], dtype=_INDEX_DTYPE)

        src = self.source_array()
        keep = (new_of_old[src] >= 0) & (new_of_old[self.adjncy] >= 0)
        new_src = new_of_old[src[keep]]
        new_dst = new_of_old[self.adjncy[keep]]
        new_w = self.adjwgt[keep]

        order = np.lexsort((new_dst, new_src))
        new_src, new_dst, new_w = new_src[order], new_dst[order], new_w[order]
        counts = np.bincount(new_src, minlength=vertices.shape[0])
        adjp = np.zeros(vertices.shape[0] + 1, dtype=_INDEX_DTYPE)
        np.cumsum(counts, out=adjp[1:])
        sub = CSRGraph(
            adjp=adjp,
            adjncy=new_dst,
            adjwgt=new_w,
            vwgt=self.vwgt[vertices],
            name=f"{self.name}#sub",
        )
        return sub, vertices

    def connected_components(self) -> np.ndarray:
        """Component label per vertex (BFS over CSR, vectorised frontier)."""
        n = self.num_vertices
        labels = np.full(n, -1, dtype=_INDEX_DTYPE)
        comp = 0
        for seed in range(n):
            if labels[seed] >= 0:
                continue
            labels[seed] = comp
            frontier = np.array([seed], dtype=_INDEX_DTYPE)
            while frontier.size:
                # Gather all neighbors of the frontier at once.
                lens = self.adjp[frontier + 1] - self.adjp[frontier]
                nbrs = self.adjncy[gather_ranges(self.adjp[frontier], lens)]
                fresh = nbrs[labels[nbrs] < 0]
                if fresh.size == 0:
                    break
                fresh = np.unique(fresh)
                labels[fresh] = comp
                frontier = fresh
            comp += 1
        return labels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CSRGraph(name={self.name!r}, |V|={self.num_vertices}, "
            f"|E|={self.num_edges}, maxdeg={self.max_degree if self.num_vertices else 0})"
        )
