"""Gmetis: Metis as Galois set iterators (paper Sec. II.C).

Coarsening and refinement run as speculative ``for_each`` loops over
vertices: the matching iteration locks a vertex and its neighborhood and
then behaves exactly like sequential HEM (no two-round conflict scheme —
speculation *prevents* conflicts instead of repairing them), so quality
tracks serial Metis.  The price is the speculation tax on irregular
neighborhoods, which is why the paper reports Gmetis "not as efficient
as ParMetis in terms of performance".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..engine import Engine, PhaseOutput
from ..exceptions import InvalidParameterError
from ..graphs.csr import CSRGraph
from ..graphs.metrics import edge_cut
from ..obs.spans import clock_span
from ..runtime.clock import SimClock
from ..runtime.trace import RefinementRecord, Trace
from ..serial.bisection import bisection_sweeps, recursive_bisection
from ..serial.coarsen import CoarseningLadder
from ..serial.contraction import contract
from ..serial.kway import final_rebalance, kway_refine
from ..serial.options import MultilevelOptions
from ..serial.project import project_partition
from .speculative import SpeculativeExecutor

__all__ = ["Gmetis", "GmetisOptions"]


@dataclass(frozen=True)
class GmetisOptions(MultilevelOptions):
    """Knobs of the Gmetis reproduction."""

    num_threads: int = 8
    refine_passes: int = 4

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_threads < 1:
            raise InvalidParameterError("num_threads must be >= 1")
        if self.refine_passes < 1:
            raise InvalidParameterError("refine_passes must be >= 1")


class Gmetis(Engine):
    """Multicore Metis on the optimistic (Galois) execution model."""

    name = "gmetis"
    options_class = GmetisOptions

    # ------------------------------------------------------------------
    def _speculative_match(
        self, graph: CSRGraph, executor: SpeculativeExecutor,
        rng: np.random.Generator, detail: str,
    ):
        """The matching as a Galois iterator: lock v + neighbors, match
        greedily (HEM, LEM or RM, as ``options.matching`` says)."""
        n = graph.num_vertices
        match = np.full(n, -1, dtype=np.int64)
        adjp, adjncy, adjwgt = graph.adjp, graph.adjncy, graph.adjwgt
        scheme = self.options.matching

        def neighborhood(v: int) -> np.ndarray:
            return adjncy[adjp[v]: adjp[v + 1]]

        def body(v: int) -> None:
            if match[v] >= 0:
                return
            s, e = adjp[v], adjp[v + 1]
            nbrs = adjncy[s:e]
            free = match[nbrs] < 0
            if not np.any(free):
                match[v] = v
                return
            if scheme == "hem":
                j = int(np.argmax(np.where(free, adjwgt[s:e], -1)))
            elif scheme == "lem":
                # The first free neighbor of minimal weight, in CSR order.
                idx = np.flatnonzero(free)
                j = int(idx[np.argmin(adjwgt[s:e][idx])])
            else:
                idx = np.where(free)[0]
                j = int(idx[rng.integers(0, idx.shape[0])])
            u = int(nbrs[j])
            match[v] = u
            match[u] = v

        items = rng.permutation(n)
        stats = executor.for_each(items, neighborhood, body, detail=detail)
        left = match < 0
        match[left] = np.where(left)[0]
        return match, stats

    # ------------------------------------------------------------------
    def run_phases(self, graph: CSRGraph, k: int, clock: SimClock) -> PhaseOutput:
        opts = self.options
        trace = Trace()
        executor = SpeculativeExecutor(opts.num_threads, self.machine.cpu, clock)
        rng = np.random.default_rng(opts.seed)

        clock.set_phase("coarsening")
        ladder = CoarseningLadder(graph, opts.coarsen_target(k), trace)
        total_aborts = 0
        for level_idx, current in ladder:
            with clock_span(
                clock, f"level {level_idx}", category="level",
                engine="galois", num_vertices=current.num_vertices,
            ):
                match, sstats = self._speculative_match(
                    current, executor, rng, detail=f"match L{level_idx}"
                )
                total_aborts += sstats.aborted
                coarse, cmap = contract(current, match)
                # Contraction as another speculative loop over coarse vertices.
                clock.charge(
                    "compute",
                    self.machine.cpu.edge_seconds(
                        current.num_directed_edges,
                        avg_degree=2 * current.num_edges / max(1, current.num_vertices),
                    ) / max(1, min(opts.num_threads, self.machine.cpu.num_cores)),
                    count=float(current.num_directed_edges),
                    detail=f"contract L{level_idx}",
                )
            # Aborts play the conflict role.
            ladder.add(coarse, cmap, engine="galois", conflicts=sstats.aborted)
        levels, coarsest = ladder.levels, ladder.coarsest

        clock.set_phase("initpart")
        part = recursive_bisection(coarsest, k, opts.serial_options(), rng=rng)
        sweeps = bisection_sweeps(k)
        clock.charge(
            "compute",
            self.machine.cpu.edge_seconds(sweeps * coarsest.num_directed_edges),
            count=float(sweeps * coarsest.num_directed_edges),
            detail="recursive bisection",
        )

        clock.set_phase("uncoarsening")
        for li in range(len(levels) - 1, -1, -1):
            level = levels[li]
            with clock_span(
                clock, f"level {li}", category="level",
                engine="galois", num_vertices=level.graph.num_vertices,
            ):
                part = project_partition(part, level.cmap)
                cut_before = edge_cut(level.graph, part)
                part, passes = kway_refine(
                    level.graph, part, k, ubfactor=opts.ubfactor,
                    max_passes=opts.refine_passes, rng=rng,
                )
                # Refinement as speculative loops: boundary iterations lock
                # their neighborhoods; the abort tax scales with the boundary
                # connectivity (model it at the measured matching abort rate).
                for pres in passes:
                    clock.charge(
                        "compute",
                        self.machine.cpu.edge_seconds(
                            pres.edge_scans,
                            avg_degree=2 * level.graph.num_edges
                            / max(1, level.graph.num_vertices),
                        ) / max(1, min(opts.num_threads, self.machine.cpu.num_cores))
                        * (1.0 + 2.0 * (total_aborts / max(1, graph.num_vertices))),
                        count=float(pres.edge_scans),
                        detail=f"speculative refine L{li}",
                    )
                    clock.charge(
                        "sync",
                        pres.edge_scans * executor.lock_op_seconds,
                        count=float(pres.edge_scans),
                        detail=f"refine lock traffic L{li}",
                    )
                trace.refinements.append(
                    RefinementRecord(
                        level=li, pass_index=0,
                        moves_proposed=sum(p.moves_proposed for p in passes),
                        moves_committed=sum(p.moves_committed for p in passes),
                        cut_before=cut_before, cut_after=edge_cut(level.graph, part),
                        engine="galois",
                    )
                )

        final_rebalance(graph, part, k, opts.ubfactor)
        return PhaseOutput(
            part,
            trace,
            extras={"num_threads": opts.num_threads, "aborts": total_aborts},
            attrs={"aborts": total_aborts},
        )
