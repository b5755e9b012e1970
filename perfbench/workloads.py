"""The benchmark's workloads: inputs from a seed, the timed call, checks.

Every workload reaches the program only through its public API
(``repro.partition``, ``repro.graphs.datasets.load_dataset``,
``repro.service.PartitionService`` with ``repro.service.loadgen``) and
reads results only from ``PartitionResult`` and ``Ticket``.

A run's seed makes several inputs (:func:`input_seeds`), so one unusual
graph moves a run's figures by a fraction only.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

import repro
from repro.exceptions import ServiceOverloadedError
from repro.graphs import datasets
from repro.graphs.metrics import evaluate_partition
from repro.service import PartitionService, loadgen

#: The paper's evaluation settings (Tables II and III, Fig. 5).
K = 64
UBFACTOR = 1.03


@dataclass
class Partition:
    """One partition vector the program returned, with what it was asked."""

    label: str
    method: str
    graph: object
    k: int
    ubfactor: float
    result: object


@dataclass
class Op:
    """One timed call of a workload and what it returned."""

    wall_s: float
    partitions: list[Partition]
    method_wall_s: dict[str, float] = field(default_factory=dict)
    tickets: list = field(default_factory=list)
    resubmissions: int = 0


def input_seeds(seed: int, count: int) -> list[int]:
    """The seeds of a run's ``count`` inputs; distinct run seeds give
    disjoint sets."""
    return [seed * count + i for i in range(count)]


def digest(part) -> str:
    """sha256 of a partition vector's labels, taken as int64 values."""
    labels = np.ascontiguousarray(np.asarray(part), dtype=np.int64)
    return hashlib.sha256(labels.tobytes()).hexdigest()


def check_partition(p: Partition) -> tuple[str | None, int | None]:
    """``(error, edge cut)``: a valid vector has n labels in [0, k) and
    imbalance within the requested factor."""
    part = np.asarray(p.result.part)
    n = p.graph.num_vertices
    if part.shape != (n,):
        return f"{p.label}: {part.shape} labels for {n} vertices", None
    if n and (part.min() < 0 or part.max() >= p.k):
        return f"{p.label}: labels outside [0, {p.k})", None
    quality = evaluate_partition(p.graph, part, p.k)
    if quality.imbalance > p.ubfactor + 1e-9:
        return (
            f"{p.label}: imbalance {quality.imbalance:.4f} > {p.ubfactor}",
            quality.cut,
        )
    return None, quality.cut


class Checker:
    """Checks every op's outputs and compares each repeat on an input
    with the first op on that input."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []
        self.first: dict[int, dict] = {}

    def examine(self, op: Op, key: int) -> dict:
        """Validate one op on input ``key``; returns its outputs (per
        configuration: digest, edge cut, modeled seconds; per request:
        latency and cache outcome), which every later op on that input
        must repeat exactly."""
        self.attempted += len(op.tickets) if op.tickets else len(op.partitions)
        self.errors += [
            f"{t.engine} request {t.seq}: {t.status} ({t.error})"
            for t in op.tickets
            if t.status != "served"
        ]
        outputs = {"digest": {}, "edge_cut": {}, "modeled_s": {}, "method": {}}
        for p in op.partitions:
            error, cut = check_partition(p)
            if error:
                self.errors.append(error)
            d = digest(p.result.part)
            if outputs["digest"].setdefault(p.label, d) != d:
                self.errors.append(f"{p.label}: two different vectors in one op")
            outputs["edge_cut"][p.label] = cut
            outputs["modeled_s"][p.label] = p.result.modeled_seconds
            outputs["method"][p.label] = p.method
        if op.tickets:
            outputs["latency"] = [t.latency for t in op.tickets]
            outputs["cache"] = [t.cache for t in op.tickets]
        first = self.first.setdefault(key, outputs)
        self.errors += [
            f"input {key}: {name} differs between repeats"
            for name, value in outputs.items()
            if value != first[name]
        ]
        return outputs

    @property
    def failed(self) -> int:
        return min(len(self.errors), self.attempted)


def gp_totals(outputs: dict) -> tuple[float, int]:
    """GP-metis modeled seconds and edge cut, summed over the workload's
    distinct GP-metis configurations."""
    labels = [label for label, m in outputs["method"].items() if m == "gp-metis"]
    return (
        sum(outputs["modeled_s"][label] for label in labels),
        # An invalid vector has no cut; its run already fails.
        sum(outputs["edge_cut"][label] or 0 for label in labels),
    )


def latency_report(outputs: dict) -> dict[str, tuple[float, int]]:
    """Simulated request latencies from the tickets: ``{name: (seconds,
    samples)}`` for the p95 over all requests and the p50 over misses."""
    latency = np.array(outputs["latency"])
    misses = latency[np.array(outputs["cache"]) == "miss"]
    return {
        "latency_p95_s": (float(np.percentile(latency, 95)), latency.size),
        "miss_latency_p50_s": (float(np.percentile(misses, 50)), misses.size),
    }


@dataclass(frozen=True)
class GraphWorkload:
    """The given methods back to back on one paper-dataset analogue."""

    name: str
    why: str
    dataset: str
    scale: float
    methods: tuple[str, ...]
    #: Seeded graphs per run; each is partitioned with its own seed.
    inputs: int
    #: Layers that must record at least one call in the traced run.
    layers: tuple[str, ...]

    def build(self, seed: int) -> list[tuple[int, object]]:
        """``[(input seed, graph)]`` for the run seed ``seed``."""
        return [
            (s, datasets.load_dataset(self.dataset, scale=self.scale, seed=s))
            for s in input_seeds(seed, self.inputs)
        ]

    def warm_up(self, seed: int) -> None:
        tiny = datasets.load_dataset("delaunay", scale=0.002, seed=seed)
        for method in self.methods:
            # A low GPU threshold, so the tiny graph takes the GPU path too.
            extra = {"gpu_threshold_min": 256} if method == "gp-metis" else {}
            repro.partition(tiny, 4, method=method, seed=seed, **extra)

    def run(self, graph, seed: int) -> Op:
        partitions, walls = [], {}
        start = time.perf_counter()
        for method in self.methods:
            t0 = time.perf_counter()
            result = repro.partition(
                graph, K, method=method, seed=seed, ubfactor=UBFACTOR
            )
            walls[method] = time.perf_counter() - t0
            partitions.append(Partition(method, method, graph, K, UBFACTOR, result))
        return Op(time.perf_counter() - start, partitions, walls)

    def verify(self, op: Op) -> list[str]:
        return []


@dataclass(frozen=True)
class ServiceWorkload:
    """The standard mixed request stream through one PartitionService.

    One client submits the whole batch and drains when a lane pushes
    back, so the loop is closed; the workers are simulated.
    """

    name: str
    why: str
    requests: int
    graph_n: int
    num_workers: int
    #: Seeded request streams per run.
    inputs: int
    layers: tuple[str, ...]

    def build(self, seed: int) -> list[tuple[int, list]]:
        """``[(input seed, requests)]`` for the run seed ``seed``."""
        built = []
        for s in input_seeds(seed, self.inputs):
            requests = loadgen.build_workload(
                loadgen.WorkloadSpec(requests=self.requests, graph_n=self.graph_n, seed=s)
            )
            for request in requests:
                # The cache key hashes the graph's arrays once per graph
                # object; that belongs to the input, not to every timed call.
                request.graph.content_digest
            built.append((s, requests))
        return built

    def warm_up(self, seed: int) -> None:
        tiny = loadgen.build_workload(
            loadgen.WorkloadSpec(requests=48, graph_n=300, seed=seed)
        )
        PartitionService(num_workers=self.num_workers).serve(tiny)

    def run(self, requests, seed: int) -> Op:
        service = PartitionService(num_workers=self.num_workers)
        tickets, resubmissions = [], 0
        start = time.perf_counter()
        for request in requests:
            try:
                tickets.append(service.submit(request))
            except ServiceOverloadedError:
                service.drain()
                resubmissions += 1
                tickets.append(service.submit(request))
        service.drain()
        wall = time.perf_counter() - start
        partitions = [
            Partition(
                label=_request_label(t.request),
                method=t.engine,
                graph=t.request.graph,
                k=t.request.k,
                ubfactor=t.request.engine_options().ubfactor,
                result=t.result,
            )
            for t in tickets
            if t.result is not None
        ]
        return Op(wall, partitions, tickets=tickets, resubmissions=resubmissions)

    def verify(self, op: Op) -> list[str]:
        """One direct ``PartitionRequest.run()`` per served configuration
        must return the vector and modeled seconds the service served."""
        errors, direct = [], {}
        for ticket in op.tickets:
            if ticket.result is None:
                continue  # already counted as failed by the Checker
            if ticket.fingerprint not in direct:
                direct[ticket.fingerprint] = ticket.request.run()
            ref = direct[ticket.fingerprint]
            if not np.array_equal(ref.part, ticket.result.part) or (
                ref.modeled_seconds != ticket.result.modeled_seconds
            ):
                errors.append(
                    f"{_request_label(ticket.request)}: served result differs "
                    "from a direct run"
                )
        return errors


def _request_label(request) -> str:
    return (
        f"{request.engine} {request.graph.name} k={request.k} "
        f"seed={request.effective_seed}"
    )


_GP = (
    "graphs.load_dataset", "graphs.edge_cut",
    "gpmetis.gpu_match", "gpmetis.gpu_build_cmap", "gpmetis.gpu_contract",
    "gpmetis.gpu_project", "gpmetis.gpu_refine_level",
    "gpmetis.propose_moves", "gpmetis.commit_moves",
    "gpusim.warp_transactions", "gpusim.transfer",
    "mtmetis.initpart", "serial.kway_connectivity",
    "obs.profile_run", "obs.finish_run",
)

WORKLOADS = {
    w.name: w
    for w in (
        GraphWorkload(
            name="gp-ldoor",
            why="dense FE rows (degree 47) make refinement's boundary x k "
            "connectivity the hot path; refinement and gpusim changes show here",
            dataset="ldoor",
            scale=0.01,
            methods=("gp-metis",),
            inputs=6,
            layers=_GP,
        ),
        GraphWorkload(
            name="paper-delaunay",
            why="one Table II/III row: metis, parmetis, mt-metis and gp-metis at "
            "k = 64, each dominated by a different layer",
            dataset="delaunay",
            scale=0.02,
            methods=("metis", "parmetis", "mt-metis", "gp-metis"),
            inputs=3,
            layers=_GP + (
                "serial.coarsen", "serial.initpart", "serial.refine",
                "parmetis.ghost_exchange", "parmetis.coarsen",
                "parmetis.initpart", "parmetis.refine",
                "mtmetis.coarsen", "mtmetis.lockfree_match",
                "mtmetis.uncoarsen", "mtmetis.propose_moves",
            ),
        ),
        ServiceWorkload(
            name="service-mix",
            why="200 small mixed requests on 4 simulated workers: cache hits, "
            "batching and per-run fixed costs beside engine runs",
            requests=200,
            graph_n=4000,
            num_workers=4,
            inputs=2,
            layers=(
                "service.submit", "service.drain", "service.engine_run",
                "obs.profile_run", "obs.finish_run", "graphs.edge_cut",
            ),
        ),
    )
}
