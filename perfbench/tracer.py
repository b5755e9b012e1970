"""Spans around the program's layers, recorded from outside the program.

The benchmark does not edit ``src/``: it wraps the functions each layer
exposes, for the duration of a traced run, and restores them afterwards.
A name is patched where its caller looks it up.  ``from x import f``
copies the binding into the importing module, so patching only ``x.f``
would miss every caller that imported it by name.

Each span is ``[name, start_ns, end_ns, parent_index]`` and is kept in
memory; :meth:`Tracer.dump` writes them out when the run ends.  A span's
self time is its duration minus the durations of its child spans, so the
self times over one root's subtree sum exactly to the root's duration.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: (span name, module the caller looks the name up in, attribute).
CALLER_BINDINGS = (
    ("graphs.load_dataset", "repro.graphs.datasets", "load_dataset"),
    ("gpmetis.gpu_match", "repro.gpmetis.hybrid", "gpu_match"),
    ("gpmetis.gpu_build_cmap", "repro.gpmetis.hybrid", "gpu_build_cmap"),
    ("gpmetis.gpu_contract", "repro.gpmetis.hybrid", "gpu_contract"),
    ("gpmetis.gpu_project", "repro.gpmetis.hybrid", "gpu_project"),
    ("gpmetis.gpu_refine_level", "repro.gpmetis.hybrid", "gpu_refine_level"),
    ("gpmetis.propose_moves", "repro.gpmetis.kernels.refinement", "propose_moves"),
    ("gpmetis.commit_moves", "repro.gpmetis.kernels.refinement", "commit_moves"),
    ("gpusim.warp_transactions", "repro.gpusim.device", "warp_transactions"),
    ("gpusim.transfer", "repro.gpmetis.hybrid", "transfer_graph_to_device"),
    ("gpusim.transfer", "repro.gpmetis.hybrid", "h2d"),
    ("gpusim.transfer", "repro.gpmetis.hybrid", "d2h"),
    ("gpusim.transfer", "repro.gpmetis.hybrid", "h2d_async"),
    ("gpusim.transfer", "repro.gpmetis.hybrid", "d2h_async"),
    ("mtmetis.initpart", "repro.gpmetis.hybrid", "parallel_recursive_bisection"),
    ("mtmetis.initpart", "repro.mtmetis.partitioner", "parallel_recursive_bisection"),
    ("mtmetis.lockfree_match", "repro.mtmetis.partitioner", "lockfree_match"),
    ("mtmetis.propose_moves", "repro.mtmetis.refinement", "propose_moves"),
    ("serial.kway_connectivity", "repro.serial.kway", "kway_connectivity"),
    ("serial.kway_connectivity", "repro.mtmetis.refinement", "kway_connectivity"),
    ("serial.coarsen", "repro.serial.partitioner", "coarsen_graph"),
    ("serial.initpart", "repro.serial.partitioner", "recursive_bisection"),
    ("serial.refine", "repro.serial.partitioner", "kway_refine"),
    ("parmetis.coarsen", "repro.parmetis.partitioner", "distributed_coarsen"),
    ("parmetis.initpart", "repro.parmetis.partitioner", "distributed_initial_partition"),
    ("parmetis.refine", "repro.parmetis.partitioner", "distributed_refine_level"),
)

#: (span name, defining module, attribute): helpers every engine imports
#: by name, patched in the defining module and in every loaded ``repro``
#: module bound to the same function.
SHARED_FUNCTIONS = (
    ("graphs.edge_cut", "repro.graphs.metrics", "edge_cut"),
    ("obs.profile_run", "repro.obs.hooks", "profile_run"),
    ("obs.finish_run", "repro.obs.hooks", "finish_run"),
)

#: (span name, module, class, method, only inside this span or None).
#: ``PartitionRequest.run`` is also what ``repro.partition`` calls, so it
#: counts as a service engine run only when a drain called it.
METHODS = (
    ("mtmetis.coarsen", "repro.mtmetis.partitioner", "MtMetis", "coarsen", None),
    ("mtmetis.uncoarsen", "repro.mtmetis.partitioner", "MtMetis", "uncoarsen", None),
    ("parmetis.ghost_exchange", "repro.parmetis.distgraph", "DistGraph",
     "ghost_exchange_payload", None),
    ("service.submit", "repro.service.scheduler", "PartitionService", "submit", None),
    ("service.drain", "repro.service.scheduler", "PartitionService", "drain", None),
    ("service.engine_run", "repro.service.request", "PartitionRequest", "run",
     "service.drain"),
)


def span_names() -> list[str]:
    """Every span name the tracer can record, in table order."""
    names = [entry[0] for entry in CALLER_BINDINGS + SHARED_FUNCTIONS + METHODS]
    return list(dict.fromkeys(names))


class Tracer:
    """Installs the layer wrappers while entered and records their spans."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, name: str, fn, inside: str | None = None):
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if inside is not None and (not open_ or spans[open_[-1]][0] != inside):
                return fn(*args, **kwargs)
            record = [name, clock(), 0, open_[-1] if open_ else -1]
            open_.append(len(spans))
            spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                open_.pop()

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for name, module, attr in CALLER_BINDINGS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._wrap(name, getattr(owner, attr)))
        for name, module, attr in SHARED_FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) and (
                    getattr(mod, attr, None) is original
                ):
                    self._patch(mod, attr, wrapper)
        for name, module, cls_name, attr, inside in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            self._patch(cls, attr, self._wrap(name, getattr(cls, attr), inside))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    @contextmanager
    def root(self, name: str):
        """A top-level span opened by the benchmark itself; yields its index."""
        if self._open:
            raise RuntimeError(f"root span {name!r} opened inside another span")
        record = [name, time.perf_counter_ns(), 0, -1]
        index = len(self.spans)
        self._open.append(index)
        self.spans.append(record)
        try:
            yield index
        finally:
            record[2] = time.perf_counter_ns()
            self._open.pop()

    def duration_ns(self, index: int) -> int:
        _, start, end, _ = self.spans[index]
        return end - start

    def layers(self, root: int) -> dict[str, tuple[int, int]]:
        """``{span name: (self ns, calls)}`` over the subtree of ``root``.

        Spans are appended in call order on one thread, so a root's
        subtree is the contiguous run of spans up to the next root.
        """
        end = root + 1
        while end < len(self.spans) and self.spans[end][3] != -1:
            end += 1
        self_ns = {i: self.duration_ns(i) for i in range(root, end)}
        for i in range(root + 1, end):
            self_ns[self.spans[i][3]] -= self.duration_ns(i)
        totals: dict[str, tuple[int, int]] = {}
        for i in range(root, end):
            name = self.spans[i][0]
            ns, calls = totals.get(name, (0, 0))
            totals[name] = (ns + self_ns[i], calls + 1)
        return totals

    def dump(self, path: Path) -> None:
        """Write every span as JSON: ``{"spans": [[name, start, end, parent]]}``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans}, separators=(",", ":")))
