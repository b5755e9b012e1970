"""Graph file I/O.

Supports the two on-disk formats the paper's inputs come in, plus a fast
binary cache:

* **Metis .graph** (DIMACS10 distribution format): header
  ``<n> <m> [fmt [ncon]]``, then one line per vertex listing 1-based
  neighbor ids, optionally preceded by a vertex weight and interleaved
  with edge weights depending on ``fmt``.
* **DIMACS9 .gr** (shortest-path challenge format, USA-road-d): ``c``
  comment lines, one ``p sp <n> <m>`` problem line, and ``a <u> <v> <w>``
  arc lines (1-based).
* **.npz** — numpy binary of the four CSR arrays, for caching generated
  paper-analogue datasets between benchmark runs.
"""

from __future__ import annotations

import io as _io
import os

import numpy as np

from ..exceptions import GraphFormatError
from .build import from_edges
from .csr import CSRGraph

__all__ = [
    "read_metis",
    "write_metis",
    "read_dimacs9",
    "write_dimacs9",
    "save_npz",
    "load_npz",
    "read_graph",
    "write_partition",
    "read_partition",
]


def _open_text(path_or_file, mode: str = "r"):
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return path_or_file, False
    return open(path_or_file, mode), True


def _parse_int(token: str, what: str, minimum: int | None = None) -> int:
    """``int(token)``, or a :class:`GraphFormatError` naming ``what``."""
    try:
        value = int(token)
    except ValueError:
        raise GraphFormatError(f"{what}: {token!r} is not an integer") from None
    if minimum is not None and value < minimum:
        raise GraphFormatError(f"{what}: {value} is below {minimum}")
    return value


# ----------------------------------------------------------------------
# Metis .graph
# ----------------------------------------------------------------------
def read_metis(path_or_file, name: str | None = None) -> CSRGraph:
    """Parse a Metis/DIMACS10 ``.graph`` file."""
    f, should_close = _open_text(path_or_file)
    try:
        header = None
        lines_iter = iter(f)
        for raw in lines_iter:
            line = raw.strip()
            if line and not line.startswith("%"):
                header = line
                break
        if header is None:
            raise GraphFormatError("missing Metis header line")
        fields = header.split()
        if len(fields) < 2:
            raise GraphFormatError(f"bad Metis header: {header!r}")
        n = _parse_int(fields[0], "Metis header vertex count", minimum=0)
        m = _parse_int(fields[1], "Metis header edge count", minimum=0)
        fmt = fields[2] if len(fields) >= 3 else "000"
        fmt = fmt.zfill(3)
        has_vsize, has_vwgt, has_ewgt = fmt[0] == "1", fmt[1] == "1", fmt[2] == "1"
        ncon = (
            _parse_int(fields[3], "Metis header ncon", minimum=1)
            if len(fields) >= 4 else (1 if has_vwgt else 0)
        )

        srcs: list[np.ndarray] = []
        dsts: list[np.ndarray] = []
        wgts: list[np.ndarray] = []
        vwgt = np.ones(n, dtype=np.int64)
        v = 0
        for raw in lines_iter:
            line = raw.strip()
            if line.startswith("%"):
                continue
            if v >= n:
                if line:
                    raise GraphFormatError("more vertex lines than header n")
                continue
            try:
                tok = np.array(line.split(), dtype=np.int64)
            except (ValueError, OverflowError):
                raise GraphFormatError(
                    f"vertex {v + 1}: non-integer token in {line!r}"
                ) from None
            pos = 0
            if has_vsize:
                pos += 1  # vertex size (communication volume) — ignored
            if has_vwgt:
                if tok.shape[0] < pos + ncon:
                    raise GraphFormatError(f"vertex {v + 1}: missing vertex weight")
                vwgt[v] = tok[pos]  # first constraint only (paper is 1-constraint)
                pos += ncon
            rest = tok[pos:]
            if has_ewgt:
                if rest.shape[0] % 2:
                    raise GraphFormatError(f"vertex {v + 1}: odd neighbor/weight list")
                nbrs = rest[0::2] - 1
                ws = rest[1::2]
            else:
                nbrs = rest - 1
                ws = np.ones(rest.shape[0], dtype=np.int64)
            if nbrs.size and (nbrs.min() < 0 or nbrs.max() >= n):
                raise GraphFormatError(f"vertex {v + 1}: neighbor id out of range")
            srcs.append(np.full(nbrs.shape[0], v, dtype=np.int64))
            dsts.append(nbrs)
            wgts.append(ws)
            v += 1
        if v != n:
            raise GraphFormatError(f"expected {n} vertex lines, found {v}")
        src = np.concatenate(srcs) if srcs else np.empty(0, np.int64)
        dst = np.concatenate(dsts) if dsts else np.empty(0, np.int64)
        w = np.concatenate(wgts) if wgts else np.empty(0, np.int64)
        g = from_edges(
            n,
            np.stack([src, dst], axis=1) if src.size else np.empty((0, 2), np.int64),
            weights=w if w.size else None,
            vertex_weights=vwgt,
            name=name or _name_of(path_or_file),
            merge="first",
        )
        if g.num_edges != m:
            # Tolerate the common off-by-duplicate in the wild but flag a
            # hard mismatch, which indicates a truncated file.
            if abs(g.num_edges - m) > m * 0.01 + 2:
                raise GraphFormatError(
                    f"header says {m} edges, file contains {g.num_edges}"
                )
        return g
    finally:
        if should_close:
            f.close()


def write_metis(graph: CSRGraph, path_or_file) -> None:
    """Write a Metis ``.graph`` file (with edge + vertex weights)."""
    f, should_close = _open_text(path_or_file, "w")
    try:
        has_vwgt = bool(np.any(graph.vwgt != 1))
        has_ewgt = bool(np.any(graph.adjwgt != 1))
        fmt = f"0{int(has_vwgt)}{int(has_ewgt)}"
        f.write(f"{graph.num_vertices} {graph.num_edges} {fmt}\n")
        buf = _io.StringIO()
        for v in range(graph.num_vertices):
            parts: list[str] = []
            if has_vwgt:
                parts.append(str(int(graph.vwgt[v])))
            nbrs = graph.neighbors(v)
            ws = graph.edge_weights(v)
            if has_ewgt:
                for u, w in zip(nbrs, ws):
                    parts.append(str(int(u) + 1))
                    parts.append(str(int(w)))
            else:
                parts.extend(str(int(u) + 1) for u in nbrs)
            buf.write(" ".join(parts))
            buf.write("\n")
        f.write(buf.getvalue())
    finally:
        if should_close:
            f.close()


# ----------------------------------------------------------------------
# DIMACS9 .gr
# ----------------------------------------------------------------------
def read_dimacs9(path_or_file, name: str | None = None) -> CSRGraph:
    """Parse a DIMACS9 shortest-path ``.gr`` file (arc list)."""
    f, should_close = _open_text(path_or_file)
    try:
        n = None
        us: list[int] = []
        vs: list[int] = []
        ws: list[int] = []
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            if line.startswith("p"):
                tok = line.split()
                if len(tok) < 4 or tok[1] != "sp":
                    raise GraphFormatError(f"bad problem line: {line!r}")
                n = _parse_int(tok[2], "problem line vertex count", minimum=0)
            elif line.startswith("a"):
                if n is None:
                    raise GraphFormatError("arc line before problem line")
                tok = line.split()
                if len(tok) != 4:
                    raise GraphFormatError(f"bad arc line: {line!r}")
                us.append(_parse_int(tok[1], "arc tail") - 1)
                vs.append(_parse_int(tok[2], "arc head") - 1)
                ws.append(_parse_int(tok[3], "arc weight"))
            else:
                raise GraphFormatError(f"unrecognized line: {line!r}")
        if n is None:
            raise GraphFormatError("missing problem line")
        edges = np.stack(
            [np.asarray(us, dtype=np.int64), np.asarray(vs, dtype=np.int64)], axis=1
        ) if us else np.empty((0, 2), np.int64)
        w = np.maximum(1, np.asarray(ws, dtype=np.int64)) if ws else None
        return from_edges(
            n, edges, weights=w, name=name or _name_of(path_or_file), merge="first"
        )
    finally:
        if should_close:
            f.close()


def write_dimacs9(graph: CSRGraph, path_or_file, comment: str = "") -> None:
    """Write a DIMACS9 ``.gr`` file (both arc directions, as the originals)."""
    f, should_close = _open_text(path_or_file, "w")
    try:
        if comment:
            f.write(f"c {comment}\n")
        f.write(f"p sp {graph.num_vertices} {graph.num_directed_edges}\n")
        src = graph.source_array()
        buf = _io.StringIO()
        for u, v, w in zip(src, graph.adjncy, graph.adjwgt):
            buf.write(f"a {int(u) + 1} {int(v) + 1} {int(w)}\n")
        f.write(buf.getvalue())
    finally:
        if should_close:
            f.close()


# ----------------------------------------------------------------------
# Binary cache
# ----------------------------------------------------------------------
def save_npz(graph: CSRGraph, path) -> None:
    np.savez_compressed(
        path,
        adjp=graph.adjp,
        adjncy=graph.adjncy,
        adjwgt=graph.adjwgt,
        vwgt=graph.vwgt,
        name=np.array(graph.name),
    )


def load_npz(path) -> CSRGraph:
    with np.load(path, allow_pickle=False) as z:
        return CSRGraph(
            adjp=z["adjp"],
            adjncy=z["adjncy"],
            adjwgt=z["adjwgt"],
            vwgt=z["vwgt"],
            name=str(z["name"]),
        )


def read_graph(path) -> CSRGraph:
    """Dispatch on extension: .graph/.metis -> Metis, .gr -> DIMACS9, .npz."""
    ext = os.path.splitext(str(path))[1].lower()
    if ext in (".graph", ".metis"):
        return read_metis(path)
    if ext == ".gr":
        return read_dimacs9(path)
    if ext == ".npz":
        return load_npz(path)
    raise GraphFormatError(f"unrecognized graph file extension: {ext!r}")


# ----------------------------------------------------------------------
# Partition vectors (Metis .part format: one label per line)
# ----------------------------------------------------------------------
def write_partition(part, path_or_file) -> None:
    """Write a partition vector in Metis ``.part`` format."""
    f, should_close = _open_text(path_or_file, "w")
    try:
        f.write("\n".join(str(int(p)) for p in part))
        f.write("\n")
    finally:
        if should_close:
            f.close()


def read_partition(path_or_file) -> np.ndarray:
    """Read a Metis ``.part`` file into a label array."""
    f, should_close = _open_text(path_or_file)
    try:
        labels = [int(line) for line in f if line.strip()]
    except ValueError as exc:
        raise GraphFormatError(f"bad partition file: {exc}") from None
    finally:
        if should_close:
            f.close()
    return np.asarray(labels, dtype=np.int64)


def _name_of(path_or_file) -> str:
    if hasattr(path_or_file, "read") or hasattr(path_or_file, "write"):
        return getattr(path_or_file, "name", "stream")
    return os.path.splitext(os.path.basename(str(path_or_file)))[0]
