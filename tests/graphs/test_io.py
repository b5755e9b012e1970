"""Unit tests for graph file I/O (Metis .graph, DIMACS9 .gr, npz)."""

import io

import numpy as np
import pytest

from repro.exceptions import GraphFormatError
from repro.graphs import (
    from_edges,
    generators,
    load_npz,
    read_dimacs9,
    read_graph,
    read_metis,
    save_npz,
    write_dimacs9,
    write_metis,
)


class TestMetisFormat:
    def test_read_simple(self):
        text = "3 2\n2 3\n1\n1\n"
        g = read_metis(io.StringIO(text))
        g.validate()
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_read_with_edge_weights(self):
        text = "2 1 001\n2 7\n1 7\n"
        g = read_metis(io.StringIO(text))
        assert g.edge_weights(0).tolist() == [7]

    def test_read_with_vertex_weights(self):
        text = "2 1 011\n5 2 7\n6 1 7\n"
        g = read_metis(io.StringIO(text))
        assert g.vwgt.tolist() == [5, 6]
        assert g.edge_weights(0).tolist() == [7]

    def test_comments_skipped(self):
        text = "% header comment\n3 2\n% mid comment\n2\n1 3\n2\n"
        g = read_metis(io.StringIO(text))
        assert g.num_edges == 2

    def test_isolated_vertex_line(self):
        text = "3 1\n2\n1\n\n"
        g = read_metis(io.StringIO(text))
        assert g.degree(2) == 0

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="header"):
            read_metis(io.StringIO("% only comments\n"))

    def test_truncated_file(self):
        with pytest.raises(GraphFormatError, match="vertex lines"):
            read_metis(io.StringIO("3 2\n2\n"))

    def test_neighbor_out_of_range(self):
        with pytest.raises(GraphFormatError, match="out of range"):
            read_metis(io.StringIO("2 1\n9\n1\n"))

    def test_odd_weight_list(self):
        with pytest.raises(GraphFormatError, match="odd"):
            read_metis(io.StringIO("2 1 001\n2\n1 7\n"))

    @pytest.mark.parametrize(
        "text,match",
        [("abc 3\n", "vertex count: 'abc'"),
         ("2 1\n2 x\n1\n", "vertex 1: non-integer"),
         ("2 1\n2.5\n1\n", "vertex 1: non-integer"),
         ("2 1 011 x\n5 2 7\n6 1 7\n", "ncon: 'x'"),
         ("-1 0\n", "vertex count: -1")],
        ids=["header", "vertex-token", "vertex-float", "ncon", "negative-n"],
    )
    def test_malformed_numbers(self, text, match):
        with pytest.raises(GraphFormatError, match=match):
            read_metis(io.StringIO(text))

    def test_roundtrip_unweighted(self, grid, tmp_path):
        p = tmp_path / "g.graph"
        write_metis(grid, p)
        back = read_metis(p)
        assert np.array_equal(back.adjncy, grid.adjncy)
        assert np.array_equal(back.adjp, grid.adjp)

    def test_roundtrip_weighted(self, weighted_graph, tmp_path):
        p = tmp_path / "w.graph"
        write_metis(weighted_graph, p)
        back = read_metis(p)
        assert np.array_equal(back.adjwgt, weighted_graph.adjwgt)

    def test_roundtrip_vertex_weights(self, tmp_path):
        g = from_edges(3, [(0, 1), (1, 2)], vertex_weights=[3, 1, 2])
        p = tmp_path / "vw.graph"
        write_metis(g, p)
        back = read_metis(p)
        assert back.vwgt.tolist() == [3, 1, 2]


class TestDimacs9Format:
    def test_read_simple(self):
        text = "c comment\np sp 3 4\na 1 2 10\na 2 1 10\na 2 3 5\na 3 2 5\n"
        g = read_dimacs9(io.StringIO(text))
        g.validate()
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.edge_weights(0).tolist() == [10]

    def test_one_directional_arcs_undirected(self):
        g = read_dimacs9(io.StringIO("p sp 2 1\na 1 2 3\n"))
        assert g.num_edges == 1

    def test_arc_before_problem_line(self):
        with pytest.raises(GraphFormatError, match="before problem"):
            read_dimacs9(io.StringIO("a 1 2 3\n"))

    def test_bad_problem_line(self):
        with pytest.raises(GraphFormatError, match="problem"):
            read_dimacs9(io.StringIO("p xx 3 4\n"))

    def test_unknown_line(self):
        with pytest.raises(GraphFormatError, match="unrecognized"):
            read_dimacs9(io.StringIO("p sp 2 1\nz 1 2\n"))

    @pytest.mark.parametrize(
        "text,match",
        [("p sp x 3\n", "vertex count: 'x'"),
         ("p sp 2 1\na 1 b 3\n", "arc head: 'b'"),
         ("p sp -2 1\n", "vertex count: -2")],
        ids=["problem-token", "arc-token", "negative-n"],
    )
    def test_malformed_numbers(self, text, match):
        with pytest.raises(GraphFormatError, match=match):
            read_dimacs9(io.StringIO(text))

    def test_roundtrip(self, weighted_graph, tmp_path):
        p = tmp_path / "g.gr"
        write_dimacs9(weighted_graph, p, comment="roundtrip")
        back = read_dimacs9(p)
        assert np.array_equal(back.adjncy, weighted_graph.adjncy)
        assert np.array_equal(back.adjwgt, weighted_graph.adjwgt)


class TestNpz:
    def test_roundtrip(self, medium_graph, tmp_path):
        p = tmp_path / "g.npz"
        save_npz(medium_graph, p)
        back = load_npz(p)
        assert back.name == medium_graph.name
        assert np.array_equal(back.adjp, medium_graph.adjp)
        assert np.array_equal(back.adjncy, medium_graph.adjncy)


class TestPartitionFiles:
    def test_roundtrip(self, tmp_path):
        from repro.graphs import read_partition, write_partition

        p = tmp_path / "g.part"
        part = np.array([0, 5, 2, 2, 1])
        write_partition(part, p)
        assert np.array_equal(read_partition(p), part)

    def test_blank_lines_skipped(self):
        from repro.graphs import read_partition

        assert read_partition(io.StringIO("1\n\n2\n")).tolist() == [1, 2]

    def test_garbage_rejected(self):
        from repro.graphs import read_partition

        with pytest.raises(GraphFormatError, match="partition"):
            read_partition(io.StringIO("1\nxyz\n"))


class TestDispatch:
    def test_by_extension(self, grid, tmp_path):
        for ext, writer in ((".graph", write_metis), (".gr", write_dimacs9)):
            p = tmp_path / f"g{ext}"
            writer(grid, p)
            back = read_graph(p)
            assert back.num_edges == grid.num_edges
        p = tmp_path / "g.npz"
        save_npz(grid, p)
        assert read_graph(p).num_edges == grid.num_edges

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(GraphFormatError, match="extension"):
            read_graph(tmp_path / "g.xyz")
