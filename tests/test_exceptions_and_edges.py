"""Error-taxonomy tests and cross-cutting edge cases (failure injection)."""

from dataclasses import replace

import numpy as np
import pytest

import repro
from repro.api import make_partitioner, partition
from repro.exceptions import (
    CommunicationError,
    DeviceMemoryError,
    GraphFormatError,
    InvalidGraphError,
    InvalidParameterError,
    KernelLaunchError,
    PartitioningError,
    ReproError,
)
from repro.graphs import from_edges, generators, validate_partition


class TestTaxonomy:
    @pytest.mark.parametrize(
        "exc",
        [
            GraphFormatError,
            InvalidGraphError,
            PartitioningError,
            InvalidParameterError,
            DeviceMemoryError,
            KernelLaunchError,
            CommunicationError,
        ],
    )
    def test_all_derive_from_base(self, exc):
        assert issubclass(exc, ReproError)

    def test_parameter_error_is_valueerror(self):
        assert issubclass(InvalidParameterError, ValueError)

    def test_device_memory_error_is_memoryerror(self):
        assert issubclass(DeviceMemoryError, MemoryError)

    def test_catchable_at_api_boundary(self, grid):
        with pytest.raises(ReproError):
            partition(grid, 0)
        with pytest.raises(ReproError):
            partition(grid, 4, method="nonsense")

    @pytest.mark.parametrize("k", [0, -1, 2.0, True])
    @pytest.mark.parametrize("method", repro.available_methods())
    def test_engine_rejects_bad_k(self, grid, method, k):
        """Engines called directly, without a request in front, reject a
        part count that is not an integer >= 1 before doing any work."""
        with pytest.raises(InvalidParameterError, match="k must be"):
            make_partitioner(method).partition(grid, k)


class TestDegenerateInputs:
    @pytest.mark.parametrize(
        "method", ["metis", "mt-metis", "parmetis", "gp-metis", "pt-scotch", "jostle"]
    )
    def test_single_vertex(self, method):
        g = from_edges(1, [])
        res = partition(g, 1, method=method)
        assert res.part.tolist() == [0]

    @pytest.mark.parametrize("method", ["metis", "mt-metis", "gp-metis"])
    def test_two_vertices_two_parts(self, method):
        g = from_edges(2, [(0, 1)])
        res = partition(g, 2, method=method)
        assert sorted(res.part.tolist()) == [0, 1]

    @pytest.mark.parametrize("method", ["metis", "mt-metis", "gp-metis"])
    def test_no_edges(self, method):
        g = from_edges(20, [])
        res = partition(g, 4, method=method)
        counts = np.bincount(res.part, minlength=4)
        assert counts.max() <= 6  # roughly balanced isolated vertices

    @pytest.mark.parametrize(
        "method",
        ["metis", "parmetis", "mt-metis", "gp-metis", "pt-scotch", "jostle", "gmetis"],
    )
    def test_no_edges_above_coarsening_target(self, method):
        """A level that matches nothing shrinks the graph by exactly 0, so
        the shrink-stall exit must end coarsening after that one level."""
        g = from_edges(3000, [])
        res = partition(g, 4, method=method)
        validate_partition(g, res.part, 4, ubfactor=1.03)
        assert [lv.matched_pairs for lv in res.trace.levels] == [0]

    def test_k_equals_n(self):
        g = generators.cycle_graph(12)
        res = partition(g, 12, method="metis")
        assert len(set(res.part.tolist())) == 12

    def test_heavy_single_vertex(self):
        """One vertex heavier than the ideal partition weight: balance is
        impossible, but the partitioner must still terminate validly."""
        g = from_edges(
            10,
            [(i, i + 1) for i in range(9)],
            vertex_weights=[50] + [1] * 9,
        )
        res = partition(g, 4, method="metis")
        assert res.part.shape[0] == 10
        assert res.part.min() >= 0 and res.part.max() < 4

    def test_parallel_star_graph(self):
        """Stars are adversarial for matching (the center saturates)."""
        g = generators.star_graph(200)
        for method in ("mt-metis", "gp-metis"):
            res = partition(g, 4, method=method)
            assert res.part.shape[0] == 200

    def test_path_graph_high_k(self):
        g = generators.path_graph(64)
        res = partition(g, 16, method="gp-metis")
        # A path's optimal 16-cut is 15; any sane result is close.
        assert res.quality(g).cut <= 30

    @pytest.mark.parametrize("method", repro.available_methods())
    def test_empty_graph(self, method):
        """Zero vertices: an empty label array, not a crash."""
        g = from_edges(0, [])
        res = partition(g, 1, method=method)
        assert res.part.shape == (0,)
        assert res.part.dtype == np.int64

    @pytest.mark.parametrize("method", repro.available_methods())
    def test_k_equals_one(self, method):
        """k=1 is trivially everything-in-partition-0 for every method."""
        g = generators.cycle_graph(10)
        res = partition(g, 1, method=method)
        assert res.part.tolist() == [0] * 10
        assert res.quality(g).cut == 0

    @pytest.mark.parametrize("method", repro.available_methods())
    def test_k_exceeds_n(self, method):
        """More parts than vertices: labels stay valid (< k), every vertex
        gets one, and no method crashes on the inevitable empty parts."""
        g = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        res = partition(g, 9, method=method)
        assert res.part.shape == (5,)
        assert res.part.min() >= 0 and res.part.max() < 9
        # n distinct singleton parts is the best any method can do.
        assert len(set(res.part.tolist())) == 5

    @pytest.mark.parametrize("method", repro.available_methods())
    def test_all_edge_weights_zero(self, method):
        """`from_edges` rejects weight 0 but the engines accept it: a graph
        whose arcs all weigh 0 has a boundary and no (vertex, partition)
        connectivity pair, and refinement must propose nothing from it."""
        g = generators.delaunay(400, seed=3)
        g = replace(g, adjwgt=np.zeros_like(g.adjwgt))
        res = partition(g, 7, method=method, seed=1)
        validate_partition(g, res.part, 7)

    def test_sanitize_mode_on_degenerate_inputs(self):
        """The sanitizer must cope with launches that record no accesses."""
        g = from_edges(2, [(0, 1)])
        res = partition(g, 2, method="gp-metis", sanitize=True)
        assert sorted(res.part.tolist()) == [0, 1]
        san = res.extras["sanitizer"]
        assert san is not None and san.race_free


class TestVersionAndMetadata:
    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        int(parts[0])

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name
