"""Integration tests: every partitioner on every graph family, plus the
public API facade."""

import numpy as np
import pytest

import repro
from repro.api import available_methods, make_partitioner, partition
from repro.exceptions import InvalidParameterError
from repro.graphs import generators, load_dataset, validate_partition

FAMILIES = {
    "grid": lambda: generators.grid2d(25, 25),
    "torus": lambda: generators.torus2d(20, 20),
    "delaunay": lambda: generators.delaunay(1200, seed=1),
    "rgg": lambda: generators.random_geometric(900, seed=1),
    "road": lambda: generators.road_network(900, seed=1),
    "bubble": lambda: generators.bubble_mesh(900, seed=1),
    "fe": lambda: generators.fe_matrix(600, seed=1),
    "rmat": lambda: generators.rmat(9, edge_factor=4, seed=1),
}


@pytest.fixture(scope="module", params=list(FAMILIES))
def family_graph(request):
    return FAMILIES[request.param]()


@pytest.mark.parametrize("method", ["metis", "parmetis", "mt-metis", "gp-metis"])
def test_every_method_on_every_family(family_graph, method):
    res = partition(family_graph, 8, method=method)
    validate_partition(family_graph, res.part, 8, ubfactor=1.06)
    assert res.modeled_seconds > 0
    assert res.method in ("metis", "parmetis", "mt-metis", "gp-metis")


class TestApiFacade:
    def test_available_methods(self):
        methods = available_methods()
        assert methods[:4] == ["metis", "parmetis", "mt-metis", "gp-metis"]
        assert {"spectral", "random", "block"} <= set(methods)

    def test_aliases(self):
        assert make_partitioner("gpmetis").name == "gp-metis"
        assert make_partitioner("mt_metis").name == "mt-metis"
        assert make_partitioner("serial").name == "metis"

    def test_unknown_method(self, grid):
        with pytest.raises(InvalidParameterError, match="unknown method"):
            partition(grid, 4, method="scotch")

    def test_unknown_option_lists_valid(self, grid):
        with pytest.raises(InvalidParameterError, match="valid options"):
            partition(grid, 4, method="metis", bogus=True)

    def test_option_forwarding(self, grid):
        p = make_partitioner("mt-metis", num_threads=2)
        assert p.options.num_threads == 2

    def test_package_exports(self):
        assert repro.__version__
        assert repro.PAPER_MACHINE.gpu.warp_size == 32
        assert callable(repro.partition)


MULTILEVEL_METHODS = ["metis", "parmetis", "mt-metis", "gp-metis"]


class TestCrossMethodConsistency:
    @pytest.mark.parametrize(
        "method",
        ["metis", "parmetis", "mt-metis", "gp-metis", "pt-scotch", "jostle", "gmetis"],
    )
    def test_lem_is_not_rm(self, weighted_delaunay, method):
        """Every engine with a matching option runs the scheme it names:
        on weighted edges light-edge matching is not random matching."""
        parts = {
            scheme: partition(weighted_delaunay, 8, method=method, matching=scheme).part
            for scheme in ("lem", "rm")
        }
        assert not np.array_equal(parts["lem"], parts["rm"])

    def test_same_quality_ballpark(self):
        g = generators.delaunay(2500, seed=4)
        cuts = {
            m: partition(g, 16, method=m).quality(g).cut
            for m in MULTILEVEL_METHODS
        }
        lo, hi = min(cuts.values()), max(cuts.values())
        assert hi <= 1.6 * lo, cuts

    def test_baselines_bracket_the_multilevel_cut(self):
        """Sec. II's framing: multilevel beats the older techniques on
        quality; random anchors the top of the range."""
        g = generators.delaunay(2500, seed=4)
        ml = partition(g, 16, method="gp-metis").quality(g).cut
        spectral = partition(g, 16, method="spectral").quality(g).cut
        rand = partition(g, 16, method="random").quality(g).cut
        assert ml <= spectral <= rand

    def test_disconnected_graph_all_methods(self):
        import numpy as np

        from repro.graphs import from_edges

        # Two separate communities.
        rng = np.random.default_rng(0)
        e1 = rng.integers(0, 40, size=(150, 2))
        e2 = rng.integers(40, 80, size=(150, 2))
        g = from_edges(80, np.concatenate([e1, e2]))
        for m in MULTILEVEL_METHODS + ["spectral"]:
            res = partition(g, 4, method=m)
            validate_partition(g, res.part, 4, ubfactor=1.15)

    def test_weighted_vertices_all_methods(self):
        from repro.graphs import from_edges

        rng = np.random.default_rng(1)
        edges = rng.integers(0, 100, size=(400, 2))
        vw = rng.integers(1, 10, size=100)
        g = from_edges(100, edges, vertex_weights=vw)
        for m in MULTILEVEL_METHODS:
            res = partition(g, 4, method=m)
            validate_partition(g, res.part, 4, ubfactor=1.25)

    def test_k2_through_k32(self):
        g = generators.delaunay(1500, seed=2)
        for k in (2, 4, 32):
            res = partition(g, k, method="gp-metis")
            assert len(np.unique(res.part)) == k


class TestPaperDatasetIntegration:
    @pytest.mark.parametrize("name", ["delaunay", "usa_roads"])
    def test_dataset_partition_roundtrip(self, name):
        g = load_dataset(name, scale=0.001)
        res = partition(g, 16, method="gp-metis")
        q = res.quality(g)
        assert q.cut > 0
        assert q.imbalance <= 1.031
        assert q.empty_parts == 0
