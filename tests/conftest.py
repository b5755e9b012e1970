"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphs import CSRGraph, from_edges, generators
from repro.runtime.clock import SimClock
from repro.runtime.machine import PAPER_MACHINE


@pytest.fixture
def clock():
    c = SimClock()
    c.set_phase("test")
    return c


@pytest.fixture
def machine():
    return PAPER_MACHINE


@pytest.fixture
def tiny_graph() -> CSRGraph:
    """The 8-vertex example shape of the paper's Fig. 3/4 walkthroughs."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4), (2, 6)]
    weights = [5, 1, 5, 1, 5, 1, 5, 1, 2, 2]
    return from_edges(8, np.array(edges), weights, name="fig3")


@pytest.fixture
def grid() -> CSRGraph:
    return generators.grid2d(12, 12)


@pytest.fixture
def medium_graph() -> CSRGraph:
    return generators.delaunay(800, seed=3)


@pytest.fixture
def weighted_graph() -> CSRGraph:
    return generators.road_network(600, seed=5)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


@pytest.fixture(scope="session")
def weighted_delaunay() -> CSRGraph:
    """delaunay(3000) with random symmetric edge weights in 1-19, where
    heavy-edge, light-edge and random matching all pick differently."""
    g = generators.delaunay(3000, seed=1)
    src = g.source_array()
    keep = src < g.adjncy
    edges = np.stack([src[keep], g.adjncy[keep]], axis=1)
    weights = np.random.default_rng(1).integers(1, 20, edges.shape[0])
    return from_edges(g.num_vertices, edges, weights)
