"""Cross-checks of the graph layer against networkx, an independent
implementation that is installed for the tests only."""

import random

import pytest
from hypothesis import given, settings

from graphvariety import biconnected_edge_components, degeneracy_order
from oracles import random_connected_graph
from strategies import graphs

nx = pytest.importorskip("networkx")


def to_networkx(graph):
    g = nx.Graph()
    g.add_nodes_from(range(graph.num_vertices))
    g.add_edges_from(graph.edges)
    return g


def nx_degeneracy(graph):
    if graph.num_edges == 0:
        return 0
    return max(nx.core_number(to_networkx(graph)).values())


def as_edge_sets(blocks):
    return [frozenset((min(u, v), max(u, v)) for u, v in block) for block in blocks]


def assert_same_blocks(graph):
    ours = as_edge_sets(biconnected_edge_components(graph))
    theirs = as_edge_sets(nx.biconnected_component_edges(to_networkx(graph)))
    assert len(ours) == len(set(ours))
    assert set(ours) == set(theirs)
    assert len(ours) == len(theirs)


@given(graphs(max_vertices=12, min_vertices=0))
@settings(max_examples=100, deadline=None)
def test_degeneracy_equals_max_core_number(g):
    assert degeneracy_order(g)[1] == nx_degeneracy(g)


@given(graphs(max_vertices=12, min_vertices=0))
@settings(max_examples=100, deadline=None)
def test_blocks_match_networkx(g):
    assert_same_blocks(g)


@pytest.mark.parametrize("seed", range(6))
def test_large_random_graphs_match_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(50, 200)
    g = random_connected_graph(rng, n, rng.randint(0, n))
    assert degeneracy_order(g)[1] == nx_degeneracy(g)
    assert_same_blocks(g)
