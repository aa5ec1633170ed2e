"""Cross-checks of the graph layer against networkx, an independent
implementation that is installed for the tests only."""

import random

import pytest
from hypothesis import given, settings

from graphvariety import degeneracy_order, has_even_cycle
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


def nx_has_even_cycle(graph):
    """The block criterion on networkx's biconnected components: a block
    holds an even cycle iff it has more edges than vertices, or it is one
    cycle of even length."""
    for block in nx.biconnected_component_edges(to_networkx(graph)):
        edges, vertices = len(block), len({v for e in block for v in e})
        if edges > vertices or edges == vertices and edges % 2 == 0:
            return True
    return False


@given(graphs(max_vertices=12, min_vertices=0))
@settings(max_examples=100, deadline=None)
def test_degeneracy_equals_max_core_number(g):
    assert degeneracy_order(g)[1] == nx_degeneracy(g)


@given(graphs(max_vertices=12, min_vertices=0))
@settings(max_examples=100, deadline=None)
def test_even_cycles_match_networkx_blocks(g):
    assert has_even_cycle(g) == nx_has_even_cycle(g)


@pytest.mark.parametrize("seed", range(6))
def test_large_random_graphs_match_networkx(seed):
    rng = random.Random(seed)
    n = rng.randint(50, 200)
    g = random_connected_graph(rng, n, rng.randint(0, n))
    assert degeneracy_order(g)[1] == nx_degeneracy(g)
    assert has_even_cycle(g) == nx_has_even_cycle(g)
