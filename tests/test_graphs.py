import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvariety import (
    BoundTooSmallError,
    DisconnectedGraphError,
    Graph,
    bfs_layers,
    biconnected_edge_components,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    degeneracy_order,
    format_edge_list,
    has_even_cycle,
    induced_subgraph_with_map,
    is_forest,
    parse_edge_list,
    path_graph,
    proper_vertex_numbering,
    star_graph,
)
from graphvariety.graphs import MAX_VERTICES
from oracles import (
    brute_degeneracy,
    brute_has_even_cycle,
    random_connected_graph,
    scan_degeneracy_order,
)
from strategies import connected_graphs, forests, graphs


class TestGraphConstruction:
    def test_edges_are_normalised_and_sorted(self):
        g = Graph(3, [(2, 1), (1, 0)])
        assert g.edges == ((0, 1), (1, 2))

    def test_adjacency(self):
        g = Graph(4, [(0, 1), (0, 2), (2, 3)])
        assert g.adjacency == ((1, 2), (0,), (0, 3), (2,))
        assert g.degree(0) == 2
        assert g.max_degree() == 2

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])
        with pytest.raises(ValueError):
            Graph(2, [(-1, 0)])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(2, [(1, 1)])

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 1), (1, 0)])

    def test_has_edge(self):
        g = Graph(3, [(0, 2)])
        assert g.edges == ((0, 2),) and Graph(3, [(2, 0)]).edges == ((0, 2),)
        assert (0, 1) not in g.edges

    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.num_edges == 0
        assert g.edges == ()


class TestConstructors:
    def test_path(self):
        g = path_graph(4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_cycle(self):
        g = cycle_graph(4)
        assert g.edges == ((0, 1), (0, 3), (1, 2), (2, 3))
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(5)
        assert g.num_vertices == 6
        assert g.degree(0) == 5
        assert all(g.degree(v) == 1 for v in range(1, 6))

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10

    def test_complete_bipartite(self):
        g = complete_bipartite_graph(2, 3)
        assert g.num_vertices == 5
        assert g.num_edges == 6
        assert (0, 1) not in g.edges
        assert (0, 2) in g.edges


class TestDegeneracy:
    def test_path_is_one_degenerate(self):
        _, d = degeneracy_order(path_graph(6))
        assert d == 1

    def test_star_is_one_degenerate(self):
        _, d = degeneracy_order(star_graph(7))
        assert d == 1

    def test_triangle(self):
        # derived by checking every ordering
        g = cycle_graph(3)
        _, d = degeneracy_order(g)
        assert d == brute_degeneracy(g) == 2

    def test_complete_bipartite(self):
        _, d = degeneracy_order(complete_bipartite_graph(2, 3))
        assert d == 2

    def test_complete_graph(self):
        _, d = degeneracy_order(complete_graph(4))
        assert d == 3

    def test_order_is_permutation(self):
        og, _ = degeneracy_order(cycle_graph(5))
        assert sorted(og.order) == list(range(5))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_back_degree_bounded_by_reported_degeneracy(self, g):
        og, d = degeneracy_order(g)
        for v in range(g.num_vertices):
            assert len(og.older_neighbors(v)) <= d

    @given(graphs(max_vertices=6))
    @settings(max_examples=40, deadline=None)
    def test_matches_exhaustive_minimum(self, g):
        _, d = degeneracy_order(g)
        assert d == brute_degeneracy(g)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_neighbor_partition(self, g):
        og, _ = degeneracy_order(g)
        for v in range(g.num_vertices):
            older = og.older_neighbors(v)
            younger = og.younger_neighbors(v)
            assert tuple(sorted(older + younger)) == g.adjacency[v]

    def test_width_equals_max_back_degree(self):
        og, d = degeneracy_order(complete_bipartite_graph(2, 4))
        assert og.width() == d == 2

    @given(graphs(max_vertices=12, min_vertices=0))
    @settings(max_examples=100, deadline=None)
    def test_order_matches_min_scan_oracle(self, g):
        og, d = degeneracy_order(g)
        assert (og.order, d) == scan_degeneracy_order(g)

    @given(forests())
    @settings(max_examples=60, deadline=None)
    def test_forest_order_matches_min_scan_oracle(self, g):
        og, d = degeneracy_order(g)
        assert (og.order, d) == scan_degeneracy_order(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_large_random_order_matches_min_scan_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(100, 300)
        g = random_connected_graph(rng, n, rng.randint(0, 3 * n))
        og, d = degeneracy_order(g)
        assert (og.order, d) == scan_degeneracy_order(g)

    def test_memoized_on_the_graph(self):
        g = cycle_graph(5)
        assert degeneracy_order(g) is degeneracy_order(g)


class TestBfsLayers:
    def test_path_from_end(self):
        lay = bfs_layers(path_graph(4), 0)
        assert lay.layers == ((0,), (1,), (2,), (3,))
        assert lay.level == (0, 1, 2, 3)

    def test_cycle(self):
        lay = bfs_layers(cycle_graph(4), 0)
        assert lay.layers == ((0,), (1, 3), (2,))

    def test_star_from_center(self):
        lay = bfs_layers(star_graph(4), 0)
        assert lay.layers == ((0,), (1, 2, 3, 4))
        assert len(lay.layers) == 2

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraphError):
            bfs_layers(Graph(3, [(0, 1)]), 0)

    @given(connected_graphs(), st.integers(min_value=0, max_value=7))
    @settings(max_examples=60, deadline=None)
    def test_edges_span_at_most_one_level(self, g, root_seed):
        root = root_seed % g.num_vertices
        lay = bfs_layers(g, root)
        for lo, hi in g.edges:
            assert abs(lay.level[lo] - lay.level[hi]) <= 1


class TestComponentsAndForests:
    def test_components(self):
        g = Graph(5, [(0, 1), (2, 3)])
        comps = connected_components(g)
        assert sorted(tuple(sorted(c)) for c in comps) == [(0, 1), (2, 3), (4,)]

    def test_is_connected(self):
        assert len(connected_components(path_graph(3))) == 1
        assert len(connected_components(Graph(2, []))) == 2

    def test_forest_examples(self):
        assert is_forest(path_graph(5))
        assert is_forest(Graph(4, [(0, 1), (2, 3)]))
        assert not is_forest(cycle_graph(3))

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_forest_iff_edge_count_formula(self, g):
        comps = connected_components(g)
        formula = g.num_edges == g.num_vertices - len(comps)
        assert is_forest(g) == formula

    @given(graphs(max_vertices=7))
    @settings(max_examples=40, deadline=None)
    def test_forest_iff_no_cycles(self, g):
        from oracles import _all_simple_cycles

        assert is_forest(g) == (next(iter(_all_simple_cycles(g)), None) is None)


class TestInducedSubgraph:
    def test_mapping(self):
        g = Graph(5, [(0, 2), (2, 4), (1, 3)])
        sub, old_to_new, new_to_old = induced_subgraph_with_map(g, [0, 2, 4])
        assert sub.num_vertices == 3
        assert sub.edges == ((0, 1), (1, 2))
        assert old_to_new == {0: 0, 2: 1, 4: 2}
        assert new_to_old == (0, 2, 4)

    def test_plain_wrapper(self):
        sub = induced_subgraph_with_map(cycle_graph(4), [0, 1, 2])[0]
        assert sub.edges == ((0, 1), (1, 2))


class TestProperNumbering:
    def test_numbers_are_one_based_and_bounded(self):
        nums = proper_vertex_numbering(path_graph(5), 3)
        assert set(nums) <= {1, 2, 3}
        assert min(nums) == 1

    def test_proper(self):
        g = cycle_graph(4)
        nums = proper_vertex_numbering(g, 3)
        for lo, hi in g.edges:
            assert nums[lo] != nums[hi]

    def test_bound_must_exceed_max_degree(self):
        with pytest.raises(BoundTooSmallError):
            proper_vertex_numbering(star_graph(3), 3)
        # bound strictly above the max degree always suffices
        nums = proper_vertex_numbering(star_graph(3), 4)
        assert nums[0] != nums[1]

    @given(connected_graphs(max_vertices=9))
    @settings(max_examples=60, deadline=None)
    def test_greedy_always_fits(self, g):
        bound = g.max_degree() + 1
        nums = proper_vertex_numbering(g, bound)
        assert all(1 <= x <= bound for x in nums)
        for lo, hi in g.edges:
            assert nums[lo] != nums[hi]


class TestBiconnectedAndEvenCycles:
    def test_path_blocks_are_single_edges(self):
        blocks = biconnected_edge_components(path_graph(4))
        assert sorted(sorted(b) for b in blocks) == [
            [(0, 1)],
            [(1, 2)],
            [(2, 3)],
        ]

    def test_cycle_with_pendant(self):
        g = Graph(5, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 4)])
        blocks = biconnected_edge_components(g)
        assert sorted(len(b) for b in blocks) == [1, 4]

    def test_even_cycle_examples(self):
        assert not has_even_cycle(path_graph(6))
        assert not has_even_cycle(cycle_graph(5))
        assert has_even_cycle(cycle_graph(6))
        # two triangles sharing an edge contain a four-cycle
        g = Graph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)])
        assert has_even_cycle(g)

    @given(graphs(max_vertices=7))
    @settings(max_examples=80, deadline=None)
    def test_matches_cycle_enumeration(self, g):
        assert has_even_cycle(g) == brute_has_even_cycle(g)


class TestEdgeListFormat:
    def test_parse_basic(self):
        g = parse_edge_list("0 1\n1 2\n")
        assert g.num_vertices == 3
        assert g.edges == ((0, 1), (1, 2))

    def test_comments_and_blanks(self):
        text = "# a path\n\n0 1\n# middle\n1 2\n"
        g = parse_edge_list(text)
        assert g.edges == ((0, 1), (1, 2))

    def test_isolated_vertex_line(self):
        g = parse_edge_list("0 1\n3\n")
        assert g.num_vertices == 4
        assert g.degree(3) == 0

    def test_bad_line_rejected(self):
        with pytest.raises(ValueError):
            parse_edge_list("0 1 2\n")
        with pytest.raises(ValueError):
            parse_edge_list("a b\n")

    def test_vertex_ceiling(self):
        assert parse_edge_list(f"0 {MAX_VERTICES - 1}\n").num_vertices == MAX_VERTICES
        for text in (f"0 {MAX_VERTICES}\n", f"{MAX_VERTICES}\n"):
            with pytest.raises(ValueError, match=f"limit of {MAX_VERTICES}"):
                parse_edge_list(text)

    def test_format_includes_isolated_vertices(self):
        g = Graph(3, [(0, 1)])
        text = format_edge_list(g)
        assert parse_edge_list(text) == g

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_round_trip(self, g):
        if g.num_vertices == 0:
            return
        assert parse_edge_list(format_edge_list(g)) == g
