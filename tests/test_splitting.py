import hashlib
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvariety import (
    Graph,
    NotAForestError,
    VertexWeighting,
    bfs_layers,
    color_budget,
    color_classes,
    connected_components,
    palette,
    split_forest_into_matchings,
    split_into_matchings,
)
from graphvariety.serialization import canonical_dumps, weighting_to_obj
from graphvariety.splitting import _leaf_peel, _split_component
from oracles import (brute_force_min_colors, complete_bipartite_graph, complete_graph, cycle_graph,
                     path_graph, random_connected_graph, random_tree, scan_leaf_peel,
                     SearchSpaceTooLargeError, star_graph)
from strategies import forests, graphs


def check_split_by_hand(graph, weighting):
    """Independent verifier: strict argmaxes exist and classes are matchings.

    Deliberately avoids color_classes so the two implementations check each
    other.
    """
    if not graph.edges:
        return True
    used = set()
    for lo, hi in graph.edges:
        total = [a + b for a, b in zip(weighting.weights[lo], weighting.weights[hi])]
        best = max(total)
        if total.count(best) != 1:
            return False
        c = total.index(best)
        if (c, lo) in used or (c, hi) in used:
            return False
        used.add((c, lo))
        used.add((c, hi))
    return True


class TestColorBudget:
    def test_values(self):
        assert [color_budget(d) for d in (0, 1, 2, 3, 4)] == [1, 1, 17, 71, 199]

    def test_closed_form(self):
        for d in range(1, 10):
            assert color_budget(d) == d * d * (d + 1) * (d + 1) // 2 - 1


class TestPalette:
    def test_lengths_match_budget(self):
        for d in range(0, 6):
            assert len(palette(d)) == color_budget(d)

    def test_pool_positions(self):
        # pool (parity, k) of stage D starts D^2 slots apart after palette(D - 1)
        for big_d in range(2, 7):
            colors = palette(big_d)
            for parity, k, j in product((0, 1), range(1, big_d + 1), range(big_d * big_d)):
                pos = color_budget(big_d - 1) + (parity * big_d + k - 1) * big_d * big_d + j
                assert colors[pos] == f"a{big_d}.{parity}.{k}.{j}"

    def test_base_color_first(self):
        assert palette(1) == ("base",)
        assert palette(3)[0] == "base"

    def test_names_are_distinct(self):
        for d in range(1, 6):
            assert len(set(palette(d))) == len(palette(d))

    def test_prefix_nesting(self):
        for d in range(2, 6):
            assert palette(d)[: len(palette(d - 1))] == palette(d - 1)


class TestColorClasses:
    def test_path_example(self):
        g = path_graph(3)
        w = VertexWeighting(("c1", "c2"), {0: (1, 0), 1: (0, 2), 2: (3, 0)})
        rep = color_classes(g, w)
        assert rep.valid
        assert rep.color_count == 2
        assert rep.classes == {"c2": ((0, 1),), "c1": ((1, 2),)}
        assert all(v.strict for v in rep.per_edge)

    def test_tie_detected(self):
        g = Graph(2, [(0, 1)])
        w = VertexWeighting(("c1", "c2"), {0: (1, 1), 1: (0, 0)})
        rep = color_classes(g, w)
        assert not rep.valid
        assert not rep.per_edge[0].strict
        assert set(rep.per_edge[0].argmax) == {"c1", "c2"}

    def test_tie_after_the_first_color_lands_in_every_tied_class(self):
        g = path_graph(3)
        colors = ("c1", "c2", "c3", "c4")
        # edge (0, 1) sums to (1, 3, 2, 3): tied at c2 and c4;
        # edge (1, 2) sums to (0, 2, 1, 4): strict at the last color
        w = VertexWeighting(colors, {0: (1, 1, 1, 1), 1: (0, 2, 1, 2), 2: (0, 0, 0, 2)})
        rep = color_classes(g, w)
        assert not rep.valid
        assert rep.per_edge[0].argmax == ("c2", "c4") and not rep.per_edge[0].strict
        assert rep.per_edge[1].argmax == ("c4",) and rep.per_edge[1].strict
        assert rep.classes == {"c2": ((0, 1),), "c4": ((0, 1), (1, 2))}
        assert rep.matching_flags == {"c2": True, "c4": False}
        assert rep.color_count == 2

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matching_flags_agree_with_a_covered_vertex_scan(self, data):
        g = data.draw(graphs(max_vertices=7))
        k = data.draw(st.integers(1, 3))
        vector = st.tuples(*[st.integers(0, 2)] * k)
        weights = {v: data.draw(vector) for v in range(g.num_vertices)}
        rep = color_classes(g, VertexWeighting(tuple(f"c{i}" for i in range(k)), weights))
        for c, edges in rep.classes.items():
            covered, disjoint = set(), True
            for e in edges:
                disjoint = disjoint and not covered.intersection(e)
                covered.update(e)
            assert rep.matching_flags[c] == disjoint
        assert rep.valid == (all(v.strict for v in rep.per_edge)
                             and all(rep.matching_flags.values()))

    def test_shared_vertex_collision_detected(self):
        g = path_graph(3)
        w = VertexWeighting(("c1",), {0: (1,), 1: (1,), 2: (1,)})
        rep = color_classes(g, w)
        assert not rep.valid
        assert not rep.matching_flags["c1"]

    def test_missing_vertex_rejected(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            color_classes(g, VertexWeighting(("c1",), {0: (1,), 1: (1,)}))

    def test_wrong_vector_length_rejected(self):
        g = Graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            color_classes(g, VertexWeighting(("c1", "c2"), {0: (1,), 1: (1, 2)}))

    def test_empty_palette_edges_are_never_strict(self):
        g = Graph(2, [(0, 1)])
        rep = color_classes(g, VertexWeighting((), {0: (), 1: ()}))
        assert not rep.valid

    def test_classes_partition_edges_when_valid(self):
        g = cycle_graph(5)
        w = split_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid
        listed = sorted(e for edges in rep.classes.values() for e in edges)
        assert listed == sorted(g.edges)

    @given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=-50, max_value=50))
    @settings(max_examples=40, deadline=None)
    def test_per_vertex_shift_preserves_argmaxes(self, seed, shift):
        # adding a constant to every weight of one vertex shifts both
        # endpoint sums of its edges equally, so nothing about argmaxes moves
        rng = random.Random(seed)
        g = random_connected_graph(rng, 6, 3)
        colors = ("c1", "c2", "c3")
        weights = {v: tuple(rng.randint(0, 20) for _ in colors) for v in range(6)}
        before = color_classes(g, VertexWeighting(colors, weights))
        v0 = rng.randrange(6)
        shifted = dict(weights)
        shifted[v0] = tuple(x + shift for x in weights[v0])
        after = color_classes(g, VertexWeighting(colors, shifted))
        assert before.valid == after.valid
        for a, b in zip(before.per_edge, after.per_edge):
            assert a.argmax == b.argmax and a.strict == b.strict


class TestSplitIntoMatchings:
    HAND_GRAPHS = [
        path_graph(5),
        cycle_graph(3),
        cycle_graph(4),
        cycle_graph(7),
        complete_graph(4),
        star_graph(5),
        complete_bipartite_graph(3, 3),
        complete_bipartite_graph(2, 4),
    ]

    @pytest.mark.parametrize("g", HAND_GRAPHS)
    def test_hand_graphs_split_validly(self, g):
        w = split_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid
        assert check_split_by_hand(g, w)
        assert set(w.colors) == set(palette(g.max_degree()))
        assert rep.color_count <= color_budget(g.max_degree())

    def test_single_edge_base_case(self):
        w = split_into_matchings(Graph(2, [(0, 1)]))
        assert w.colors == ("base",)
        assert w.weights[0] == (10,) and w.weights[1] == (10,)
        assert color_classes(Graph(2, [(0, 1)]), w).valid

    def test_edgeless_graph(self):
        g = Graph(3, [])
        w = split_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid and rep.color_count == 0

    def test_disconnected_components_merge(self):
        g = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5)])
        w = split_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid
        assert check_split_by_hand(g, w)

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=25, deadline=None)
    def test_random_graphs_split_validly(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 16), rng.randint(0, 6))
        w = split_into_matchings(g)
        assert check_split_by_hand(g, w)
        rep = color_classes(g, w)
        assert rep.valid
        assert rep.color_count <= color_budget(g.max_degree())

    @pytest.mark.parametrize(
        "g, intra",
        [(complete_bipartite_graph(3, 3), 0), (complete_graph(4), 3)],
        ids=["K33", "K4"],
    )
    def test_intra_level_edges_take_recursion_colors(self, g, intra):
        # edges inside a BFS level re-use the smaller palette; edges between
        # levels take the top-stage pool colors.  K3,3 is bipartite, so only
        # K4 (3 edges inside level 1 from root 0) reaches the first branch.
        big_d = g.max_degree()
        small = set(palette(big_d - 1))
        colors = palette(big_d)
        assert len(connected_components(g)) == 1
        weights = _split_component(g, big_d, 0)
        _, level = bfs_layers(g, 0)
        w = split_into_matchings(g)
        # root 0 admits a pool assignment, so its layering is the split's own
        assert w == VertexWeighting(colors, {v: tuple(vec) for v, vec in enumerate(weights)})
        rep = color_classes(g, w)
        by_edge = {v.edge: v.argmax[0] for v in rep.per_edge}
        assert sum(level[lo] == level[hi] for lo, hi in g.edges) == intra
        for lo, hi in g.edges:
            color = by_edge[(lo, hi)]
            if level[lo] == level[hi]:
                assert color in small
            else:
                assert color.startswith(f"a{big_d}.")


def petersen_graph():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + inner + [(i, i + 5) for i in range(5)])


def seeded_degree_six_graph():
    """60 vertices, random edges under a degree cap of 6 (not connected)."""
    rng = random.Random(60)
    deg = [0] * 60
    edges = set()
    for _ in range(400):
        a, b = rng.randrange(60), rng.randrange(60)
        e = (min(a, b), max(a, b))
        if a != b and e not in edges and deg[a] < 6 and deg[b] < 6:
            edges.add(e)
            deg[a] += 1
            deg[b] += 1
    return Graph(60, sorted(edges))


GOLDEN = {
    # name: (graph, its max degree, sha256 of its canonical weighting JSON)
    "K4": (complete_graph(4), 3,
           "e59366f6bef681560b536c23cd2611edec69bd1d7a5cd17ffebdf63099d82be0"),
    "K44": (complete_bipartite_graph(4, 4), 4,
            "34d0c21adfbe665e5c92a0247c9b1d2bad3e5ca31e9b46e92f2f4da31eeb17a0"),
    "petersen": (petersen_graph(), 3,
                 "45b6169abdbdebdd9c0edb25468fb54e6f43310dfbeb647ddb607184ee453635"),
    "seeded60": (seeded_degree_six_graph(), 6,
                 "c80cbb31d266c208f5ac95d4ee910af4efce51cfeed146ef6957b259e488a15d"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_split_output_is_pinned(name):
    g, big_d, digest = GOLDEN[name]
    assert g.max_degree() == big_d
    text = canonical_dumps(weighting_to_obj(split_into_matchings(g)))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestForestSplitter:
    def test_path_uses_two_colors(self):
        g = path_graph(4)
        w = split_forest_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid
        assert rep.color_count == 2

    @pytest.mark.parametrize("leaves", [1, 2, 3, 5, 8])
    def test_star_uses_exactly_degree_many_colors(self, leaves):
        g = star_graph(leaves)
        w = split_forest_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid
        assert rep.color_count == leaves == g.max_degree()

    def test_forest_with_isolated_vertices(self):
        g = Graph(5, [(0, 1), (2, 3)])
        w = split_forest_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid and rep.color_count == 1

    def test_edgeless_forest(self):
        w = split_forest_into_matchings(Graph(2, []))
        assert w.colors == ()

    def test_cycle_rejected(self):
        with pytest.raises(NotAForestError):
            split_forest_into_matchings(cycle_graph(3))

    @pytest.mark.parametrize("g", [
        # a triangle with pendant paths: the peel removes the paths, stops at the triangle
        Graph(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (0, 5), (5, 6)]),
        # a cycle plus an isolated vertex, which the peel does remove
        Graph(5, [(0, 1), (1, 2), (2, 3), (0, 3)]),
    ], ids=["triangle-with-paths", "cycle-and-isolated"])
    def test_cycle_left_by_the_peel_rejected(self, g):
        with pytest.raises(NotAForestError):
            split_forest_into_matchings(g)

    @given(graphs(max_vertices=9))
    @settings(max_examples=100, deadline=None)
    def test_rejects_exactly_the_non_forests(self, g):
        forest = g.num_edges == g.num_vertices - len(connected_components(g))
        try:
            w = split_forest_into_matchings(g)
        except NotAForestError:
            assert not forest
        else:
            assert forest and color_classes(g, w).valid

    @given(forests())
    @settings(max_examples=100, deadline=None)
    def test_leaf_peel_matches_scan_oracle(self, g):
        assert _leaf_peel(g) == scan_leaf_peel(g)

    @pytest.mark.parametrize("seed", range(6))
    def test_large_tree_leaf_peel_matches_scan_oracle(self, seed):
        rng = random.Random(seed)
        g = random_tree(rng, rng.randint(100, 400))
        assert _leaf_peel(g) == scan_leaf_peel(g)

    @given(forests())
    @settings(max_examples=60, deadline=None)
    def test_random_forests_split_validly(self, g):
        w = split_forest_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid
        assert rep.color_count <= g.max_degree()

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30, deadline=None)
    def test_random_trees_stay_within_max_degree(self, seed):
        rng = random.Random(seed)
        g = random_tree(rng, rng.randint(2, 40))
        w = split_forest_into_matchings(g)
        rep = color_classes(g, w)
        assert rep.valid
        assert rep.color_count <= g.max_degree()
        assert check_split_by_hand(g, w)


class TestBruteForceMinimum:
    def test_single_edge_needs_one(self):
        assert brute_force_min_colors(Graph(2, [(0, 1)]), 2, 1) == 1

    def test_path_needs_two(self):
        assert brute_force_min_colors(path_graph(3), 3, 2) == 2

    def test_triangle_needs_three(self):
        assert brute_force_min_colors(complete_graph(3), 3, 4) == 3

    def test_returns_none_when_budget_too_small(self):
        assert brute_force_min_colors(complete_graph(3), 2, 4) is None

    def test_minimum_at_least_max_degree(self):
        for g in (path_graph(3), star_graph(3)):
            m = brute_force_min_colors(g, 3, 2)
            assert m is not None and m >= g.max_degree()

    def test_search_space_cap(self):
        with pytest.raises(SearchSpaceTooLargeError):
            brute_force_min_colors(complete_graph(4), 4, 9)

    def test_agrees_with_construction_upper_bound(self):
        g = path_graph(3)
        m = brute_force_min_colors(g, 3, 2)
        rep = color_classes(g, split_into_matchings(g))
        assert rep.valid
        assert m <= rep.color_count
