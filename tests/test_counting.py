import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvariety import (
    BilinearSpace,
    CountRequest,
    Graph,
    PrimeField,
    RATIONALS,
    WorkCapExceededError,
    count_points,
    degeneracy_order,
    edge_count_closed_form,
    expected_dimension,
    standard_space,
)
from graphvariety import counting
from graphvariety.counting import _extensions, _kept_echelon
from graphvariety.linalg import kernel
from oracles import (
    c4_point_count,
    complete_binary_tree,
    complete_bipartite_graph,
    cycle_graph,
    enumerate_point_count,
    forest_point_count,
    frontier_key,
    frontier_widths,
    greedy_frontier_order,
    hyperbolic_plane_count,
    ladder_graph,
    naive_point_count,
    orbit_keys,
    orthogonality_matrix,
    path_graph,
    reference_frontier_count,
    space_from_rows,
    star_graph,
    symplectic_plane_count,
    transfer_cycle_count,
    transfer_ladder_count,
    transfer_path_count,
)
from strategies import forests, graphs

SINGLE_EDGE = Graph(2, [(0, 1)])
K4_MINUS_EDGE = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def symmetric(n, q):
    return standard_space("symmetric", n, PrimeField(q))


def random_gram_space(kind, n, q, seed):
    """A space on a random non-degenerate Gram matrix, as from a --gram file."""
    rng = random.Random(seed)
    sign = 1 if kind == "symmetric" else -1
    while True:
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = rng.randrange(q) if kind == "symmetric" else 0
            for j in range(i + 1, n):
                gram[i][j] = rng.randrange(q)
                gram[j][i] = sign * gram[i][j] % q
        try:
            return space_from_rows(kind, gram, PrimeField(q))
        except ValueError:  # degenerate: draw again
            continue


class TestRequestValidation:
    def test_rational_field_rejected(self):
        with pytest.raises(ValueError):
            CountRequest(SINGLE_EDGE, standard_space("symmetric", 1, RATIONALS))

    def test_cap_must_be_positive(self):
        with pytest.raises(ValueError):
            CountRequest(SINGLE_EDGE, symmetric(1, 3), cap=0)

    def test_work_cap_enforced(self):
        g = path_graph(6)
        with pytest.raises(WorkCapExceededError) as exc:
            count_points(CountRequest(g, symmetric(3, 5), cap=1000))
        assert str(exc.value) == "estimated work 5^18 exceeds cap 1000"


class TestClosedForm:
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_single_edge_grid(self, n, q):
        report = count_points(CountRequest(SINGLE_EDGE, symmetric(n, q)))
        assert report.count == edge_count_closed_form(n, q)
        assert report.count == q ** (2 * n - 1) + q ** n - q ** (n - 1)

    def test_formula_matches_naive_enumeration(self):
        for n, q in [(1, 2), (1, 3), (2, 2), (2, 3), (1, 5)]:
            assert naive_point_count(SINGLE_EDGE, symmetric(n, q)) == edge_count_closed_form(n, q)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            edge_count_closed_form(0, 3)


class TestCountAgainstEnumeration:
    CASES = [
        (path_graph(2), 1, 3, "symmetric"),
        (path_graph(3), 1, 3, "symmetric"),
        (path_graph(3), 2, 2, "symmetric"),
        (cycle_graph(3), 1, 5, "symmetric"),
        (cycle_graph(3), 2, 2, "symmetric"),
        (cycle_graph(4), 2, 2, "symmetric"),
        (cycle_graph(4), 1, 3, "symmetric"),
        (star_graph(3), 2, 2, "symmetric"),
        (path_graph(2), 2, 3, "symplectic"),
        (path_graph(3), 2, 3, "symplectic"),
        (cycle_graph(4), 2, 3, "symplectic"),
        (path_graph(3), 2, 3, "hyperbolic"),
        (complete_bipartite_graph(2, 2), 2, 2, "hyperbolic"),
        (Graph(3, []), 2, 3, "symmetric"),
        (Graph(0, []), 2, 3, "symmetric"),
    ]

    @pytest.mark.parametrize("graph,n,q,kind", CASES)
    def test_matches_naive(self, graph, n, q, kind):
        space = standard_space(kind, n, PrimeField(q))
        report = count_points(CountRequest(graph, space))
        assert report.count == naive_point_count(graph, space)
        assert report.q == q
        assert report.expected_dimension == expected_dimension(graph, space)
        assert report.ratio == Fraction(report.count, q ** report.expected_dimension)

    def test_edgeless_count_is_full_space(self):
        g = Graph(3, [])
        report = count_points(CountRequest(g, symmetric(2, 5)))
        assert report.count == 5 ** 6
        assert report.ratio == 1

    def test_multiplicative_over_disjoint_union(self):
        space = symmetric(1, 3)
        g1, g2 = path_graph(3), cycle_graph(3)
        shifted = [(lo + 3, hi + 3) for lo, hi in g2.edges]
        union = Graph(6, list(g1.edges) + shifted)
        c1 = count_points(CountRequest(g1, space)).count
        c2 = count_points(CountRequest(g2, space)).count
        cu = count_points(CountRequest(union, space)).count
        assert cu == c1 * c2

    def test_invariant_under_relabeling(self):
        space = symmetric(2, 3)
        g = Graph(4, [(0, 1), (1, 2), (1, 3)])
        # reverse the vertex names
        relabeled = Graph(4, [(3 - lo, 3 - hi) for lo, hi in g.edges])
        a = count_points(CountRequest(g, space)).count
        b = count_points(CountRequest(relabeled, space)).count
        assert a == b == naive_point_count(g, space)


def random_graph(rng, num_vertices):
    """Each pair an edge with probability 1/2: often disconnected, sometimes
    edgeless."""
    pairs = [(a, b) for a in range(num_vertices) for b in range(a + 1, num_vertices)]
    return Graph(num_vertices, [e for e in pairs if rng.random() < 0.5])


class TestFrontierCount:
    # (form, n, q, largest vertex count); every case keeps q^(n |V|) <= 4096
    # so the naive oracle stays quick.  Symmetric over F_2 is the identity
    # form (raw keys); hyperbolic over F_2 is alternating (orbit keys).
    FORMS = [
        ("symmetric", 1, 2, 5),
        ("symmetric", 2, 2, 5),
        ("symmetric", 3, 2, 4),
        ("symmetric", 1, 3, 5),
        ("symmetric", 2, 3, 3),
        ("symmetric", 1, 5, 5),
        ("symplectic", 2, 3, 3),
        ("symplectic", 2, 5, 2),
        ("hyperbolic", 2, 2, 5),
        ("hyperbolic", 4, 2, 3),
        ("hyperbolic", 2, 3, 3),
        ("hyperbolic", 2, 5, 2),
    ]

    @pytest.mark.parametrize("seed,case", list(enumerate(FORMS)))
    def test_random_graphs_match_naive(self, seed, case):
        form, n, q, max_vertices = case
        space = standard_space(form, n, PrimeField(q))
        rng = random.Random(seed)
        graphs = [Graph(max_vertices, []), random_graph(rng, 0)]
        graphs += [random_graph(rng, rng.randint(1, max_vertices)) for _ in range(6)]
        for g in graphs:
            assert count_points(CountRequest(g, space)).count == naive_point_count(g, space), g

    # the triangle and K4 minus an edge reach two-vector frontiers; each
    # case is sized so that the enumeration oracle finishes in about a second
    @pytest.mark.parametrize("graph,form,n,q", [
        (path_graph(3), "symplectic", 4, 3),
        (cycle_graph(5), "symmetric", 2, 7),
        (cycle_graph(3), "symplectic", 4, 3),
        (K4_MINUS_EDGE, "symplectic", 4, 3),
        (cycle_graph(3), "symmetric", 3, 5),
        (K4_MINUS_EDGE, "symmetric", 3, 5),
        (cycle_graph(3), "symplectic", 4, 5),
    ])
    def test_matches_enumeration(self, graph, form, n, q):
        space = standard_space(form, n, PrimeField(q))
        report = count_points(CountRequest(graph, space, cap=q ** (n * graph.num_vertices)))
        assert report.count == enumerate_point_count(graph, space)

    @pytest.mark.parametrize("space", [
        random_gram_space("symplectic", 4, 3, seed=3),
        random_gram_space("symmetric", 3, 5, seed=4),
    ], ids=["antisymmetric4-F3", "symmetric3-F5"])
    def test_gram_space_matches_enumeration(self, space):
        triangle = cycle_graph(3)
        report = count_points(CountRequest(triangle, space))
        assert report.count == enumerate_point_count(triangle, space)

    @pytest.mark.parametrize("space", [symmetric(2, 3), symmetric(3, 3), symmetric(2, 5),
                                       standard_space("symplectic", 2, PrimeField(5))])
    def test_c4_formula_matches_enumeration(self, space):
        expected = enumerate_point_count(cycle_graph(4), space)
        assert c4_point_count(space.n, space.field.p) == expected

    # the enumeration oracle takes seconds on these; the K_{2,2} formula does not
    @pytest.mark.parametrize("space", [
        standard_space("symplectic", 4, PrimeField(3)),
        standard_space("symplectic", 4, PrimeField(5)),
        symmetric(3, 5),
    ])
    def test_c4_matches_formula(self, space):
        q = space.field.p
        report = count_points(CountRequest(cycle_graph(4), space, cap=q ** (4 * space.n)))
        assert report.count == c4_point_count(space.n, q)

    @staticmethod
    def plane_graphs(q):
        """A triangle, K4 minus an edge, a paw and 8 random graphs.  The DP's
        cost grows steeply with edges and q (K7 at q=13 takes seconds), so
        the random graphs keep to at most 10 edges."""
        rng = random.Random(q)
        graphs = [cycle_graph(3), K4_MINUS_EDGE, Graph(4, [(0, 1), (0, 2), (1, 2), (2, 3)])]
        for _ in range(8):
            v = rng.randint(1, 7)
            pairs = [(a, b) for a in range(v) for b in range(a + 1, v)]
            graphs.append(Graph(v, sorted(rng.sample(pairs, min(len(pairs), rng.randint(0, 10))))))
        return graphs

    @pytest.mark.parametrize("q", [3, 5, 7, 11, 13])
    def test_symplectic_plane_matches_closed_form(self, q):
        space = standard_space("symplectic", 2, PrimeField(q))
        for g in self.plane_graphs(q):
            report = count_points(CountRequest(g, space, cap=q ** (2 * g.num_vertices)))
            assert report.count == symplectic_plane_count(g, q), g

    @pytest.mark.parametrize("q", [3, 5, 7, 11])
    def test_hyperbolic_plane_matches_closed_form(self, q):
        space = standard_space("hyperbolic", 2, PrimeField(q))
        for g in self.plane_graphs(q) + [complete_bipartite_graph(2, 3), cycle_graph(5)]:
            report = count_points(CountRequest(g, space, cap=q ** (2 * g.num_vertices)))
            assert report.count == hyperbolic_plane_count(g, q), g

    def test_symplectic_plane_closed_form_gives_path5(self):
        # perfbench's FULL_COUNTS entry for path5, symplectic n=2 over F_5
        assert symplectic_plane_count(path_graph(5), 5) == 69625

    def test_hyperbolic_plane_closed_form_gives_k23(self):
        # perfbench's FULL_COUNTS entry for K2,3, hyperbolic n=2 over F_5
        assert hyperbolic_plane_count(complete_bipartite_graph(2, 3), 5) == 34105

    @given(g=graphs(8, min_vertices=0))
    @settings(max_examples=50, deadline=None)
    def test_min_frontier_order_matches_its_definition(self, g):
        assert counting._min_frontier_order(g) == greedy_frontier_order(g)

    # graphs of up to 8 vertices that the default cap admits, raw keys over
    # F_2 included; the greedy order is not always the narrower one, but the
    # count cannot depend on the order
    @pytest.mark.parametrize("form,n,q", [case[:3] for case in FORMS])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_min_frontier_order_counts_as_the_degeneracy_order(self, form, n, q, data):
        admitted = counting._cap_exponent(q, counting.DEFAULT_WORK_CAP) // n
        g = data.draw(graphs(min(8, admitted), min_vertices=0))
        space = standard_space(form, n, PrimeField(q))
        degeneracy = list(reversed(degeneracy_order(g)[0]))
        greedy = counting._min_frontier_order(g)
        count = counting._frontier_count(space, counting._step_shapes(g, degeneracy))
        assert counting._frontier_count(space, counting._step_shapes(g, greedy)) == count
        assert count_points(CountRequest(g, space)).count == count

    @given(g=graphs(8, min_vertices=0), data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_step_shape_widths_match_their_definition(self, g, data):
        # `_count_shapes` reads each step's frontier width off its shape
        order = data.draw(st.permutations(range(g.num_vertices)))
        shapes = counting._step_shapes(g, order)
        widths = frontier_widths(g, order)
        assert [len(keep) + enters for _, _, keep, enters in shapes] == widths
        assert [width for width, _, _, _ in shapes] == ([0] + widths)[:-1]

    @pytest.mark.parametrize("form,n,q", [("symplectic", 2, 3), ("symmetric", 3, 2), ("hyperbolic", 4, 5)])
    @given(g=graphs(10, min_vertices=0))
    @settings(max_examples=30, deadline=None)
    def test_count_order_has_the_smaller_state_bound(self, form, n, q, g):
        space = standard_space(form, n, PrimeField(q))

        def bound(order):
            return sum(q ** (n * w) for w in frontier_widths(g, order))

        greedy = counting._min_frontier_order(g)
        degeneracy = list(reversed(degeneracy_order(g)[0]))
        chosen = counting._count_shapes(g, space)
        expected = greedy if bound(greedy) <= bound(degeneracy) else degeneracy
        assert chosen == counting._step_shapes(g, expected)

    # perfbench's FULL_COUNTS graphs: the bounds tie or the greedy order is
    # narrower (K2,3: 1901 against 16901), so each walks the greedy order
    @pytest.mark.parametrize("g,form,n,q", [
        (path_graph(3), "symplectic", 4, 3),
        (path_graph(5), "symplectic", 2, 5),
        (cycle_graph(5), "symmetric", 2, 7),
        (complete_bipartite_graph(2, 3), "hyperbolic", 2, 5),
        (SINGLE_EDGE, "symplectic", 4, 7),
        (cycle_graph(4), "symmetric", 3, 2),
    ], ids=["path3", "path5", "c5", "k23", "edge", "c4"])
    def test_benchmark_graphs_walk_the_greedy_order(self, g, form, n, q):
        space = standard_space(form, n, PrimeField(q))
        assert counting._count_shapes(g, space) == counting._step_shapes(g, counting._min_frontier_order(g))

    def test_binary_tree_walks_the_reversed_degeneracy_order(self):
        # the greedy order has width 5 here and its walk takes seconds; the
        # reversed degeneracy order has width 3 and takes milliseconds
        tree = complete_binary_tree(31)
        space = standard_space("symplectic", 4, PrimeField(3))
        assert max(frontier_widths(tree, counting._min_frontier_order(tree))) == 5
        shapes = counting._count_shapes(tree, space)
        assert shapes == counting._step_shapes(tree, list(reversed(degeneracy_order(tree)[0])))
        assert max(len(keep) + enters for _, _, keep, enters in shapes) == 3
        report = count_points(CountRequest(tree, space, cap=10**60))
        assert report.count == forest_point_count(tree, 4, 3)
        assert report.count == 18998077436192669401499694283784358116550678321

    # alternating forms, whose classes are counted in closed form, then
    # enumerated symmetric classes and raw keys over F_2
    @pytest.mark.parametrize("form,n,q,max_vertices", [
        *[("symplectic", n, q, 10) for n in (4, 6, 8) for q in (3, 5, 7)],
        ("hyperbolic", 4, 2, 10),
        ("symmetric", 2, 3, 6),
        ("symmetric", 3, 5, 6),
        ("symmetric", 3, 2, 6),
        ("symmetric", 4, 2, 6),
    ])
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_random_forests_match_tree_recursion(self, form, n, q, max_vertices, data):
        g = data.draw(forests(max_vertices))
        space = standard_space(form, n, PrimeField(q))
        report = count_points(CountRequest(g, space, cap=q ** (n * g.num_vertices)))
        assert report.count == forest_point_count(g, n, q)

    def test_tree_recursion_gives_path3(self):
        # by hand: the middle vertex zero, (1 + 80)^2 = 6561, plus 80 nonzero
        # choices times (1 + 26)^2 = 729
        assert forest_point_count(path_graph(3), 4, 3) == 64881

    def test_single_edge_counts_classes_without_enumeration(self, monkeypatch):
        # alternating classes are counted, not enumerated: the first
        # endpoint's 7^4 kernel vectors fall into 2 classes
        spanned, span = [], counting._span

        def counted(basis, n, p):
            vecs = span(basis, n, p)
            spanned.append(len(vecs))
            return vecs

        monkeypatch.setattr(counting, "_span", counted)
        space = standard_space("symplectic", 4, PrimeField(7))
        assert count_points(CountRequest(SINGLE_EDGE, space)).count == edge_count_closed_form(4, 7)
        assert 0 < sum(spanned) < 50  # enumerating the kernel made 2401

    def test_k23_walks_a_narrower_order(self, monkeypatch):
        # the reversed degeneracy order has frontier widths 1, 2, 3, 2, 0
        # and made 198 `_extensions` calls; a width-2 order makes 30
        calls = counted_calls(monkeypatch, counting, "_extensions")
        space = standard_space("hyperbolic", 2, PrimeField(5))
        assert count_points(CountRequest(complete_bipartite_graph(2, 3), space)).count == 34105
        assert 0 < calls["_extensions"] <= 40

    def test_closing_steps_build_no_kernel(self, monkeypatch):
        # a vertex that does not enter the frontier needs only the rank of its
        # slot vectors: `perp` runs once per entering state key and step
        # shape, as `_extensions` does (389 `perp` calls when every state
        # built a kernel, 214 without transition reuse)
        perp = counted_calls(monkeypatch, BilinearSpace, "perp")
        extensions = counted_calls(monkeypatch, counting, "_extensions")
        report = count_points(CountRequest(cycle_graph(5), symmetric(2, 7), cap=7**10))
        assert report.count == 142801
        assert perp["perp"] == extensions["_extensions"] == 183


def counted_calls(monkeypatch, owner, name):
    """Wrap owner.name to count its calls; returns the live Counter."""
    calls, original = Counter(), getattr(owner, name)

    def counted(*args):
        calls[name] += 1
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


# (form, n, q): every form kind at n=2 over F_3, F_5 and F_7, and at n=4 over F_3
TRANSFER_SPACES = [(form, n, q) for form in ("symplectic", "symmetric", "hyperbolic")
                   for n, q in ((2, 3), (2, 5), (2, 7), (4, 3))]
LENGTHS = (3, 4, 5, 6, 7, 10, 13, 20, 40)


def uncapped(g, space):
    return count_points(CountRequest(g, space, cap=space.field.p ** (space.n * g.num_vertices))).count


class TestTransitionReuse:
    """Each state's transition is computed once per step shape; cycles,
    paths, ladders and trees repeat their step shapes."""

    @pytest.mark.parametrize("form,n,q", TRANSFER_SPACES)
    def test_cycles_and_paths_match_transfer_matrices(self, form, n, q):
        space = standard_space(form, n, PrimeField(q))
        a = orthogonality_matrix(space)
        for length in LENGTHS:
            assert uncapped(cycle_graph(length), space) == transfer_cycle_count(a, length), length
            assert uncapped(path_graph(length), space) == transfer_path_count(a, length), length

    @pytest.mark.parametrize("form,n,q,rungs", [
        ("symplectic", 2, 5, 20), ("hyperbolic", 2, 7, 12), ("symmetric", 2, 3, 20),
        ("symplectic", 4, 3, 10), ("symmetric", 4, 3, 6),
    ])
    def test_ladders_match_transfer_matrices(self, form, n, q, rungs):
        space = standard_space(form, n, PrimeField(q))
        a = orthogonality_matrix(space)
        for r in (1, 2, 3, 4, 7, rungs):
            assert uncapped(ladder_graph(r), space) == transfer_ladder_count(a, r), r

    @pytest.mark.parametrize("q", [3, 5, 7])
    def test_ladders_match_plane_counts(self, q):
        symplectic = standard_space("symplectic", 2, PrimeField(q))
        hyperbolic = standard_space("hyperbolic", 2, PrimeField(q))
        for rungs in range(1, 7):
            g = ladder_graph(rungs)
            assert uncapped(g, symplectic) == symplectic_plane_count(g, q), rungs
            assert uncapped(g, hyperbolic) == hyperbolic_plane_count(g, q), rungs

    @pytest.mark.parametrize("num_vertices", [63, 127])
    def test_binary_trees_match_tree_recursion(self, num_vertices):
        tree = complete_binary_tree(num_vertices)
        space = standard_space("symplectic", 4, PrimeField(3))
        assert uncapped(tree, space) == forest_point_count(tree, 4, 3)

    # random graphs in random orders, raw keys over F_2 included: reusing
    # transitions must give the counts of computing each one afresh
    @pytest.mark.parametrize("form,n,q", [case[:3] for case in TestFrontierCount.FORMS])
    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_random_orders_match_the_reference_dp(self, form, n, q, data):
        admitted = counting._cap_exponent(q, counting.DEFAULT_WORK_CAP) // n
        g = data.draw(graphs(min(9, admitted), min_vertices=0))
        order = data.draw(st.permutations(range(g.num_vertices)))
        space = standard_space(form, n, PrimeField(q))
        shapes = counting._step_shapes(g, order)
        assert counting._frontier_count(space, shapes) == reference_frontier_count(g, order, space)

    # the `_extensions` calls stop growing with the cycle: one per entering
    # state key and step shape
    @pytest.mark.parametrize("form,n,q,calls", [
        ("hyperbolic", 2, 5, 98), ("symplectic", 4, 3, 11), ("symmetric", 2, 7, 183),
    ])
    @pytest.mark.parametrize("length", [10, 20, 40])
    def test_cycle_extension_calls_do_not_grow(self, monkeypatch, form, n, q, calls, length):
        extensions = counted_calls(monkeypatch, counting, "_extensions")
        space = standard_space(form, n, PrimeField(q))
        a = orthogonality_matrix(space)
        assert uncapped(cycle_graph(length), space) == transfer_cycle_count(a, length)
        assert extensions["_extensions"] == calls

    def test_step_shapes_of_a_path(self):
        # each inner vertex closes its predecessor and enters the frontier;
        # the last one closes the frontier
        shapes = counting._step_shapes(path_graph(4), [0, 1, 2, 3])
        assert shapes == [(0, (), (), True), (1, (0,), (), True), (1, (0,), (), True), (1, (0,), (), False)]


class TestFrontierKey:
    def test_isometric_tuples_share_a_key(self):
        space = standard_space("symplectic", 4, PrimeField(5))
        assert orbit_keys(space)

        def omega(x, y):
            return space.pair(x, y)

        u, c = (1, 2, 0, 3), 2

        def transvection(x):  # x + c <x, u> u preserves the symplectic form
            t = c * omega(x, u)
            return tuple((a + t * b) % 5 for a, b in zip(x, u))

        w1, w2 = (1, 0, 0, 0), (0, 1, 4, 0)
        w3 = tuple((a + 2 * b) % 5 for a, b in zip(w1, w2))
        vectors = (w1, w2, w3, (0, 0, 0, 0))
        image = tuple(transvection(w) for w in vectors)
        assert image != vectors
        assert frontier_key(space, image) == frontier_key(space, vectors)
        # the same vectors with another linear relation pattern
        assert frontier_key(space, (w1, w2, w1, (0, 0, 0, 0))) != frontier_key(space, vectors)

    def test_identity_form_over_f2_uses_raw_vectors(self):
        space = standard_space("symmetric", 3, PrimeField(2))
        assert not orbit_keys(space)
        vectors = ((1, 0, 0), (0, 1, 1))
        assert frontier_key(space, vectors) == vectors

    def test_hyperbolic_over_f2_is_alternating(self):
        space = standard_space("hyperbolic", 2, PrimeField(2))
        assert orbit_keys(space)
        assert frontier_key(space, ((1, 0),)) == frontier_key(space, ((0, 1),))


EXTENSION_SPACES = {
    "symplectic4-F3": standard_space("symplectic", 4, PrimeField(3)),
    "symplectic4-F5": standard_space("symplectic", 4, PrimeField(5)),
    "symplectic6-F3": standard_space("symplectic", 6, PrimeField(3)),
    "symmetric2-F3": symmetric(2, 3),
    "symmetric2-F7": symmetric(2, 7),
    "symmetric3-F3": symmetric(3, 3),
    "symmetric3-F7": symmetric(3, 7),
    "hyperbolic2-F2": standard_space("hyperbolic", 2, PrimeField(2)),
    "hyperbolic4-F2": standard_space("hyperbolic", 4, PrimeField(2)),
    "gram-symmetric3-F7": random_gram_space("symmetric", 3, 7, seed=1),
    "gram-antisymmetric4-F7": random_gram_space("symplectic", 4, 7, seed=2),
}


@st.composite
def frontier_tuples(draw, space, max_size):
    """A tuple of 0..max_size vectors, some zero or combinations of earlier
    ones."""
    n, p = space.n, space.field.p
    scalars = st.integers(0, p - 1)
    vectors = []
    for _ in range(draw(st.integers(0, max_size))):
        shape = draw(st.sampled_from(["free", "zero", "dependent"]))
        if shape == "zero":
            vectors.append((0,) * n)
        elif shape == "dependent" and vectors:
            cs = draw(st.lists(scalars, min_size=len(vectors), max_size=len(vectors)))
            vectors.append(tuple(sum(c * u[i] for c, u in zip(cs, vectors)) % p for i in range(n)))
        else:
            vectors.append(draw(st.tuples(*[scalars] * n)))
    return tuple(vectors)


@st.composite
def extension_cases(draw, space):
    """A kept tuple of 0..3 vectors (`frontier_tuples`) and a kernel basis:
    of 0..n random rows, or trivial."""
    n, p = space.n, space.field.p
    kept = draw(frontier_tuples(space, 3))
    identity = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    rows = draw(st.lists(st.tuples(*[st.integers(0, p - 1)] * n), max_size=n) | st.just(identity))
    return kept, kernel(rows, n, p)[0]


class TestExtensionKeys:
    @pytest.mark.parametrize("space", EXTENSION_SPACES.values(), ids=EXTENSION_SPACES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_assembled_keys_are_tuple_keys(self, space, data):
        kept, basis = data.draw(extension_cases(space))
        assert orbit_keys(space)
        n, p = space.n, space.field.p
        span = {
            tuple(sum(c * b[i] for c, b in zip(cs, basis)) % p for i in range(n))
            for cs in itertools.product(range(p), repeat=len(basis))
        }
        tally = Counter(frontier_key(space, kept + (x,)) for x in span)
        gram = tuple(space.pair(u, w) for u in kept for w in kept)
        classes = _extensions(space, gram, kept, basis)
        assert {key: size for key, (_, size) in classes.items()} == tally
        assert sum(size for _, size in classes.values()) == p ** len(basis)
        for key, (t, _) in classes.items():
            assert t[:-1] == kept and t[-1] in span and frontier_key(space, t) == key

    @pytest.mark.parametrize("space", EXTENSION_SPACES.values(), ids=EXTENSION_SPACES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_shrunk_keys_are_tuple_keys(self, space, data):
        # a step that only shrinks the frontier reads the kept tuple's key
        # off the state key: the Gram block by index, the echelon part by
        # `_kept_echelon`
        vectors = data.draw(frontier_tuples(space, 4))
        k, p = len(vectors), space.field.p
        pairs, echelon = frontier_key(space, vectors)
        for size in range(k + 1):
            for keep in itertools.combinations(range(k), size):
                gram = tuple(pairs[a * k + b] for a in keep for b in keep)
                derived = gram, _kept_echelon(echelon, keep, p)
                assert derived == frontier_key(space, tuple(vectors[a] for a in keep))


class TestDimensionProbe:
    def test_single_edge_ratios(self):
        reports = [count_points(CountRequest(SINGLE_EDGE, symmetric(2, q))) for q in (2, 3, 5)]
        assert [r.q for r in reports] == [2, 3, 5]
        assert [r.ratio for r in reports] == [Fraction(10, 8), Fraction(33, 27), Fraction(145, 125)]

    def test_ratio_drifts_toward_one(self):
        reports = [count_points(CountRequest(SINGLE_EDGE, symmetric(2, q))) for q in (2, 3, 5, 7, 11)]
        gaps = [abs(r.ratio - 1) for r in reports]
        assert gaps == sorted(gaps, reverse=True)

    def test_probe_respects_cap(self):
        with pytest.raises(WorkCapExceededError):
            count_points(CountRequest(path_graph(5), symmetric(3, 7), cap=100))
