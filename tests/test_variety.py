import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from graphvariety import (
    BilinearSpace,
    Graph,
    NotOnVarietyError,
    OddDimensionError,
    PrimeField,
    RATIONALS,
    SingularityCertificate,
    UnsupportedCombinationError,
    VarietyContext,
    VertexAssignment,
    canonical_degrees,
    expected_dimension,
    is_anti_ample,
    is_member,
    projective_smoothness,
    residual,
    singular_certificate,
    standard_space,
    verify_certificate,
)
from graphvariety import bilinear
from graphvariety.fields import _integer_form
from graphvariety.serialization import equations_to_obj, gram_terms_from_obj
from oracles import (complete_bipartite_graph, cycle_graph, dense_gram, dot, field_kernel,
                     field_vectors, gram_product, isotropic_index, jacobian, origin, path_graph,
                     random_tangent, rank, regular_part_test, space_from_rows, space_key, star_graph,
                     vectors)


def symplectic2():
    return standard_space("symplectic", 2, RATIONALS)


class TestBilinearSpace:
    def test_standard_symplectic_gram(self):
        sp = symplectic2()
        assert dense_gram(sp) == ((0, 1), (-1, 0))
        gram = dense_gram(standard_space("symplectic", 4, RATIONALS))
        assert gram[0][2] == 1 and gram[2][0] == -1
        assert gram[1][3] == 1 and gram[3][1] == -1

    def test_standard_symmetric_gram(self):
        sp = standard_space("symmetric", 3, RATIONALS)
        assert dense_gram(sp) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))

    def test_hyperbolic_gram(self):
        sp = standard_space("hyperbolic", 2, RATIONALS)
        assert sp.kind == "symmetric"
        assert dense_gram(sp) == ((0, 1), (1, 0))
        assert isotropic_index(sp) == 0

    def test_identity_has_no_isotropic_basis_vector(self):
        sp = standard_space("symmetric", 2, RATIONALS)
        assert isotropic_index(sp) is None

    def test_symplectic_odd_dimension_rejected(self):
        with pytest.raises(OddDimensionError):
            standard_space("symplectic", 3, RATIONALS)
        with pytest.raises(OddDimensionError):
            standard_space("hyperbolic", 3, RATIONALS)

    def test_symplectic_char_two_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            standard_space("symplectic", 2, PrimeField(2))

    def test_asymmetric_gram_rejected(self):
        with pytest.raises(ValueError):
            space_from_rows("symmetric", [[0, 1], [-1, 0]])
        with pytest.raises(ValueError):
            space_from_rows("symplectic", [[0, 1], [1, 0]])

    def test_degenerate_gram_rejected(self):
        with pytest.raises(ValueError):
            space_from_rows("symmetric", [[1, 1], [1, 1]])
        with pytest.raises(ValueError, match="^gram matrix is degenerate$"):
            space_from_rows("symmetric", [[1, 2], [2, 4]])

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            space_from_rows("weird", [[1, 0], [0, 1]])

    @pytest.mark.parametrize("form,n", [("symplectic", 2), ("symplectic", 6), ("symmetric", 1),
                                        ("symmetric", 5), ("hyperbolic", 4)])
    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(3), PrimeField(10007)],
                             ids=lambda f: f.name)
    def test_standard_space_from_its_terms(self, form, n, field):
        space = standard_space(form, n, field)
        assert space_key(BilinearSpace(n, space.kind, space.terms, field)) == space_key(space)
        assert space_key(BilinearSpace(n, space.kind, reversed(space.terms), field)) == space_key(space)

    @pytest.mark.parametrize("terms", [[(0, 2, 1), (1, 1, 1), (0, 0, 1)],
                                       [(0, 0, 1), (1, 1, 1), (-1, 1, 1)],
                                       [(0, 0, 1), (1, 1, 1), (1, 5, 0)]])
    def test_term_outside_the_matrix_refused(self, terms):
        bad = next(t for t in terms if not all(0 <= x < 2 for x in t[:2]))
        with pytest.raises(ValueError, match=rf"^gram term \({bad[0]}, {bad[1]}\) is outside the 2x2 matrix$"):
            BilinearSpace(2, "symmetric", terms, RATIONALS)

    @pytest.mark.parametrize("terms", [[(0, 0, 1), (1, 1, 1), (0, 0, 1)],
                                       [(0, 0, 1), (1, 1, 1), (1, 1, 0)],
                                       [(0, 1, 1), (1, 0, -1), (0, 1, "1")]])
    def test_repeated_term_refused(self, terms):
        i, j, _ = terms[-1]
        with pytest.raises(ValueError, match=rf"^gram term \({i}, {j}\) is repeated$"):
            BilinearSpace(2, "symplectic" if i != j else "symmetric", terms, RATIONALS)

    def test_pair_examples(self):
        sp = symplectic2()
        e0, e1 = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
        assert sp.pair(e0, e1) == 1
        assert sp.pair(e1, e0) == -1
        sym = standard_space("symmetric", 2, RATIONALS)
        assert sym.pair(e0, e1) == 0
        assert sym.pair(e0, e0) == 1

    @given(st.lists(st.integers(min_value=-20, max_value=20), min_size=4, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_symplectic_pairing_is_alternating(self, coords):
        sp = standard_space("symplectic", 4, RATIONALS)
        v = [Fraction(c) for c in coords]
        assert sp.pair(v, v) == 0

    def test_gram_actions_match_pairing(self):
        sp = standard_space("symplectic", 4, RATIONALS)
        u = [Fraction(x) for x in (1, 2, 3, 4)]
        v = [Fraction(x) for x in (5, -1, 0, 2)]
        assert dot(RATIONALS, u, sp.gram_times(v)) == sp.pair(u, v)
        assert dot(RATIONALS, v, sp.gram_transpose_times(u)) == sp.pair(u, v)


SYMMETRY_ERRORS = {"symmetric": "symmetric gram matrix must equal its transpose",
                   "symplectic": "symplectic gram matrix must be antisymmetric"}


@st.composite
def form_grams(draw, kinds=("symmetric", "symplectic")):
    """(field, kind, Gram rows, a nonzero scalar): a non-degenerate Gram,
    symmetric or antisymmetric, over Q with fractional entries, F_3 or F_10007."""
    field = draw(st.sampled_from([RATIONALS, PrimeField(3), PrimeField(10007)]))
    kind = draw(st.sampled_from(kinds))
    if field.p is None:
        numerators = st.integers(-6, 6)
        scalars = st.builds(Fraction, numerators, st.integers(1, 5))
        nonzero = st.builds(Fraction, numerators.filter(bool), st.integers(1, 5))
    else:
        scalars, nonzero = (st.integers(low, field.p - 1).map(field) for low in (0, 1))
    n = draw(st.sampled_from([2, 4]) if kind == "symplectic" else st.integers(1, 4))
    sign = 1 if kind == "symmetric" else -1
    gram = [[field(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i if kind == "symmetric" else i + 1, n):
            gram[i][j] = draw(scalars)
            gram[j][i] = field(sign * gram[i][j])
    assume(rank(field, gram) == n)
    return field, kind, gram, draw(nonzero)


class TestGramChecks:
    """`BilinearSpace.__init__` reads only the nonzero entries and their
    mirrors; every failure it must catch, against a dense rank."""

    @given(form_grams())
    @settings(max_examples=100, deadline=None)
    def test_space_from_its_terms(self, drawn):
        field, kind, gram, _ = drawn
        space = space_from_rows(kind, gram, field)
        assert space_key(BilinearSpace(len(gram), kind, space.terms, field)) == space_key(space)
        assert list(space.terms) == [(i, j, x) for i, row in enumerate(gram)
                                     for j, x in enumerate(row) if x]

    @given(form_grams(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_changed_off_diagonal_entry(self, drawn, data):
        field, kind, gram, delta = drawn
        assert dense_gram(space_from_rows(kind, gram, field)) == tuple(map(tuple, gram))
        n = len(gram)
        assume(n > 1)
        i, j = data.draw(st.permutations(range(n)))[:2]
        gram[i][j] = field(gram[i][j] + delta)
        assume(rank(field, gram) == n)
        with pytest.raises(ValueError, match=f"^{SYMMETRY_ERRORS[kind]}$"):
            space_from_rows(kind, gram, field)

    @given(form_grams(kinds=("symplectic",)), st.data())
    @settings(max_examples=100, deadline=None)
    def test_nonzero_diagonal_in_symplectic_gram(self, drawn, data):
        field, kind, gram, value = drawn
        n = len(gram)
        i = data.draw(st.integers(0, n - 1))
        gram[i][i] = value
        assume(rank(field, gram) == n)
        with pytest.raises(ValueError, match=f"^{SYMMETRY_ERRORS[kind]}$"):
            space_from_rows(kind, gram, field)

    @given(form_grams(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_row_combination_is_degenerate(self, drawn, data):
        field, kind, gram, _ = drawn
        n = len(gram)
        k = data.draw(st.integers(0, n - 1))
        coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        gram[k] = [field(sum(c * row[j] for c, row in zip(coeffs, gram) if row is not gram[k]))
                   for j in range(n)]
        with pytest.raises(ValueError, match="^gram matrix is degenerate$"):
            space_from_rows(kind, gram, field)

    @staticmethod
    def spy_rref(monkeypatch):
        """The moduli of the `rref` calls `BilinearSpace.__init__` makes."""
        moduli, real = [], bilinear.rref

        def spy(rows, ncols, p=None):
            moduli.append(p)
            return real(rows, ncols, p)

        monkeypatch.setattr(bilinear, "rref", spy)
        return moduli

    def test_singular_mod_check_prime_decided_exactly(self, monkeypatch):
        # non-singular over Q, singular mod 2^31 - 1
        big = 2**31 - 1
        moduli = self.spy_rref(monkeypatch)
        assert dense_gram(space_from_rows("symmetric", [[big, 0], [0, 1]])) == ((big, 0), (0, 1))
        assert moduli == [big, None]
        with pytest.raises(ValueError, match="^gram matrix is degenerate$"):
            space_from_rows("symmetric", [[big, 0], [0, 1]], PrimeField(big))

    def test_standard_spaces_need_no_exact_elimination(self, monkeypatch):
        moduli = self.spy_rref(monkeypatch)
        for form, n in [("symplectic", 2), ("symplectic", 256), ("symmetric", 1),
                        ("symmetric", 255), ("hyperbolic", 8)]:
            standard_space(form, n, RATIONALS)
        assert moduli == [2**31 - 1] * 5


def gram_file_space(kind, n, seed):
    """A space on a random non-degenerate Gram matrix with fractional
    entries, read as `--gram` reads its JSON rows of decimal strings."""
    rng = random.Random(seed)
    sign = 1 if kind == "symmetric" else -1
    while True:
        gram = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i if kind == "symmetric" else i + 1, n):
                gram[i][j] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                gram[j][i] = sign * gram[i][j]
        _, terms = gram_terms_from_obj([[str(x) for x in row] for row in gram], RATIONALS)
        try:
            return BilinearSpace(n, kind, terms, RATIONALS)
        except ValueError:  # degenerate: draw again
            continue


PERP_SPACES = {
    f"{form}{n}-{field.name}": standard_space(form, n, field)
    for field in (RATIONALS, PrimeField(3), PrimeField(7), PrimeField(10007))
    for form, n in (("symplectic", 4), ("symmetric", 3), ("hyperbolic", 4))
}
PERP_SPACES.update({
    "gram-symmetric3-Q": gram_file_space("symmetric", 3, seed=1),
    "gram-symmetric4-Q": gram_file_space("symmetric", 4, seed=2),
    "gram-antisymmetric4-Q": gram_file_space("symplectic", 4, seed=3),
})


@st.composite
def vector_families(draw, space):
    """0..4 vectors of the space, some zero or combinations of earlier ones."""
    field, n = space.field, space.n
    if field.p is None:
        scalars = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
    else:
        scalars = st.integers(0, field.p - 1).map(field)
    family = []
    for _ in range(draw(st.integers(0, 4))):
        shape = draw(st.sampled_from(["free", "zero", "dependent"]))
        if shape == "zero":
            family.append([field(0)] * n)
        elif shape == "dependent" and family:
            cs = draw(st.lists(scalars, min_size=len(family), max_size=len(family)))
            family.append([field(sum(c * u[i] for c, u in zip(cs, family))) for i in range(n)])
        else:
            family.append(draw(st.lists(scalars, min_size=n, max_size=n)))
    return family


class TestPerp:
    @pytest.mark.parametrize("space", PERP_SPACES.values(), ids=PERP_SPACES)
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_perp_is_the_orthogonal_complement(self, space, data):
        family = data.draw(vector_families(space))
        # perp takes integer vectors: the numerators of each member's integer form
        basis = field_vectors(space.perp([_integer_form(space.field, u)[0] for u in family]),
                              space.field.p)
        for x in basis:
            for u in family:
                assert space.pair(x, u) == 0 and space.pair(u, x) == 0
        assert len(basis) == space.n - rank(space.field, family)
        dense = [gram_product(space, u) for u in family]
        assert basis == field_kernel(dense, space.n, space.field.p)


class TestExpectedDimension:
    def test_examples(self):
        assert expected_dimension(Graph(2, [(0, 1)]), symplectic2()) == 3
        sp5 = standard_space("symmetric", 5, RATIONALS)
        assert expected_dimension(complete_bipartite_graph(2, 3), sp5) == 19
        assert expected_dimension(Graph(2, []), standard_space("symmetric", 3, RATIONALS)) == 6

    @given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=5))
    @settings(max_examples=30, deadline=None)
    def test_additive_over_disjoint_union(self, a, b):
        sp = standard_space("symmetric", 2, RATIONALS)
        g1 = path_graph(a) if a else Graph(0, [])
        g2 = cycle_graph(b) if b >= 3 else (path_graph(b) if b else Graph(0, []))
        shifted = [(lo + g1.num_vertices, hi + g1.num_vertices) for lo, hi in g2.edges]
        union = Graph(g1.num_vertices + g2.num_vertices, list(g1.edges) + shifted)
        assert expected_dimension(union, sp) == expected_dimension(g1, sp) + expected_dimension(g2, sp)


class TestMembership:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        ctx = VarietyContext(g, symplectic2())
        on = VertexAssignment(RATIONALS, [[1, 0], [1, 0]])
        off = VertexAssignment(RATIONALS, [[1, 0], [0, 1]])
        assert residual(ctx, on) == (0,)
        assert residual(ctx, off) == (1,)
        assert is_member(ctx, on)
        assert not is_member(ctx, off)

    def test_zero_point_is_always_a_member(self):
        g = cycle_graph(5)
        ctx = VarietyContext(g, standard_space("symmetric", 3, RATIONALS))
        assert is_member(ctx, origin(g, ctx.space))

    def test_field_mismatch_rejected(self):
        g = Graph(2, [(0, 1)])
        ctx = VarietyContext(g, symplectic2())
        f = PrimeField(3)
        pt = VertexAssignment(f, [[f(1), f(0)], [f(1), f(0)]])
        with pytest.raises(ValueError):
            is_member(ctx, pt)

    def test_wrong_vector_length_rejected(self):
        g = Graph(2, [(0, 1)])
        ctx = VarietyContext(g, symplectic2())
        with pytest.raises(ValueError):
            is_member(ctx, VertexAssignment(RATIONALS, [[1], [1]]))


class TestJacobian:
    def test_single_edge_row(self):
        g = Graph(2, [(0, 1)])
        ctx = VarietyContext(g, symplectic2())
        pt = VertexAssignment(RATIONALS, [[1, 0], [1, 0]])
        j = jacobian(ctx, pt)
        assert len(j) == 1 and len(j[0]) == 4
        assert j[0] == [0, -1, 0, 1]

    def test_zero_point_jacobian_vanishes(self):
        g = cycle_graph(4)
        ctx = VarietyContext(g, symplectic2())
        j = jacobian(ctx, origin(g, ctx.space))
        assert rank(RATIONALS, j) == 0

    def test_edgeless_graph(self):
        g = Graph(3, [])
        ctx = VarietyContext(g, standard_space("symmetric", 2, RATIONALS))
        j = jacobian(ctx, origin(g, ctx.space))
        assert j == []

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=40, deadline=None)
    def test_first_order_expansion_is_exact(self, seed):
        # residual(w + e) - residual(w) - J(w) e must equal the pure
        # second-order term <e(lo), e(hi)> on every edge, with no remainder
        rng = random.Random(seed)
        g = cycle_graph(4)
        for space in (symplectic2(), standard_space("symmetric", 2, PrimeField(7))):
            ctx = VarietyContext(g, space)
            field = space.field
            w = random_tangent(rng, field, 4, 2)
            e = random_tangent(rng, field, 4, 2)
            base = residual(ctx, w)
            moved = residual(
                ctx,
                VertexAssignment(
                    field,
                    [
                        [a + b for a, b in zip(vectors(w)[v], vectors(e)[v])]
                        for v in range(4)
                    ],
                ),
            )
            flat = [x for v in range(4) for x in vectors(e)[v]]
            linear = [dot(field, row, flat) for row in jacobian(ctx, w)]
            for idx, (lo, hi) in enumerate(ctx.graph.edges):
                second = space.pair(vectors(e)[lo], vectors(e)[hi])
                assert field(moved[idx] - base[idx] - linear[idx]) == second


class TestSmoothness:
    def test_single_edge_nonzero_point_is_smooth(self):
        g = Graph(2, [(0, 1)])
        ctx = VarietyContext(g, symplectic2())
        pt = VertexAssignment(RATIONALS, [[1, 0], [1, 0]])
        assert singular_certificate(ctx, pt) is None

    def test_zero_point_is_singular(self):
        g = Graph(2, [(0, 1)])
        ctx = VarietyContext(g, symplectic2())
        assert singular_certificate(ctx, origin(g, ctx.space)) is not None

    def test_non_member_rejected(self):
        g = Graph(2, [(0, 1)])
        ctx = VarietyContext(g, symplectic2())
        off = VertexAssignment(RATIONALS, [[1, 0], [0, 1]])
        with pytest.raises(NotOnVarietyError):
            singular_certificate(ctx, off)
        with pytest.raises(NotOnVarietyError):
            singular_certificate(ctx, off)


class TestCertificates:
    def cycle_context(self):
        g = cycle_graph(4)
        return VarietyContext(g, standard_space("symplectic", 4, RATIONALS))

    def all_equal_point(self, ctx):
        n = ctx.space.n
        vec = [1] + [0] * (n - 1)
        return VertexAssignment(ctx.field, [vec] * ctx.graph.num_vertices)

    def test_smooth_point_has_no_certificate(self):
        g = path_graph(3)
        ctx = VarietyContext(g, symplectic2())
        pt = VertexAssignment(RATIONALS, [[1, 0], [1, 0], [1, 0]])
        assert rank(RATIONALS, jacobian(ctx, pt)) == g.num_edges
        assert singular_certificate(ctx, pt) is None

    def test_cycle_all_equal_point_yields_certificate(self):
        ctx = self.cycle_context()
        pt = self.all_equal_point(ctx)
        assert is_member(ctx, pt)
        assert rank(RATIONALS, jacobian(ctx, pt)) < ctx.graph.num_edges
        cert = singular_certificate(ctx, pt)
        assert cert is not None
        assert verify_certificate(ctx, pt, cert)

    def test_certificate_agrees_with_rank_drop(self):
        # certificate exists exactly when the point is not smooth
        ctx = self.cycle_context()
        for pt in (self.all_equal_point(ctx), origin(ctx.graph, ctx.space)):
            cert = singular_certificate(ctx, pt)
            assert (cert is None) == (rank(ctx.field, jacobian(ctx, pt)) == ctx.graph.num_edges)

    def test_verifier_rejects_zero_weights(self):
        ctx = self.cycle_context()
        pt = self.all_equal_point(ctx)
        zero = SingularityCertificate(ctx.graph.edges, tuple(Fraction(0) for _ in ctx.graph.edges))
        assert not verify_certificate(ctx, pt, zero)

    def test_verifier_rejects_wrong_edge_order(self):
        ctx = self.cycle_context()
        pt = self.all_equal_point(ctx)
        cert = singular_certificate(ctx, pt)
        scrambled = SingularityCertificate(tuple(reversed(cert.edges)), cert.values)
        assert not verify_certificate(ctx, pt, scrambled)

    def test_verifier_rejects_wrong_length(self):
        ctx = self.cycle_context()
        pt = self.all_equal_point(ctx)
        bad = SingularityCertificate(ctx.graph.edges[:2], (Fraction(1), Fraction(1)))
        assert not verify_certificate(ctx, pt, bad)

    def test_verifier_rejects_non_member_point(self):
        ctx = self.cycle_context()
        pt = self.all_equal_point(ctx)
        cert = singular_certificate(ctx, pt)
        off_vectors = [list(v) for v in vectors(pt)]
        off_vectors[0][2] = Fraction(1)
        off = VertexAssignment(RATIONALS, off_vectors)
        assert not is_member(ctx, off)
        assert not verify_certificate(ctx, off, cert)

    def test_verifier_rejects_garbage_weights(self):
        ctx = self.cycle_context()
        pt = self.all_equal_point(ctx)
        bad = SingularityCertificate(
            ctx.graph.edges, tuple(Fraction(k + 1) for k in range(len(ctx.graph.edges)))
        )
        assert not verify_certificate(ctx, pt, bad)

    def test_certificate_extends_to_supergraph_by_zero(self):
        # spec invariant: a certificate survives adding vertices and edges
        # when the new edge weights are zero and new vertices get zero vectors
        ctx = self.cycle_context()
        pt = self.all_equal_point(ctx)
        cert = singular_certificate(ctx, pt)
        big = Graph(6, list(ctx.graph.edges) + [(0, 4), (4, 5)])
        big_ctx = VarietyContext(big, ctx.space)
        zero_vec = [Fraction(0)] * ctx.space.n
        big_pt = VertexAssignment(RATIONALS, list(vectors(pt)) + [zero_vec, zero_vec])
        lam = dict(zip(cert.edges, cert.values))
        values = tuple(lam.get(e, Fraction(0)) for e in big_ctx.graph.edges)
        big_cert = SingularityCertificate(big_ctx.graph.edges, values)
        assert verify_certificate(big_ctx, big_pt, big_cert)


class TestRegularPart:
    def test_zero_point_fails_when_edges_exist(self):
        g = path_graph(3)
        sp = symplectic2()
        assert not regular_part_test(g, origin(g, sp))

    def test_edgeless_graph_passes(self):
        g = Graph(3, [])
        sp = standard_space("symmetric", 2, RATIONALS)
        assert regular_part_test(g, origin(g, sp))

    def test_independent_families_pass(self):
        g = path_graph(3)
        pt = VertexAssignment(RATIONALS, [[1, 0], [0, 1], [1, 1]])
        assert regular_part_test(g, pt)


class TestEquations:
    def test_single_edge_symplectic(self):
        g = Graph(2, [(0, 1)])
        eqs = equations_to_obj(g.edges, symplectic2().terms)["equations"]
        assert len(eqs) == 1
        assert eqs[0]["edge"] == ["0", "1"]
        assert set(map(tuple, eqs[0]["terms"])) == {("0", "1", "1"), ("1", "0", "-1")}

    def test_symmetric_identity_terms(self):
        g = Graph(2, [(0, 1)])
        eqs = equations_to_obj(g.edges, standard_space("symmetric", 2, RATIONALS).terms)["equations"]
        assert set(map(tuple, eqs[0]["terms"])) == {("0", "0", "1"), ("1", "1", "1")}

    def test_terms_reproduce_residual(self):
        g = cycle_graph(3)
        pt = VertexAssignment(RATIONALS, [[1, 2], [3, 4], [5, 6]])
        spaces = [
            standard_space("hyperbolic", 2, RATIONALS),
            # fractional Grams: emitted terms are the Gram's entries, not scaled ints
            space_from_rows("symplectic", [["0", "1/2"], ["-1/2", "0"]]),
            space_from_rows("symmetric", [["1/2", "1/3"], ["1/3", "2"]]),
        ]
        for space in spaces:
            ctx = VarietyContext(g, space)
            res = residual(ctx, pt)
            eqs = equations_to_obj(g.edges, space.terms)["equations"]
            assert len(eqs) == len(res)
            for eq, value in zip(eqs, res):
                lo, hi = map(int, eq["edge"])
                total = sum(Fraction(c) * vectors(pt)[lo][int(i)] * vectors(pt)[hi][int(j)]
                            for i, j, c in eq["terms"])
                assert total == value


class TestProjectiveClassification:
    def test_canonical_degrees(self):
        assert canonical_degrees(path_graph(3), 4) == (-3, -2, -3)
        assert canonical_degrees(Graph(1, []), 3) == (-3,)
        assert canonical_degrees(star_graph(4), 4) == (0, -3, -3, -3, -3)

    def test_anti_ample(self):
        assert is_anti_ample(canonical_degrees(star_graph(3), 4))
        assert not is_anti_ample(canonical_degrees(star_graph(3), 3))
        assert not is_anti_ample(canonical_degrees(star_graph(4), 4))

    def test_forest_is_smooth(self):
        v = projective_smoothness(path_graph(4), 2, "symplectic")
        assert v == "smooth"
        v = projective_smoothness(star_graph(3), 3, "symmetric")
        assert v == "smooth"

    def test_symplectic_cycle_is_singular(self):
        v = projective_smoothness(cycle_graph(3), 4, "symplectic")
        assert v == "singular"

    def test_symplectic_small_dimension_is_unknown(self):
        v = projective_smoothness(cycle_graph(3), 2, "symplectic")
        assert v == "unknown"

    def test_symmetric_even_cycle_is_singular(self):
        v = projective_smoothness(cycle_graph(4), 4, "symmetric")
        assert v == "singular"

    def test_symmetric_odd_cycles_only_is_unknown(self):
        v = projective_smoothness(cycle_graph(3), 4, "symmetric")
        assert v == "unknown"
