"""Singularity certificates from the sparse elimination, against the dense
Jacobian, plus the byte-exact `certify` output and the one-pass verifier.

The dense oracle is `jacobian(...)`: a point is smooth exactly when its rank
is |E|, and the certificate is the first vector of its RREF left kernel,
which is the unique dependency of the first dependent edge row.
"""

import hashlib
import json
import random
from fractions import Fraction

import pytest

from graphvariety import (
    BilinearSpace,
    Graph,
    PrimeField,
    RATIONALS,
    SingularityCertificate,
    VarietyContext,
    VertexAssignment,
    cycle_graph,
    cycle_singular_point,
    degeneracy_order,
    sample_regular_point,
    singular_certificate,
    standard_space,
    verify_certificate,
)
from graphvariety.cli import main
from graphvariety.linalg import first_dependency
from graphvariety.sampling import SamplerConfig
from graphvariety.variety import _edge_rows
from oracles import (complete_bipartite_graph, dot, field_kernel, field_rref,
                     independent_set_point, jacobian, left_kernel, origin, random_connected_graph,
                     rank, reference_first_dependency, reference_rref)

FIELDS = [RATIONALS] + [PrimeField(p) for p in (2, 3, 7, 10007)]


def spaces(field):
    shapes = [("symmetric", 3), ("hyperbolic", 4)]
    if field.characteristic != 2:
        shapes += [("symplectic", 2), ("symplectic", 4), ("symplectic", 6)]
    return [standard_space(form, n, field) for form, n in shapes]


def isotropic_coordinates(space):
    """Coordinates spanning a totally isotropic subspace of the standard
    form: the first half (symplectic), the even ones (hyperbolic), none
    (the identity form)."""
    if space.kind == "symplectic":
        return range(space.n // 2)
    if space.isotropic_basis_vector() is not None:
        return range(0, space.n, 2)
    return range(0)


def scalar(rng, field):
    return field(rng.randint(-3, 3)) if field.p is None else rng.randrange(field.p)


def isotropic_vector(rng, space):
    vec = [space.field.zero()] * space.n
    for i in isotropic_coordinates(space):
        vec[i] = scalar(rng, space.field)
    return vec


def lagrangian_point(rng, graph, space, zero_share=0.2):
    """Random vectors of one totally isotropic subspace, some of them zero:
    a member of every graph's variety, often of lower Jacobian rank."""
    zero = [space.field.zero()] * space.n
    return VertexAssignment(space.field, [
        zero if rng.random() < zero_share else isotropic_vector(rng, space)
        for _ in range(graph.num_vertices)
    ])


def repeated_point(rng, graph, space):
    """Every vertex carries one of two isotropic vectors."""
    pair = [isotropic_vector(rng, space), isotropic_vector(rng, space)]
    return VertexAssignment(space.field, [rng.choice(pair) for _ in range(graph.num_vertices)])


def with_isolated_vertices(rng, graph, extra):
    """The graph relabelled into `extra` more vertices, which stay isolated."""
    labels = rng.sample(range(graph.num_vertices + extra), graph.num_vertices)
    return Graph(graph.num_vertices + extra,
                 [(labels[u], labels[v]) for u, v in graph.edges])


def graphs(rng):
    yield complete_bipartite_graph(rng.randint(1, 3), rng.randint(2, 4))
    yield complete_bipartite_graph(3, 4)
    yield cycle_graph(rng.randint(3, 6))
    yield random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 6))
    yield with_isolated_vertices(rng, random_connected_graph(rng, 5, 3), 2)
    yield Graph(rng.randint(0, 3), [])


def cases(field, seed):
    rng = random.Random(seed)
    for space in spaces(field):
        for g in graphs(rng):
            yield g, space, lagrangian_point(rng, g, space)
            yield g, space, repeated_point(rng, g, space)
            yield g, space, independent_set_point(rng, g, space, bound=3)
            yield g, space, origin(g, space)
            og, width = degeneracy_order(g)
            if space.n >= 2 * width and (field.p is None or field.p > 1000):
                cfg = SamplerConfig(seed=rng.randrange(2**31), bound=3)
                yield g, space, sample_regular_point(og, space, cfg)


def assert_matches_dense(g, space, point):
    ctx = VarietyContext(g, space)
    dense = jacobian(ctx, point)
    full_rank = rank(space.field, dense) == g.num_edges
    cert = singular_certificate(ctx, point)
    assert (cert is None) == full_rank
    if not full_rank:
        assert cert.values == tuple(left_kernel(space.field, dense)[0])
    return full_rank


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
@pytest.mark.parametrize("seed", range(3))
def test_certificate_is_the_dense_left_kernel_vector(field, seed):
    verdicts = [assert_matches_dense(*case) for case in cases(field, seed)]
    assert True in verdicts and False in verdicts


def invertible_matrix(rng, field, n):
    """A random invertible n x n matrix, with fractional entries over Q."""
    while True:
        if field.p is None:
            a = [[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))) for _ in range(n)]
                 for _ in range(n)]
        else:
            a = [[rng.randrange(field.p) for _ in range(n)] for _ in range(n)]
        if rank(field, a) == n:
            return a


def dense_case(rng, space, point):
    """The space with Gram A^T G A for a random invertible A, and the point
    A^-1 w on it: its form values, so its membership and its Jacobian's
    left kernel, are those of `point` in `space`."""
    field, n = space.field, space.n
    a = invertible_matrix(rng, field, n)
    gram = [[dot(field, col, [dot(field, row, b) for row in space.gram]) for b in zip(*a)]
            for col in zip(*a)]
    identity = [[field.one() if i == j else field.zero() for j in range(n)] for i in range(n)]
    inverse = [row[n:] for row in reference_rref([a[i] + identity[i] for i in range(n)], n,
                                                 field.p)[0]]
    return (BilinearSpace(n, space.kind, gram, field),
            VertexAssignment(field, [[dot(field, row, w) for row in inverse] for w in point.vectors]))


def gram_restored(ctx, point):
    """The rows of `_edge_rows` times I_V (x) gram^T, dense: each block b
    becomes b^T gram^T, which is gram b."""
    n, field = ctx.space.n, ctx.field
    rows = []
    for sparse in _edge_rows(ctx, point):
        row = []
        for v in range(ctx.graph.num_vertices):
            block = [sparse.get(v * n + i, field.zero()) for i in range(n)]
            row += [dot(field, g, block) for g in ctx.space.gram]
        rows.append(row)
    return rows


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7), PrimeField(10007)],
                         ids=lambda f: f.name)
def test_dense_grams(field):
    # the standard Grams are signed permutations; A^T G A is dense
    rng = random.Random(5)
    verdicts, kinds = [], set()
    for g, standard, standard_point in cases(field, 0):
        space, point = dense_case(rng, standard, standard_point)
        kinds.add(space.kind)
        ctx = VarietyContext(g, space)
        dense = jacobian(ctx, point)
        assert gram_restored(ctx, point) == dense
        full_rank = assert_matches_dense(g, space, point)
        verdicts.append(full_rank)
        if full_rank:
            continue
        cert = singular_certificate(ctx, point)
        assert verify_certificate(ctx, point, cert)
        # a nonzero Jacobian row leaves the left kernel when its weight changes
        for e in (e for e, row in enumerate(dense) if any(row)):
            values = list(cert.values)
            values[e] = field(values[e] + 1)
            assert not verify_certificate(ctx, point, SingularityCertificate(cert.edges, values))
    assert True in verdicts and False in verdicts
    assert kinds == {"symmetric", "symplectic"}


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.name)
def test_rank_deficient_bipartite_points(field):
    # at vectors of an isotropic plane, edge weights u v^T with u orthogonal
    # to the A-side vectors and v to the B-side ones are dependencies of the
    # edge rows; they exist once both sides have more than 2 vertices
    rng = random.Random(17)
    space = spaces(field)[1]
    for a, b in ((3, 3), (3, 4), (4, 4)):
        g = complete_bipartite_graph(a, b)
        for _ in range(4):
            assert not assert_matches_dense(g, space, lagrangian_point(rng, g, space, 0))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(3), PrimeField(7)], ids=lambda f: f.name)
@pytest.mark.parametrize("k", [3, 4, 5, 6])
def test_cycle_singular_points(field, k):
    space = standard_space("symplectic", 4, field)
    point, _ = cycle_singular_point(k, space)
    assert not assert_matches_dense(cycle_graph(k), space, point)


def rational_lagrangian_point(rng, a, n):
    """Vectors of span(e_0..e_{n/2-1}), isotropic for the standard
    symplectic form, with entries of mixed denominators, on K_{a,a}."""
    h = n // 2
    return VertexAssignment(RATIONALS, [
        [Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 12, 10**9 + 7)))
         for _ in range(h)] + [0] * (n - h)
        for _ in range(2 * a)
    ])


@pytest.mark.parametrize("seed", range(4))
def test_rational_singular_points_verify(seed):
    # a^2 edge rows against a Jacobian rank of at most a * n: singular once a > n
    rng = random.Random(seed)
    for a, n in ((3, 2), (4, 2), (5, 4), (6, 4)):
        ctx = VarietyContext(complete_bipartite_graph(a, a), standard_space("symplectic", n))
        for _ in range(3):
            point = rational_lagrangian_point(rng, a, n)
            rows = _edge_rows(ctx, point)
            combo = first_dependency(rows)
            assert combo is not None and combo == reference_first_dependency(rows)
            cert = singular_certificate(ctx, point)
            assert cert.values == tuple(combo.get(e, 0) for e in range(len(rows)))
            assert verify_certificate(ctx, point, cert)


def sparse_rows(rng, p, nrows, ncols):
    """Random sparse rows, with repeated rows, multiples and zero rows."""
    rows = []
    for _ in range(nrows):
        kind = rng.random()
        if rows and kind < 0.15:
            c = scalar(rng, RATIONALS if p is None else PrimeField(p)) or 1
            base = rng.choice(rows)
            row = {k: x * c if p is None else x * c % p for k, x in base.items()}
        elif kind < 0.2:
            row = {}
        else:
            row = {}
            for k in rng.sample(range(ncols), rng.randint(1, min(3, ncols))):
                x = Fraction(rng.randint(-4, 4)) if p is None else rng.randrange(p)
                if x:
                    row[k] = x
        rows.append(row)
    return rows


@pytest.mark.parametrize("p", [None, 2, 3, 7, 10007])
def test_first_dependency_against_rref(p):
    rng = random.Random(p or 0)
    zero = Fraction(0) if p is None else 0
    seen = set()
    for _ in range(300):
        nrows, ncols = rng.randint(0, 7), rng.randint(1, 6)
        rows = sparse_rows(rng, p, nrows, ncols)
        columns = [[row.get(c, zero) for row in rows] for c in range(ncols)]
        pivots = field_rref(columns, nrows, p)[1] if nrows else []
        free = [f for f in range(nrows) if f not in pivots]
        combo = first_dependency(rows, p)
        if not free:
            assert combo is None
            seen.add("independent")
            continue
        f = free[0]
        assert max(combo) == f and combo[f] == 1
        assert [combo.get(i, zero) for i in range(nrows)] == field_kernel(columns, nrows, p)[0]
        assert all(x % p if p else x for x in combo.values())
        for c in range(ncols):
            total = sum((lam * rows[i].get(c, zero) for i, lam in combo.items()), zero)
            assert (total if p is None else total % p) == 0
        seen.add("dependent")
    assert seen == {"independent", "dependent"}


def test_first_dependency_small_cases():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    copy = [dict(r) for r in rows]
    assert first_dependency(rows) == {0: Fraction(-2), 1: Fraction(1)}
    assert rows == copy
    assert first_dependency([]) is None
    assert first_dependency([{}], 5) == {0: 1}


K33 = "0 3\n0 4\n0 5\n1 3\n1 4\n1 5\n2 3\n2 4\n2 5\n"
GOLDEN = {
    # field: (vectors in span(e_0, e_1) for vertices 0..5, sha256 of the
    # certify stdout, the certificate weights it holds)
    "Q": (
        [["1", "2"], ["3", "-1"], ["2", "5"], ["-1", "4"], ["7", "3"], ["1", "-6"]],
        "7425aa71547a72d9d8308ac632839e4bbcd0cec0d022f6027c233222e7e9f214",
        ["-765/217", "-34/217", "-17/7", "45/217", "2/217", "1/7", "45/31", "2/31", "1"],
    ),
    "Fp:7": (
        [["1", "2"], ["3", "6"], ["2", "5"], ["6", "4"], ["0", "3"], ["1", "1"]],
        "bde0d8ebc4af70c3e446c8deafabb6dbd087854a81fd3eaf35f8245a4079bd57",
        ["4", "5", "4", "1", "3", "1", "0", "0", "0"],
    ),
}


@pytest.mark.parametrize("field", sorted(GOLDEN))
def test_certify_output_is_pinned(field, tmp_path, capsys):
    vectors, digest, weights = GOLDEN[field]
    graph = tmp_path / "k33.txt"
    graph.write_text(K33)
    point = tmp_path / "point.json"
    point.write_text(json.dumps({
        "field": field,
        "vectors": {str(v): vec + ["0", "0"] for v, vec in enumerate(vectors)},
    }))
    code = main(["certify", "--graph", str(graph), "--dim", "4", "--point", str(point)])
    out = capsys.readouterr().out
    assert code == 0
    assert [w[2] for w in json.loads(out)["certificate"]["weights"]] == weights
    assert hashlib.sha256(out.encode()).hexdigest() == digest


class TestOnePassVerifier:
    def cycle_case(self, field=RATIONALS):
        space = standard_space("symplectic", 4, field)
        point, cert = cycle_singular_point(4, space)
        return VarietyContext(cycle_graph(4), space), point, cert

    def test_one_perturbed_weight_is_rejected(self):
        ctx, point, cert = self.cycle_case()
        assert verify_certificate(ctx, point, cert)
        for e in range(len(cert.values)):
            values = list(cert.values)
            values[e] += 1
            bad = SingularityCertificate(cert.edges, tuple(values))
            assert not verify_certificate(ctx, point, bad)

    def test_defect_only_at_the_last_vertex_is_rejected(self):
        # a pendant edge to a new, highest vertex carrying zero: the edge adds
        # gram * 0 at vertex 0 and gram^T * w(0) != 0 at vertex 4 only
        ctx, point, cert = self.cycle_case()
        g = Graph(5, list(ctx.graph.edges) + [(0, 4)])
        big = VarietyContext(g, ctx.space)
        big_point = VertexAssignment(RATIONALS, list(point.vectors) + [[0] * 4])
        lam = dict(zip(cert.edges, cert.values))
        values = tuple(lam.get(e, Fraction(1)) for e in g.edges)
        assert not verify_certificate(big, big_point, SingularityCertificate(g.edges, values))
        values = tuple(lam.get(e, Fraction(0)) for e in g.edges)
        assert verify_certificate(big, big_point, SingularityCertificate(g.edges, values))

    def test_isolated_vertices_verify(self):
        space = standard_space("symplectic", 4, RATIONALS)
        g = Graph(7, [(1, 2), (2, 4), (4, 5), (1, 5)])
        vec = [Fraction(1), Fraction(0), Fraction(0), Fraction(0)]
        other = [Fraction(2), Fraction(3), Fraction(5), Fraction(7)]
        point = VertexAssignment(RATIONALS, [other, vec, vec, other, vec, vec, other])
        ctx = VarietyContext(g, space)
        cert = singular_certificate(ctx, point)
        assert cert is not None and verify_certificate(ctx, point, cert)

    def test_multiples_of_p_are_rejected(self):
        ctx, point, cert = self.cycle_case(PrimeField(7))
        assert verify_certificate(ctx, point, cert)
        bad = SingularityCertificate(cert.edges, (7, 14, 0, -7))
        assert not verify_certificate(ctx, point, bad)


class TestWireShape:
    """Certificates as JSON gives them: list edges, str or int values."""

    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=lambda f: f.name)
    @pytest.mark.parametrize("wire", [str, int])
    def test_wire_values_and_list_edges_verify(self, field, wire):
        space = standard_space("symplectic", 4, field)
        point, cert = cycle_singular_point(4, space)
        ctx = VarietyContext(cycle_graph(4), space)
        edges = [list(e) for e in cert.edges]
        values = [wire(x) for x in cert.values]
        assert verify_certificate(ctx, point, SingularityCertificate(edges, values))
        changed = [wire(cert.values[0] + 1)] + values[1:]
        assert not verify_certificate(ctx, point, SingularityCertificate(edges, changed))
        off = [list(v) for v in point.vectors]
        off[0][2] = field(1)
        off_point = VertexAssignment(field, off)
        assert not verify_certificate(ctx, off_point, SingularityCertificate(edges, values))


@pytest.mark.parametrize("field", [RATIONALS, PrimeField(7)], ids=lambda f: f.name)
def test_certificate_checks_membership_once(monkeypatch, field):
    calls = []
    pair = BilinearSpace.pair

    def counted(self, u, v):
        calls.append(1)
        return pair(self, u, v)

    monkeypatch.setattr(BilinearSpace, "pair", counted)
    # K3,3 on six pairwise independent vectors of the Lagrangian plane
    # span(e0, e1): a member point whose edge rows have one dependency
    g = complete_bipartite_graph(3, 3)
    plane = [(1, 0), (0, 1), (1, 1), (1, 2), (2, 1), (1, 3)]
    point = VertexAssignment(field, [[a, b, 0, 0] for a, b in plane])
    ctx = VarietyContext(g, standard_space("symplectic", 4, field))
    cert = singular_certificate(ctx, point)
    assert cert is not None
    assert len(calls) == g.num_edges == 9
    calls.clear()
    assert verify_certificate(ctx, point, cert)
    assert len(calls) == 9
