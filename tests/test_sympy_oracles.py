"""Cross-checks of the elimination in `linalg` and of the pairing and Gram
products in `bilinear` against sympy, an independent implementation that is
installed for the tests only.  The reduced row echelon form is unique, so the
rows and the pivots must agree exactly, and so must every form value and
every coordinate of a Gram product."""

import random
from fractions import Fraction

import pytest

from graphvariety.bilinear import BilinearSpace, standard_space
from graphvariety.fields import RATIONALS, PrimeField
from graphvariety.linalg import rref
from graphvariety.serialization import gram_terms_from_obj
from oracles import dense_gram, dot, field_kernel, field_rref, gram_product

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

SHAPES = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 1), (1, 4), (3, 3), (4, 6), (6, 4), (5, 5)]


def matrices(rng, draw):
    """(rows, ncols) for every shape: dense, sparse, zero, and a product of
    an m x r and an r x n matrix with r = min(m, n) // 2, so rank deficient."""
    for m, n in SHAPES:
        yield [[draw() for _ in range(n)] for _ in range(m)], n
        yield [[draw() if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(m)], n
        yield [[0] * n for _ in range(m)], n
        r = min(m, n) // 2
        if r:
            left = [[draw() for _ in range(r)] for _ in range(m)]
            right = [[draw() for _ in range(n)] for _ in range(r)]
            yield [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                   for row in left], n


def check_kernel(rows, ncols, p, rank):
    basis = field_kernel(rows, ncols, p)
    assert len(basis) == ncols - rank
    for vec in basis:
        assert len(vec) == ncols and any(vec)
        if p is None:
            assert all(isinstance(x, Fraction) for x in vec)
        else:
            assert all(0 <= x < p for x in vec)
        for row in rows:
            total = sum(a * x for a, x in zip(row, vec))
            assert (total if p is None else total % p) == 0
    assert len(field_rref(basis, ncols, p)[1]) == len(basis)


@pytest.mark.parametrize("seed", range(4))
def test_rref_over_q_matches_sympy(seed):
    rng = random.Random(seed)
    for raw, n in matrices(rng, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))):
        rows = [[Fraction(x) for x in row] for row in raw]
        theirs, their_pivots = sympy.Matrix(
            len(rows), n, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
        ).rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in row] for row in theirs.tolist()]
        reduced, pivots = field_rref(rows, n)
        assert reduced == expected
        assert pivots == list(their_pivots)
        assert all(isinstance(x, Fraction) for row in reduced for x in row)
        check_kernel(rows, n, None, len(pivots))


@pytest.mark.parametrize("p", [2, 3, 7, 10007])
@pytest.mark.parametrize("seed", range(4))
def test_rref_over_gf_p_matches_sympy(p, seed):
    rng = random.Random(seed)
    field = sympy.GF(p)
    for raw, n in matrices(rng, lambda: rng.randrange(p)):
        rows = [[x % p for x in row] for row in raw]
        theirs, their_pivots = DomainMatrix(
            [[field(x) for x in row] for row in rows], (len(rows), n), field
        ).rref()
        expected = [[int(x) % p for x in row] for row in theirs.to_list()]
        reduced, pivots = rref(rows, n, p)
        assert reduced == expected
        assert pivots == list(their_pivots)
        check_kernel(rows, n, p, len(pivots))


def gram_obj(rng, field, n, sign):
    """A random n x n Gram matrix as `--gram` reads it, decimal strings, with
    gram[j][i] == sign * gram[i][j]; fractions over Q, so the Gram's common
    denominator is not 1, and unreduced integers, negatives too, over F_p."""
    bound = 9 if field.p is None else field.p - 1
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and sign == -1 or rng.random() < 0.3:
                continue
            x = rng.randint(-bound, bound)
            rows[i][j] = Fraction(x, rng.randint(1, 6)) if field.p is None else x
            rows[j][i] = sign * rows[i][j]
    return [[str(x) for x in row] for row in rows]


def pairing_spaces(rng, field):
    """The standard forms over `field`, and random non-degenerate `--gram`
    spaces: symmetric, and antisymmetric outside characteristic 2."""
    odd = field.p != 2
    shapes = [("symmetric", 1), ("symmetric", 3), ("hyperbolic", 4)]
    shapes += [("symplectic", 2), ("symplectic", 8)] if odd else []
    spaces = [standard_space(form, n, field) for form, n in shapes]
    kinds = [("symmetric", 1, (2, 3, 5))] + ([("symplectic", -1, (2, 4, 6))] if odd else [])
    for kind, sign, dims in kinds:
        for n in dims:
            while True:
                n, terms = gram_terms_from_obj(gram_obj(rng, field, n, sign), field)
                try:
                    spaces.append(BilinearSpace(n, kind, terms, field))
                    break
                except ValueError:  # degenerate; draw again
                    pass
    return spaces


def draw_vector(rng, field, n):
    """Zero about one time in eight; over Q mixed denominators and signs."""
    if rng.random() < 0.125:
        return [field.zero()] * n
    if field.p is None:
        return [Fraction(rng.randint(-20, 20), rng.randint(1, 12)) for _ in range(n)]
    return [rng.randrange(field.p) for _ in range(n)]


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def from_sympy(field, value):
    """A sympy rational as a field scalar: a Fraction, or reduced mod p."""
    return Fraction(int(value.p), int(value.q)) if field.p is None else int(value) % field.p


def sympy_pairing(space, u, v):
    """u^T * gram * v computed by sympy over Q, then reduced mod p over F_p."""
    value = (sympy_matrix([u]) * sympy_matrix(dense_gram(space)) * sympy_matrix([v]).T)[0, 0]
    return from_sympy(space.field, value)


def sympy_product(space, v, transpose):
    """gram * v, or gram^T * v, computed by sympy, coordinates as in `from_sympy`."""
    gram = sympy_matrix(dense_gram(space))
    column = (gram.T if transpose else gram) * sympy_matrix([v]).T
    return [from_sympy(space.field, x) for x in column]


@pytest.mark.parametrize("p", [None, 2, 3, 7, 10007])
@pytest.mark.parametrize("seed", range(3))
def test_pair_matches_dense_product_and_sympy(p, seed):
    rng = random.Random(seed)
    field = RATIONALS if p is None else PrimeField(p)
    for space in pairing_spaces(rng, field):
        for _ in range(8):
            u, v = draw_vector(rng, field, space.n), draw_vector(rng, field, space.n)
            value = space.pair(u, v)
            assert value == dot(field, u, gram_product(space, v)) == sympy_pairing(space, u, v)
            if p is None:
                assert isinstance(value, Fraction)
            else:
                assert type(value) is int and 0 <= value < p
            for transpose in (False, True):
                product = space.gram_transpose_times if transpose else space.gram_times
                assert (product(v) == gram_product(space, v, transpose)
                        == sympy_product(space, v, transpose))
        for bad in ((u + [field.zero()], v), (u, v[:-1])):
            with pytest.raises(ValueError):
                space.pair(*bad)
        for bad in (v + [field.zero()], v[:-1]):
            for product in (space.gram_times, space.gram_transpose_times):
                with pytest.raises(ValueError):
                    product(bad)
