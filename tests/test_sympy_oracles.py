"""Cross-checks of the elimination in `linalg` against sympy, an independent
implementation that is installed for the tests only.  The reduced row
echelon form is unique, so the rows and the pivots must agree exactly."""

import random
from fractions import Fraction

import pytest

from graphvariety.linalg import kernel, rref

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
    basis = kernel(rows, ncols, p)
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
    assert len(rref(basis, ncols, p)[1]) == len(basis)


@pytest.mark.parametrize("seed", range(4))
def test_rref_over_q_matches_sympy(seed):
    rng = random.Random(seed)
    for raw, n in matrices(rng, lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 5))):
        rows = [[Fraction(x) for x in row] for row in raw]
        theirs, their_pivots = sympy.Matrix(
            len(rows), n, [sympy.Rational(x.numerator, x.denominator) for row in rows for x in row]
        ).rref()
        expected = [[Fraction(int(x.p), int(x.q)) for x in row] for row in theirs.tolist()]
        reduced, pivots = rref(rows, n)
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
