from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvariety import (
    PrimeField,
    RATIONALS,
    RationalField,
    field_from_spec,
)
from graphvariety.fields import _is_prime
from graphvariety.linalg import first_dependency, kernel, rref
from oracles import (dot, field_kernel, field_rref, integer_sparse_row, left_kernel, rank,
                     reference_first_dependency, reference_kernel, reference_rref, transpose)


class TestRationalField:
    def test_coercion(self):
        assert RATIONALS(3) == Fraction(3)
        assert RATIONALS("3/4") == Fraction(3, 4)
        assert RATIONALS(Fraction(-1, 2)) == Fraction(-1, 2)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            RATIONALS(0.5)

    def test_decimal_exponent_is_bounded(self):
        assert RATIONALS("1e3") == 1000
        assert RATIONALS("-2.5E-2") == Fraction(-1, 40)
        with pytest.raises(ValueError):
            RATIONALS("1e5000")

    def test_malformed_exponent_names_the_input(self):
        with pytest.raises(ValueError, match="'1e'"):
            RATIONALS("1e")
        with pytest.raises(ValueError, match="'1ex'"):
            RATIONALS("1ex")
        with pytest.raises(ValueError, match="'1e5000' exceeds 4300"):
            RATIONALS("1e5000")

    def test_zero_denominator_names_the_input(self):
        for text in ("1/0", "-3/0", "0/0"):
            with pytest.raises(ValueError, match=f"'{text}' has a zero denominator"):
                RATIONALS(text)

    def test_basic_attributes(self):
        assert RATIONALS.name == "Q"
        assert RATIONALS.p is None
        assert RATIONALS.zero() == 0
        assert type(RATIONALS(1)) is Fraction and RATIONALS(1) == 1

    def test_instances_compare_equal(self):
        assert RationalField() == RATIONALS


class TestPrimeField:
    def test_non_prime_rejected(self):
        for bad in (0, 1, 4, 9, 15):
            with pytest.raises(ValueError):
                PrimeField(bad)

    def test_name_and_order(self):
        f = PrimeField(7)
        assert f.name == "Fp:7"
        assert f.order == 7
        assert f.p == 7

    def test_coercion_reduces_into_range(self):
        f = PrimeField(7)
        assert f(10) == 3 and f(-1) == 6 and f("-8") == 6 and f(" 15 ") == 1
        assert type(f(3)) is int and (f.zero(), f(1)) == (0, 1)
        for bad in (0.5, Fraction(1, 2), None):
            with pytest.raises(TypeError):
                f(bad)


def trial_division(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


class TestPrimality:
    def test_matches_trial_division(self):
        assert [n for n in range(10**4) if _is_prime(n)] == [
            n for n in range(10**4) if trial_division(n)
        ]

    @pytest.mark.parametrize("n", [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                                   321197185])
    def test_carmichael_numbers_are_composite(self, n):
        assert not _is_prime(n)

    # the least strong pseudoprimes to the first k prime bases, k = 1..12
    @pytest.mark.parametrize("n", [2047, 1373653, 25326001, 3215031751, 2152302898747,
                                   3474749660383, 341550071728321, 3825123056546413051,
                                   318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not _is_prime(n)

    def test_large_primes(self):
        assert _is_prime(2**61 - 1)
        assert _is_prime(100000000000031)
        assert not _is_prime((2**19 - 1) * (2**61 - 1))
        assert PrimeField(2**61 - 1).order == 2**61 - 1

    def test_moduli_past_the_proven_range_are_rejected(self):
        with pytest.raises(ValueError):
            PrimeField(2**89 - 1)
        with pytest.raises(ValueError):
            field_from_spec("Fp:170141183460469231731687303715884105727")


class TestFieldFromSpec:
    def test_label_round_trip(self):
        assert field_from_spec("Q") is RATIONALS or field_from_spec("Q") == RATIONALS
        f = field_from_spec("Fp:13")
        assert isinstance(f, PrimeField) and f.order == 13

    def test_bad_labels(self):
        for bad in ("R", "Fp:", "Fp:4", "Fp:x", ""):
            with pytest.raises(ValueError):
                field_from_spec(bad)


def q_rows(rows):
    return [[RATIONALS(x) for x in row] for row in rows]


class TestRank:
    def test_examples(self):
        assert rank(RATIONALS, q_rows([[1, 2], [2, 4]])) == 1
        assert rank(RATIONALS, q_rows([[1, 0], [0, 1]])) == 2
        assert rank(RATIONALS, q_rows([[1, 2, 3]])) == 1

    def test_rank_depends_on_field(self):
        # the same integer entries can drop rank after reduction mod p
        rows = [[2, 0], [0, 1]]
        assert rank(RATIONALS, q_rows(rows)) == 2
        f2 = PrimeField(2)
        assert rank(f2, [[f2(2), f2(0)], [f2(0), f2(1)]]) == 1

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_rank_equals_transpose_rank(self, raw):
        width = len(raw[0])
        rows = [r[:width] + [0] * (width - len(r)) for r in raw]
        m = q_rows(rows)
        assert rank(RATIONALS, m) == rank(RATIONALS, transpose(m))
        f = PrimeField(5)
        mp = [[f(x) for x in r] for r in rows]
        assert rank(f, mp) == rank(f, transpose(mp))


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        assert field_kernel(q_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), 3) == []

    def test_zero_matrix_kernel_is_everything(self):
        assert len(field_kernel(q_rows([[0, 0, 0], [0, 0, 0]]), 3)) == 3
        # with no rows at all the basis is the identity, in column order
        assert field_kernel([], 3) == q_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert field_kernel([], 2, 7) == [[1, 0], [0, 1]]

    def test_single_relation(self):
        basis = field_kernel(q_rows([[1, 1]]), 2)
        assert len(basis) == 1
        x = basis[0]
        assert x[0] + x[1] == 0 and any(x)

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=4),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_kernel_vectors_annihilate_exactly(self, raw):
        width = len(raw[0])
        rows = [r[:width] + [0] * (width - len(r)) for r in raw]
        for field in (RATIONALS, PrimeField(7)):
            m = [[field(x) for x in r] for r in rows]
            basis = field_kernel(m, width, field.p)
            assert len(basis) == width - rank(field, m)
            zero = field.zero()
            for vec in basis:
                assert any(x != zero for x in vec)
                assert all(dot(field, row, vec) == zero for row in m)
            assert rank(field, basis) == len(basis)

    def test_left_kernel(self):
        m = q_rows([[1, 2], [2, 4], [0, 0]])
        basis = left_kernel(RATIONALS, m)
        assert len(basis) == 2
        for y in basis:
            prod = [dot(RATIONALS, col, y) for col in transpose(m)]
            assert all(x == 0 for x in prod)


class TestVectorHelpers:
    def test_dot(self):
        assert dot(RATIONALS, [1, 2, 3], [4, 5, 6]) == 32
        f = PrimeField(5)
        assert dot(f, [f(2), f(3)], [f(4), f(4)]) == f(0)


# Rationals with small, mixed and large denominators, negatives and zeros.
SCALARS = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.builds(Fraction, st.integers(-10**12, 10**12), st.integers(1, 10**9)),
)


@st.composite
def q_matrices(draw, max_rows=7, max_cols=7):
    """(ncols, rows) of tall, wide or empty shape, with a zero row, a
    repeated row or a combination of earlier rows planted at chosen rows."""
    ncols = draw(st.integers(0, max_cols))
    nrows = draw(st.integers(0, max_rows))
    rows = [draw(st.lists(SCALARS, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        k = draw(st.integers(0, nrows - 1))
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero":
            rows[k] = [Fraction(0)] * ncols
        elif kind == "repeat" and k:
            rows[k] = list(rows[draw(st.integers(0, k - 1))])
        elif k:
            coeffs = draw(st.lists(SCALARS, min_size=k, max_size=k))
            rows[k] = [sum((c * row[j] for c, row in zip(coeffs, rows)), Fraction(0))
                       for j in range(ncols)]
    return ncols, rows


def all_fractions(values):
    return all(type(x) is Fraction for x in values)


@st.composite
def fp_matrices(draw, p, max_rows=7, max_cols=7):
    """(ncols, rows) of residues mod p, as `q_matrices`, but each row may
    run up to 3 columns past `ncols`, as the counter's `rref` calls do: a
    planted zero or dependent row is so only in the first `ncols` columns,
    and past them it is random, which leaves nonzero remainder rows."""
    ncols = draw(st.integers(0, max_cols))
    extra = draw(st.integers(0, 3))
    nrows = draw(st.integers(0, max_rows))
    scalars = st.just(0) | st.integers(0, p - 1)
    rows = [draw(st.lists(scalars, min_size=ncols + extra, max_size=ncols + extra))
            for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2)) if rows else 0):
        k = draw(st.integers(0, nrows - 1))
        kind = draw(st.sampled_from(["zero", "repeat", "combination"]))
        if kind == "zero":
            head = [0] * ncols
        elif kind == "repeat" and k:
            head = rows[draw(st.integers(0, k - 1))][:ncols]
        elif k:
            coeffs = draw(st.lists(scalars, min_size=k, max_size=k))
            head = [sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(ncols)]
        else:
            continue
        rows[k] = head + rows[k][ncols:]
    return ncols, rows


@st.composite
def wide_int_matrices(draw, max_rows=6, max_cols=5):
    """(ncols, rows) of small ints, each row 1 to 3 columns longer than
    `ncols`; a planted row is a multiple of an earlier one in the first
    `ncols` columns only, so rows past the rank may be nonzero past them."""
    ncols = draw(st.integers(0, max_cols))
    width = ncols + draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(-4, 4), min_size=width, max_size=width),
                         max_size=max_rows))
    if len(rows) > 1 and draw(st.booleans()):
        k = draw(st.integers(1, len(rows) - 1))
        c = draw(st.integers(-2, 2))
        rows[k] = [c * x for x in rows[k - 1][:ncols]] + rows[k][ncols:]
    return ncols, rows


class TestFractionFreeElimination:
    """The elimination returns exactly what elimination on field scalars
    (the reference in `oracles`) returns: integer rows against `Fraction`s
    over Q, and residues with pivot rows scaled to 1 over F_p."""

    @given(q_matrices())
    @settings(max_examples=250, deadline=None)
    def test_rref_kernel_and_first_dependency_match_the_reference(self, matrix):
        ncols, rows = matrix
        sparse = [integer_sparse_row({c: x for c, x in enumerate(row) if x}) for row in rows]
        copies = [list(r) for r in rows], [dict(r) for r in sparse]
        reduced, pivots = field_rref(rows, ncols)
        assert (reduced, pivots) == reference_rref(rows, ncols)
        assert all(all_fractions(row) for row in reduced)
        basis = field_kernel(rows, ncols)
        assert basis == reference_kernel(rows, ncols)
        assert all(all_fractions(vec) for vec in basis)
        combo = first_dependency(sparse)
        assert combo == reference_first_dependency(sparse)
        assert combo is None or all_fractions(combo.values())
        assert (rows, sparse) == copies

    def test_planted_dependency_with_denominators(self):
        # 21, 9 and 189 times (1/3, 0, 5/7), (0, -2/9, 0) and (2/3, 4/27, 10/7),
        # the last being 2 * the first - (2/3) * the second: row 2 = 18 * row 0 - 14 * row 1
        rows = [{0: 7, 2: 15}, {1: -2}, {0: 126, 1: 28, 2: 270}]
        assert first_dependency(rows) == {0: Fraction(-18), 1: Fraction(14), 2: Fraction(1)}
        assert field_rref([[Fraction(2, 3), Fraction(1, 5)]], 2) == ([[1, Fraction(3, 10)]], [0])
        assert rref([[10, 3]], 2) == ([[10, 3]], [0])

    @given(wide_int_matrices())
    @settings(max_examples=200, deadline=None)
    def test_columns_past_ncols_take_part_over_q(self, matrix):
        # each integer row is a nonzero multiple of the reference row on
        # `Fraction`s, the columns past ncols included
        ncols, rows = matrix
        reduced, pivots = rref(rows, ncols)
        expected, expected_pivots = reference_rref(q_rows(rows), ncols)
        assert pivots == expected_pivots
        for row, ref in zip(reduced, expected):
            k = next((i for i, x in enumerate(ref) if x), None)
            scale = 1 if k is None else row[k] / ref[k]
            assert scale and row == [scale * x for x in ref]

    def test_columns_past_ncols_take_part_over_both_fields(self):
        assert rref([[1, 0, 1], [1, 0, 2]], 2) == ([[1, 0, 1], [0, 0, 1]], [0])
        assert rref([[1, 0, 1], [1, 0, 2]], 2, 7) == ([[1, 0, 1], [0, 0, 1]], [0])

    def test_unreduced_residues_are_reduced_first(self):
        # 7 is 0 mod 7, so it is no pivot; -1 is 6 and 8 is 1
        assert rref([[7, 1]], 2, 7) == ([[0, 1]], [1])
        assert kernel([[7, 1]], 2, 7) == ([[1, 0]], 1)
        assert rref([[-1, 8]], 2, 7) == ([[1, 6]], [0])

    @pytest.mark.parametrize("p", [3, 7, 10007])
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_prime_field_rref_kernel_and_first_dependency_match_the_reference(self, p, data):
        ncols, rows = data.draw(fp_matrices(p))
        sparse = [{c: x for c, x in enumerate(row) if x} for row in rows]
        copies = [list(r) for r in rows], [dict(r) for r in sparse]
        assert rref(rows, ncols, p) == reference_rref(rows, ncols, p)
        assert kernel(rows, ncols, p) == (reference_kernel(rows, ncols, p), 1)
        assert first_dependency(sparse, p) == reference_first_dependency(sparse, p)
        assert (rows, sparse) == copies
