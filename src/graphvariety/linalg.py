"""Exact linear algebra on row lists over a field object from `fields`.

There is no matrix type: a matrix is a list of rows, each a sequence of
scalars, and the caller passes the column count where it matters.  Scalars
are what the field makes: ints in [0, p) over F_p, `Fraction`s over the
rationals, and every routine takes the modulus `p` (None over Q).
`rref` is dense Gauss-Jordan elimination with one pivot rule for both
fields, the first nonzero entry of the column at or below the current row;
no rule keeps fractions smaller, since by Cramer's rule each intermediate
entry is a ratio of two minors of the input, and the reduced form is unique.
`kernel` reads a right-kernel basis off it.  `first_dependency` is a sparse
incremental row echelon pass that stops at the first dependent row; it never
builds dense rows, so sparse Jacobians stay sparse.  Both stay: the sampler
reads its small kernels off `rref`, where a lazy all-dependencies pass made
F_p sampling 26-27% slower end to end (ROADMAP item 1).
"""

from fractions import Fraction


def rref(rows, ncols, p=None):
    """Reduced row echelon form, as (row list, pivot column list).

    `rows` are sequences of ints in [0, p) for a prime `p`, or of
    `Fraction`s when `p` is None; the result is new lists of the same kind.
    Entries must be reduced: an unreduced multiple of p would be taken for
    a nonzero pivot.
    The pivot in each column is the first nonzero entry at or below the
    current row.  Left of the pivot column the pivot row is zero, so row
    updates touch only the columns from the pivot on.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        if p is None:
            inv = Fraction(1) / rows[r][c]
            tail = [x * inv for x in rows[r][c:]]
        else:
            inv = pow(rows[r][c], -1, p)
            tail = [x * inv % p for x in rows[r][c:]]
        rows[r][c:] = tail
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                if p is None:
                    row[c:] = [a - f * b for a, b in zip(row[c:], tail)]
                else:
                    row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel(rows, ncols, p=None):
    """A basis of the right kernel of `rows` (scalars as in `rref`), one
    vector per free column in increasing order, with a 1 in that column."""
    reduced, pivots = rref(rows, ncols, p)
    pivot_set = set(pivots)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][f] if p is None else -reduced[r][f] % p
        basis.append(vec)
    return basis


def first_dependency(rows, p=None):
    """The dependency of the first row that depends on the rows before it,
    as {row index: coefficient}, or None when all rows are independent.

    `rows` are dicts {column: nonzero scalar}, scalars as in `rref`.  Each
    row is reduced at its smallest column against earlier pivot rows (zero
    left of their pivots), keeping beside it the combination of input rows
    it has become.  The first row f to reach zero returns that combination:
    coefficient 1 at f, support in 0..f, unique as rows 0..f-1 are independent.
    """
    pivots = {}  # pivot column -> (inverse pivot, rest of the row, combination)
    for f, row in enumerate(rows):
        row, combo = dict(row), {f: Fraction(1) if p is None else 1}
        while row:
            c = min(row)
            if c not in pivots:
                break
            inv, rest, pivot_combo = pivots[c]
            factor = row.pop(c) * inv
            for target, source in ((row, rest), (combo, pivot_combo)):
                for k, x in source.items():  # target -= factor * source
                    y = target.get(k, 0) - factor * x
                    if p is not None:
                        y %= p
                    if y:
                        target[k] = y
                    else:
                        del target[k]
        else:
            return combo
        x = row.pop(c)
        pivots[c] = (1 / x if p is None else pow(x, -1, p), row, combo)
    return None

