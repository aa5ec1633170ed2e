"""Exact linear algebra over Q or F_p, on integer row lists.

There is no matrix type: a matrix is a list of rows, each a sequence of
ints, and the caller passes the column count where it matters.  Every
routine takes the modulus `p` (None over Q), and takes and returns ints
only: no `Fraction` is made here.

`rref` is the one dense elimination, on integer rows for both fields:
Gauss-Jordan with one pivot rule, the first nonzero entry of the column at
or below the current row, and one update loop whose row update depends on
the field.  Over F_p it first reduces its copy of the rows mod p; the pivot
row is scaled to pivot 1 and each other row becomes row - f * pivot row
mod p, from the pivot column on.  Over Q no row operation touches a
`Fraction` (fraction-free elimination, Bareiss, Math. Comp. 22, 1968): each
other row becomes piv * row - f * pivot row, divided by its content, the
gcd of its entries.  An integer row is a nonzero multiple of the row an
elimination on `Fraction`s would hold, so both see the same zeros and
choose the same pivots; a caller with rationals passes any integer
multiple of each row, such as its numerators over its least denominator
(`fields._integer_form`).

`solve` reads the solutions of rows . x = 0 off `rref`: the free columns,
and per pivot column its row and the factor that puts it over one
denominator L > 0, the lcm of the pivots (1 over F_p).  `kernel` expands
that into a basis of integer vectors over L, and the sampler draws its
points from it directly.  `first_dependency` is a sparse incremental
row echelon pass with the same two update rules on dict rows, which stops
at the first dependent row; it never builds dense rows, so sparse
Jacobians stay sparse.
"""

from math import gcd, lcm


def _primitive(row):
    """The integer row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def rref(rows, ncols, p=None):
    """Reduced row echelon form of the first `ncols` columns (module
    docstring), as new (rows, pivot columns): pivot row r has a nonzero
    entry at pivots[r], 1 over F_p, and zeros at the other pivots; the rows
    after the last pivot row are zero in the first `ncols` columns.  Columns
    past `ncols` take part in every row operation.  `rows` are ints, reduced
    mod a prime `p` first, or any ints when `p` is None."""
    rows = ([[x % p for x in r] for r in rows] if p is not None
            else [_primitive(list(r)) for r in rows])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot_row = rows[r]
        a = pivot_row[c]
        if p is not None:
            inv = pow(a, -1, p)
            pivot_row[c:] = tail = [x * inv % p for x in pivot_row[c:]]
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                if p is not None:
                    row[c:] = [(x - f * y) % p for x, y in zip(row[c:], tail)]
                else:
                    rows[j] = _primitive([a * x - f * y for x, y in zip(row, pivot_row)])
        pivots.append(c)
    return rows, pivots


def solve(rows, ncols, p=None):
    """The solutions x of rows . x = 0 by their free coordinates, read off
    `rref`: (free columns in increasing order, L, [(pivot column c, row,
    L // row[c])]), with L > 0 the lcm of the pivots (1 over F_p).  Each
    row is zero at the other pivots, so a solution with free coordinates
    x_f has x_c = -(sum_f row[f] * x_f) / row[c].  `rows` are ints, as
    `rref` takes them."""
    rows, pivots = rref(rows, ncols, p)
    denominator = 1 if p is not None else lcm(*[row[c] for row, c in zip(rows, pivots)])
    pivot_set = set(pivots)
    free = [f for f in range(ncols) if f not in pivot_set]
    return free, denominator, [(c, row, denominator // row[c]) for row, c in zip(rows, pivots)]


def kernel(rows, ncols, p=None):
    """A basis of the right kernel of `rows`, as (integer vectors, L) with
    L > 0: the basis vectors are the integer ones divided by L, one per
    free column of `solve` in increasing order, with a 1 in that column.
    `rows` are ints, as `rref` takes them; L == 1 over F_p."""
    free, denominator, solved = solve(rows, ncols, p)
    basis = []
    for f in free:
        vec = [0] * ncols
        vec[f] = denominator
        if p is not None:
            for c, row, _ in solved:
                vec[c] = -row[f] % p
        else:
            for c, row, m in solved:
                vec[c] = -row[f] * m
        basis.append(vec)
    return basis, denominator


def first_dependency(rows, p=None):
    """The dependency of the first row that depends on the rows before it,
    as {row index: coefficient}, or None when all rows are independent.

    `rows` are dicts {column: nonzero int}, as `rref` takes them: residues
    mod a prime `p`, or any ints when `p` is None.  Each row is reduced at
    its smallest column against earlier pivot rows (zero left of their
    pivots), keeping beside it the combination of input rows it has become.
    The first row f to reach zero returns that combination, with support in
    0..f and a nonzero coefficient at f; it is unique up to a scalar, as
    rows 0..f-1 are independent.  Over F_p the coefficient at f is 1.  Over
    Q row and combination are updated and divided by their joint content
    together, and the combination is returned on ints: divided by its
    coefficient at f, it is the dependency with coefficient 1 there.
    """
    pivots = {}  # pivot column -> (pivot or its inverse mod p, rest of the row, combination)
    for f, row in enumerate(rows):
        row, combo = dict(row), {f: 1}
        while row:
            c = min(row)
            if c not in pivots:
                break
            a, rest, pivot_combo = pivots[c]
            if p is None:
                b = row.pop(c)
                row, combo = _cross(a, row, b, rest), _cross(a, combo, b, pivot_combo)
                g = gcd(*row.values(), *combo.values())
                if g > 1:
                    row, combo = ({k: x // g for k, x in t.items()} for t in (row, combo))
                continue
            factor = row.pop(c) * a
            for target, source in ((row, rest), (combo, pivot_combo)):
                for k, x in source.items():  # target -= factor * source
                    y = (target.get(k, 0) - factor * x) % p
                    if y:
                        target[k] = y
                    else:
                        del target[k]
        else:
            return combo
        x = row.pop(c)
        pivots[c] = (x if p is None else pow(x, -1, p), row, combo)
    return None


def _cross(a, target, b, source):
    """a * target - b * source on integer dict rows, zeros dropped."""
    out = {k: a * x for k, x in target.items()}
    for k, x in source.items():
        y = out.get(k, 0) - b * x
        if y:
            out[k] = y
        else:
            del out[k]
    return out
