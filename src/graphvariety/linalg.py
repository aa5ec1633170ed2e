"""Exact linear algebra on row lists over a field object from `fields`.

There is no matrix type: a matrix is a list of rows, each a sequence of
scalars, and the caller passes the column count where it matters.  Scalars
are what the field makes: ints in [0, p) over F_p, `Fraction`s over the
rationals, and every routine takes the modulus `p` (None over Q).
`rref` is dense Gauss-Jordan elimination with one pivot rule for both
fields, the first nonzero entry of the column at or below the current row.
`kernel` reads a right-kernel basis off the same elimination.
`first_dependency` is a sparse incremental row echelon pass that stops at
the first dependent row; it never builds dense rows, so sparse Jacobians
stay sparse.  Both stay: the sampler reads its small kernels off the dense
elimination, where a lazy all-dependencies pass made F_p sampling 26-27%
slower end to end (ROADMAP item 1).

Over Q no row operation touches a `Fraction` (fraction-free elimination,
Bareiss, Math. Comp. 22, 1968).  Each row is scaled to integers by the lcm
of its denominators, updated by cross-multiplication, piv * a - f * b, and
divided by its content, the gcd of its entries, which keeps entries small.
An integer row is a nonzero multiple of the row an elimination on
`Fraction`s would hold, so both see the same zeros and choose the same
pivots.  The reduced form, the kernel basis and the first dependency are
unique, so `Fraction`s are made only for the values returned: each entry
divided by its row's pivot, by one common denominator, or by the
dependency's coefficient at its own row.  `_integer_kernel` gives the
sampler its kernels as integers over one denominator, with no `Fraction`.
"""

from fractions import Fraction
from math import gcd, lcm

_ZERO = Fraction(0)


def _numerators(u):
    """Integers a and d > 0 with u_i == a_i / d for every i, d the least
    common denominator of the rationals u."""
    d = lcm(*(x.denominator for x in u))
    return [x.numerator * (d // x.denominator) for x in u], d


def _primitive(row):
    """The integer row divided by its content, the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _eliminate(rows, ncols):
    """Gauss-Jordan on integer rows by the pivot rule of `rref`, as new
    (rows, pivot columns): pivot row r has a nonzero entry at pivots[r] and
    zeros at the other pivots, and the rows after the last pivot row are zero."""
    rows = [_primitive(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        pivot_row, a = rows[r], rows[r][c]
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                rows[j] = _primitive([a * x - f * y for x, y in zip(row, pivot_row)])
        pivots.append(c)
    return rows, pivots


def rref(rows, ncols, p=None):
    """Reduced row echelon form, as (row list, pivot column list).

    `rows` are sequences of ints in [0, p) for a prime `p`, or of
    `Fraction`s when `p` is None; the result is new lists of the same kind.
    Entries must be reduced: an unreduced multiple of p would be taken for
    a nonzero pivot.
    The pivot in each column is the first nonzero entry at or below the
    current row.  Over F_p, left of the pivot column the pivot row is zero,
    so row updates touch only the columns from the pivot on.  Over Q the
    rows stay integers, and each pivot row is divided by its pivot at the end.
    """
    if p is None:
        rows, pivots = _eliminate([_numerators(r)[0] for r in rows], ncols)
        reduced = [[Fraction(x, row[c]) if x else _ZERO for x in row]
                   for row, c in zip(rows, pivots)]
        return reduced + [[_ZERO] * len(row) for row in rows[len(pivots):]], pivots
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
        inv = pow(rows[r][c], -1, p)
        tail = [x * inv % p for x in rows[r][c:]]
        rows[r][c:] = tail
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return rows, pivots


def kernel(rows, ncols, p=None):
    """A basis of the right kernel of `rows` (scalars as in `rref`), one
    vector per free column in increasing order, with a 1 in that column."""
    if p is None:
        basis, denominator = _integer_kernel([_numerators(r)[0] for r in rows], ncols)
        return [[Fraction(x, denominator) for x in vec] for vec in basis]
    reduced, pivots = rref(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][f] % p
        basis.append(vec)
    return basis


def _integer_kernel(rows, ncols):
    """`kernel` over Q of integer rows, as (integer vectors, L) with L > 0:
    the basis vectors are the integer ones divided by L."""
    rows, pivots = _eliminate(rows, ncols)
    denominator = lcm(*(row[c] for row, c in zip(rows, pivots)))
    scaled = [(c, row, denominator // row[c]) for row, c in zip(rows, pivots)]
    basis = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[f] = denominator
        for c, row, scale in scaled:
            vec[c] = -row[f] * scale
        basis.append(vec)
    return basis, denominator


def first_dependency(rows, p=None):
    """The dependency of the first row that depends on the rows before it,
    as {row index: coefficient}, or None when all rows are independent.

    `rows` are dicts {column: nonzero scalar}, scalars as in `rref`.  Each
    row is reduced at its smallest column against earlier pivot rows (zero
    left of their pivots), keeping beside it the combination of input rows
    it has become.  The first row f to reach zero returns that combination:
    coefficient 1 at f, support in 0..f, unique as rows 0..f-1 are independent.
    Over Q row f starts as its integer multiple by the lcm d_f of its
    denominators, with combination {f: d_f}; row and combination are updated
    and divided by their joint content together, and the combination
    returned is divided by its coefficient at f.
    """
    pivots = {}  # pivot column -> (pivot or its inverse mod p, rest of the row, combination)
    for f, row in enumerate(rows):
        if p is None:
            numerators, d = _numerators(row.values())
            row, combo = dict(zip(row, numerators)), {f: d}
        else:
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
            if p is None:
                return {k: Fraction(x, combo[f]) for k, x in combo.items()}
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
