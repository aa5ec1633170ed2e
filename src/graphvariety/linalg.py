"""Exact dense linear algebra over a field object from `fields`.

The only algorithm here is plain Gaussian elimination to reduced row echelon
form, in two arithmetic settings.  Over a prime field it runs on ints in
`[0, p)` (`rref_mod_p`), so no `FpElement` is built inside the loop; the
pivot in each column is the first nonzero entry.  The point counter calls
that core directly, and `Matrix` converts to and from residues around it.
Over the rationals the pivot in each column is the entry of largest height
(max of |numerator| and |denominator|), which keeps intermediate fractions
from blowing up on the mildly structured matrices this package produces.
"""

from .fields import FpElement, PrimeField


def _height(x):
    return max(abs(x.numerator), abs(x.denominator))


def rref_mod_p(rows, ncols, p):
    """Reduced row echelon form over F_p, as (row list, pivot column list).

    `rows` are sequences of ints in [0, p); the result is new lists of ints
    in [0, p).  The pivot in each column is the first nonzero entry at or
    below the current row.  Left of the pivot column the pivot row is zero,
    so row updates touch only the columns from the pivot on.
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


def kernel_mod_p(rows, ncols, p):
    """A basis of the right kernel over F_p of int rows, one vector per free
    column, as `Matrix.kernel_basis` orders it."""
    rref, pivots = rref_mod_p(rows, ncols, p)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -rref[r][f] % p
        basis.append(vec)
    return basis


class Matrix:
    """An immutable dense matrix over an exact field."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = tuple(tuple(row) for row in rows)
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ValueError("ragged rows in matrix construction")

    @classmethod
    def from_rows(cls, field, rows, ncols=None):
        coerced = [[field(x) for x in row] for row in rows]
        if not coerced:
            if ncols is None:
                raise ValueError("empty matrix needs an explicit column count")
            m = cls(field, [])
            m.ncols = ncols
            return m
        return cls(field, coerced)

    @classmethod
    def zeros(cls, field, nrows, ncols):
        z = field.zero()
        m = cls(field, [[z] * ncols for _ in range(nrows)])
        m.ncols = ncols
        return m

    @classmethod
    def identity(cls, field, n):
        z, o = field.zero(), field.one()
        return cls(field, [[o if i == j else z for j in range(n)] for i in range(n)])

    def transpose(self):
        t = Matrix(self.field, [list(col) for col in zip(*self.rows)])
        if self.nrows == 0:
            t = Matrix.zeros(self.field, self.ncols, 0)
        return t

    def mul_vector(self, vec):
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        z = self.field.zero()
        out = []
        for row in self.rows:
            acc = z
            for a, b in zip(row, vec):
                acc = acc + a * b
            out.append(acc)
        return out

    def _pick_pivot(self, rows, col, start):
        """Index of the rational pivot row for `col` among rows[start:], or None."""
        best = None
        best_h = None
        for i in range(start, len(rows)):
            x = rows[i][col]
            if x == 0:
                continue
            h = _height(x)
            if best is None or h > best_h:
                best, best_h = i, h
        return best

    def _rref(self):
        """Reduced row echelon form, as (row list, pivot column list)."""
        if isinstance(self.field, PrimeField):
            p = self.field.p
            rows, pivots = rref_mod_p([[x.value for x in r] for r in self.rows], self.ncols, p)
            return [[FpElement(x, p) for x in r] for r in rows], pivots
        rows = [list(r) for r in self.rows]
        pivots = []
        r = 0
        for c in range(self.ncols):
            if r >= len(rows):
                break
            i = self._pick_pivot(rows, c, r)
            if i is None:
                continue
            rows[r], rows[i] = rows[i], rows[r]
            inv = self.field.one() / rows[r][c]
            rows[r] = [inv * x for x in rows[r]]
            for j in range(len(rows)):
                if j != r and rows[j][c] != 0:
                    f = rows[j][c]
                    rows[j] = [a - f * b for a, b in zip(rows[j], rows[r])]
            pivots.append(c)
            r += 1
        return rows, pivots

    def rank(self):
        return len(self._rref()[1])

    def kernel_basis(self):
        """A basis of the right kernel, one vector per free column."""
        rows, pivots = self._rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.ncols) if c not in pivot_set]
        z, o = self.field.zero(), self.field.one()
        basis = []
        for f in free:
            vec = [z] * self.ncols
            vec[f] = o
            for r, pc in enumerate(pivots):
                vec[pc] = -rows[r][f]
            basis.append(vec)
        return basis

    def left_kernel_basis(self):
        """A basis of the left kernel: vectors y with y * self = 0."""
        return self.transpose().kernel_basis()

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.field == other.field
            and self.rows == other.rows
            and self.ncols == other.ncols
        )

    def __repr__(self):
        return f"Matrix({self.field!r}, {self.nrows}x{self.ncols})"


def vectors_independent(field, vectors, length):
    """True when the given vectors of the stated length are linearly independent."""
    vecs = list(vectors)
    if not vecs:
        return True
    m = Matrix.from_rows(field, vecs, ncols=length)
    return m.rank() == len(vecs)


def dot(field, u, v):
    if len(u) != len(v):
        raise ValueError("dot product of vectors with different lengths")
    acc = field.zero()
    for a, b in zip(u, v):
        acc = acc + a * b
    return acc
