"""Non-degenerate bilinear forms on F^n, given by their Gram matrix.

A `BilinearSpace` bundles the ambient dimension, the field, the Gram matrix,
and a kind tag ("symplectic" or "symmetric") that records the symmetry type
the rest of the package relies on.

Every product with the Gram matrix runs on one integer kernel, `_image`,
over the matrix's nonzero entries.  They are kept once, as the public
`terms` (i, j, gram[i][j]), and as int terms (i, j, c) derived from them.
Over F_p each c is the entry itself, an int in [0, p).  Over Q each entry
is c / s for the least common denominator s of the Gram matrix.  For a
vector v, `_image` makes one pass over the int terms and returns integers
g and one denominator d > 0 with (gram v)_i = g_i / d.  Over F_p, d is 1
and g is not yet reduced.  Over Q, v is written as integer numerators b
over their least common denominator dv, g_i is the sum of c * b_j over the
terms of row i, and d = dv * s.  From there:

- `gram_times(v)` reduces g once: mod p per coordinate, or one
  `Fraction(g_i, d)` per coordinate over Q;
- `pair(u, v)` = <u, v> = u . (gram v) is one dot of u (over Q its
  integer numerators a over du) with g, then one reduction mod p, or one
  `Fraction(a . g, du * d)`;
- `gram_transpose_times(v)` is gram_times(v) for a symmetric space and
  -gram_times(v) for a symplectic one, since `__init__` checks that the
  Gram matrix equals its transpose or its negated transpose;
- `perp(vectors)` is the `kernel` of the rows gram u: the x with
  <x, u> = 0, and by the same symmetry <u, x> = 0, for every u.  Its rows
  are the integer images g themselves for both fields (g is d * gram u,
  and `rref` reduces them mod p), and its basis comes as integer vectors
  over one denominator (1 over F_p).

Every step is exact integer arithmetic, so each value equals the dense
product on field scalars.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import OddDimensionError, UnsupportedCombinationError
from .fields import RATIONALS
from .linalg import _numerators, kernel

# The largest ambient dimension accepted.  The dense Gram and its degeneracy
# check grow as n^2 and worse: `analyze` on one edge, with the ceiling
# lifted, took 0.037 s at n = 256, 0.082 s at n = 400 and 0.28 s at n = 800
# (best of 3, Python 3.11 on one Xeon core), mostly in coercing the n^2
# entries and finding the nonzero ones, then in `kernel`.
MAX_DIMENSION = 256


class BilinearSpace:
    """F^n with the bilinear form <u, v> = u^T * gram * v.

    `gram` is a tuple of n row tuples of field scalars, and `terms` its
    nonzero entries as (i, j, gram[i][j]) in row-major order.
    """

    def __init__(self, n, kind, gram, field=RATIONALS):
        if kind not in ("symplectic", "symmetric"):
            raise ValueError(f"unknown form kind {kind!r}")
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        check_dimension_ceiling(n)
        rows = tuple(tuple(field(x) for x in row) for row in gram)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"gram matrix must be {n}x{n}")
        terms = tuple((i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row) if x)
        # the same terms on ints c with gram[i][j] == c / scale
        scale = 1 if field.p is not None else lcm(*(x.denominator for *_, x in terms))
        int_terms = tuple((i, j, int(x * scale)) for i, j, x in terms)
        ints = [[0] * n for _ in range(n)]
        for i, j, c in int_terms:
            ints[i][j] = c
        if kernel(ints, n, field.p)[0]:
            raise ValueError("gram matrix is degenerate")
        # each nonzero entry against its mirrored one; a nonzero entry whose
        # mirror is zero fails its own comparison, so no zero entry is read
        if kind == "symplectic":
            if field.characteristic == 2:
                raise UnsupportedCombinationError(
                    "symplectic spaces over characteristic 2 are not supported"
                )
            negated = field.p or 0  # -c is p - c over F_p, 0 - c over Q
            if any(ints[j][i] != negated - c for i, j, c in int_terms):
                raise ValueError("symplectic gram matrix must be antisymmetric")
            if n % 2 != 0:
                raise OddDimensionError(
                    "a non-degenerate symplectic space has even dimension"
                )
        elif any(ints[j][i] != c for i, j, c in int_terms):
            raise ValueError("symmetric gram matrix must equal its transpose")
        self.n = n
        self.kind = kind
        self.field = field
        self.gram = rows
        self.terms = terms
        self._scale = scale
        self._terms = int_terms

    def _image(self, v):
        """Integers g and d > 0 with (gram v)_i == g_i / d, by one pass over
        the Gram's nonzero terms; over F_p d is 1 and g is not reduced."""
        if len(v) != self.n:
            raise ValueError(f"vectors must have length {self.n}")
        if self.field.p is None:
            b, d = _numerators(v)
            d *= self._scale
        else:
            b, d = v, 1
        g = [0] * self.n
        for i, j, c in self._terms:
            g[i] += c * b[j]
        return g, d

    def pair(self, u, v):
        """The form value <u, v> = u . (gram v): one dot of u with the
        integer image of v, then one reduction mod p, or one `Fraction`."""
        if len(u) != self.n:
            raise ValueError(f"vectors must have length {self.n}")
        g, d = self._image(v)
        p = self.field.p
        if p is not None:
            return sum(map(mul, u, g)) % p
        a, du = _numerators(u)
        return Fraction(sum(map(mul, a, g)), du * d)

    def gram_times(self, v):
        """gram v: the integer image reduced mod p, or one `Fraction` per
        coordinate over Q."""
        g, d = self._image(v)
        p = self.field.p
        return [x % p for x in g] if p is not None else [Fraction(x, d) for x in g]

    def gram_transpose_times(self, v):
        """gram^T v, which is gram v or -gram v by the kind (checked in
        `__init__`).  No package code calls it: certificates need only the
        kind's sign (`variety`), but perfbench's tracer wraps it by name."""
        g = self.gram_times(v)
        return g if self.kind == "symmetric" else [self.field(-x) for x in g]

    def perp(self, vectors):
        """A basis of the x with <x, u> = 0 (and so <u, x> = 0) for every u
        in `vectors`, as `kernel` gives it: (integer vectors, L)."""
        return kernel([self._image(u)[0] for u in vectors], self.n, self.field.p)

    def isotropic_basis_vector(self):
        """The index of a standard basis vector e_i with <e_i, e_i> = 0, or None."""
        for i in range(self.n):
            if self.gram[i][i] == 0:
                return i
        return None

    def __eq__(self, other):
        return (
            isinstance(other, BilinearSpace)
            and self.n == other.n
            and self.kind == other.kind
            and self.field == other.field
            and self.gram == other.gram
        )

    def __repr__(self):
        return f"BilinearSpace(n={self.n}, kind={self.kind!r}, field={self.field!r})"


def check_dimension_ceiling(n):
    """Refuse a dimension past MAX_DIMENSION, before any Gram row is built."""
    if n > MAX_DIMENSION:
        raise ValueError(f"dimension {n} exceeds the limit of {MAX_DIMENSION}")


def standard_space(form, n, field=RATIONALS):
    """A standard space of the given shape.

    form "symplectic": even n, blocks <e_i, e_{i+n/2}> = 1.
    form "symmetric": the identity Gram matrix (the usual dot product).
    form "hyperbolic": even n, symmetric, pairs of basis vectors with
    <e_{2i}, e_{2i+1}> = 1 and all basis vectors isotropic.
    """
    check_dimension_ceiling(n)
    z, o = field.zero(), field.one()
    if form == "symplectic":
        if n % 2 != 0:
            raise OddDimensionError("symplectic spaces need even dimension")
        half = n // 2
        gram = [[z] * n for _ in range(n)]
        for i in range(half):
            gram[i][i + half] = o
            gram[i + half][i] = field(-1)
        return BilinearSpace(n, "symplectic", gram, field)
    if form == "symmetric":
        gram = [[o if i == j else z for j in range(n)] for i in range(n)]
        return BilinearSpace(n, "symmetric", gram, field)
    if form == "hyperbolic":
        if n % 2 != 0:
            raise OddDimensionError("hyperbolic spaces need even dimension")
        gram = [[z] * n for _ in range(n)]
        for i in range(0, n, 2):
            gram[i][i + 1] = o
            gram[i + 1][i] = o
        return BilinearSpace(n, "symmetric", gram, field)
    raise ValueError(f"unknown standard form {form!r}")
