"""Non-degenerate bilinear forms on F^n, given by the nonzero terms of
their Gram matrix.

A `BilinearSpace` bundles the ambient dimension, the field, the Gram
matrix's nonzero entries as sparse terms (i, j, gram[i][j]), and a kind tag
("symplectic" or "symmetric") that records the symmetry type the rest of
the package relies on.  No dense copy of the matrix is kept: `__init__`
builds one of ints only for its degeneracy and symmetry checks.

Every product with the Gram matrix runs on one integer kernel, `_image`,
over the matrix's nonzero entries.  They are kept once, as the public
`terms`, and as int terms (i, j, c) derived from them.
Over F_p each c is the entry itself, an int in [0, p), and `scale` is 1.
Over Q each entry is c / scale for the least common denominator `scale`
of the Gram matrix.  `_image` is the same for both fields: for an integer
vector b it makes one pass over the int terms and returns the integers
g = G_int b, so (gram b)_i = g_i / scale; over F_p g is not yet reduced.
A rational vector v is written as integer numerators b over their least
common denominator dv (`linalg._numerators`) first, so that
(gram v)_i = g_i / (dv * scale).  From there:

- `gram_times(v)` reduces g once: mod p per coordinate, or one
  `Fraction(g_i, dv * scale)` per coordinate over Q;
- `pair(u, v)` = <u, v> = u . (gram v) is one dot of u (over Q its
  integer numerators a over du) with g, then one reduction mod p, or one
  `Fraction(a . g, du * dv * scale)`;
- `gram_transpose_times(v)` is gram_times(v) for a symmetric space and
  -gram_times(v) for a symplectic one, since `__init__` checks that the
  Gram matrix equals its transpose or its negated transpose;
- `perp(vectors)` takes integer vectors u and is the `kernel` of the rows
  G_int u: the x with <x, u> = 0, and by the same symmetry <u, x> = 0, for
  every u.  A rational vector is passed as any integer multiple of it, such
  as its numerators: `rref` divides every row by its content first, so the
  kernel is the same.  Over F_p the rows are reduced mod p by `rref`, and
  the basis comes as integer vectors over one denominator (1 over F_p).

`variety` reads `_image` and `scale` directly, on each vertex's integer
form, and the sampler draws from `linalg.solve` of the same rows G_int u
that `perp` expands into its kernel.  Every step is exact integer
arithmetic, so each value equals the dense product on field scalars.
"""

from fractions import Fraction
from math import lcm
from operator import mul

from .errors import OddDimensionError, UnsupportedCombinationError
from .fields import RATIONALS
from .linalg import _numerators, kernel, rref

# The largest ambient dimension accepted.  The degeneracy check's dense int
# matrix and its `rref` grow as n^2 and worse: `analyze` on one edge, with
# the ceiling lifted, took 0.012-0.014 s at n = 256, 0.025-0.030 s at
# n = 400 and 0.10 s at n = 800 (best of 3, Python 3.11 on a 2-core host).
# A dense 256x256 Q Gram takes 3.0 s there on the modular proof below (31 s exact).
MAX_DIMENSION = 256
_CHECK_PRIME = 2**31 - 1


class BilinearSpace:
    """F^n with the bilinear form <u, v> = u^T * gram * v.

    `terms` are the Gram matrix's nonzero entries (i, j, gram[i][j]) in
    row-major order, and `scale` their least common denominator (1 over
    F_p).  `__init__` takes terms in any order, converts each value by
    `field` and drops zeros; an (i, j) outside the matrix or repeated is
    refused.  The Gram is non-degenerate when one `rref` mod p has n pivots;
    over Q, n pivots mod _CHECK_PRIME prove it (a minor nonzero mod a prime
    is a nonzero integer), and only a shortfall there is decided exactly.
    """

    def __init__(self, n, kind, terms, field=RATIONALS):
        if kind not in ("symplectic", "symmetric"):
            raise ValueError(f"unknown form kind {kind!r}")
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        check_dimension_ceiling(n)
        entries = {}
        for i, j, x in terms:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"gram term ({i}, {j}) is outside the {n}x{n} matrix")
            if (i, j) in entries:
                raise ValueError(f"gram term ({i}, {j}) is repeated")
            entries[i, j] = field(x)
        terms = tuple((i, j, x) for (i, j), x in sorted(entries.items()) if x)
        # the same terms on ints c with gram[i][j] == c / scale
        scale = 1 if field.p is not None else lcm(*(x.denominator for *_, x in terms))
        int_terms = tuple((i, j, int(x * scale)) for i, j, x in terms)
        ints = [[0] * n for _ in range(n)]
        for i, j, c in int_terms:
            ints[i][j] = c
        if len(rref(ints, n, field.p or _CHECK_PRIME)[1]) < n and (
                field.p is not None or len(rref(ints, n)[1]) < n):
            raise ValueError("gram matrix is degenerate")
        # each nonzero entry against its mirrored one; a nonzero entry whose
        # mirror is zero fails its own comparison, so no zero entry is read
        if kind == "symplectic":
            if field.p == 2:
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
        self.terms = terms
        self.scale = scale
        self._terms = int_terms

    def _image(self, b):
        """The integers g = G_int b with (gram b)_i == g_i / scale, for an
        integer vector b, by one pass over the Gram's nonzero terms; over
        F_p g is not reduced."""
        if len(b) != self.n:
            raise ValueError(f"vectors must have length {self.n}")
        g = [0] * self.n
        for i, j, c in self._terms:
            g[i] += c * b[j]
        return g

    def pair(self, u, v):
        """The form value <u, v> = u . (gram v): one dot of u with the
        integer image of v, then one reduction mod p, or one `Fraction`."""
        if len(u) != self.n:
            raise ValueError(f"vectors must have length {self.n}")
        p = self.field.p
        if p is not None:
            return sum(map(mul, u, self._image(v))) % p
        (a, du), (b, dv) = _numerators(u), _numerators(v)
        return Fraction(sum(map(mul, a, self._image(b))), du * dv * self.scale)

    def gram_times(self, v):
        """gram v: the integer image reduced mod p, or one `Fraction` per
        coordinate over Q."""
        p = self.field.p
        if p is not None:
            return [x % p for x in self._image(v)]
        b, d = _numerators(v)
        d *= self.scale
        return [Fraction(x, d) for x in self._image(b)]

    def gram_transpose_times(self, v):
        """gram^T v, which is gram v or -gram v by the kind (checked in
        `__init__`).  No package code calls it: certificates need only the
        kind's sign (`variety`), but perfbench's tracer wraps it by name."""
        g = self.gram_times(v)
        return g if self.kind == "symmetric" else [self.field(-x) for x in g]

    def perp(self, vectors):
        """A basis of the x with <x, u> = 0 (and so <u, x> = 0) for every
        integer vector u in `vectors`, as `kernel` gives it: (integer
        vectors, L)."""
        return kernel([self._image(u) for u in vectors], self.n, self.field.p)

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
    if form == "symplectic":
        if n % 2 != 0:
            raise OddDimensionError("symplectic spaces need even dimension")
        half = n // 2
        terms = [(i, i + half, 1) for i in range(half)] + [(i + half, i, -1) for i in range(half)]
        return BilinearSpace(n, "symplectic", terms, field)
    if form == "symmetric":
        return BilinearSpace(n, "symmetric", [(i, i, 1) for i in range(n)], field)
    if form == "hyperbolic":
        if n % 2 != 0:
            raise OddDimensionError("hyperbolic spaces need even dimension")
        terms = [t for i in range(0, n, 2) for t in ((i, i + 1, 1), (i + 1, i, 1))]
        return BilinearSpace(n, "symmetric", terms, field)
    raise ValueError(f"unknown standard form {form!r}")
