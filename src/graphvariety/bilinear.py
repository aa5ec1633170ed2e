"""Non-degenerate bilinear forms on F^n, given by their Gram matrix.

A `BilinearSpace` bundles the ambient dimension, the field, the Gram matrix,
and a kind tag ("symplectic" or "symmetric") that records the symmetry type
the rest of the package relies on.
"""

from .errors import OddDimensionError, UnsupportedCombinationError
from .fields import RATIONALS
from .linalg import dot, rref


class BilinearSpace:
    """F^n with the bilinear form <u, v> = u^T * gram * v.

    `gram` is a tuple of n row tuples of field scalars.
    """

    def __init__(self, n, kind, gram, field=RATIONALS):
        if kind not in ("symplectic", "symmetric"):
            raise ValueError(f"unknown form kind {kind!r}")
        if n < 1:
            raise ValueError(f"dimension must be at least 1, got {n}")
        rows = tuple(tuple(field(x) for x in row) for row in gram)
        if len(rows) != n or any(len(row) != n for row in rows):
            raise ValueError(f"gram matrix must be {n}x{n}")
        if len(rref(rows, n, field.p)[1]) != n:
            raise ValueError("gram matrix is degenerate")
        t = tuple(zip(*rows))
        if kind == "symplectic":
            if field.characteristic == 2:
                raise UnsupportedCombinationError(
                    "symplectic spaces over characteristic 2 are not supported"
                )
            if t != tuple(tuple(field(-x) for x in row) for row in rows):
                raise ValueError("symplectic gram matrix must be antisymmetric")
            if n % 2 != 0:
                raise OddDimensionError(
                    "a non-degenerate symplectic space has even dimension"
                )
        else:
            if t != rows:
                raise ValueError("symmetric gram matrix must equal its transpose")
        self.n = n
        self.kind = kind
        self.field = field
        self.gram = rows
        self._gram_t = t

    def pair(self, u, v):
        """The form value <u, v> = u . (gram v)."""
        return dot(self.field, u, self.gram_times(v))

    def gram_times(self, v):
        return [dot(self.field, row, v) for row in self.gram]

    def gram_transpose_times(self, v):
        return [dot(self.field, row, v) for row in self._gram_t]

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


def standard_space(form, n, field=RATIONALS):
    """A standard space of the given shape.

    form "symplectic": even n, blocks <e_i, e_{i+n/2}> = 1.
    form "symmetric": the identity Gram matrix (the usual dot product).
    form "hyperbolic": even n, symmetric, pairs of basis vectors with
    <e_{2i}, e_{2i+1}> = 1 and all basis vectors isotropic.
    """
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
