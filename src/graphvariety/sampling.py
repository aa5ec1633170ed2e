"""Constructive point generation on the variety.

`sample_regular_point` walks the vertices from the oldest down.  Each new
vector is drawn from the vectors orthogonal to every already assigned older
neighbor (`BilinearSpace.perp`), then rejected if it is zero or if it lands
in the span of some partially assembled older-neighbor family of a younger
vertex.
Every accepted run therefore satisfies membership and the regular-part test
by construction, and both are still re-checked by the tests, with dense
ranks rather than the echelon rows below.

The sampler works on integers.  Per vertex, `BilinearSpace.perp` gives
the basis as integer vectors over one denominator L > 0, straight from the
elimination; over F_p, L is 1 and the entries are residues.  A draw sums
c_k * b_k on ints, so a candidate is an integer vector; over Q it stands
for that vector over L, and only an accepted one becomes one
`Fraction(x, L)` per coordinate, over F_p one residue `x % p`.  Each
younger vertex keeps its partial family as echelon rows: integer rows (Q)
or residue rows (F_p), each with its pivot column, every row zero at the
pivots of the rows kept before it.  A candidate reduced against them by
cross-multiplication leaves a nonzero remainder exactly when it is
independent of them; scaling never changes that.  An accepted vector's
remainders become the new rows, over Q divided by their content.  The RNG calls and every accept/reject decision are the
same as drawing and re-ranking on field scalars.

`cycle_singular_point` produces a known singular point: a cycle with every
vertex carrying one fixed self-orthogonal vector, with its certificate from
`singular_certificate`.
"""

import random
from collections import namedtuple
from fractions import Fraction
from math import gcd
from operator import mul

from .errors import (
    PreconditionViolatedError,
    RetriesExhaustedError,
    UnsupportedCombinationError,
)
from .graphs import cycle_graph
from .variety import VarietyContext, VertexAssignment, singular_certificate


class SamplerConfig(namedtuple("SamplerConfig", "seed bound max_retries")):
    """The sampler's seed, rational draw bound and retries per vertex,
    checked on construction.  namedtuple's `_make` and `_replace` skip
    `__new__` and so the checks; nothing calls them."""

    __slots__ = ()

    def __new__(cls, seed=0, bound=10, max_retries=64):
        if bound < 1:
            raise ValueError("bound must be at least 1")
        if max_retries < 1:
            raise ValueError("max_retries must be at least 1")
        return super().__new__(cls, seed, bound, max_retries)


def _draw(columns, rng, bound, p):
    """A random kernel element as integers, one coefficient per basis vector
    in order: in [-bound, bound] over the rationals (the sum is a numerator
    vector), uniform residues over a prime field (the sum is reduced mod p).
    `columns` are the basis's integer coordinates, one tuple per coordinate."""
    if p is None:
        coeffs = [rng.randint(-bound, bound) for _ in columns[0]]
        return [sum(map(mul, coeffs, col)) for col in columns]
    coeffs = [rng.randrange(p) for _ in columns[0]]
    return [sum(map(mul, coeffs, col)) % p for col in columns]


def _reduce(x, rows, p):
    """A nonzero multiple of x minus a combination of the echelon rows
    (pivot column, row), zero at every pivot; it is zero exactly when x lies
    in the rows' span.  Over F_p the entries are reduced mod p."""
    for c, row in rows:
        f = x[c]
        if f:
            g = row[c]
            x = [g * a - f * b for a, b in zip(x, row)]
            if p is not None:
                x = [a % p for a in x]
    return x


def _echelon_row(rest, p):
    """A nonzero remainder of `_reduce` as a kept row (pivot column, row):
    its first nonzero column, and over Q the row divided by its content."""
    if p is None:
        content = gcd(*rest)
        rest = [x // content for x in rest]
    return next(c for c, x in enumerate(rest) if x), rest


def sample_regular_point(og, space, cfg=None):
    """A member point of the variety lying in the regular part of the order.

    Needs n >= 2 * width(og) so the admissible kernels always have room
    outside the finitely many bad subspaces.  Over a prime field, p must
    exceed the number of rejection conditions at every vertex; otherwise the
    draw could fail forever and we error out up front instead.
    """
    if cfg is None:
        cfg = SamplerConfig()
    g = og.graph
    field = space.field
    p = field.p
    d = og.width()
    if space.n < 2 * d:
        raise PreconditionViolatedError(
            f"need dimension >= {2 * d} for width {d}, got {space.n}"
        )
    if p is not None:
        worst = max(
            (len(og.younger_neighbors(v)) + 1 for v in range(g.num_vertices)),
            default=0,
        )
        if field.order <= worst:
            raise PreconditionViolatedError(
                f"prime field too small: need p > {worst}, got {field.order}"
            )
    rng = random.Random(cfg.seed)
    vectors = {}
    echelon = {v: [] for v in range(g.num_vertices)}  # partial older-neighbor families
    # oldest vertex first
    for v in reversed(og.order):
        older = og.older_neighbors(v)
        younger = og.younger_neighbors(v)
        family = [vectors[u] for u in older]
        basis, denominator = space.perp(family)
        columns = list(zip(*basis))
        for _ in range(cfg.max_retries):
            candidate = _draw(columns, rng, cfg.bound, p)
            if not any(candidate):
                continue
            remainders = [_reduce(candidate, echelon[y], p) for y in younger]
            if all(map(any, remainders)):
                break
        else:
            raise RetriesExhaustedError(v, cfg.max_retries)
        for y, rest in zip(younger, remainders):
            echelon[y].append(_echelon_row(rest, p))
        vectors[v] = (
            candidate if p is not None else [Fraction(x, denominator) for x in candidate]
        )
    return VertexAssignment(field, [vectors[v] for v in range(g.num_vertices)])


def cycle_singular_point(k, space):
    """The all-equal singular point on the k-cycle, with its certificate.

    Symplectic: any k >= 3, n >= 4; every vertex carries the first basis
    vector.  Symmetric: k must be even and the Gram matrix must expose an
    isotropic basis vector (the hyperbolic standard space does); every
    vertex carries that vector.  The certificate is `singular_certificate`'s.
    """
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    field = space.field
    if space.kind == "symplectic":
        if space.n < 4:
            raise PreconditionViolatedError(
                "symplectic cycle points need dimension >= 4"
            )
        idx = 0
    else:
        if k % 2 != 0:
            raise UnsupportedCombinationError(
                "symmetric cycle points need an even cycle"
            )
        idx = space.isotropic_basis_vector()
        if idx is None:
            raise UnsupportedCombinationError(
                "no isotropic basis vector in this symmetric space"
            )
    vec = [field.zero()] * space.n
    vec[idx] = field.one()
    assignment = VertexAssignment(field, [vec] * k)
    return assignment, singular_certificate(VarietyContext(cycle_graph(k), space), assignment)
