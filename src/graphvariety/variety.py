"""Membership, smoothness, and singularity certificates for the variety of
orthogonal vertex assignments of a graph.

Given a graph G and a bilinear space (F^n, <.,.>), the variety consists of
all maps w from vertices to F^n with <w(u), w(v)> = 0 for every edge {u, v}.
It lives in affine space of dimension |V| * n and its expected dimension is
|V| * n - |E|.

A member point is smooth exactly when the Jacobian of the edge equations has
full row rank |E| there.  A rank defect is witnessed by a nonzero left-kernel
vector of the Jacobian, one scalar per edge.  The certificate we hand out is
the unique dependency of the first edge row f (in edge order) that depends
on the rows before it, with coefficient 1 at f and zeros after f.

Membership and certificates run on integers.  A `VertexAssignment` stores
only its integer form, one (a(v), d_v) per vertex with w(v) = a(v) / d_v:
over Q a(v) is a tuple of ints and d_v > 0 the least common denominator
of the values; over F_p a(v) is the residues and d_v = 1.  Scalars become
that form once, in `fields._integer_form`, as certificate values do in
`_certifies`.

With the Gram matrix as int terms over one scale s_G (`BilinearSpace._image`),
<w(lo), w(hi)> = a(lo) . (G_int a(hi)) / (d_lo * d_hi * s_G): one integer
image per vertex, one integer dot per edge, and a `Fraction` only for a
nonzero `residual` value.

No Gram product is needed for certificates.  The row of edge (lo, hi) holds
gram w(hi) in lo's block and gram^T w(lo) = s * gram w(lo) in hi's, with
s = 1 for a symmetric form and -1 for a symplectic one.  As a row, gram x
is x^T gram^T, so J = J_w (I_V (x) gram^T), where J_w's row for (lo, hi)
holds w(hi) in lo's block and s * w(lo) in hi's.  The Gram matrix is
invertible, so J and J_w have the same rank, left kernel and first
dependency.  `_edge_rows` builds the integer rows J' instead: a(hi) in lo's
block and s * a(lo) in hi's.  Then J_w = R^-1 J' C with the invertible
R = diag(d_lo(e) * d_hi(e)) and C = diag(d_v on v's block), so each prefix
of rows has the same rank in J_w and J' (the same first dependent row f),
and lambda J_w = 0 exactly when (lambda R^-1) J' = 0.  If mu' is a
dependency of J' with zeros after f (over Q `first_dependency` gives it on
ints, with some nonzero coefficient at f), lambda = mu' R / (mu'_f R_f) is
the dependency of J_w with coefficient 1 at f, and as that one is unique,

    lambda_e = mu'_e * d_lo(e) * d_hi(e) / (mu'_f * d_lo(f) * d_hi(f)).

`singular_certificate` checks membership once, eliminates J' and re-checks
its certificate as `verify_certificate` does, on the integer form without
`_edge_rows`, the elimination or the map back.
"""

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import mul

from .errors import NotOnVarietyError
from .fields import _integer_form
from .graphs import has_even_cycle, is_forest
from .linalg import first_dependency


class VertexAssignment:
    """One vector per vertex, all over the same field, stored only as its
    integer form `numerators` (module docstring): built from field scalars,
    or by `from_numerators` from the integer form itself."""

    def __init__(self, field, vectors):
        self.field = field
        self.numerators = tuple(_integer_form(field, vec) for vec in vectors)

    @classmethod
    def from_numerators(cls, field, numerators):
        """The assignment with integer form `numerators`: per vertex (a, d)
        as `fields._integer_form` gives it, a tuple of ints and the least
        d > 0."""
        self = cls.__new__(cls)
        self.field = field
        self.numerators = tuple(numerators)
        return self

    @property
    def num_vertices(self):
        return len(self.numerators)

    def __repr__(self):
        return f"VertexAssignment({self.field!r}, {self.num_vertices} vectors)"


class VarietyContext:
    """A graph and a bilinear space; every per-edge result follows the
    graph's canonical edge order, `graph.edges`."""

    def __init__(self, graph, space):
        self.graph = graph
        self.space = space

    @property
    def field(self):
        return self.space.field


def expected_dimension(graph, space):
    return graph.num_vertices * space.n - graph.num_edges


def _check_shape(ctx, assignment):
    if assignment.field != ctx.field:
        raise ValueError("assignment field does not match the space's field")
    if assignment.num_vertices != ctx.graph.num_vertices:
        raise ValueError("assignment has the wrong number of vertices")
    for a, _ in assignment.numerators:
        if len(a) != ctx.space.n:
            raise ValueError("assignment vector has the wrong length")


def _dots(ctx, assignment):
    """Per edge (lo, hi) in canonical order, the integer a(lo) . (G_int a(hi))
    (module docstring), reduced mod p over F_p: zero exactly when
    <w(lo), w(hi)> is."""
    _check_shape(ctx, assignment)
    num, p = assignment.numerators, ctx.field.p
    images = [ctx.space._image(a) for a, _ in num]
    dots = [sum(map(mul, num[lo][0], images[hi])) for lo, hi in ctx.graph.edges]
    return dots if p is None else [x % p for x in dots]


def residual(ctx, assignment):
    """The tuple of edge form values <w(lo), w(hi)>, in canonical edge order."""
    dots = _dots(ctx, assignment)
    if ctx.field.p is not None:
        return tuple(dots)
    den, scale, zero = [d for _, d in assignment.numerators], ctx.space.scale, ctx.field(0)
    return tuple(Fraction(x, den[lo] * den[hi] * scale) if x else zero
                 for x, (lo, hi) in zip(dots, ctx.graph.edges))


def is_member(ctx, assignment):
    return not any(_dots(ctx, assignment))


def _edge_rows(ctx, assignment):
    """The integer rows of J' (module docstring) as sparse {column: nonzero
    int} dicts: edge (lo, hi) has a(hi) in lo's block and s * a(lo) in hi's,
    s = -1 for a symplectic form and 1 for a symmetric one; over F_p the
    entries are residues."""
    n, p = ctx.space.n, ctx.field.p
    support = [[(i, x) for i, x in enumerate(a) if x] for a, _ in assignment.numerators]
    mirrored = support
    if ctx.space.kind == "symplectic":
        mirrored = [[(i, -x if p is None else p - x) for i, x in vec] for vec in support]
    return [dict([(lo * n + i, x) for i, x in support[hi]]
                 + [(hi * n + i, x) for i, x in mirrored[lo]]) for lo, hi in ctx.graph.edges]


class SingularityCertificate(namedtuple("SingularityCertificate", "edges values")):
    """A nonzero edge weighting in the left kernel of the Jacobian."""

    __slots__ = ()


def verify_certificate(ctx, assignment, certificate):
    """Check a certificate from first principles, without rank computations.

    The certificate is valid when its edges are the edge order, the
    assignment is a member, the edge values are not all zero, and for every
    vertex v the values weight the neighbours' vectors to zero:

        sum over edges e = (lo, hi) at v of
            value(e) * w(hi)        if v == lo
            s * value(e) * w(lo)    if v == hi

    with s = -1 for a symplectic form and 1 for a symmetric one.  That sum
    is gram^-1 times the weighted sum of the edge gradients in v's block
    (module docstring), so it vanishes exactly when the values are a
    left-kernel vector of the Jacobian.

    Edges may be lists and values ints or decimal strings, as in JSON.
    """
    _check_shape(ctx, assignment)
    if tuple(map(tuple, certificate.edges)) != ctx.graph.edges:
        return False
    if len(certificate.values) != len(ctx.graph.edges):
        return False
    return is_member(ctx, assignment) and _certifies(ctx, assignment.numerators, certificate.values)


def _certifies(ctx, num, values):
    """The value checks of `verify_certificate` at the member point with
    integer form `num`, by one pass adding each edge's weighted neighbour
    numerators a(u) into per-vertex integer sums.  The values' integer form
    is mu over D, and D scales every sum alike, so it is dropped; with
    w(u) = a(u) / d_u, v's sum is taken times K_v, the lcm of the d_u of its
    weighted neighbours, so each coefficient s * mu_e * K_v / d_u is an
    integer.  Over F_p every d is 1, and the sums are reduced mod p."""
    mu, _ = _integer_form(ctx.field, values)
    if not any(mu):
        return False
    p, sign = ctx.field.p, -1 if ctx.space.kind == "symplectic" else 1
    # each end of each weighted edge: (vertex, neighbour, mu_e, sign)
    ends = [end for (lo, hi), m in zip(ctx.graph.edges, mu) if m
            for end in ((lo, hi, m, 1), (hi, lo, m, sign))]
    scale = [1] * len(num)
    for v, u, _, _ in ends:
        scale[v] = lcm(scale[v], num[u][1])
    acc = [[0] * ctx.space.n for _ in num]
    for v, u, m, s in ends:
        c = s * m * (scale[v] // num[u][1])
        acc[v] = [t + c * x for t, x in zip(acc[v], num[u][0])]
    return not any(x if p is None else x % p for vec in acc for x in vec)


def singular_certificate(ctx, assignment):
    """A singularity certificate at a member point, or None when smooth.

    Membership is checked once.  The left-kernel vector is then re-verified
    by `_certifies`, the value checks of `verify_certificate`, before it is
    handed back, so the two code paths cross-check each other.
    """
    if not is_member(ctx, assignment):
        raise NotOnVarietyError("certificates are only defined at member points")
    combo = first_dependency(_edge_rows(ctx, assignment), ctx.field.p)
    if combo is None:
        return None
    if ctx.field.p is None:  # the dependency of J', mapped back to J_w's (module docstring)
        den = [d for _, d in assignment.numerators]
        scale = [den[lo] * den[hi] for lo, hi in ctx.graph.edges]
        f = max(combo)
        pivot = combo[f] * scale[f]
        combo = {e: Fraction(x * scale[e], pivot) for e, x in combo.items()}
    zero = ctx.field(0)
    values = tuple(combo.get(e, zero) for e in range(ctx.graph.num_edges))
    if not _certifies(ctx, assignment.numerators, values):
        raise AssertionError("internal error: left-kernel vector failed re-verification")
    return SingularityCertificate(edges=ctx.graph.edges, values=values)


def canonical_degrees(graph, n):
    """The canonical-class degree at each vertex factor: -n + deg(v)."""
    return tuple(-n + graph.degree(v) for v in range(graph.num_vertices))


def is_anti_ample(degrees):
    """Whether every canonical degree is negative (anti-canonical class ample)."""
    return all(d < 0 for d in degrees)


def projective_smoothness(graph, n, kind):
    """Classify smoothness of the projectivized variety (zero locus removed)
    as "smooth", "singular" or "unknown".

    Forests give smooth varieties.  A symplectic space of dimension at least 4
    turns any cycle into a singular point; over a symmetric space the same
    holds once the graph has an even cycle.  Anything else is reported unknown
    rather than guessed.  The verdict carries its full geometric meaning when
    n >= degeneracy + max degree - 1, which `analyze` reports beside it; the
    rank facts behind it hold either way.
    """
    if kind not in ("symplectic", "symmetric"):
        raise ValueError(f"unknown form kind {kind!r}")
    if is_forest(graph):
        return "smooth"
    if (kind == "symplectic" and n >= 4) or (kind == "symmetric" and has_even_cycle(graph)):
        return "singular"
    return "unknown"
