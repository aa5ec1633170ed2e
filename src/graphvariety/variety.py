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

No Gram product is needed for either.  The row of edge (lo, hi) holds
gram w(hi) in lo's block and gram^T w(lo) = s * gram w(lo) in hi's, with
s = 1 for a symmetric form and -1 for a symplectic one.  As a row, gram x
is x^T gram^T, so J = J_w (I_V (x) gram^T), where J_w's row for (lo, hi)
holds w(hi) in lo's block and s * w(lo) in hi's.  The Gram matrix is
invertible, so J and J_w have the same rank, left kernel and first
dependency.  `singular_certificate` checks membership once, eliminates J_w
and re-checks its certificate as `verify_certificate` does.
"""

from collections import namedtuple

from .errors import NotOnVarietyError
from .graphs import degeneracy_order, has_even_cycle, is_forest
from .linalg import first_dependency


class VertexAssignment:
    """One vector per vertex, all over the same field."""

    def __init__(self, field, vectors):
        self.field = field
        self.vectors = tuple(tuple(field(x) for x in vec) for vec in vectors)

    @property
    def num_vertices(self):
        return len(self.vectors)

    def __eq__(self, other):
        return (
            isinstance(other, VertexAssignment)
            and self.field == other.field
            and self.vectors == other.vectors
        )

    def __repr__(self):
        return f"VertexAssignment({self.field!r}, {self.num_vertices} vectors)"


class VarietyContext:
    """A graph, a bilinear space, and the canonical edge order between them."""

    def __init__(self, graph, space):
        self.graph = graph
        self.space = space
        self.edge_order = graph.edges

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
    for vec in assignment.vectors:
        if len(vec) != ctx.space.n:
            raise ValueError("assignment vector has the wrong length")


def residual(ctx, assignment):
    """The tuple of edge form values <w(lo), w(hi)>, in canonical edge order."""
    _check_shape(ctx, assignment)
    w = assignment.vectors
    return tuple(ctx.space.pair(w[lo], w[hi]) for lo, hi in ctx.edge_order)


def is_member(ctx, assignment):
    return all(r == 0 for r in residual(ctx, assignment))


def _edge_rows(ctx, assignment):
    """The rows of J_w (module docstring) as sparse {column: nonzero
    scalar} dicts: edge (lo, hi) has w(hi) in lo's block and s * w(lo) in
    hi's, s = -1 for a symplectic form and 1 for a symmetric one."""
    n, field = ctx.space.n, ctx.field
    support = [[(i, x) for i, x in enumerate(vec) if x] for vec in assignment.vectors]
    mirrored = support
    if ctx.space.kind == "symplectic":
        mirrored = [[(i, field(-x)) for i, x in vec] for vec in support]
    return [dict([(lo * n + i, x) for i, x in support[hi]]
                 + [(hi * n + i, x) for i, x in mirrored[lo]]) for lo, hi in ctx.edge_order]


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
    if tuple(map(tuple, certificate.edges)) != tuple(ctx.edge_order):
        return False
    if len(certificate.values) != len(ctx.edge_order):
        return False
    return is_member(ctx, assignment) and _certifies(ctx, assignment.vectors, certificate.values)


def _certifies(ctx, w, values):
    """The value checks of `verify_certificate` at the member point w, by
    one pass adding each edge's weighted neighbour vectors into per-vertex
    sums."""
    values = [ctx.field(x) for x in values]
    if not any(values):
        return False
    z, sign = ctx.field.zero(), -1 if ctx.space.kind == "symplectic" else 1
    acc = [[z] * ctx.space.n for _ in w]
    for (lo, hi), lam in zip(ctx.edge_order, values):
        if not lam:
            continue
        mirrored = sign * lam
        acc[lo] = [a + lam * x for a, x in zip(acc[lo], w[hi])]
        acc[hi] = [a + mirrored * x for a, x in zip(acc[hi], w[lo])]
    return not any(ctx.field(a) for vec in acc for a in vec)


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
    values = tuple(combo.get(e, ctx.field.zero()) for e in range(ctx.graph.num_edges))
    if not _certifies(ctx, assignment.vectors, values):
        raise AssertionError("internal error: left-kernel vector failed re-verification")
    return SingularityCertificate(edges=tuple(ctx.edge_order), values=values)


class EdgeEquation(namedtuple("EdgeEquation", "edge terms")):
    """One edge equation as a sparse list of (i, j, coeff) bilinear terms.

    Term (i, j, c) stands for c * x_{lo,i} * x_{hi,j} for the edge (lo, hi).
    """

    __slots__ = ()


def equations(ctx):
    """The defining equations, one per edge in canonical order."""
    terms = ctx.space.terms
    return [EdgeEquation(edge=(lo, hi), terms=terms) for lo, hi in ctx.edge_order]


def canonical_degrees(graph, n):
    """The canonical-class degree at each vertex factor: -n + deg(v)."""
    return tuple(-n + graph.degree(v) for v in range(graph.num_vertices))


def is_anti_ample(degrees):
    """Whether every canonical degree is negative (anti-canonical class ample)."""
    return all(d < 0 for d in degrees)


class ProjectiveVerdict(namedtuple("ProjectiveVerdict", "verdict hypothesis_met")):
    """What is known about singular points away from the zero locus.

    verdict is "smooth", "singular", or "unknown"; hypothesis_met records
    whether the ambient dimension is large enough (relative to degeneracy and
    max degree) for the dimension-theoretic parts of the analysis to apply.
    """

    __slots__ = ()


def projective_smoothness(graph, n, kind):
    """Classify smoothness of the projectivized variety (zero locus removed).

    Forests give smooth varieties.  A symplectic space of dimension at least 4
    turns any cycle into a singular point; over a symmetric space the same
    holds once the graph has an even cycle.  Anything else is reported unknown
    rather than guessed.  hypothesis_met records whether n is large enough
    (degeneracy + max degree - 1) for the verdict to carry its full geometric
    meaning; the rank facts behind it hold either way.
    """
    if kind not in ("symplectic", "symmetric"):
        raise ValueError(f"unknown form kind {kind!r}")
    d = degeneracy_order(graph)[1]
    big_d = graph.max_degree()
    hypothesis_met = n >= d + big_d - 1
    if is_forest(graph):
        return ProjectiveVerdict("smooth", hypothesis_met)
    if kind == "symplectic" and n >= 4:
        return ProjectiveVerdict("singular", hypothesis_met)
    if kind == "symmetric" and has_even_cycle(graph):
        return ProjectiveVerdict("singular", hypothesis_met)
    return ProjectiveVerdict("unknown", hypothesis_met)
