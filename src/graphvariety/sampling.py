"""Constructive point generation on the variety.

`sample_regular_point` takes the graph, refuses a point too large to hold
before any other work, peels the graph once into a degeneracy order, splits
each vertex's neighbours once into older and younger ones, and walks the
vertices from the oldest down.  Each new vector is drawn from the vectors
orthogonal to every already assigned older neighbor, then rejected if it is
zero or if it lands in the span of some partially assembled older-neighbor
family of a younger vertex.
Every accepted run therefore satisfies membership and the regular-part test
by construction, and both are still re-checked by the tests, with dense
ranks rather than the echelon rows below.

The sampler works on integers.  Per vertex, the constraints <x, u> = 0 of
the older neighbours u are the integer rows G_int u
(`BilinearSpace._image`), put once through `linalg.solve`, the solve that
`BilinearSpace.perp` expands through `kernel`.  A draw takes one
coefficient c_f per free column in increasing order and solves the pivots:
x_f = c_f * L and x_c = -(L / row[c]) * sum_f c_f * row[f], with L the lcm
of the pivots over Q, and over F_p (pivots 1) L = 1 and x_c reduced mod p.
That is sum_f c_f * b_f over `kernel`'s basis b_f, so the RNG calls and
every output byte are those of drawing on the basis, at O(n * r) per draw
for r constraints; a vertex with no older neighbour draws from F^n.  Over
Q a candidate stands for x / L, and an accepted one is kept as its integer
form (`VertexAssignment.from_numerators`): no `Fraction` is built.  The
younger neighbours' constraints take the candidates themselves, as an
integer multiple of a vector has the same orthogonal complement.  Each
younger vertex keeps its partial family as echelon rows: integer rows (Q)
or residue rows (F_p), each with its pivot column, every row zero at the
pivots of the rows kept before it.  A candidate reduced against them by
cross-multiplication leaves a nonzero remainder exactly when it is
independent of them; scaling never changes that.  An accepted vector's
remainders become the new rows, over Q divided by their content.  The RNG
calls and every accept/reject decision are the same as drawing and
re-ranking on field scalars.
"""

import random
from math import gcd
from operator import mul

from .errors import PreconditionViolatedError, RetriesExhaustedError, WorkCapExceededError
from .graphs import degeneracy_order
from .linalg import solve
from .splitting import WEIGHTING_CAP
from .variety import VertexAssignment


def _draw(system, n, rng, bound, p):
    """A random solution in F^n of a `linalg.solve` system (module
    docstring): coefficients in [-bound, bound] over Q, the vector's
    numerators over L; uniform residues over F_p."""
    free, denominator, solved = system
    x = [0] * n
    if p is None:
        for f in free:
            x[f] = rng.randint(-bound, bound)
    else:
        for f in free:
            x[f] = rng.randrange(p)
    # each row is zero at the other pivots, and x is zero at every pivot
    sums = [m * sum(map(mul, row, x)) for _, row, m in solved]
    if denominator != 1:
        x = [a * denominator for a in x]
    for (c, _, _), s in zip(solved, sums):
        x[c] = -s if p is None else -s % p
    return x


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


def sample_regular_point(graph, space, seed=0, bound=10, max_retries=64):
    """A member point of the variety lying in the regular part of the
    graph's degeneracy order.

    `seed` seeds the draws, `bound` limits rational draws to [-bound, bound]
    and `max_retries` is the number of draws per vertex.  The checks run
    before any draw, in this order: a point of more than WEIGHTING_CAP
    coordinates, |V| * n, is refused, as `split` refuses a weighting that
    large; a `bound` or `max_retries` below 1 is a `ValueError`; then one
    `degeneracy_order` call gives d, and n >= 2 * d is needed so the
    admissible kernels always have room outside the finitely many bad
    subspaces; last, over a prime field p must exceed the number of
    rejection conditions at every vertex, since otherwise the draw could
    fail forever.
    """
    num_vertices, n = graph.num_vertices, space.n
    if num_vertices * n > WEIGHTING_CAP:
        raise WorkCapExceededError(
            num_vertices * n, WEIGHTING_CAP, "; the point would hold |V| * n coordinates")
    if bound < 1:
        raise ValueError("bound must be at least 1")
    if max_retries < 1:
        raise ValueError("max_retries must be at least 1")
    order, d = degeneracy_order(graph)
    if n < 2 * d:
        raise PreconditionViolatedError(f"need dimension >= {2 * d} for width {d}, got {n}")
    position = [0] * num_vertices
    for i, v in enumerate(order):
        position[v] = i
    older, younger = [], []  # neighbours after and before each vertex in the order
    for v, ns in enumerate(graph.adjacency):
        older.append([u for u in ns if position[u] > position[v]])
        younger.append([u for u in ns if position[u] < position[v]])
    field, p = space.field, space.field.p
    if p is not None:
        worst = max((len(ys) + 1 for ys in younger), default=0)
        if field.order <= worst:
            raise PreconditionViolatedError(
                f"prime field too small: need p > {worst}, got {field.order}")
    rng = random.Random(seed)
    candidates, numerators = {}, {}  # the accepted integer draws, and their integer forms
    echelon = [[] for _ in range(num_vertices)]  # partial older-neighbor families
    # oldest vertex first
    for v in reversed(order):
        system = solve([space._image(candidates[u]) for u in older[v]], n, p)
        for _ in range(max_retries):
            candidate = _draw(system, n, rng, bound, p)
            if not any(candidate):
                continue
            remainders = [_reduce(candidate, echelon[y], p) for y in younger[v]]
            if all(map(any, remainders)):
                break
        else:
            raise RetriesExhaustedError(v, max_retries)
        for y, rest in zip(younger[v], remainders):
            echelon[y].append(_echelon_row(rest, p))
        candidates[v] = candidate
        content = gcd(system[1], *candidate)  # 1 over F_p
        numerators[v] = tuple(x // content for x in candidate), system[1] // content
    return VertexAssignment.from_numerators(field, [numerators[v] for v in range(num_vertices)])
