"""Exact point counts of the variety over prime fields.

The counter is a forward dynamic programme over the reversed degeneracy
order.  After each step the *frontier* is the set of assigned vertices that
still have unassigned neighbours; only their vectors constrain what comes
next, so partial assignments are grouped by a key of the frontier tuple and
carried as (representative tuple, multiplicity).  At each vertex the edge
equations to assigned neighbours are linear in the new vector, and the
admissible vectors form a kernel.  A vertex that enters the frontier has its
kernel enumerated exactly; a vertex with no later neighbours is not
enumerated and multiplies the state's multiplicity by q^dim(kernel).

The key is the isometry orbit of the frontier tuple where Witt's extension
theorem applies, that is for alternating forms and for symmetric forms in
odd characteristic: there two tuples with the same Gram matrix and the same
linear relations are carried onto each other by an isometry of the whole
space, so they have the same number of completions.  The orbit key is that
pair: the full Gram matrix of the tuple and the nonzero rows of the reduced
echelon form of the n x k matrix whose columns are the tuple.  Otherwise (a
non-alternating form over F_2, such as the identity) the key is the raw
vectors.  All arithmetic runs on ints in [0, p).

The result is an exact integer, usable as an oracle for the expected
dimension: the ratio count / q^d should drift toward 1 as q grows when the
variety behaves like an irreducible variety of dimension d.  The ratio is
reported, never judged.
"""

from dataclasses import dataclass
from fractions import Fraction

from .bilinear import standard_space
from .errors import WorkCapExceededError
from .fields import PrimeField
from .graphs import degeneracy_order
from .linalg import dot, kernel, rref
from .variety import edge_gradient, expected_dimension

DEFAULT_WORK_CAP = 10**7


@dataclass(frozen=True)
class CountRequest:
    graph: object
    space: object
    cap: int = DEFAULT_WORK_CAP

    def __post_init__(self):
        if self.space.field.p is None:
            raise ValueError("point counting needs a prime field")
        if self.cap < 1:
            raise ValueError("work cap must be at least 1")


@dataclass(frozen=True)
class CountReport:
    count: int
    q: int
    expected_dimension: int
    ratio: Fraction


class ResidueForm:
    """A prime-field space with the frontier key its form admits.  Vectors
    are tuples of ints in [0, p)."""

    def __init__(self, space):
        self.space = space
        self.p = space.field.p
        self.n = space.n
        gram = space.gram
        # Witt's extension theorem: alternating forms, or odd characteristic
        self.orbit_keys = self.p != 2 or all(gram[i][i] == 0 for i in range(self.n))

    def key(self, vectors):
        """The memo key of a frontier tuple: its (Gram matrix, linear
        relations) pair where orbit keys apply, else the tuple itself."""
        if not self.orbit_keys or not vectors:
            return vectors
        field = self.space.field
        images = [self.space.gram_times(w) for w in vectors]
        pairs = tuple(dot(field, u, gw) for u in vectors for gw in images)
        reduced, pivots = rref(list(zip(*vectors)), len(vectors), self.p)
        return pairs, tuple(tuple(row) for row in reduced[: len(pivots)])


def _span(basis, n, p):
    """Every vector of the span of `basis`, as tuples."""
    vecs = [(0,) * n]
    for b in basis:
        vecs = [tuple((a + c * x) % p for a, x in zip(v, b)) for v in vecs for c in range(p)]
    return vecs


def _frontier_count(g, order, form):
    """The number of member points, by the frontier DP over `order`."""
    n, p, space = form.n, form.p, form.space
    position = {v: i for i, v in enumerate(order)}
    last = {v: max((position[u] for u in g.adjacency[v]), default=-1) for v in order}
    frontier = []
    states = {(): ((), 1)}
    for i, v in enumerate(order):
        slots = [(frontier.index(u), u) for u in g.adjacency[v] if position[u] < i]
        keep = [k for k, u in enumerate(frontier) if last[u] > i]
        enters = last[v] > i
        unchanged = not enters and len(keep) == len(frontier)
        nxt = {}
        for key, (rep, mult) in states.items():
            basis = kernel([edge_gradient(space, v, u, rep[k]) for k, u in slots], n, p)
            kept = tuple(rep[k] for k in keep)
            if enters:
                extended = [kept + (x,) for x in _span(basis, n, p)]
            else:
                extended = [kept]
                mult *= p ** len(basis)
            for t in extended:
                new_key = key if unchanged else form.key(t)
                if new_key in nxt:
                    nxt[new_key] = (nxt[new_key][0], nxt[new_key][1] + mult)
                else:
                    nxt[new_key] = (t, mult)
        states = nxt
        frontier = [frontier[k] for k in keep] + ([v] if enters else [])
    return sum(mult for _, mult in states.values())


def count_points(req):
    """The exact number of member points, by a frontier DP (module docstring).

    The work estimate is the worst case q^(n |V|) of a full enumeration, kept
    as the admission rule: a request over the cap is rejected up front even
    though the DP usually does far less work.
    """
    g, space = req.graph, req.space
    q = space.field.order
    estimate = q ** (space.n * g.num_vertices)
    if estimate > req.cap:
        raise WorkCapExceededError(estimate, req.cap)
    og, _ = degeneracy_order(g)
    count = _frontier_count(g, list(reversed(og.order)), ResidueForm(space))
    d = expected_dimension(g, space)
    return CountReport(
        count=count,
        q=q,
        expected_dimension=d,
        ratio=Fraction(count) / Fraction(q) ** d,
    )


def edge_count_closed_form(n, q):
    """Members on a single edge: q^(2n-1) + q^n - q^(n-1).

    Split on the first endpoint: the zero vector leaves the second free
    (q^n), and each of the q^n - 1 nonzero vectors pins the second one to a
    hyperplane (q^(n-1)).
    """
    if n < 1:
        raise ValueError("dimension must be at least 1")
    return q ** (2 * n - 1) + q**n - q ** (n - 1)


def dimension_probe(graph, n, kind, qs, cap=DEFAULT_WORK_CAP):
    """Counts over several primes, reported with count / q^d ratios.

    Purely diagnostic: ratios drifting toward 1 are consistent with an
    irreducible variety of expected dimension; no verdict is attached.
    """
    reports = []
    for q in sorted(qs):
        space = standard_space(kind, n, PrimeField(q))
        reports.append(count_points(CountRequest(graph, space, cap)))
    return reports
