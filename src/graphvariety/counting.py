"""Exact point counts of the variety over prime fields.

The counter is a forward dynamic programme over the reversed degeneracy
order.  After each step the *frontier* is the set of assigned vertices that
still have unassigned neighbours; only their vectors constrain what comes
next, so partial assignments are grouped by a key of the frontier tuple and
carried as (representative tuple, multiplicity).  At each vertex the edge
equations to assigned neighbours are linear in the new vector, and the
admissible vectors form their `perp`.  A vertex that enters the frontier has
its kernel enumerated exactly; a vertex with no later neighbours is not
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

Under orbit keys a vertex entering the frontier costs, per state, one
`rref` and one Gram image per kernel basis vector, then a few tuple sums and
slices per kernel vector: it builds no key per kernel vector.
`_extensions` reduces the n x (k + d) matrix [kept | kernel basis] once,
with pivots among the k kept columns, which gives each basis vector b
integer linear images: its pairings <kept_i, b>, its coordinates over the
kept pivot rows and the remainder below them, and gram b.  Each of the
p^d vectors x of the kernel then gets a signature from sums of these
images: its pairings y with the kept tuple, its norm <x, x> (0 for an
alternating form), and its coordinates alpha over the kept pivots when the
remainder is zero, or "independent" when it is not.  The key of
kept + (x,) is assembled once per signature: the Gram part is kept's block
bordered by the column y and the row +y or -y (by the form's symmetry),
with the norm in the corner; the echelon part is kept's rows with alpha
appended, or, for an independent x, with 0 appended and a new last row
(0, ..., 0, 1).  That is exactly the orbit key of kept + (x,), since the
reduced echelon form is unique, so the signature fixes the key by linear
algebra alone; Witt's theorem is needed only for the orbit key itself.
Class sizes become multiplicities, so the counts and the states carried
are those of keying every tuple.  A step that only shrinks the frontier
reads the kept tuple's key off the state's (`_kept_echelon`).

The result is an exact integer, usable as an oracle for the expected
dimension: the ratio count / q^d should drift toward 1 as q grows when the
variety behaves like an irreducible variety of dimension d.  The ratio is
reported, never judged.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from operator import add, mul

from .errors import WorkCapExceededError
from .graphs import degeneracy_order
from .linalg import rref
from .variety import expected_dimension

DEFAULT_WORK_CAP = 10**7


class CountRequest(namedtuple("CountRequest", "graph space cap")):
    """A graph, a space over a prime field and a work cap, checked on
    construction.  namedtuple's `_make` and `_replace` skip `__new__` and so
    the checks; nothing calls them."""

    __slots__ = ()

    def __new__(cls, graph, space, cap=DEFAULT_WORK_CAP):
        if space.field.p is None:
            raise ValueError("point counting needs a prime field")
        if cap < 1:
            raise ValueError("work cap must be at least 1")
        return super().__new__(cls, graph, space, cap)


class CountReport(namedtuple("CountReport", "count q expected_dimension ratio")):
    __slots__ = ()


def _span(basis, n, p):
    """Every vector of the span of `basis`, as tuples."""
    reduce = p.__rmod__
    vecs = [(0,) * n]
    for b in basis:
        multiples = [(0,) * n]
        for _ in range(p - 1):
            multiples.append(tuple(map(reduce, map(add, multiples[-1], b))))
        vecs = [tuple(map(reduce, map(add, v, m))) for v in vecs for m in multiples]
    return vecs


def _extensions(space, gram, kept, basis):
    """{key of kept + (x,): (kept + (x,), class size)} over every x in the
    span of `basis`, one key per signature class (module docstring); `gram`
    is the Gram block of `kept`, flat in row-major order."""
    n, p = space.n, space.field.p
    k = len(kept)
    # <x, x> can be nonzero: orbit keys over F_2 mean an alternating form
    norms = space.kind == "symmetric" and p != 2
    # E [kept | basis], pivots among kept's columns: the first r rows cut to
    # k columns are kept's echelon rows, and column k + j is E b_j
    rows, pivots = rref(list(zip(*kept, *basis)), k, p)
    r = len(pivots)
    images = []
    for j, b in enumerate(basis):
        gb = space.gram_times(b)
        image = [sum(map(mul, u, gb)) % p for u in kept] + [row[k + j] for row in rows] + b
        images.append(image + gb if norms else image)
    # an image of x is <kept, x> | alpha | remainder | x [| gram x]; without
    # the gram x part the norm below is an empty sum, 0 as for alternating forms
    a, rest, tail = k + r, k + n, k + 2 * n
    classes = {}
    for t in _span(images, tail + n * norms, p):
        dependent = not any(t[a:rest])
        sig = (t[:a] if dependent else t[:k], dependent, sum(map(mul, t[rest:tail], t[tail:])) % p)
        if sig in classes:
            classes[sig][1] += 1
        else:
            classes[sig] = [t[rest:tail], 1]
    border = [gram[i * k : i * k + k] for i in range(k)]
    old = [tuple(row[:k]) for row in rows[:r]]
    fresh = tuple(row + (0,) for row in old) + ((0,) * k + (1,),)
    out = {}
    for (head, dependent, norm), (x, size) in classes.items():
        y = head[:k]
        mirrored = y if space.kind == "symmetric" else tuple(-c % p for c in y)
        pairs = tuple(chain.from_iterable(map(tuple.__add__, border, zip(y)))) + mirrored + (norm,)
        echelon = tuple(map(tuple.__add__, old, zip(head[k:]))) if dependent else fresh
        out[pairs, echelon] = (kept + (x,), size)
    return out


def _kept_echelon(echelon, keep, p):
    """The echelon part of the key of a tuple's columns `keep`, from the
    tuple's: row operations keep the relations among columns, so it is the
    rref of the tuple's echelon rows cut to those columns."""
    rows, pivots = rref([[row[a] for a in keep] for row in echelon], len(keep), p)
    return tuple(map(tuple, rows[: len(pivots)]))


def _frontier_count(g, order, space):
    """The number of member points, by the frontier DP over `order`."""
    n, p = space.n, space.field.p
    # Witt's extension theorem: alternating forms, or odd characteristic
    orbit_keys = p != 2 or all(space.gram[i][i] == 0 for i in range(n))
    position = {v: i for i, v in enumerate(order)}
    last = {v: max((position[u] for u in g.adjacency[v]), default=-1) for v in order}
    frontier = []
    states = {(): ((), 1)}
    for i, v in enumerate(order):
        slots = [frontier.index(u) for u in g.adjacency[v] if position[u] < i]
        keep = [k for k, u in enumerate(frontier) if last[u] > i]
        enters = last[v] > i
        unchanged = not enters and len(keep) == len(frontier)
        width = len(frontier)
        nxt = {}
        for key, (rep, mult) in states.items():
            basis = space.perp([rep[k] for k in slots])[0]
            kept = tuple(rep[k] for k in keep)
            if orbit_keys and not unchanged:
                # kept's Gram block, read off the state key's Gram matrix
                gram = tuple(key[0][a * width + b] for a in keep for b in keep)
            if enters and orbit_keys:
                new = _extensions(space, gram, kept, basis)
            elif enters:
                new = {t: (t, 1) for t in [kept + (x,) for x in _span(basis, n, p)]}
            elif unchanged or not orbit_keys:
                new = {key if unchanged else kept: (kept, p ** len(basis))}
            else:
                new = {(gram, _kept_echelon(key[1], keep, p)): (kept, p ** len(basis))}
            for new_key, (t, size) in new.items():
                seen = nxt.get(new_key)
                if seen is None:
                    nxt[new_key] = (t, mult * size)
                else:
                    nxt[new_key] = (seen[0], seen[1] + mult * size)
        states = nxt
        frontier = [frontier[k] for k in keep] + ([v] if enters else [])
    return sum(mult for _, mult in states.values())


def _cap_exponent(q, cap):
    """The largest e with q^e <= cap, for cap >= 1."""
    e, power = 0, q
    while power <= cap:
        e, power = e + 1, power * q
    return e


def count_points(req):
    """The exact number of member points, by a frontier DP (module docstring).

    The work estimate is the worst case q^(n |V|) of a full enumeration, kept
    as the admission rule: a request over the cap is rejected up front even
    though the DP usually does far less work.  The rule compares exponents,
    so the estimate itself is never built.
    """
    g, space = req.graph, req.space
    q = space.field.order
    work = space.n * g.num_vertices
    if work > _cap_exponent(q, req.cap):
        raise WorkCapExceededError((q, work), req.cap)
    og, _ = degeneracy_order(g)
    count = _frontier_count(g, list(reversed(og.order)), space)
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

