"""Exact point counts of the variety over prime fields.

The counter is a forward dynamic programme over an order of the vertices.
After each step the *frontier* is the set of assigned vertices that still
have unassigned neighbours; only their vectors constrain what comes next,
so partial assignments are grouped by a key of the frontier tuple and
carried as (representative tuple, multiplicity).  At each vertex the edge
equations to assigned neighbours are linear in the new vector, and the
admissible vectors form their `perp`.  A vertex that enters the frontier has
its kernel split exactly into key classes.  A vertex with no later
neighbours multiplies the state's multiplicity by q^(n - rank), the rank of
its assigned neighbours' vectors (the form is non-degenerate): one `rref`
of at most w rows per state, w the frontier width, with no `perp` basis
or Gram image.

The states after a step number at most q^(n w), w the frontier's width
then, so the DP walks whichever of two orders has the smaller raw state
bound sum_i q^(n w_i) (`_count_order`): a greedy minimum-frontier order
(`_min_frontier_order`; vertex separation, Bodlaender, TCS 1998) or the
reversed degeneracy order, ties going to the greedy one.  Neither is always
the narrower.  On K2,3 the greedy order has width 2 where the reversed
degeneracy order has 3; on the 31-vertex complete binary tree it has width
5 against 3, and its walk takes seconds against milliseconds.  The count
does not depend on the order.

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
`rref` and one Gram image per kernel basis vector; it builds no key per
kernel vector.  `_extensions` reduces the n x (k + d) matrix
[kept | kernel basis] once, with pivots among the k kept columns, which
gives each basis vector b integer linear images: its pairings <kept_i, b>,
its coordinates over the kept pivot rows and the remainder below them, and
gram b.  A kernel vector x = sum c_j b_j then has a signature from the
same sums of these images: its pairings y with the kept tuple, its norm
<x, x> (0 for an alternating form), and its coordinates alpha over the kept
pivots when the remainder is zero, or "independent" when it is not.  The
key of kept + (x,) is assembled once per signature: the Gram part is kept's
block bordered by the column y and the row +y or -y (by the form's
symmetry), with the norm in the corner; the echelon part is kept's rows
with alpha appended, or, for an independent x, with 0 appended and a new
last row (0, ..., 0, 1).  That is exactly the orbit key of kept + (x,),
since the reduced echelon form is unique, so the signature fixes the key by
linear algebra alone; Witt's theorem is needed only for the orbit key
itself.  Class sizes become multiplicities, so the counts and the states
carried are those of keying every tuple.

Where the norm can be nonzero (symmetric forms in odd characteristic) all
p^d kernel vectors are enumerated (`_span`, which starts from the first
basis vector's multiples) and sorted into classes.  An alternating
form has no norm, and `_alternating_classes` counts its classes instead.
The map c -> (y, alpha, remainder) is linear and injective, as
(alpha, remainder) is E x for the invertible E of the reduction.  So each
dependent x is a class of size 1; they span the kernel of the remainder
map, which an `rref` of the images pivoting on the remainder columns gives
(at most p^r vectors, r = rank(kept)).  An `rref` pivoting on the pairing
columns gives each y of im Y once (at most p^k vectors); the x with
pairings y are a coset of ker Y, of size p^(d - rank Y), and the
independent class of y is that coset less its dependent x.  Its
representative is the span element of y, plus a row of ker Y with a nonzero
remainder when that element is dependent.

A step that only shrinks the frontier reads the kept tuple's key off the
state's (`_kept_echelon`).

Steps of one shape share their transitions (the transfer-matrix method,
Stanley, Enumerative Combinatorics I, 4.7).  A step's shape is (frontier
width, slot positions, kept positions, enters), and a state's transition,
its new keys with their representatives and multiplicity factors, depends
only on its key and the step's shape.  Under orbit keys, Witt's theorem
carries one representative of a key onto any other by an isometry of the
whole space; the isometry carries the slot vectors' perp and each
signature class along and keeps every key.  Under raw keys the key is the
tuple itself.  So for a shape that occurs again later the DP keeps a table
{state key: transition}, reuses it at the shape's later steps and drops it
after the shape's last one; a shape that does not recur stores nothing.
Counts are those of computing every transition afresh; only the
representatives carried may differ, and any representative of a key
serves.  Paths, cycles, ladders, grid rows and tree levels repeat their
shapes: on cycles the `_extensions` calls stop growing with the length.

The result is an exact integer, usable as an oracle for the expected
dimension: the ratio count / q^d should drift toward 1 as q grows when the
variety behaves like an irreducible variety of dimension d.  The ratio is
reported, never judged.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain
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
    """Every vector of the span of `basis`, as tuples: the first basis
    vector's multiples, then each sum with a multiple of the next."""
    reduce = p.__rmod__
    vecs = [(0,) * n]
    for i, b in enumerate(basis):
        multiples = [(0,) * n]
        for _ in range(p - 1):
            multiples.append(tuple(map(reduce, map(add, multiples[-1], b))))
        vecs = [tuple(map(reduce, map(add, v, m))) for v in vecs for m in multiples] if i else multiples
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
    # an image of x is <kept, x> | alpha | remainder | x [| gram x]
    a, rest, tail = k + r, k + n, k + 2 * n
    if norms:
        classes = {}
        for t in _span(images, tail + n, p):
            dependent = not any(t[a:rest])
            sig = (t[:a] if dependent else t[:k], dependent, sum(map(mul, t[rest:tail], t[tail:])) % p)
            if sig in classes:
                classes[sig][1] += 1
            else:
                classes[sig] = [t[rest:tail], 1]
    else:
        classes = _alternating_classes(images, k, r, n, p)
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


def _alternating_classes(images, k, r, n, p):
    """`_extensions`' {signature: [x, class size]} for an alternating form,
    counted from two `rref`s of the images rather than enumerated (module
    docstring)."""
    a, rest, tail = k + r, k + n, k + 2 * n
    # pivots on the remainder columns: the rows past them span the images
    # of the dependent x, one class of size 1 each
    rows, pivots = rref([t[a:rest] + t[:a] + t[rest:] for t in images], n - r, p)
    classes, dependents = {}, {}
    for t in _span([row[n - r:] for row in rows[len(pivots):]], a + n, p):
        classes[t[:a], True, 0] = [t[a:], 1]
        dependents[t[:k]] = dependents.get(t[:k], 0) + 1
    # pivots on the pairing columns: the pivot rows' span meets each y in
    # im Y once, and the rows past them span ker Y, so each y's x are a
    # coset of size p^(d - rank Y) less its dependent ones
    rows, pivots = rref(images, k, p)
    coset = p ** (len(images) - len(pivots))
    lift = next((row for row in rows[len(pivots):] if any(row[a:rest])), None)
    for t in _span(rows[: len(pivots)], tail, p):
        size = coset - dependents.get(t[:k], 0)
        if size:
            # size > 0: t's coset holds an independent x, so `lift` exists
            x = t[rest:] if any(t[a:rest]) else tuple(map(p.__rmod__, map(add, t[rest:], lift[rest:])))
            classes[t[:k], False, 0] = [x, size]
    return classes


def _kept_echelon(echelon, keep, p):
    """The echelon part of the key of a tuple's columns `keep`, from the
    tuple's: row operations keep the relations among columns, so it is the
    rref of the tuple's echelon rows cut to those columns."""
    rows, pivots = rref([[row[a] for a in keep] for row in echelon], len(keep), p)
    return tuple(map(tuple, rows[: len(pivots)]))


def _step_shapes(g, order):
    """Each step's shape (frontier width, slot positions, kept positions,
    enters): the frontier positions of the vertex's earlier neighbours,
    those of the frontier vertices that stay, and whether the vertex joins
    the frontier."""
    position = {v: i for i, v in enumerate(order)}
    last = {v: max((position[u] for u in g.adjacency[v]), default=-1) for v in order}
    frontier, shapes = [], []
    for i, v in enumerate(order):
        slots = tuple(sorted(frontier.index(u) for u in g.adjacency[v] if position[u] < i))
        keep = tuple(k for k, u in enumerate(frontier) if last[u] > i)
        shapes.append((len(frontier), slots, keep, last[v] > i))
        frontier = [frontier[k] for k in keep] + ([v] if last[v] > i else [])
    return shapes


def _transition(space, orbit_keys, shape, key, rep):
    """{new key: (new representative, multiplicity factor)} of one state
    at a step of this shape."""
    n, p = space.n, space.field.p
    width, slots, keep, enters = shape
    unchanged = not enters and len(keep) == width
    kept = tuple(rep[k] for k in keep)
    if orbit_keys and not unchanged:
        # kept's Gram block, read off the state key's Gram matrix
        gram = tuple(key[0][a * width + b] for a in keep for b in keep)
    if enters:
        basis = space.perp([rep[k] for k in slots])[0]
        if orbit_keys:
            return _extensions(space, gram, kept, basis)
        return {t: (t, 1) for t in [kept + (x,) for x in _span(basis, n, p)]}
    # v's perp has dimension n - rank(slot vectors): the form is non-degenerate
    size = p ** (n - len(rref([rep[k] for k in slots], n, p)[1]))
    if unchanged or not orbit_keys:
        return {key if unchanged else kept: (kept, size)}
    return {(gram, _kept_echelon(key[1], keep, p)): (kept, size)}


def _frontier_count(g, order, space):
    """The number of member points, by the frontier DP over `order`, each
    state's transition computed once per step shape (module docstring)."""
    p = space.field.p
    # Witt's extension theorem: alternating forms, or odd characteristic
    orbit_keys = p != 2 or not any(i == j for i, j, _ in space.terms)
    shapes = _step_shapes(g, order)
    final = {shape: i for i, shape in enumerate(shapes)}  # each shape's last step
    tables = {}  # shape -> {state key: transition}, for shapes still to come
    states = {(): ((), 1)}
    for i, shape in enumerate(shapes):
        recurs = final[shape] > i
        table = tables.setdefault(shape, {}) if recurs else tables.pop(shape, {})
        nxt = {}
        for key, (rep, mult) in states.items():
            new = table.get(key)
            if new is None:
                new = _transition(space, orbit_keys, shape, key, rep)
                if recurs:
                    table[key] = new
            for new_key, (t, size) in new.items():
                seen = nxt.get(new_key)
                if seen is None:
                    nxt[new_key] = (t, mult * size)
                else:
                    nxt[new_key] = (seen[0], seen[1] + mult * size)
        states = nxt
    return sum(mult for _, mult in states.values())


def _min_frontier_order(g):
    """A greedy minimum-frontier order: next comes the unplaced vertex that
    leaves the smallest frontier, ties going to the most placed neighbours,
    then to the smallest index.  That puts the isolated vertices first, in
    index order.  After them a vertex with no placed neighbour enters the
    frontier and closes none, so while the frontier is not empty the next
    vertex is one of its neighbours, and when it is empty it is the
    smallest unplaced one."""
    adjacency = g.adjacency
    unplaced = [len(ns) for ns in adjacency]  # each vertex's unplaced neighbours
    order = [v for v, ns in enumerate(adjacency) if not ns]
    placed, frontier, fresh = set(order), set(), iter(range(g.num_vertices))

    def cost(v):
        closes = sum(unplaced[u] == 1 for u in adjacency[v] if u in placed)
        return (unplaced[v] > 0) - closes, unplaced[v] - len(adjacency[v]), v

    while len(order) < g.num_vertices:
        if frontier:
            v = min({u for f in frontier for u in adjacency[f] if u not in placed}, key=cost)
        else:
            v = next(u for u in fresh if u not in placed)
        order.append(v)
        placed.add(v)
        for u in adjacency[v]:
            unplaced[u] -= 1
            if not unplaced[u]:
                frontier.discard(u)
        if unplaced[v]:
            frontier.add(v)
    return order


def _frontier_widths(g, order):
    """w_i, the number of vertices among order[:i + 1] with a neighbour
    after position i, for each step i of `order`."""
    position = {v: i for i, v in enumerate(order)}
    delta = [0] * (len(order) + 1)
    for i, v in enumerate(order):
        last = max((position[u] for u in g.adjacency[v]), default=-1)
        if last > i:  # v is in the frontier after steps i..last - 1
            delta[i] += 1
            delta[last] -= 1
    return list(accumulate(delta[:-1]))


def _count_order(g, space):
    """The order `count_points` walks: `_min_frontier_order` or the reversed
    degeneracy order, whichever has the smaller raw state bound
    sum_i q^(n w_i), ties going to the greedy one."""
    states = space.field.p ** space.n
    orders = (_min_frontier_order(g), degeneracy_order(g)[0][::-1])
    return min(orders, key=lambda order: sum(states**w for w in _frontier_widths(g, order)))


def _cap_exponent(q, cap):
    """The largest e with q^e <= cap, for cap >= 1."""
    e, power = 0, q
    while power <= cap:
        e, power = e + 1, power * q
    return e


def count_points(req):
    """The exact number of member points, by a frontier DP over
    `_count_order` (module docstring).

    The work estimate is the worst case q^(n |V|) of a full enumeration, kept
    as the admission rule: a request over the cap is rejected up front even
    though the DP usually does far less work.  The rule compares exponents,
    so the estimate itself is never built.
    """
    g, space = req.graph, req.space
    q = space.field.p
    work = space.n * g.num_vertices
    if work > _cap_exponent(q, req.cap):
        raise WorkCapExceededError((q, work), req.cap)
    count = _frontier_count(g, _count_order(g, space), space)
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

