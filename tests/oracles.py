"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: full enumeration, all-permutations
search, direct definitions.  Slow but obviously correct on small inputs.
"""

import itertools
from fractions import Fraction
from math import lcm
from operator import add, mul

from graphvariety import Graph, VertexAssignment, degeneracy_order
from graphvariety.linalg import kernel, rref
from graphvariety.serialization import _weight_vector, _weighting


# Elimination with every row operation on field scalars: `Fraction`s over Q,
# residues mod p.  The property tests hold the package's elimination to
# these, and the oracles below rank and take kernels with them.


def reference_rref(rows, ncols, p=None):
    """Reduced row echelon form, as (row list, pivot column list).

    `rows` are sequences of ints in [0, p) for a prime `p`, or of
    `Fraction`s when `p` is None; the result is new lists of the same kind.
    Entries must be reduced: an unreduced multiple of p would be taken for
    a nonzero pivot.
    The pivot in each column is the first nonzero entry at or below the
    current row.  Left of the pivot column the pivot row is zero, so row
    updates touch only the columns from the pivot on.
    """
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= len(rows):
            break
        for i in range(r, len(rows)):
            if rows[i][c]:
                break
        else:
            continue
        rows[r], rows[i] = rows[i], rows[r]
        if p is None:
            inv = Fraction(1) / rows[r][c]
            tail = [x * inv for x in rows[r][c:]]
        else:
            inv = pow(rows[r][c], -1, p)
            tail = [x * inv % p for x in rows[r][c:]]
        rows[r][c:] = tail
        for j, row in enumerate(rows):
            f = row[c]
            if f and j != r:
                if p is None:
                    row[c:] = [a - f * b for a, b in zip(row[c:], tail)]
                else:
                    row[c:] = [(a - f * b) % p for a, b in zip(row[c:], tail)]
        pivots.append(c)
        r += 1
    return rows, pivots


def reference_kernel(rows, ncols, p=None):
    """A basis of the right kernel of `rows` (scalars as in
    `reference_rref`), one vector per free column in increasing order, with
    a 1 in that column."""
    reduced, pivots = reference_rref(rows, ncols, p)
    pivot_set = set(pivots)
    zero, one = (Fraction(0), Fraction(1)) if p is None else (0, 1)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = [zero] * ncols
        vec[f] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][f] if p is None else -reduced[r][f] % p
        basis.append(vec)
    return basis


def reference_first_dependency(rows, p=None):
    """The dependency of the first row that depends on the rows before it,
    as {row index: coefficient}, or None when all rows are independent.

    `rows` are dicts {column: nonzero scalar}, scalars as in
    `reference_rref`.  Each row is reduced at its smallest column against
    earlier pivot rows (zero left of their pivots), keeping beside it the
    combination of input rows it has become.  The first row f to reach zero
    returns that combination: coefficient 1 at f, support in 0..f, unique as
    rows 0..f-1 are independent.
    """
    pivots = {}  # pivot column -> (inverse pivot, rest of the row, combination)
    for f, row in enumerate(rows):
        row, combo = dict(row), {f: Fraction(1) if p is None else 1}
        while row:
            c = min(row)
            if c not in pivots:
                break
            inv, rest, pivot_combo = pivots[c]
            factor = row.pop(c) * inv
            for target, source in ((row, rest), (combo, pivot_combo)):
                for k, x in source.items():  # target -= factor * source
                    y = target.get(k, 0) - factor * x
                    if p is not None:
                        y %= p
                    if y:
                        target[k] = y
                    else:
                        del target[k]
        else:
            return combo
        x = row.pop(c)
        pivots[c] = (1 / x if p is None else pow(x, -1, p), row, combo)
    return None


# The package's `rref` and `kernel` take integer rows, and `kernel` and
# `perp` give integer vectors over one denominator; tests written on field
# scalars read them through these.


def field_rref(rows, ncols, p=None):
    """The package's `rref` of rows of field scalars, each row of `ncols`
    entries, as `reference_rref` gives it: over Q each row goes in as its
    integer multiple by the lcm of its denominators, and each pivot row
    comes out divided by its pivot, as `Fraction`s."""
    if p is not None:
        return rref(rows, ncols, p)
    reduced, pivots = rref(list(map(_integer_row, rows)), ncols)
    return [[Fraction(x, row[c]) for x in row] for row, c in zip(reduced, pivots)] + [
        [Fraction(0)] * ncols for _ in reduced[len(pivots):]], pivots


def field_vectors(basis, p=None):
    """A basis as `kernel` and `perp` give it, (integer vectors, L), as
    vectors of field scalars: each entry over L as a `Fraction` over Q, the
    residues themselves over F_p."""
    vectors, denominator = basis
    if p is not None:
        return vectors
    return [[Fraction(x, denominator) for x in vec] for vec in vectors]


def field_kernel(rows, ncols, p=None):
    """The package's `kernel` of rows of field scalars, as `field_vectors`:
    over Q each row goes in as its integer multiple by the lcm of its
    denominators, which has the same kernel."""
    if p is None:
        rows = list(map(_integer_row, rows))
    return field_vectors(kernel(rows, ncols, p), p)


def _integer_row(row):
    d = lcm(*(Fraction(x).denominator for x in row))
    return [int(x * d) for x in row]


def dot(field, u, v):
    if len(u) != len(v):
        raise ValueError("dot product of vectors with different lengths")
    # over Q, a sum started from Fraction(0) is faster than one from int 0
    return field(sum(map(mul, u, v), field.zero()))


def gram_product(space, v, transpose=False):
    """gram * v, or gram^T * v, by dense products with the Gram's rows."""
    rows = zip(*space.gram) if transpose else space.gram
    return [dot(space.field, row, v) for row in rows]


def jacobian(ctx, assignment):
    """The |E| x (|V| * n) Jacobian of the edge equations at the assignment,
    as a list of dense rows of length |V| * n, one per edge in edge order.

    The row of edge (lo, hi) carries gram * w(hi) in the block of lo and
    gram^T * w(lo) in the block of hi: the gradients of <w(lo), w(hi)>.
    """
    n, w = ctx.space.n, assignment.vectors
    rows = []
    for lo, hi in ctx.edge_order:
        row = [ctx.field.zero()] * (ctx.graph.num_vertices * n)
        row[lo * n:lo * n + n] = gram_product(ctx.space, w[hi])
        row[hi * n:hi * n + n] = gram_product(ctx.space, w[lo], transpose=True)
        rows.append(row)
    return rows


def rank(field, rows):
    """The rank of the dense matrix with these rows."""
    return len(reference_rref(rows, len(rows[0]) if rows else 0, field.p)[1])


def regular_part_test(og, assignment):
    """Whether each vertex's older neighbors carry vectors of full rank (the
    regular part of the order); membership in the variety is not required."""
    if assignment.num_vertices != og.graph.num_vertices:
        raise ValueError("assignment has the wrong number of vertices")
    w = assignment.vectors
    older = map(og.older_neighbors, range(og.graph.num_vertices))
    return all(rank(assignment.field, [w[u] for u in us]) == len(us) for us in older)


def origin(graph, space):
    """The zero assignment: always a member, singular once there is an edge."""
    return VertexAssignment(space.field, [[0] * space.n] * graph.num_vertices)


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def left_kernel(field, rows):
    """A basis of the left kernel of the dense matrix with these rows: the
    right kernel of its transpose, vectors y with y * rows = 0."""
    return reference_kernel(transpose(rows), len(rows), field.p)


def orbit_keys(space):
    """Whether Witt's extension theorem applies to the prime-field space:
    an alternating form, or odd characteristic."""
    return space.field.p != 2 or all(space.gram[i][i] == 0 for i in range(space.n))


def frontier_key(space, vectors):
    """The point counter's key of a frontier tuple of residue vectors, by
    its definition: where orbit keys apply, the tuple's Gram matrix by
    `pair` and the nonzero rows of the `rref` of the n x k matrix whose
    columns are the tuple; otherwise the tuple itself."""
    if not orbit_keys(space):
        return vectors
    pairs = tuple(space.pair(u, w) for u in vectors for w in vectors)
    reduced, pivots = reference_rref(list(zip(*vectors)), len(vectors), space.field.p)
    return pairs, tuple(tuple(row) for row in reduced[: len(pivots)])


def naive_point_count(graph, space):
    """Count points by enumerating every vertex assignment."""
    vecs = list(itertools.product(range(space.field.p), repeat=space.n))
    total = 0
    for assign in itertools.product(vecs, repeat=graph.num_vertices):
        if all(dot(space.field, assign[lo], gram_product(space, assign[hi])) == 0
               for lo, hi in graph.edges):
            total += 1
    return total


def enumerate_point_count(graph, space):
    """Count points by walking the reversed degeneracy order and enumerating
    every admissible vector, one kernel per search-tree node; the last vertex
    contributes q^dim(kernel) without enumeration."""
    field = space.field
    q = field.order
    order = list(reversed(degeneracy_order(graph)[0].order))
    vectors = {}

    def recurse(i):
        v = order[i]
        rows = [
            gram_product(space, vectors[u], transpose=v > u)
            for u in graph.adjacency[v]
            if u in vectors
        ]
        basis = reference_kernel(rows, space.n, field.p)
        if i == len(order) - 1:
            return q ** len(basis)
        total = 0
        for coeffs in itertools.product(range(field.p), repeat=len(basis)):
            vec = [field.zero()] * space.n
            for c, basis_vec in zip(coeffs, basis):
                vec = [a + c * b for a, b in zip(vec, basis_vec)]
            vectors[v] = [field(x) for x in vec]
            total += recurse(i + 1)
        del vectors[v]
        return total

    return recurse(0) if order else 1


BRUTE_FORCE_CAP = 10**7


class SearchSpaceTooLargeError(Exception):
    """A brute-force search space exceeds its cap."""


def strict_argmax(values):
    top = max(values)
    return values.index(top) if values.count(top) == 1 else -1


def brute_force_min_colors(graph, max_colors, max_weight, cap=BRUTE_FORCE_CAP):
    """The least palette size up to max_colors with a valid splitting by
    weights in 0..max_weight, by exhaustion, or None; the search space is
    bounded up front."""
    n = graph.num_vertices
    space = sum((max_weight + 1) ** (m * n) for m in range(1, max_colors + 1))
    if space > cap:
        raise SearchSpaceTooLargeError(f"search space {space} exceeds cap {cap}")
    for m in range(1, max_colors + 1):
        vectors = list(itertools.product(range(max_weight + 1), repeat=m))
        # strict argmax color for every vector pair, -1 on ties
        table = [[strict_argmax(list(map(add, va, vb))) for vb in vectors] for va in vectors]
        for candidate in itertools.product(range(len(vectors)), repeat=n):
            seen = set()
            for lo, hi in graph.edges:
                c = table[candidate[lo]][candidate[hi]]
                if c < 0 or (c, lo) in seen or (c, hi) in seen:
                    break
                seen.update(((c, lo), (c, hi)))
            else:
                return m
    return None


def brute_degeneracy(graph):
    """Minimise the maximum back-degree over all vertex orderings."""
    best = None
    verts = range(graph.num_vertices)
    for order in itertools.permutations(verts):
        pos = {v: i for i, v in enumerate(order)}
        worst = 0
        for v in verts:
            worst = max(worst, sum(1 for u in graph.adjacency[v] if pos[u] > pos[v]))
        if best is None or worst < best:
            best = worst
    return best


def scan_degeneracy_order(graph):
    """The degeneracy order by a full min-scan of the remaining vertices per
    step, O(V^2): minimum remaining degree, smallest index on ties.  Returns
    (order, degeneracy)."""
    n = graph.num_vertices
    remaining = set(range(n))
    deg = [graph.degree(v) for v in range(n)]
    order = []
    degeneracy = 0
    for _ in range(n):
        v = min(remaining, key=lambda u: (deg[u], u))
        degeneracy = max(degeneracy, deg[v])
        order.append(v)
        remaining.remove(v)
        for u in graph.adjacency[v]:
            if u in remaining:
                deg[u] -= 1
    return tuple(order), degeneracy


def scan_leaf_peel(forest):
    """The leaf peel of a forest by a full scan per step, O(V^2): the
    smallest-index vertex of remaining degree at most 1 goes next.  Returns
    (peel, parent) with parent[v] the neighbor v still had when removed."""
    n = forest.num_vertices
    deg = [forest.degree(v) for v in range(n)]
    removed = [False] * n
    parent = [None] * n
    peel = []
    for _ in range(n):
        v = min(u for u in range(n) if not removed[u] and deg[u] <= 1)
        removed[v] = True
        peel.append(v)
        for u in forest.adjacency[v]:
            if not removed[u]:
                parent[v] = u
                deg[u] -= 1
    return peel, parent


def _all_simple_cycles(graph):
    """Yield simple cycles as vertex tuples, one representative each."""
    seen = set()
    n = graph.num_vertices
    for start in range(n):
        stack = [(start, [start])]
        while stack:
            v, path = stack.pop()
            for u in graph.adjacency[v]:
                if u == start and len(path) >= 3:
                    key = frozenset(path)
                    if key not in seen:
                        seen.add(key)
                        yield tuple(path)
                elif u > start and u not in path:
                    stack.append((u, path + [u]))


def brute_has_even_cycle(graph):
    return any(len(c) % 2 == 0 for c in _all_simple_cycles(graph))


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def star_graph(leaves):
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite_graph(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def format_edge_list(graph):
    """The inverse of `parse_edge_list`; each isolated vertex gets a line."""
    covered = {v for e in graph.edges for v in e}
    lines = [f"{lo} {hi}" for lo, hi in graph.edges]
    lines.extend(str(v) for v in range(graph.num_vertices) if v not in covered)
    return "\n".join(lines) + ("\n" if lines else "")


def random_connected_graph(rng, num_vertices, extra_edges):
    """Spanning tree plus up to extra_edges random chords."""
    verts = list(range(num_vertices))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, num_vertices):
        a = verts[i]
        b = verts[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    pool = [
        (a, b)
        for a in range(num_vertices)
        for b in range(a + 1, num_vertices)
        if (a, b) not in edges
    ]
    rng.shuffle(pool)
    edges.update(pool[:extra_edges])
    return Graph(num_vertices, sorted(edges))


def random_tree(rng, num_vertices):
    return random_connected_graph(rng, num_vertices, 0)


def independent_set_point(rng, graph, space, bound=5):
    """A member supported on an independent set: every edge sees a zero."""
    field = space.field
    verts = list(range(graph.num_vertices))
    rng.shuffle(verts)
    chosen = []
    taken = set()
    for v in verts:
        if not any(u in taken for u in graph.adjacency[v]):
            chosen.append(v)
            taken.add(v)
    vectors = [[field.zero()] * space.n for _ in range(graph.num_vertices)]
    for v in chosen:
        if field.characteristic == 0:
            vectors[v] = [field(rng.randint(-bound, bound)) for _ in range(space.n)]
        else:
            vectors[v] = [field(rng.randrange(field.order)) for _ in range(space.n)]
    return VertexAssignment(field, vectors)


def random_tangent(rng, field, num_vertices, n, bound=5):
    if field.characteristic == 0:
        return VertexAssignment(
            field,
            [[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(num_vertices)],
        )
    return VertexAssignment(
        field,
        [[field(rng.randrange(field.order)) for _ in range(n)] for _ in range(num_vertices)],
    )


def c4_point_count(n, q):
    """Members on the 4-cycle over F_q^n, for any non-degenerate form.

    C4 is K_{2,2}: given w(0) and w(2), each of vertices 1 and 3 ranges over
    the orthogonal complement of their span, of dimension n - rank.  The
    pairs (w(0), w(2)) of rank 0, 1 and 2 number 1, (q^n - 1)(q + 1) and
    the rest.
    """
    rank1 = (q**n - 1) * (q + 1)
    rank2 = q ** (2 * n) - 1 - rank1
    return q ** (2 * n) + rank1 * q ** (2 * n - 2) + rank2 * q ** max(2 * n - 4, 0)


def symplectic_plane_count(graph, q):
    """Members over F_q^2 with the symplectic form, for any graph.

    <u, v> = u_0 v_1 - u_1 v_0 vanishes exactly when u and v are parallel
    (the variety of the binomial edge ideal).  Split on the set Z of
    vertices carrying zero: on each component C of G - Z the nonzero
    vectors share one of the q + 1 lines, so the count is the sum over Z of
    the product over C of (q + 1)(q - 1)^|C|.
    """
    total = 0
    for mask in range(2 ** graph.num_vertices):
        rest = {v for v in range(graph.num_vertices) if not mask >> v & 1}
        term = 1
        while rest:
            component, stack = set(), [rest.pop()]
            while stack:
                v = stack.pop()
                component.add(v)
                for u in graph.adjacency[v]:
                    if u in rest:
                        rest.remove(u)
                        stack.append(u)
            term *= (q + 1) * (q - 1) ** len(component)
        total += term
    return total


def weighting_from_obj(obj):
    """The weighting of a parsed JSON document, whole: the reference for
    the streaming `weighting_from_json`."""
    return _weighting(obj, _weight_vector)
