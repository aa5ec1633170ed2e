"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: full enumeration, all-permutations
search, direct definitions.  Slow but obviously correct on small inputs.
"""

import io
import itertools
from fractions import Fraction
from math import lcm
from operator import add, mul

from graphvariety import RATIONALS, BilinearSpace, Graph, VertexAssignment, degeneracy_order
from graphvariety.counting import _extensions, _kept_echelon, _span
from graphvariety.errors import InternalConflictError, NotAForestError
from graphvariety.graphs import bfs_layers, connected_components, proper_vertex_numbering
from graphvariety.linalg import kernel, rref
from graphvariety.serialization import _weight_vector, _weighting, write_canonical
from graphvariety.splitting import VertexWeighting, color_budget


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
    `reference_rref` or ints over Q.  Each row is reduced at its smallest
    column against earlier pivot rows (zero left of their pivots), keeping
    beside it the combination of input rows it has become.  The first row f
    to reach zero returns that combination: coefficient 1 at f, support in
    0..f, unique as rows 0..f-1 are independent.
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
        pivots[c] = (Fraction(1) / x if p is None else pow(x, -1, p), row, combo)
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


def integer_sparse_row(row):
    """A sparse {column: rational} row times the lcm of its denominators,
    as `first_dependency` takes it over Q."""
    return dict(zip(row, _integer_row(list(row.values()))))


def dot(field, u, v):
    if len(u) != len(v):
        raise ValueError("dot product of vectors with different lengths")
    # over Q, a sum started from Fraction(0) is faster than one from int 0
    return field(sum(map(mul, u, v), field(0)))


def vectors(assignment):
    """The point's vectors as tuples of field scalars, from its integer form:
    `Fraction`s a_i / d over Q, the residues over F_p."""
    if assignment.field.p is not None:
        return tuple(a for a, _ in assignment.numerators)
    return tuple(tuple(Fraction(x, d) for x in a) for a, d in assignment.numerators)


def dense_gram(space):
    """The Gram matrix as n row tuples of field scalars, from its terms."""
    rows = [[space.field(0)] * space.n for _ in range(space.n)]
    for i, j, x in space.terms:
        rows[i][j] = x
    return tuple(map(tuple, rows))


def space_from_rows(kind, rows, field=RATIONALS):
    """The space with the dense Gram matrix `rows`, given as its entries."""
    terms = [(i, j, x) for i, row in enumerate(rows) for j, x in enumerate(row)]
    return BilinearSpace(len(rows), kind, terms, field)


def gram_product(space, v, transpose=False):
    """gram * v, or gram^T * v, by dense products with the Gram's rows."""
    gram = dense_gram(space)
    rows = zip(*gram) if transpose else gram
    return [dot(space.field, row, v) for row in rows]


def jacobian(ctx, assignment):
    """The |E| x (|V| * n) Jacobian of the edge equations at the assignment,
    as a list of dense rows of length |V| * n, one per edge in edge order.

    The row of edge (lo, hi) carries gram * w(hi) in the block of lo and
    gram^T * w(lo) in the block of hi: the gradients of <w(lo), w(hi)>.
    """
    n, w = ctx.space.n, vectors(assignment)
    rows = []
    for lo, hi in ctx.graph.edges:
        row = [ctx.field(0)] * (ctx.graph.num_vertices * n)
        row[lo * n:lo * n + n] = gram_product(ctx.space, w[hi])
        row[hi * n:hi * n + n] = gram_product(ctx.space, w[lo], transpose=True)
        rows.append(row)
    return rows


def jw_rows(ctx, assignment):
    """The rows of J_w (the `variety` module docstring) on field scalars,
    as sparse {column: nonzero scalar} dicts: edge (lo, hi) holds w(hi) in
    lo's block and s * w(lo) in hi's, s = -1 for a symplectic form and 1 for
    a symmetric one."""
    n, field, w = ctx.space.n, ctx.field, vectors(assignment)
    s = -1 if ctx.space.kind == "symplectic" else 1
    rows = []
    for lo, hi in ctx.graph.edges:
        row = {lo * n + i: x for i, x in enumerate(w[hi]) if x}
        row.update({hi * n + i: field(s * x) for i, x in enumerate(w[lo]) if x})
        rows.append(row)
    return rows


def reference_certifies(ctx, w, values):
    """`variety._certifies` on field scalars: per vertex, the values weight
    the neighbours' vectors w (s * w(lo) at hi) into one sum of `Fraction`s
    or residues, which must vanish, and the values must not all be zero."""
    values = [ctx.field(x) for x in values]
    if not any(values):
        return False
    z, sign = ctx.field(0), -1 if ctx.space.kind == "symplectic" else 1
    acc = [[z] * ctx.space.n for _ in w]
    for (lo, hi), lam in zip(ctx.graph.edges, values):
        if not lam:
            continue
        mirrored = sign * lam
        acc[lo] = [a + lam * x for a, x in zip(acc[lo], w[hi])]
        acc[hi] = [a + mirrored * x for a, x in zip(acc[hi], w[lo])]
    return not any(ctx.field(a) for vec in acc for a in vec)


def reference_draw(space, vectors, rng, bound):
    """The sampler's draw on `BilinearSpace.perp`'s basis (integer vectors
    over L): one coefficient c_k per basis vector in order, in
    [-bound, bound] over Q, a residue over F_p, and the integer vector
    sum_k c_k * b_k, reduced mod p over F_p.  Returns (vector, L)."""
    basis, denominator = space.perp(vectors)
    columns = list(zip(*basis))
    p = space.field.p
    if p is None:
        coeffs = [rng.randint(-bound, bound) for _ in columns[0]]
        return [sum(map(mul, coeffs, col)) for col in columns], denominator
    coeffs = [rng.randrange(p) for _ in columns[0]]
    return [sum(map(mul, coeffs, col)) % p for col in columns], denominator


def rank(field, rows):
    """The rank of the dense matrix with these rows."""
    return len(reference_rref(rows, len(rows[0]) if rows else 0, field.p)[1])


def regular_part_test(graph, assignment):
    """Whether each vertex's older neighbors carry vectors of full rank (the
    regular part of the degeneracy order); membership in the variety is not
    required.  The order comes from `scan_degeneracy_order`, not the
    package's peel."""
    if assignment.num_vertices != graph.num_vertices:
        raise ValueError("assignment has the wrong number of vertices")
    w = vectors(assignment)
    position = {v: i for i, v in enumerate(scan_degeneracy_order(graph)[0])}
    older = ([u for u in ns if position[u] > position[v]] for v, ns in enumerate(graph.adjacency))
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
    gram = dense_gram(space)
    return space.field.p != 2 or all(gram[i][i] == 0 for i in range(space.n))


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
    contributes q^dim(kernel) without enumeration.  A vector's Gram images
    are made once, when it is assigned, and only those its later neighbours
    read."""
    q = space.field.p
    order = list(reversed(degeneracy_order(graph)[0]))
    position = {v: i for i, v in enumerate(order)}
    gram = dense_gram(space)
    # edge (lo, hi) reads <w(lo), w(hi)> = (gram^T w(lo)) . w(hi) = (gram w(hi)) . w(lo):
    # a later neighbour u of v reads gram^T w(v) when u > v, gram w(v) when u < v
    sides = {False: gram, True: tuple(zip(*gram))}
    reads = {v: {u > v for u in graph.adjacency[v] if position[u] > position[v]} for v in order}
    images = {}  # assigned vertex -> {u > v: the Gram image its neighbour u reads}

    def recurse(i):
        v = order[i]
        rows = [images[u][v > u] for u in graph.adjacency[v] if u in images]
        basis = reference_kernel(rows, space.n, q)
        if i == len(order) - 1:
            return q ** len(basis)
        total = 0
        for coeffs in itertools.product(range(q), repeat=len(basis)):
            vec = [sum(map(mul, coeffs, column)) % q for column in zip(*basis)] if basis else [0] * space.n
            images[v] = {side: [sum(map(mul, row, vec)) % q for row in sides[side]] for side in reads[v]}
            total += recurse(i + 1)
        images.pop(v, None)
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


def naive_induced_subgraph(graph, vertices):
    """The induced subgraph on `vertices` by a filter over every edge, as
    (subgraph, sorted vertex tuple): the reference for
    `induced_subgraph_with_map`."""
    vs = sorted(set(vertices))
    old_to_new = {v: i for i, v in enumerate(vs)}
    edges = [
        (old_to_new[lo], old_to_new[hi])
        for lo, hi in graph.edges
        if lo in old_to_new and hi in old_to_new
    ]
    return Graph(len(vs), edges), tuple(vs)


# The matching-splitting construction on dense vectors, one list over the
# whole palette per vertex at every recursion level: the reference for the
# run lists of `splitting._weights`.


def dense_split_weights(graph):
    """One weight list per vertex, indexed by palette(D) positions.

    Components are processed independently on the shared palette.  If the
    greedy pool assignment of stage 3 runs out of colors for some root, the
    component is retried from every other root before giving up.
    """
    big_d = graph.max_degree()
    if big_d <= 1:
        return [[10] for _ in range(graph.num_vertices)]
    weights = [None] * graph.num_vertices
    for comp in connected_components(graph):
        sub, new_to_old = naive_induced_subgraph(graph, comp)
        for root in range(sub.num_vertices):
            try:
                comp_weights = _dense_split_component(sub, big_d, root)
                break
            except InternalConflictError as exc:
                failure = exc
        else:
            raise InternalConflictError(
                f"no root admits a conflict-free pool assignment on a "
                f"{sub.num_vertices}-vertex component: {failure}"
            )
        for v, vec in enumerate(comp_weights):
            weights[new_to_old[v]] = vec
    return weights


def _dense_split_component(sub, big_d, root):
    """Stages 1-4 on one connected component, rooted at `root`: one weight
    list per vertex of `sub`, indexed by palette(big_d) positions."""
    base_size = color_budget(big_d - 1)
    levels, level_of = bfs_layers(sub, root)
    weights = [[0] * color_budget(big_d) for _ in range(sub.num_vertices)]

    # stage 2: recursive base weights per level, then cumulative shifts;
    # top[v] is v's base maximum, level_max[i] level i's
    top = [0] * sub.num_vertices
    level_max = []
    numbering = [0] * sub.num_vertices
    for level in levels:
        lg, back = naive_induced_subgraph(sub, level)
        # palette(max degree of lg) is a prefix of palette(big_d - 1), so each
        # recursive vector is its base block, zero past its end
        padded = [vec + [0] * (base_size - len(vec)) for vec in dense_split_weights(lg)]
        shift = max(0, sum(level_max[-2:]) + 10 - min(map(min, padded)))
        nums = proper_vertex_numbering(lg, big_d)
        for lv, vec in enumerate(padded):
            v = back[lv]
            weights[v][:base_size] = [x + shift for x in vec]
            top[v] = max(vec) + shift
            numbering[v] = nums[lv]
        level_max.append(max(top[v] for v in level))

    # stage 3: greedy pool colors for edges between consecutive levels, as
    # (upper, lower) pairs bucketed by the lower endpoint's level
    adjacency = sub.adjacency
    between = [[] for _ in levels]
    for lo, hi in sub.edges:
        if level_of[lo] != level_of[hi]:
            lower, upper = (lo, hi) if level_of[lo] < level_of[hi] else (hi, lo)
            between[level_of[lower]].append((upper, lower))
    for i, pair in enumerate(between):
        pair.sort()
        colored = []
        for upper, lower in pair:
            start = base_size + (i % 2 * big_d + numbering[upper] - 1) * big_d * big_d
            pool = range(start, start + big_d * big_d)
            banned = set()
            for (u2, l2), c2 in colored:
                if numbering[u2] != numbering[upper]:
                    continue
                if l2 in adjacency[upper] or lower in adjacency[u2]:
                    banned.add(c2)
            chosen = next((c for c in pool if c not in banned), None)
            if chosen is None:
                raise InternalConflictError(
                    f"pool ({i % 2}, {numbering[upper]}) exhausted at edge "
                    f"({lower}, {upper}) between levels {i} and {i + 1}"
                )
            colored.append(((upper, lower), chosen))
            # stage 4: a dominating weight on the pool color
            weights[upper][chosen] = top[upper] + level_max[i] + 5
            weights[lower][chosen] = 5
    return weights


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
    """The leaf peel of a graph by a full scan per step, O(V^2): the
    smallest-index vertex of remaining degree at most 1 goes next, until
    none is left (short of any cycle).  Returns (peel, parent) with
    parent[v] the neighbor v still had when removed, or None."""
    n = forest.num_vertices
    deg = [forest.degree(v) for v in range(n)]
    removed = [False] * n
    parent = [None] * n
    peel = []
    for _ in range(n):
        v = min((u for u in range(n) if not removed[u] and deg[u] <= 1), default=None)
        if v is None:
            break
        removed[v] = True
        peel.append(v)
        for u in forest.adjacency[v]:
            if not removed[u]:
                parent[v] = u
                deg[u] -= 1
    return peel, parent


def leaf_peel_forest_split(forest):
    """The forest splitting on `scan_leaf_peel`: leaves peeled one at a time,
    smallest index first, and the graph a forest exactly when every vertex
    goes.  Rebuilding in reverse, each leaf edge takes the smallest color
    still free at the vertex it hung from and a weight one larger than
    everything that vertex carries.  The reference for
    `split_forest_into_matchings`, weighting for weighting and error for
    error."""
    n = forest.num_vertices
    big_d = forest.max_degree()
    if big_d == 0:
        return VertexWeighting(colors=(), weights={v: () for v in range(n)})
    peel, parent = scan_leaf_peel(forest)
    if len(peel) < n:
        raise NotAForestError("splitting with max_degree colors needs a forest")
    colors = tuple(f"c{k}" for k in range(1, big_d + 1))
    weights = {v: [0] * big_d for v in range(n)}
    used = {v: set() for v in range(n)}
    for v in reversed(peel):
        y = parent[v]
        if y is None:
            continue
        c = next(k for k in range(big_d) if k not in used[y])
        weights[v][c] = 1 + max(weights[y])
        used[y].add(c)
        used[v].add(c)
    return VertexWeighting(colors=colors, weights={v: tuple(w) for v, w in weights.items()})


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


def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def isotropic_index(space):
    """The index of a standard basis vector e_i with <e_i, e_i> = 0, or None."""
    diagonal = {i for i, j, _ in space.terms if i == j}
    return next((i for i in range(space.n) if i not in diagonal), None)


def cycle_singular_point(k, space):
    """The all-equal point on `cycle_graph(k)`: every vertex carries the
    isotropic basis vector e_i of `isotropic_index`, written as its integer
    form.  It is singular for a symplectic space of dimension >= 4 (i = 0)
    and, for an even k, for a symmetric space with such a vector; nothing
    here checks either condition."""
    idx = isotropic_index(space)
    vec = tuple(int(i == idx) for i in range(space.n))
    return VertexAssignment.from_numerators(space.field, [(vec, 1)] * k)


def complete_graph(n):
    return Graph(n, list(itertools.combinations(range(n), 2)))


def complete_bipartite_graph(a, b):
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def ladder_graph(rungs):
    """Two paths of `rungs` vertices, 0..rungs-1 and rungs..2*rungs-1, joined
    rung by rung: max degree 3 and rungs BFS levels from vertex 0."""
    rails = [(v, v + 1) for v in range(rungs - 1)]
    return Graph(2 * rungs, rails + [(rungs + a, rungs + b) for a, b in rails]
                 + [(v, rungs + v) for v in range(rungs)])


def brick_wall_graph(rows, cols):
    """The rows x cols grid keeping only the vertical edges below a vertex
    (r, c) with r + c even, at index r * cols + c: max degree 3."""
    horizontal = [(r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)]
    vertical = [(r * cols + c, (r + 1) * cols + c)
                for r in range(rows - 1) for c in range(cols) if (r + c) % 2 == 0]
    return Graph(rows * cols, horizontal + vertical)


def format_edge_list(graph):
    """The inverse of `parse_edge_list`; each isolated vertex gets a line."""
    covered = {v for e in graph.edges for v in e}
    lines = [f"{lo} {hi}" for lo, hi in graph.edges]
    lines.extend(str(v) for v in range(graph.num_vertices) if v not in covered)
    return "\n".join(lines) + ("\n" if lines else "")


def _random_tree_edges(rng, num_vertices):
    """A random spanning tree's edges as a set of (lo, hi) pairs, in O(V):
    each vertex of a shuffled list hangs from a random earlier one."""
    verts = list(range(num_vertices))
    rng.shuffle(verts)
    edges = set()
    for i in range(1, num_vertices):
        a = verts[i]
        b = verts[rng.randrange(i)]
        edges.add((min(a, b), max(a, b)))
    return edges


def random_connected_graph(rng, num_vertices, extra_edges):
    """Spanning tree plus up to extra_edges random chords.  Every non-tree
    pair is listed and shuffled, O(V^2) even when no chord is drawn."""
    edges = _random_tree_edges(rng, num_vertices)
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
    """The spanning tree `random_connected_graph` starts from, alone."""
    return Graph(num_vertices, sorted(_random_tree_edges(rng, num_vertices)))


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
    vectors = [[field(0)] * space.n for _ in range(graph.num_vertices)]
    for v in chosen:
        if field.p is None:
            vectors[v] = [field(rng.randint(-bound, bound)) for _ in range(space.n)]
        else:
            vectors[v] = [field(rng.randrange(field.p)) for _ in range(space.n)]
    return VertexAssignment(field, vectors)


def random_tangent(rng, field, num_vertices, n, bound=5):
    if field.p is None:
        return VertexAssignment(
            field,
            [[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(num_vertices)],
        )
    return VertexAssignment(
        field,
        [[field(rng.randrange(field.p)) for _ in range(n)] for _ in range(num_vertices)],
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


def _plane_count(graph, q, lines):
    """The sum over vertex sets Z of the product over the components C of
    G - Z of lines(C is bipartite) * (q - 1)^|C|."""
    total = 0
    for mask in range(2 ** graph.num_vertices):
        rest = {v for v in range(graph.num_vertices) if not mask >> v & 1}
        term = 1
        while rest:
            start = rest.pop()
            side, stack, bipartite = {start: 0}, [start], True
            while stack:
                v = stack.pop()
                for u in graph.adjacency[v]:
                    if u in rest:
                        rest.remove(u)
                        side[u] = 1 - side[v]
                        stack.append(u)
                    elif side.get(u) == side[v]:
                        bipartite = False
            term *= lines(bipartite) * (q - 1) ** len(side)
        total += term
    return total


def symplectic_plane_count(graph, q):
    """Members over F_q^2 with the symplectic form, for any graph.

    <u, v> = u_0 v_1 - u_1 v_0 vanishes exactly when u and v are parallel
    (the variety of the binomial edge ideal).  Split on the set Z of
    vertices carrying zero: on each component C of G - Z the nonzero
    vectors share one of the q + 1 lines, so the count is the sum over Z of
    the product over C of (q + 1)(q - 1)^|C|.
    """
    return _plane_count(graph, q, lambda bipartite: q + 1)


def hyperbolic_plane_count(graph, q):
    """Members over F_q^2 with the hyperbolic form, for any graph, q odd.

    <u, v> = u_0 v_1 + u_1 v_0 vanishes for nonzero u and v exactly when v
    lies on the line of s(u) = (u_0, -u_1) (the variety of the permanental
    edge ideal, Herzog-Macchia-Saeedi Madani-Welker, Adv. Appl. Math. 71,
    2015).  As in `symplectic_plane_count`, split on the zero set Z: on a
    component C of G - Z the two sides of a bipartite C take a line L and
    s(L), for any of the q + 1 lines L, while an odd cycle needs
    s(L) = L, which holds for the two lines of e_0 and e_1 alone.  So the
    factor q + 1 becomes 2 for each component that is not bipartite.
    """
    if q % 2 == 0:
        raise ValueError("the hyperbolic plane count needs odd q")
    return _plane_count(graph, q, lambda bipartite: q + 1 if bipartite else 2)


def greedy_frontier_order(graph):
    """The counter's greedy minimum-frontier order by its definition: at
    each step try every unplaced vertex, build the frontier it would leave,
    and keep the smallest, ties going to the most placed neighbours, then to
    the smallest index."""
    order = []
    while len(order) < graph.num_vertices:
        def cost(v):
            placed = order + [v]
            rest = set(range(graph.num_vertices)) - set(placed)
            width = sum(1 for u in placed if rest & set(graph.adjacency[u]))
            return width, -len(set(graph.adjacency[v]) & set(order)), v
        order.append(min((v for v in range(graph.num_vertices) if v not in order), key=cost))
    return order


def frontier_widths(graph, order):
    """The counter's frontier widths by their definition: after step i, the
    number of placed vertices with an unplaced neighbour."""
    widths = []
    for i in range(len(order)):
        placed = set(order[: i + 1])
        widths.append(sum(1 for v in placed if set(graph.adjacency[v]) - placed))
    return widths


def complete_binary_tree(num_vertices):
    """Vertex v > 0 hangs from (v - 1) // 2."""
    return Graph(num_vertices, [((v - 1) // 2, v) for v in range(1, num_vertices)])


def forest_point_count(forest, n, q):
    """Members over F_q^n with any non-degenerate form, for a forest.

    Root each tree and count its subtrees bottom up in two states: Z_v
    assignments with w(v) = 0 and N_v with w(v) a given nonzero vector.
    Under w(v) = 0 a child takes any of the q^n vectors; under w(v) = u != 0
    it takes one of the q^(n-1) vectors of the hyperplane u^perp, which has
    q^(n-1) - 1 nonzero vectors whatever u is, so N_v does not depend on u:
    Z_v = prod_c (Z_c + (q^n - 1) N_c), N_v = prod_c (Z_c + (q^(n-1) - 1) N_c).
    A tree with root r contributes Z_r + (q^n - 1) N_r, and the trees
    multiply.
    """
    seen = [False] * forest.num_vertices
    total = 1
    for root in range(forest.num_vertices):
        if seen[root]:
            continue
        seen[root] = True
        order, parent, stack = [], {root: None}, [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in forest.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    parent[u] = v
                    stack.append(u)
        zero, nonzero = {}, {}
        for v in reversed(order):  # children before parents
            children = [u for u in forest.adjacency[v] if parent.get(u) == v]
            zero[v] = nonzero[v] = 1
            for c in children:
                zero[v] *= zero[c] + (q**n - 1) * nonzero[c]
                nonzero[v] *= zero[c] + (q ** (n - 1) - 1) * nonzero[c]
        total *= zero[root] + (q**n - 1) * nonzero[root]
    return total


def reference_frontier_count(g, order, space):
    """The point counter's frontier DP without transition reuse: every
    state's transition computed afresh at every step."""
    n, p = space.n, space.field.p
    orbit_keys = p != 2 or not any(i == j for i, j, _ in space.terms)
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
            kept = tuple(rep[k] for k in keep)
            if orbit_keys and not unchanged:
                gram = tuple(key[0][a * width + b] for a in keep for b in keep)
            if enters:
                basis = space.perp([rep[k] for k in slots])[0]
                if orbit_keys:
                    new = _extensions(space, gram, kept, basis)
                else:
                    new = {t: (t, 1) for t in [kept + (x,) for x in _span(basis, n, p)]}
            else:
                size = p ** (n - len(rref([rep[k] for k in slots], n, p)[1]))
                if unchanged or not orbit_keys:
                    new = {key if unchanged else kept: (kept, size)}
                else:
                    new = {(gram, _kept_echelon(key[1], keep, p)): (kept, size)}
            for new_key, (t, size) in new.items():
                seen = nxt.get(new_key)
                if seen is None:
                    nxt[new_key] = (t, mult * size)
                else:
                    nxt[new_key] = (seen[0], seen[1] + mult * size)
        states = nxt
        frontier = [frontier[k] for k in keep] + ([v] if enters else [])
    return sum(mult for _, mult in states.values())


# Transfer matrices (Stanley, Enumerative Combinatorics I, 4.7): A is the
# q^n x q^n orthogonality matrix, A[u][v] = 1 when <u, v> = 0.  The forms are
# symmetric or alternating, so A is symmetric and an edge's orientation does
# not matter.


def orthogonality_matrix(space):
    """A over the vectors of F_q^n in `itertools.product` order, from the
    dense Gram matrix."""
    q = space.field.p
    gram = dense_gram(space)
    vecs = list(itertools.product(range(q), repeat=space.n))
    images = [[sum(map(mul, row, v)) % q for row in gram] for v in vecs]
    return [[int(sum(map(mul, u, image)) % q == 0) for image in images] for u in vecs]


def _matrix_product(a, b):
    columns = list(zip(*b))
    return [[sum(map(mul, row, column)) for column in columns] for row in a]


def transfer_cycle_count(a, length):
    """Members on the cycle of `length` >= 3 vertices: trace(A^L), the
    closed walks of length L, by repeated squaring."""
    power, square, e = None, a, length
    while e:
        if e & 1:
            power = square if power is None else _matrix_product(power, square)
        e >>= 1
        if e:
            square = _matrix_product(square, square)
    return sum(power[i][i] for i in range(len(a)))


def transfer_path_count(a, length):
    """Members on the path of `length` >= 1 vertices: 1^T A^(L-1) 1."""
    x = [1] * len(a)
    for _ in range(length - 1):
        x = [sum(map(mul, row, x)) for row in a]
    return sum(x)


def transfer_ladder_count(a, rungs):
    """Members on `ladder_graph(rungs)`, rungs >= 1.  X[u][v] counts the
    assignments of the rungs so far whose last rung carries (u, v); rung
    i + 1 carries (u', v') after (u, v) when A[u][u'] A[v][v'] A[u'][v'] = 1,
    so X_1 = A and X_(i+1) = (A X_i A) * A entrywise.  The count is the sum
    of X_rungs."""
    x = a
    for _ in range(rungs - 1):
        x = [[c * m for c, m in zip(row, mask)] for row, mask in zip(_matrix_product(_matrix_product(a, x), a), a)]
    return sum(map(sum, x))


def weighting_from_obj(obj):
    """The weighting of a parsed JSON document, whole: the reference for
    the streaming `weighting_from_json`."""
    return _weighting(obj, _weight_vector)


# Graphs, points and spaces compare by identity, so assertions compare what
# defines each: its vertex count and edges, its field and integer form, or
# its dimension, kind, field and Gram terms.

def graph_key(graph):
    return graph.num_vertices, graph.edges


def point_key(point):
    return point.field, point.numerators


def space_key(space):
    return space.n, space.kind, space.field, space.terms


def canonical_text(obj):
    """The text `write_canonical` writes for `obj`."""
    out = io.StringIO()
    write_canonical(obj, out)
    return out.getvalue()
