"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive: full enumeration, all-permutations
search, direct definitions.  Slow but obviously correct on small inputs.
"""

import itertools
from fractions import Fraction

from graphvariety import Graph, VertexAssignment, degeneracy_order
from graphvariety.linalg import dot, kernel, rref


def rank(field, rows):
    """The rank of the dense matrix with these rows."""
    return len(rref(rows, len(rows[0]) if rows else 0, field.p)[1])


def transpose(rows):
    return [list(col) for col in zip(*rows)]


def left_kernel(field, rows):
    """A basis of the left kernel of the dense matrix with these rows: the
    right kernel of its transpose, vectors y with y * rows = 0."""
    return kernel(transpose(rows), len(rows), field.p)


def naive_point_count(graph, space):
    """Count points by enumerating every vertex assignment."""
    vecs = list(itertools.product(space.field.elements(), repeat=space.n))
    total = 0
    for assign in itertools.product(vecs, repeat=graph.num_vertices):
        if all(dot(space.field, assign[lo], space.gram_times(assign[hi])) == 0
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
            space.gram_times(vectors[u]) if v < u else space.gram_transpose_times(vectors[u])
            for u in graph.adjacency[v]
            if u in vectors
        ]
        basis = kernel(rows, space.n, field.p)
        if i == len(order) - 1:
            return q ** len(basis)
        total = 0
        for coeffs in itertools.product(field.elements(), repeat=len(basis)):
            vec = [field.zero()] * space.n
            for c, basis_vec in zip(coeffs, basis):
                vec = [a + c * b for a, b in zip(vec, basis_vec)]
            vectors[v] = [field(x) for x in vec]
            total += recurse(i + 1)
        del vectors[v]
        return total

    return recurse(0) if order else 1


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


def random_graph_with_degeneracy_at_most(rng, num_vertices, cap, extra_edges):
    """Retry random connected graphs until the degeneracy fits under cap."""
    while True:
        g = random_connected_graph(rng, num_vertices, extra_edges)
        _, d = degeneracy_order(g)
        if d <= cap:
            return g


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
