"""Seeded, linear-time input generators for the benchmark.

Everything here is stdlib-only and independent of `graphvariety`, so the
program under test receives nothing but the files written from these values.
The same `random.Random` seed always yields the same graphs and points.
"""

import json


def grid_edges(rows, cols):
    """Edges of the rows x cols grid; vertex (r, c) is r * cols + c."""
    edges = []
    for r in range(rows):
        for c in range(cols):
            v = r * cols + c
            if c + 1 < cols:
                edges.append((v, v + 1))
            if r + 1 < rows:
                edges.append((v, v + cols))
    return edges


def complete_bipartite_edges(a, b):
    return [(i, a + j) for i in range(a) for j in range(b)]


def cycle_edges(k):
    return [(i, (i + 1) % k) for i in range(k)]


def path_edges(k):
    return [(i, i + 1) for i in range(k - 1)]


def _take(pool, pos, v):
    """Swap-remove v from pool, keeping pos (vertex -> index in pool) in step."""
    i, last = pos.pop(v), pool.pop()
    if last != v:
        pool[i] = last
        pos[last] = i


def random_tree(rng, n, max_degree):
    """A random recursive tree of maximum degree exactly max_degree: vertex v
    hangs off a uniform earlier vertex that still has spare degree."""
    return bounded_degree_graph(rng, n, max_degree, 0)


def bounded_degree_graph(rng, n, max_degree, extra_edges):
    """A connected graph on n vertices with n - 1 + extra_edges edges and
    maximum degree exactly max_degree.

    A random recursive tree under the degree cap makes it connected; random
    edges between vertices with spare degree are then added.  Expected time is
    linear in the edge count.
    """
    deg = [0] * n
    edges = set()
    pool, pos = [0], {0: 0}

    def add(u, v):
        edges.add((min(u, v), max(u, v)))
        for w in (u, v):
            deg[w] += 1
            if deg[w] == max_degree:
                _take(pool, pos, w)

    for v in range(1, n):
        u = pool[rng.randrange(len(pool))]
        pos[v] = len(pool)
        pool.append(v)
        add(u, v)
    target = n - 1 + extra_edges
    attempts = 0
    while len(edges) < target and len(pool) >= 2 and attempts < 20 * target:
        attempts += 1
        u = pool[rng.randrange(len(pool))]
        v = pool[rng.randrange(len(pool))]
        if u != v and (min(u, v), max(u, v)) not in edges:
            add(u, v)
    if len(edges) != target or max(deg) != max_degree:
        raise ValueError(f"no graph with {target} edges and max degree {max_degree} "
                         f"on {n} vertices for this seed")
    return sorted(edges)


def edge_list_text(edges):
    return "".join(f"{u} {v}\n" for u, v in edges)


def _lagrangian_vector(rng, n, p, bound):
    """A random nonzero vector of span(e_0..e_{n/2-1}): integers in
    [-bound, bound] over Q (p is None), uniform residues over F_p."""
    h = n // 2
    vec = [0] * h
    while all(x == 0 for x in vec):
        vec = [rng.randint(-bound, bound) if p is None else rng.randrange(p)
               for _ in range(h)]
    return vec + [0] * (n - h)


def lagrangian_point(rng, num_vertices, n, p, bound):
    """One random vector per vertex, all in span(e_0..e_{n/2-1}).  That
    subspace is isotropic for the standard symplectic form, so the point is a
    member of the variety of every graph on these vertices."""
    return [_lagrangian_vector(rng, n, p, bound) for _ in range(num_vertices)]


def _parallel(u, v, p):
    """Whether u and v are linearly dependent (all 2x2 minors vanish)."""
    for i in range(len(u)):
        for j in range(i + 1, len(u)):
            m = u[i] * v[j] - u[j] * v[i]
            if (m if p is None else m % p) != 0:
                return False
    return True


def regular_grid_point(rng, rows, cols, n, p, bound):
    """A smooth member point of the rows x cols grid for the standard
    symplectic form of dimension n.

    Every vector lies in the isotropic span(e_0..e_{n/2-1}), so every edge
    equation holds.  Each vector is nonzero and every vertex's up and left
    neighbors carry independent vectors.  Taking vertices in reverse
    row-major order, the Jacobian rows of a vertex's up and left edges are
    then independent on that vertex's block and vanish on the blocks of
    later vertices, so the Jacobian has full row rank.
    """
    w = []
    for r in range(rows):
        for c in range(cols):
            # this vertex is the left neighbor of (r, c + 1), whose up
            # neighbor (r - 1, c + 1) is already drawn
            rival = w[(r - 1) * cols + c + 1] if r > 0 and c + 1 < cols else None
            x = _lagrangian_vector(rng, n, p, bound)
            while rival is not None and _parallel(x, rival, p):
                x = _lagrangian_vector(rng, n, p, bound)
            w.append(x)
    return w


def point_json(field, vectors):
    """A vertex assignment in the CLI's wire format."""
    return json.dumps({
        "field": field,
        "vectors": {str(v): [str(x) for x in vec] for v, vec in enumerate(vectors)},
    })
