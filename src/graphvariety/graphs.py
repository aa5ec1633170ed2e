"""Finite simple graphs and the orderings and decompositions the rest of the
package builds on.

Vertices are always 0..n-1 and edges are stored sorted as (lo, hi) pairs, so
every function that reports per-edge data does so in one canonical order.
"""

import heapq
from itertools import chain

from .errors import BoundTooSmallError, DisconnectedGraphError

# parse_edge_list allocates one adjacency list per index up to the largest one
# named, so a ten-byte file such as "0 1000000" could otherwise take seconds
# and hundreds of MiB in every command.  The largest benchmark graph has 2200.
MAX_VERTICES = 10**5


class Graph:
    """An undirected simple graph on vertices 0..num_vertices-1.  Repeats
    are found in the sorted edge list, so the smallest one is reported."""

    def __init__(self, num_vertices, edges):
        if num_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        canon = []
        for e in edges:
            u, v = e
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge {e} out of range for {num_vertices} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            canon.append((u, v) if u < v else (v, u))
        canon.sort()
        for e, nxt in zip(canon, canon[1:]):
            if e == nxt:
                raise ValueError(f"duplicate edge {e}")
        self.num_vertices = num_vertices
        self.edges = tuple(canon)
        adj = [[] for _ in range(num_vertices)]
        # canon is sorted, so row v gets its smaller neighbours (edges (u, v))
        # in increasing u before its larger ones (edges (v, w)) in increasing w
        for lo, hi in canon:
            adj[lo].append(hi)
            adj[hi].append(lo)
        self.adjacency = tuple(map(tuple, adj))

    @property
    def num_edges(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adjacency[v])

    def max_degree(self):
        if self.num_vertices == 0:
            return 0
        return max(len(ns) for ns in self.adjacency)

    def __repr__(self):
        return f"Graph({self.num_vertices}, {list(self.edges)})"


def degeneracy_order(graph):
    """A degeneracy ordering, as (order, degeneracy) with `order` a tuple.

    Repeatedly removes a vertex of minimum remaining degree, smallest index
    on ties.  The order lists vertices in removal order, so each vertex's
    older neighbors, the ones after it in the order, are those still present
    when it was removed, and the degeneracy is the largest such count.

    Smallest-last ordering over degree buckets (Matula and Beck, J. ACM 30,
    1983), with each bucket a heap of plain vertex ints: a vertex enters the
    bucket of each degree it reaches, and `low` never exceeds the minimum
    remaining degree, which a removal lowers by at most one.  So a live
    vertex's entry in bucket `low` is current (its degree only fell since,
    and cannot be below `low`), every live vertex of degree `low` has one,
    and an entry is stale exactly when its vertex is gone.  The bucket's top
    live entry is then the smallest index of minimum degree.  Each edge
    pushes at most one entry and `low` climbs at most V + max degree times
    in all, so the peel is O((V + E) log V).  Nothing is memoized: each
    command that needs the order peels once.
    """
    adjacency = graph.adjacency
    deg = [len(ns) for ns in adjacency]
    buckets = [[] for _ in range(max(deg, default=0) + 1)]
    for v, d in enumerate(deg):
        buckets[d].append(v)  # ascending, so a heap
    removed = [False] * graph.num_vertices
    order = []
    degeneracy = low = 0
    for _ in deg:
        while True:
            bucket = buckets[low]
            if not bucket:
                low += 1
            elif not removed[v := heapq.heappop(bucket)]:
                break
        if low > degeneracy:
            degeneracy = low
        order.append(v)
        removed[v] = True
        for u in adjacency[v]:
            if not removed[u]:
                d = deg[u] - 1
                deg[u] = d
                heapq.heappush(buckets[d], u)
        if low:
            low -= 1
    return tuple(order), degeneracy


def bfs_layers(graph, root=0):
    """Breadth-first layers from `root`, as (layers, level): `layers[i]` is
    the sorted tuple of vertices at distance i and `level[v]` is v's
    distance.  The graph must be connected."""
    n = graph.num_vertices
    if n == 0:
        raise DisconnectedGraphError("cannot layer an empty graph")
    level = [-1] * n
    level[root] = 0
    queue = [root]
    head = 0
    while head < len(queue):
        v = queue[head]
        head += 1
        for u in graph.adjacency[v]:
            if level[u] == -1:
                level[u] = level[v] + 1
                queue.append(u)
    if any(l == -1 for l in level):
        raise DisconnectedGraphError("graph is not connected")
    depth = max(level)
    layers = [[] for _ in range(depth + 1)]
    for v in range(n):  # in index order, so each layer comes out sorted
        layers[level[v]].append(v)
    return tuple(map(tuple, layers)), tuple(level)


def connected_components(graph):
    """Vertex sets of the connected components, each sorted, smallest head first."""
    n = graph.num_vertices
    seen = [False] * n
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in graph.adjacency[v]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        comps.append(tuple(sorted(comp)))
    return comps


def is_forest(graph):
    """True when the graph has no cycle."""
    return graph.num_edges == graph.num_vertices - len(connected_components(graph))


def induced_subgraph_with_map(graph, vertices):
    """The induced subgraph on `vertices`, as (subgraph, vertices): new
    vertex i is the i-th smallest of `vertices`, the tuple's i-th entry.
    Each edge is read once, from the adjacency row of its smaller end, so
    the cost is O(sum of the chosen degrees), not O(E)."""
    vs = sorted(set(vertices))
    old_to_new = {v: i for i, v in enumerate(vs)}
    adjacency = graph.adjacency
    edges = [
        (i, old_to_new[u])
        for i, v in enumerate(vs)
        for u in adjacency[v]
        if u > v and u in old_to_new
    ]
    return Graph(len(vs), edges), tuple(vs)


def proper_vertex_numbering(graph, bound):
    """A map v -> {1..bound} where adjacent vertices get distinct numbers.

    Greedy first-fit over vertices in index order; needs max_degree < bound,
    and then uses at most max_degree + 1 <= bound numbers.
    """
    if graph.max_degree() >= bound:
        raise BoundTooSmallError(
            f"need at least {graph.max_degree() + 1} numbers, got {bound}"
        )
    numbers = [0] * graph.num_vertices
    for v in range(graph.num_vertices):
        taken = {numbers[u] for u in graph.adjacency[v] if numbers[u] > 0}
        c = 1
        while c in taken:
            c += 1
        numbers[v] = c
    return tuple(numbers)


def has_even_cycle(graph):
    """True when the graph contains a cycle of even length, by one iterative
    depth-first pass.

    Every non-tree edge of a DFS forest joins a vertex v to an ancestor u
    and closes a fundamental cycle of length depth(v) - depth(u) + 1.  The
    graph has an even cycle exactly when some fundamental cycle is even or
    two of them share a tree edge: two such cycles form a theta graph, whose
    three cycle lengths sum to an even number, so not all are odd.  If the
    fundamental cycles are odd and pairwise edge-disjoint, every cycle, a
    sum of fundamental cycles, is their disjoint union and so one of them.
    Each odd cycle's tree edges are marked by their child vertex; meeting a
    marked one ends the pass, so each is walked once, O(V + E) in all.
    """
    n, adjacency = graph.num_vertices, graph.adjacency
    depth, parent, marked = [-1] * n, [-1] * n, [False] * n
    for root in range(n):
        if depth[root] != -1:
            continue
        depth[root] = 0
        stack = [(root, iter(adjacency[root]))]
        while stack:
            v, neighbours = stack[-1]
            for u in neighbours:
                if depth[u] == -1:
                    depth[u], parent[u] = depth[v] + 1, v
                    stack.append((u, iter(adjacency[u])))
                    break
                if depth[u] < depth[v] - 1:  # a back edge to u, not the tree edge
                    if (depth[v] - depth[u]) % 2:
                        return True
                    w = v
                    while w != u:
                        if marked[w]:
                            return True
                        marked[w], w = True, parent[w]
            else:
                stack.pop()
    return False


def parse_edge_list(text):
    """Parse edge-list text into a Graph.

    One "u v" pair per line; '#' starts a comment; blank lines are skipped.
    A line holding a single integer declares an isolated vertex.  The vertex
    count is one more than the largest index mentioned, and a count above
    MAX_VERTICES is refused before any adjacency is allocated.  Lines are
    read in order, so the first defective one is the one reported.
    """
    edges = []
    singles = []
    for raw in text.splitlines():
        parts = raw.partition("#")[0].split()
        if len(parts) == 2:
            edges.append((int(parts[0]), int(parts[1])))
        elif len(parts) == 1:
            singles.append(int(parts[0]))
        elif parts:
            raise ValueError(f"bad edge-list line {raw!r}")
    mentioned = [*singles, *chain.from_iterable(edges)]
    if mentioned and min(mentioned) < 0:
        raise ValueError("vertex indices must be non-negative")
    n = max(mentioned) + 1 if mentioned else 0
    if n > MAX_VERTICES:
        raise ValueError(f"edge list names {n} vertices, more than the limit of {MAX_VERTICES}")
    return Graph(n, edges)
