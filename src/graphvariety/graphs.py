"""Finite simple graphs and the orderings and decompositions the rest of the
package builds on.

Vertices are always 0..n-1 and edges are stored sorted as (lo, hi) pairs, so
every function that reports per-edge data does so in one canonical order.
"""

import heapq
from collections import namedtuple

from .errors import BoundTooSmallError, DisconnectedGraphError

# parse_edge_list allocates one adjacency list per index up to the largest one
# named, so a ten-byte file such as "0 1000000" could otherwise take seconds
# and hundreds of MiB in every command.  The largest benchmark graph has 2200.
MAX_VERTICES = 10**5


class Graph:
    """An undirected simple graph on vertices 0..num_vertices-1."""

    def __init__(self, num_vertices, edges):
        if num_vertices < 0:
            raise ValueError("vertex count must be non-negative")
        canon = []
        seen = set()
        for e in edges:
            u, v = e
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge {e} out of range for {num_vertices} vertices")
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            lo, hi = (u, v) if u < v else (v, u)
            if (lo, hi) in seen:
                raise ValueError(f"duplicate edge ({lo}, {hi})")
            seen.add((lo, hi))
            canon.append((lo, hi))
        canon.sort()
        self.num_vertices = num_vertices
        self.edges = tuple(canon)
        adj = [[] for _ in range(num_vertices)]
        for lo, hi in canon:
            adj[lo].append(hi)
            adj[hi].append(lo)
        self.adjacency = tuple(tuple(sorted(ns)) for ns in adj)

    @property
    def num_edges(self):
        return len(self.edges)

    def degree(self, v):
        return len(self.adjacency[v])

    def max_degree(self):
        if self.num_vertices == 0:
            return 0
        return max(len(ns) for ns in self.adjacency)

    def __eq__(self, other):
        return (
            isinstance(other, Graph)
            and self.num_vertices == other.num_vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.num_vertices, self.edges))

    def __repr__(self):
        return f"Graph({self.num_vertices}, {list(self.edges)})"


class OrderedGraph:
    """A graph together with a vertex elimination order.

    `order[i]` is the i-th vertex in the order; `position[v]` inverts it.
    The older neighbors of v are its neighbors that come later in the order.
    """

    def __init__(self, graph, order):
        if sorted(order) != list(range(graph.num_vertices)):
            raise ValueError("order must be a permutation of the vertices")
        self.graph = graph
        self.order = tuple(order)
        pos = [0] * graph.num_vertices
        for i, v in enumerate(self.order):
            pos[v] = i
        self.position = tuple(pos)

    def older_neighbors(self, v):
        pv = self.position[v]
        return tuple(u for u in self.graph.adjacency[v] if self.position[u] > pv)

    def younger_neighbors(self, v):
        pv = self.position[v]
        return tuple(u for u in self.graph.adjacency[v] if self.position[u] < pv)

    def width(self):
        """The largest older-neighbor count over all vertices."""
        if self.graph.num_vertices == 0:
            return 0
        return max(len(self.older_neighbors(v)) for v in range(self.graph.num_vertices))


def degeneracy_order(graph):
    """A degeneracy ordering, as (OrderedGraph, degeneracy).

    Repeatedly removes a vertex of minimum remaining degree, smallest index
    on ties.  The returned order lists vertices in removal order, so each
    vertex's older neighbors are the ones still present when it was removed,
    and the degeneracy is the largest such count.

    A heap of (degree, vertex) entries with lazy deletion finds each vertex
    in O(log V): a neighbor whose degree drops gets a fresh entry, which
    pops before its older, larger ones, so an entry is stale exactly when
    its vertex is gone.  That is O((V + E) log V) in all.  The result is
    memoized on the graph, so every caller on the same graph shares one
    peel.
    """
    cached = getattr(graph, "_degeneracy_cache", None)
    if cached is not None:
        return cached
    adjacency = graph.adjacency
    deg = [len(ns) for ns in adjacency]
    removed = [False] * graph.num_vertices
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    order = []
    degeneracy = 0
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v]:
            continue
        degeneracy = max(degeneracy, d)
        order.append(v)
        removed[v] = True
        for u in adjacency[v]:
            if not removed[u]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    cached = (OrderedGraph(graph, order), degeneracy)
    graph._degeneracy_cache = cached
    return cached


class BfsLayering(namedtuple("BfsLayering", "root layers level")):
    """Vertices grouped by breadth-first distance from a root."""

    __slots__ = ()


def bfs_layers(graph, root=0):
    """Breadth-first layers from `root`; the graph must be connected."""
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
    for v in range(n):
        layers[level[v]].append(v)
    return BfsLayering(
        root=root,
        layers=tuple(tuple(sorted(layer)) for layer in layers),
        level=tuple(level),
    )


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
    """The induced subgraph on `vertices`, plus old-to-new and new-to-old maps."""
    vs = sorted(set(vertices))
    old_to_new = {v: i for i, v in enumerate(vs)}
    edges = [
        (old_to_new[lo], old_to_new[hi])
        for lo, hi in graph.edges
        if lo in old_to_new and hi in old_to_new
    ]
    return Graph(len(vs), edges), old_to_new, tuple(vs)


def proper_vertex_numbering(graph, bound):
    """A map v -> {1..bound} where adjacent vertices get distinct numbers.

    Greedy first-fit over vertices in index order; needs max_degree < bound.
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
        if c > bound:
            raise BoundTooSmallError(f"greedy numbering exceeded bound {bound}")
        numbers[v] = c
    return tuple(numbers)


def biconnected_edge_components(graph):
    """Edge sets of the biconnected blocks, via an iterative DFS.

    Bridges come back as single-edge blocks.  Each block is a sorted tuple of
    (lo, hi) edges.
    """
    n = graph.num_vertices
    disc = [-1] * n
    low = [0] * n
    blocks = []
    edge_stack = []
    counter = [0]

    for root in range(n):
        if disc[root] != -1:
            continue
        # frame: (vertex, parent, iterator over neighbors)
        stack = [(root, -1, iter(graph.adjacency[root]))]
        disc[root] = low[root] = counter[0]
        counter[0] += 1
        while stack:
            v, parent, it = stack[-1]
            advanced = False
            for u in it:
                if disc[u] == -1:
                    edge_stack.append((min(v, u), max(v, u)))
                    disc[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append((u, v, iter(graph.adjacency[u])))
                    advanced = True
                    break
                if u != parent and disc[u] < disc[v]:
                    edge_stack.append((min(v, u), max(v, u)))
                    low[v] = min(low[v], disc[u])
            if advanced:
                continue
            stack.pop()
            if stack:
                pv = stack[-1][0]
                low[pv] = min(low[pv], low[v])
                if low[v] >= disc[pv]:
                    block = []
                    mark = (min(pv, v), max(pv, v))
                    while edge_stack:
                        e = edge_stack.pop()
                        block.append(e)
                        if e == mark:
                            break
                    if block:
                        blocks.append(tuple(sorted(set(block))))
    return blocks


def has_even_cycle(graph):
    """True when the graph contains a cycle of even length.

    Works block by block: a block with more edges than vertices contains two
    cycles sharing a path, and among the three cycle lengths so obtained not
    all can be odd.  A block that is exactly one cycle is even iff its length
    is.
    """
    for block in biconnected_edge_components(graph):
        if len(block) < 2:
            continue
        verts = {v for e in block for v in e}
        if len(block) > len(verts):
            return True
        if len(block) == len(verts) and len(block) % 2 == 0:
            return True
    return False


def cycle_graph(n):
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def parse_edge_list(text):
    """Parse edge-list text into a Graph.

    One "u v" pair per line; '#' starts a comment; blank lines are skipped.
    A line holding a single integer declares an isolated vertex.  The vertex
    count is one more than the largest index mentioned, and a count above
    MAX_VERTICES is refused before any adjacency is allocated.
    """
    edges = []
    singles = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) == 1:
            singles.append(int(parts[0]))
        elif len(parts) == 2:
            edges.append((int(parts[0]), int(parts[1])))
        else:
            raise ValueError(f"bad edge-list line {raw!r}")
    mentioned = singles + [v for e in edges for v in e]
    if any(v < 0 for v in mentioned):
        raise ValueError("vertex indices must be non-negative")
    n = max(mentioned) + 1 if mentioned else 0
    if n > MAX_VERTICES:
        raise ValueError(f"edge list names {n} vertices, more than the limit of {MAX_VERTICES}")
    return Graph(n, edges)

