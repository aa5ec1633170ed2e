"""Hypothesis strategies shared across the test modules."""

from hypothesis import strategies as st

from graphvariety import Graph


@st.composite
def graphs(draw, max_vertices=8, min_vertices=1):
    n = draw(st.integers(min_value=min_vertices, max_value=max_vertices))
    pool = [(a, b) for a in range(n) for b in range(a + 1, n)]
    edges = draw(st.sets(st.sampled_from(pool), max_size=len(pool))) if pool else set()
    return Graph(n, sorted(edges))


@st.composite
def connected_graphs(draw, max_vertices=8):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(min_value=0, max_value=i - 1))
        edges.add((j, i))
    pool = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    if pool:
        edges |= draw(st.sets(st.sampled_from(pool), max_size=len(pool)))
    return Graph(n, sorted(edges))


@st.composite
def capped_graphs(draw, max_vertices=30, max_degree=7):
    """Random graphs whose degrees stay at most a drawn cap <= max_degree:
    each drawn pair becomes an edge unless it would push an endpoint past
    the cap, so disconnected graphs and isolated vertices occur."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    cap = draw(st.integers(min_value=0, max_value=max_degree))
    vertex = st.integers(min_value=0, max_value=max(n - 1, 0))
    tries = draw(st.integers(min_value=0, max_value=4 * n))
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=tries, max_size=tries))
    deg = [0] * n
    edges = set()
    for a, b in pairs:
        e = (min(a, b), max(a, b))
        if a != b and e not in edges and deg[a] < cap and deg[b] < cap:
            edges.add(e)
            deg[a] += 1
            deg[b] += 1
    return Graph(n, sorted(edges))


@st.composite
def forests(draw, max_vertices=12):
    """Random forests under a random labelling: each vertex hangs from an
    earlier one or starts a new tree, so isolated vertices, edgeless graphs
    and many components all occur."""
    n = draw(st.integers(min_value=0, max_value=max_vertices))
    label = draw(st.permutations(range(n)))
    edges = []
    for i in range(1, n):
        j = draw(st.integers(min_value=-1, max_value=i - 1))
        if j >= 0:
            edges.append((label[j], label[i]))
    return Graph(n, edges)


@st.composite
def odd_cacti(draw, max_blocks=8):
    """A graph with no even cycle, and the vertex lists of its cycles: odd
    cycles glued at vertices and joined by bridges, plus isolated vertices,
    under a random labelling.  Each block hangs from an earlier vertex."""
    n, edges, cycles = 1, [], []
    for _ in range(draw(st.integers(0, max_blocks))):
        size = draw(st.sampled_from((0, 2, 3, 5, 7)))  # 0 an isolated vertex, 2 a bridge
        if not size:
            n += 1
            continue
        ring = [draw(st.integers(0, n - 1)), *range(n, n + size - 1)]
        n += size - 1
        edges += zip(ring, ring[1:])
        if size > 2:
            edges.append((ring[-1], ring[0]))
            cycles.append(ring)
    label = draw(st.permutations(range(n)))
    return (Graph(n, [(label[a], label[b]) for a, b in edges]),
            [[label[v] for v in ring] for ring in cycles])
