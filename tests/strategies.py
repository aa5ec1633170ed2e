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
