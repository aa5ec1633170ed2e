"""Splitting a graph into matchings through integer vertex weightings.

A vertex weighting assigns every vertex an integer vector indexed by a fixed
color list.  Every edge picks up the coordinate-wise sum of its endpoint
vectors, and the color where that sum is strictly largest claims the edge.
The goal is a weighting whose color classes are all matchings, using a palette
whose size is bounded by a function of the maximum degree D alone.

The construction works level by level:

1. BFS levels from a root; edges run inside a level or between consecutive
   levels.
2. Each level's induced graph has maximum degree at most D - 1 and is
   weighted recursively on a shared base palette.  A per-level constant is
   then added to every base coordinate so that base weights strictly grow
   level over level (each level's minimum clears the two previous levels'
   maxima plus 10); constants preserve argmaxes inside a level.
3. Edges between consecutive levels draw colors from fresh pools, one pool
   per (level parity, proper number of the upper endpoint), each of size D^2.
   A greedy pass gives conflicting edges distinct colors, where two edges of
   the same level pair and the same pool conflict when either lower endpoint
   is adjacent to the other edge's upper endpoint.
4. An inter-level edge puts a dominating weight on its color at the upper
   endpoint (that vertex's base maximum plus the lower level's base maximum
   plus 5) and a small tie-breaking weight 5 at the lower endpoint.

Base weights at least 10 everywhere keep untouched coordinates from ever
reaching an argmax, intra-level edges keep their recursive winner, and each
inter-level edge wins its own pool color with margin at least 5.  The
verifier `color_classes` re-checks the outcome from scratch on every run.
The construction computes on palette positions; color names appear only
in `palette` and in the weighting `split_into_matchings` returns.
"""

import heapq
from collections import namedtuple
from operator import add

from .errors import (
    InternalConflictError,
    NotAForestError,
    WorkCapExceededError,
)
from .graphs import (
    bfs_layers,
    connected_components,
    induced_subgraph_with_map,
    proper_vertex_numbering,
)

WEIGHTING_CAP = 10**7


class VertexWeighting(namedtuple("VertexWeighting", "colors weights")):
    """An ordered color list and one aligned integer vector per vertex."""

    __slots__ = ()


class EdgeVerdict(namedtuple("EdgeVerdict", "edge argmax strict")):
    __slots__ = ()


class SplittingReport(namedtuple("SplittingReport",
                                 "per_edge classes matching_flags valid color_count")):
    """What the verifier found: argmaxes, classes, and the overall verdict."""

    __slots__ = ()


def color_classes(graph, weighting):
    """Verify a weighting against a graph, from first principles.

    Every edge must attain its maximum summed weight at exactly one color,
    and each color's edge class must be a matching.  Ties are recorded (the
    edge lands in every tied class) and make the report invalid.  Only
    nonempty classes are reported; color_count counts them.
    """
    colors = weighting.colors
    if set(weighting.weights) != set(range(graph.num_vertices)):
        raise ValueError("weight vectors must be given for exactly the vertices 0..n-1")
    for v in range(graph.num_vertices):
        if len(weighting.weights[v]) != len(colors):
            raise ValueError(f"weight vector length mismatch at vertex {v}")
    per_edge = []
    classes = {}
    all_strict = True
    weights = weighting.weights
    for lo, hi in graph.edges:
        sums = list(map(add, weights[lo], weights[hi]))
        if not sums:
            per_edge.append(EdgeVerdict(edge=(lo, hi), argmax=(), strict=False))
            all_strict = False
            continue
        top = max(sums)
        strict = sums.count(top) == 1
        if strict:
            winners = (colors[sums.index(top)],)
        else:
            winners = tuple(colors[i] for i, s in enumerate(sums) if s == top)
        all_strict = all_strict and strict
        per_edge.append(EdgeVerdict(edge=(lo, hi), argmax=winners, strict=strict))
        for c in winners:
            classes.setdefault(c, []).append((lo, hi))
    # a class is a matching exactly when its edges' endpoints are all distinct
    matching_flags = {c: len({v for e in edges for v in e}) == 2 * len(edges)
                      for c, edges in classes.items()}
    all_matching = all(matching_flags.values())
    return SplittingReport(
        per_edge=tuple(per_edge),
        classes={c: tuple(es) for c, es in classes.items()},
        matching_flags=matching_flags,
        valid=all_strict and all_matching,
        color_count=len(classes),
    )


def color_budget(max_degree):
    """The palette size the construction needs: D^2 (D+1)^2 / 2 - 1, and 1 at D = 0."""
    d = max_degree
    return max(1, d * d * (d + 1) * (d + 1) // 2 - 1)


def palette(max_degree):
    """The color list for graphs of the given maximum degree.

    One shared "base" color, extended per degree stage t by fresh pool colors
    a<t>.<parity>.<number>.<slot>.  Palettes nest: palette(t - 1) is a prefix
    of palette(t), which is what lets level graphs reuse their recursive
    weighting inside the bigger palette.  The length equals color_budget, so
    pool (parity, k) of stage t starts at position
    color_budget(t - 1) + (parity * t + k - 1) * t^2.
    """
    names = ["base"]
    for t in range(2, max_degree + 1):
        for parity in (0, 1):
            for k in range(1, t + 1):
                for j in range(t * t):
                    names.append(f"a{t}.{parity}.{k}.{j}")
    return tuple(names)


def split_into_matchings(graph):
    """A weighting splitting the graph into matchings on palette(D) colors; refused
    up front when its dense vectors would hold over WEIGHTING_CAP entries in all."""
    big_d = graph.max_degree()
    entries = color_budget(big_d) * graph.num_vertices
    if entries > WEIGHTING_CAP:
        raise WorkCapExceededError(
            entries, WEIGHTING_CAP, "; a forest splits on max-degree colors with split-tree")
    weights = _weights(graph)
    return VertexWeighting(
        colors=palette(big_d),
        weights={v: tuple(vec) for v, vec in enumerate(weights)},
    )


def _weights(graph):
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
        sub, new_to_old = induced_subgraph_with_map(graph, comp)
        for root in range(sub.num_vertices):
            try:
                comp_weights = _split_component(sub, big_d, root)
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


def _split_component(sub, big_d, root):
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
        lg, back = induced_subgraph_with_map(sub, level)
        # palette(max degree of lg) is a prefix of palette(big_d - 1), so each
        # recursive vector is its base block, zero past its end
        padded = [vec + [0] * (base_size - len(vec)) for vec in _weights(lg)]
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


def split_forest_into_matchings(forest):
    """A splitting of a forest into at most D matchings.

    Leaves are peeled off one at a time, smallest index first, in
    O((V + E) log V) (see `_leaf_peel`); no vertex of a cycle drops to
    degree 1, so the graph is a forest exactly when every vertex goes.
    Rebuilding in reverse, each leaf edge takes the smallest color still
    free at the attachment vertex and a weight one larger than everything
    the attachment vertex carries, which makes the new edge win exactly its
    own color.
    """
    n = forest.num_vertices
    big_d = forest.max_degree()
    if big_d == 0:
        return VertexWeighting(colors=(), weights={v: () for v in range(n)})
    peel, parent = _leaf_peel(forest)
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


def _leaf_peel(forest):
    """The leaf-peel order of a graph and the vertex each leaf hung from.

    Removes a vertex of remaining degree at most 1 at every step, smallest
    index first, until none is left (short of any cycle); parent[v] is v's
    one remaining neighbor when it went, or None.  The candidates sit on a
    heap: every vertex enters it once, when its degree first reaches 1 (or
    at the start), so the peel is O((V + E) log V).
    """
    adjacency = forest.adjacency
    deg = [len(ns) for ns in adjacency]
    removed = [False] * forest.num_vertices
    parent = [None] * forest.num_vertices
    heap = [v for v, d in enumerate(deg) if d <= 1]  # ascending, so a heap
    peel = []
    while heap:
        v = heapq.heappop(heap)
        removed[v] = True
        peel.append(v)
        for u in adjacency[v]:
            if not removed[u]:
                parent[v] = u
                deg[u] -= 1
                if deg[u] == 1:
                    heapq.heappush(heap, u)
    return peel, parent

