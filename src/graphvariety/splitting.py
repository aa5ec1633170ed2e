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

Inside, a vector is a run list: (start, value) pairs by increasing palette
position, each value holding up to the next start.  A vertex has few
runs (a median of 13 over a palette of 2591 on a 300-vertex graph of max
degree 8), so a level pads its recursive vectors with one zero run, adds
its shift run by run and reads minima and maxima off the run values.  It
shifts each distinct value once, so runs holding equal weights share one
int: a long ladder's weights have thousands of digits each.  The
pool weights of stage 4 are point updates, kept per vertex and merged into
its runs once per component.  `split_into_matchings` expands each run list
to its dense tuple once, at the end, after checking the run values against
Python's digit limit for `int` -> `str`: base weights grow about like
Fibonacci numbers over the BFS levels, so a long ladder's weighting can be
built but not printed.  Stage 3 indexes the colored edges of
a level pair by lower and by upper endpoint, so an edge's banned colors
come from its endpoints' neighbours rather than from every edge colored
before it.  Each level's subgraph is read from its vertices' adjacency
rows, O(sum of their degrees), so a graph with one level per few vertices,
such as a ladder, is not quadratic.
"""

import sys
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
    degeneracy_order,
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
    up front when its dense vectors would hold over WEIGHTING_CAP entries in all,
    and before they are expanded when a weight has more digits than Python
    converts to a string (`sys.get_int_max_str_digits()`, 0 for no limit)."""
    big_d = graph.max_degree()
    size = color_budget(big_d)
    entries = size * graph.num_vertices
    if entries > WEIGHTING_CAP:
        raise WorkCapExceededError(
            entries, WEIGHTING_CAP, "; a forest splits on max-degree colors with split-tree")
    weights = _weights(graph)
    # Python before 3.10.7 has no such limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    top = max((abs(x) for runs in weights for _, x in runs), default=0)
    if limit and top >= 10**limit:
        raise ValueError(f"the weighting needs a weight of {_digits(top)} digits, more than "
                         f"the {limit} digits Python converts to a string")
    return VertexWeighting(
        colors=palette(big_d),
        weights={v: _expand(runs, size) for v, runs in enumerate(weights)},
    )


def _digits(x):
    """The number of decimal digits of x > 0, found without `str`."""
    d = (x.bit_length() - 1) * 3 // 10  # 10^d <= 2^(bits - 1) <= x, as 0.3 < log10(2)
    while 10**d <= x:
        d += 1
    return d


def _expand(runs, size):
    """The dense tuple of a run list over `size` palette positions."""
    dense = []
    for (start, x), (end, _) in zip(runs, runs[1:] + [(size, None)]):
        dense += [x] * (end - start)
    return tuple(dense)


def _weights(graph):
    """One run list per vertex over palette(D) positions: (start, value)
    pairs by increasing start, each value holding up to the next start.

    Components are processed independently on the shared palette.  If the
    greedy pool assignment of stage 3 runs out of colors for some root, the
    component is retried from every other root before giving up.
    """
    big_d = graph.max_degree()
    if big_d <= 1:
        return [[(0, 10)] for _ in range(graph.num_vertices)]
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
        for v, runs in enumerate(comp_weights):
            weights[new_to_old[v]] = runs
    return weights


def _split_component(sub, big_d, root):
    """Stages 1-4 on one connected component, rooted at `root`: one run
    list per vertex of `sub` over palette(big_d) positions."""
    base_size = color_budget(big_d - 1)
    levels, level_of = bfs_layers(sub, root)

    # stage 2: recursive base weights per level, then cumulative shifts;
    # top[v] is v's base maximum, level_max[i] level i's
    base = [None] * sub.num_vertices
    top = [0] * sub.num_vertices
    level_max = []
    numbering = [0] * sub.num_vertices
    for level in levels:
        lg, back = induced_subgraph_with_map(sub, level)
        # palette(max degree of lg) is a prefix of palette(big_d - 1), so each
        # recursive vector is its base block, one zero run past its end
        length = color_budget(lg.max_degree())
        pad = [(length, 0)] if length < base_size else []
        padded = [runs + pad for runs in _weights(lg)]
        values = {x for runs in padded for _, x in runs}
        shift = max(0, sum(level_max[-2:]) + 10 - min(values))
        # one int per distinct shifted value, shared by every run that holds it
        shifted = {x: x + shift for x in values}
        nums = proper_vertex_numbering(lg, big_d)
        for lv, runs in enumerate(padded):
            v = back[lv]
            base[v] = [(start, shifted[x]) for start, x in runs]
            top[v] = shifted[max(x for _, x in runs)]
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
    points = [{} for _ in range(sub.num_vertices)]
    for i, pair in enumerate(between):
        pair.sort()
        # the pair's colored edges, as (other endpoint, color) lists indexed
        # by the lower and by the upper endpoint
        by_lower, by_upper, dominant = {}, {}, {}
        for upper, lower in pair:
            k = numbering[upper]
            start = base_size + (i % 2 * big_d + k - 1) * big_d * big_d
            pool = range(start, start + big_d * big_d)
            banned = {c for l2 in adjacency[upper] for u2, c in by_lower.get(l2, ())
                      if numbering[u2] == k}
            banned.update(c for u2 in adjacency[lower] if numbering[u2] == k
                          for _, c in by_upper.get(u2, ()))
            chosen = next((c for c in pool if c not in banned), None)
            if chosen is None:
                raise InternalConflictError(
                    f"pool ({i % 2}, {k}) exhausted at edge "
                    f"({lower}, {upper}) between levels {i} and {i + 1}"
                )
            by_lower.setdefault(lower, []).append((upper, chosen))
            by_upper.setdefault(upper, []).append((lower, chosen))
            # stage 4: a dominating weight on the pool color, one int per
            # upper endpoint however many pool colors it takes
            points[upper][chosen] = dominant.setdefault(upper, top[upper] + level_max[i] + 5)
            points[lower][chosen] = 5
    size = color_budget(big_d)
    return [_with_points(base[v], points[v], base_size, size) for v in range(sub.num_vertices)]


def _with_points(runs, points, base_size, size):
    """A base-block run list continued up to `size` by zeros, but for the
    point weights `points` (position -> value), all past `base_size`."""
    merged = runs + [(base_size, 0)]
    for p in sorted(points):
        if merged[-1][0] == p:  # a zero run that starts right here
            merged.pop()
        merged += [(p, points[p]), (p + 1, 0)]
    if merged[-1][0] == size:
        merged.pop()
    return merged


def split_forest_into_matchings(forest):
    """A splitting of a forest into at most D matchings.

    A graph is a forest exactly when its degeneracy is at most 1, so one
    `degeneracy_order` peel is both the forest test and the order: each
    vertex has at most one neighbour still present when the peel removes
    it, the one it hangs from.  Rebuilding in reverse, each such edge takes
    the smallest color still free at that neighbour and a weight one larger
    than everything the neighbour carries, which makes the new edge win
    exactly its own color.
    """
    n = forest.num_vertices
    big_d = forest.max_degree()
    if big_d == 0:
        return VertexWeighting(colors=(), weights={v: () for v in range(n)})
    order, d = degeneracy_order(forest)
    if d > 1:
        raise NotAForestError("splitting with max_degree colors needs a forest")
    colors = tuple(f"c{k}" for k in range(1, big_d + 1))
    weights = [[0] * big_d for _ in range(n)]
    used = [set() for _ in range(n)]
    placed = [False] * n
    for v in reversed(order):
        # the neighbour placed before v is the one still present when v went
        for y in forest.adjacency[v]:
            if placed[y]:
                c = next(k for k in range(big_d) if k not in used[y])
                weights[v][c] = 1 + max(weights[y])
                used[y].add(c)
                used[v].add(c)
        placed[v] = True
    return VertexWeighting(colors=colors, weights=dict(enumerate(map(tuple, weights))))
