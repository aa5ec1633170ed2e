"""The benchmark's workloads: seeded inputs plus the CLI commands of one pass.

A workload is a list of blocks.  Each block writes its input files into the
work directory and returns steps; a step is one `graphvariety` CLI call, the
end-to-end metric its wall time adds to, where its JSON output goes, and the
check its output must pass.  Every end-to-end metric is reported on every
workload, so each workload runs all nine commands: its own blocks at full
size, the other blocks at a small size that keeps them a minor share of the
pass.
"""

import os
import random

import gen

PRIME = 10007
COUNT_CAP = str(10**12)  # the default cap rejects the worst-case estimates
DEFAULT_SEED = 0


class Inputs:
    """Writes generated input files into one work directory."""

    def __init__(self, workdir, seed):
        self.workdir = workdir
        self.rng = random.Random(seed)

    def path(self, name):
        return os.path.join(self.workdir, name)

    def write(self, name, text):
        path = self.path(name)
        with open(path, "w") as f:
            f.write(text)
        return path

    def graph(self, name, edges):
        return self.write(name + ".txt", gen.edge_list_text(edges))


def step(metric, name, argv, check=None, out=None):
    """One CLI call.  With `out` the JSON goes to that file, else to stdout."""
    if out is not None:
        argv = argv + ["--out", out]
    return {"metric": metric, "name": name, "argv": argv, "out": out, "check": check}


def varieties(io, tag, field, sample_side, smooth_side, bip_shape):
    """sample + check on a grid (n=8); certify a smooth point of a grid (n=4);
    certify a singular point of K_{a,a} whose vectors lie in a Lagrangian
    subspace, so its a^2 edge rows outnumber the possible Jacobian rank
    (a n).  The smooth point has entries in {-1, 0, 1}: with larger entries
    the cost of eliminating over Q varies twofold from seed to seed."""
    p = None if field == "Q" else PRIME
    grid = io.graph(f"{tag}-grid", gen.grid_edges(sample_side, sample_side))
    sampled = io.path(f"{tag}-sampled.json")
    steps = [
        step("sample_s", f"{tag}-sample",
             ["sample", "--graph", grid, "--dim", "8", "--field", field,
              "--seed", str(io.rng.randrange(2**31))],
             out=sampled),
        step("check_s", f"{tag}-check",
             ["check", "--graph", grid, "--dim", "8", "--point", sampled],
             check={"kind": "member"}),
    ]
    smooth_graph = io.graph(f"{tag}-smooth", gen.grid_edges(smooth_side, smooth_side))
    smooth_point = io.write(f"{tag}-smooth.json", gen.point_json(
        field, gen.regular_grid_point(io.rng, smooth_side, smooth_side, 4, p, 1)))
    steps.append(step("certify_smooth_s", f"{tag}-certify-smooth",
                      ["certify", "--graph", smooth_graph, "--dim", "4", "--point", smooth_point],
                      check={"kind": "smooth"}))
    a, n = bip_shape
    bip = io.graph(f"{tag}-bip", gen.complete_bipartite_edges(a, a))
    bip_point = io.write(f"{tag}-bip.json", gen.point_json(
        field, gen.lagrangian_point(io.rng, 2 * a, n, p, 9)))
    steps.append(step("certify_singular_s", f"{tag}-certify-singular",
                      ["certify", "--graph", bip, "--dim", str(n), "--point", bip_point],
                      check={"kind": "certificate", "graph": bip, "point": bip_point,
                             "dim": n}))
    return steps


def counts(io, tag, cases):
    """`count` on fixed small graphs, whatever the seed.  A single edge is
    checked against the closed form q^(2n-1) + q^n - q^(n-1), every other
    graph against its exact count."""
    steps = []
    for name, edges, form, n, q, exact in cases:
        graph = io.graph(f"{tag}-{name}", edges)
        if exact is None:
            check = {"kind": "edge_count", "n": n, "q": q}
        else:
            check = {"kind": "count", "count": exact}
        steps.append(step("count_s", f"{tag}-count-{name}",
                          ["count", "--graph", graph, "--form", form, "--dim", str(n),
                           "--field", f"Fp:{q}", "--cap", COUNT_CAP],
                          check=check))
    return steps


def graphs(io, tag, analyze_shape, split_shape, tree_shape):
    """analyze and equations on a bounded-degree graph, split + verify-split
    on another, split-tree + verify-split on a random tree.  A shape is
    (vertices, max degree, edges) for a graph, (vertices, max degree) for the
    tree."""
    n, d, m = analyze_shape
    big = gen.bounded_degree_graph(io.rng, n, d, m - n + 1)
    analyzed = io.graph(f"{tag}-analyze", big)
    n_s, d_s, m_s = split_shape
    split_graph = io.graph(f"{tag}-split",
                           gen.bounded_degree_graph(io.rng, n_s, d_s, m_s - n_s + 1))
    tree = io.graph(f"{tag}-tree", gen.random_tree(io.rng, *tree_shape))
    weighting = io.path(f"{tag}-split-w.json")
    tree_weighting = io.path(f"{tag}-tree-w.json")
    return [
        step("analyze_s", f"{tag}-analyze",
             ["analyze", "--graph", analyzed, "--form", "symmetric", "--dim", "8"],
             check={"kind": "analyze", "vertices": n, "edges": len(big)}),
        step("split_s", f"{tag}-split", ["split", "--graph", split_graph],
             check={"kind": "weighting", "graph": split_graph}, out=weighting),
        step("verify_split_s", f"{tag}-verify-split",
             ["verify-split", "--graph", split_graph, "--weighting", weighting],
             check={"kind": "valid"}),
        step("split_tree_s", f"{tag}-split-tree", ["split-tree", "--graph", tree],
             check={"kind": "weighting", "graph": tree}, out=tree_weighting),
        step("verify_split_s", f"{tag}-verify-split-tree",
             ["verify-split", "--graph", tree, "--weighting", tree_weighting],
             check={"kind": "valid"}),
        step("equations_s", f"{tag}-equations",
             ["equations", "--graph", analyzed, "--dim", "8", "--field", "Q"],
             check={"kind": "equations", "edges": len(big)}),
    ]


# (name, edges, form, n, q, exact count or None for the closed form).  The
# counts agree with transfer-matrix products of the 0/1 orthogonality matrix
# of F_q^n under the form.
FULL_COUNTS = [
    ("path3", gen.path_edges(3), "symplectic", 4, 3, 64881),  # forests
    ("path5", gen.path_edges(5), "symplectic", 2, 5, 69625),
    ("c5", gen.cycle_edges(5), "symmetric", 2, 7, 142801),  # an odd cycle
    ("k23", gen.complete_bipartite_edges(2, 3), "hyperbolic", 2, 5, 34105),
    ("edge", [(0, 1)], "symplectic", 4, 7, None),
    ("c4", gen.cycle_edges(4), "symmetric", 3, 2, 568),  # F_2: keys must be raw vectors
]
SMALL_COUNTS = FULL_COUNTS[4:]
SMALL_GRAPHS = ((800, 6, 1600), (250, 5, 560), (1200, 6))


def exact_q(io):
    return (varieties(io, "q", "Q", 18, 8, (9, 8))
            + counts(io, "small", SMALL_COUNTS)
            + graphs(io, "small", *SMALL_GRAPHS))


def finite_field(io):
    return (counts(io, "ff", FULL_COUNTS)
            + varieties(io, "fp", f"Fp:{PRIME}", 22, 8, (10, 8))
            + graphs(io, "small", *SMALL_GRAPHS))


def split_graph(io):
    # split on max degree 8 uses palette(8): 2591 colors, about 10 MB of JSON
    return (graphs(io, "g", (2200, 6, 4400), (300, 8, 750), (2000, 6))
            + varieties(io, "small", f"Fp:{PRIME}", 16, 8, (9, 8))
            + counts(io, "small", SMALL_COUNTS))


WORKLOADS = {"exact-q": exact_q, "finite-field": finite_field, "split-graph": split_graph}


def build(workload, seed, workdir):
    """Write the workload's inputs for this seed and return the steps of a pass."""
    return WORKLOADS[workload](Inputs(workdir, seed))
