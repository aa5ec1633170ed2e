"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS/FAIL line
with the measured workload, so a bare pytest run doubles as the checklist.
"""

import contextlib
import io
import json
import random
import time

from graphvariety import (
    Graph,
    PrimeField,
    RATIONALS,
    VarietyContext,
    VertexAssignment,
    canonical_degrees,
    color_budget,
    color_classes,
    count_points,
    CountRequest,
    degeneracy_order,
    edge_count_closed_form,
    is_anti_ample,
    is_member,
    residual,
    sample_regular_point,
    singular_certificate,
    split_forest_into_matchings,
    split_into_matchings,
    standard_space,
    verify_certificate,
)
from graphvariety.cli import main as cli_main
from oracles import (
    brute_force_min_colors,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    cycle_singular_point,
    dot,
    independent_set_point,
    jacobian,
    naive_point_count,
    origin,
    path_graph,
    random_connected_graph,
    random_tangent,
    random_tree,
    rank,
    regular_part_test,
    star_graph,
    vectors,
)


def report(number, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\n[{status}] criterion {number} ({label}): {detail}")


def add_assignments(field, a, b):
    return VertexAssignment(
        field,
        [[x + y for x, y in zip(u, v)] for u, v in zip(vectors(a), vectors(b))],
    )


def random_connected_max_degree(rng, num_vertices, max_deg):
    while True:
        verts = list(range(num_vertices))
        rng.shuffle(verts)
        deg = [0] * num_vertices
        edges = set()
        ok = True
        for i in range(1, num_vertices):
            hosts = [verts[j] for j in range(i) if deg[verts[j]] < max_deg]
            if not hosts:
                ok = False
                break
            a, b = verts[i], rng.choice(hosts)
            edges.add((min(a, b), max(a, b)))
            deg[a] += 1
            deg[b] += 1
        if not ok:
            continue
        for _ in range(rng.randint(0, num_vertices)):
            a, b = rng.randrange(num_vertices), rng.randrange(num_vertices)
            e = (min(a, b), max(a, b))
            if a == b or e in edges or deg[a] >= max_deg or deg[b] >= max_deg:
                continue
            edges.add(e)
            deg[a] += 1
            deg[b] += 1
        return Graph(num_vertices, sorted(edges))


def test_criterion_1_first_order_expansion_is_exact():
    """residual(w + e) - residual(w) - J(w)e == <e, e> termwise, exactly."""
    rng = random.Random(101)
    fields = [RATIONALS, PrimeField(101)]
    start = time.perf_counter()
    points = 0
    failures = []
    while points < 200:
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 5))
        _, d = degeneracy_order(g)
        field = fields[points % 2]
        n = rng.randint(2, 6)
        kind = rng.choice(["symmetric", "symplectic", "hyperbolic"])
        if kind in ("symplectic", "hyperbolic") and n % 2:
            n += 1
        space = standard_space(kind, n, field)
        ctx = VarietyContext(g, space)

        members = [origin(g, space), independent_set_point(rng, g, space)]
        if n >= 2 * d:
            members.append(sample_regular_point(g, space, seed=points))
        for w in members:
            if not is_member(ctx, w):
                failures.append((g, kind, "generator produced a non-member"))
                continue
            e = random_tangent(rng, field, g.num_vertices, n)
            base = residual(ctx, w)
            moved = residual(ctx, add_assignments(field, w, e))
            flat = [x for v in range(g.num_vertices) for x in vectors(e)[v]]
            linear = [dot(field, row, flat) for row in jacobian(ctx, w)]
            for idx, (lo, hi) in enumerate(ctx.graph.edges):
                second = space.pair(vectors(e)[lo], vectors(e)[hi])
                if field(moved[idx] - base[idx] - linear[idx]) != second:
                    failures.append((g, kind, f"edge {idx} expansion off"))
            points += 1
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    report(1, "first-order expansion exact", ok, f"{points} member points, {elapsed:.2f}s (limit 10s)")
    assert ok, failures[:3] or f"too slow: {elapsed:.2f}s"


def test_criterion_2_sampled_points_are_smooth():
    """Sampled points are members, regular, and smooth when n is large enough."""
    rng = random.Random(202)
    fields = [RATIONALS, PrimeField(101)]
    start = time.perf_counter()
    failures = []
    points = 0
    while points < 100:
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 4))
        _, d = degeneracy_order(g)
        big_d = g.max_degree()
        n = max(2 * d, d + big_d)
        kind = rng.choice(["symmetric", "symplectic", "hyperbolic"])
        if kind in ("symplectic", "hyperbolic") and n % 2:
            n += 1
        field = fields[points % 2]
        space = standard_space(kind, n, field)
        ctx = VarietyContext(g, space)
        pt = sample_regular_point(g, space, seed=points)
        if not is_member(ctx, pt):
            failures.append((points, "not a member"))
        if not regular_part_test(g, pt):
            failures.append((points, "regular part test failed"))
        if rank(field, jacobian(ctx, pt)) != g.num_edges:
            failures.append((points, "Jacobian rank below edge count"))
        points += 1
    elapsed = time.perf_counter() - start
    ok = not failures
    report(2, "sampler lands on smooth points", ok, f"{points} points, 0 failures required, {elapsed:.2f}s")
    assert ok, failures[:3]


def test_criterion_3_cycle_singular_points_certify():
    """Constructed cycle points are singular with re-verifying certificates."""
    start = time.perf_counter()
    failures = []
    cases = 0
    for k in (3, 4, 5, 6):
        for n in (4, 6):
            space = standard_space("symplectic", n, RATIONALS)
            ctx = VarietyContext(cycle_graph(k), space)
            pt = cycle_singular_point(k, space)
            cert = singular_certificate(ctx, pt)
            if not is_member(ctx, pt):
                failures.append(("symplectic", k, n, "not a member"))
            if rank(RATIONALS, jacobian(ctx, pt)) >= k:
                failures.append(("symplectic", k, n, "full rank"))
            if not verify_certificate(ctx, pt, cert):
                failures.append(("symplectic", k, n, "certificate rejected"))
            cases += 1
    for k in (4, 6):
        for n in (2, 4):
            space = standard_space("hyperbolic", n, RATIONALS)
            ctx = VarietyContext(cycle_graph(k), space)
            pt = cycle_singular_point(k, space)
            cert = singular_certificate(ctx, pt)
            if not is_member(ctx, pt):
                failures.append(("hyperbolic", k, n, "not a member"))
            if rank(RATIONALS, jacobian(ctx, pt)) >= k:
                failures.append(("hyperbolic", k, n, "full rank"))
            if not verify_certificate(ctx, pt, cert):
                failures.append(("hyperbolic", k, n, "certificate rejected"))
            cases += 1
    elapsed = time.perf_counter() - start
    ok = not failures
    report(3, "cycle singular points certify", ok, f"{cases} (form, k, n) cases, {elapsed:.2f}s")
    assert ok, failures


def test_criterion_4_zero_point_is_always_singular():
    """The all-zero assignment is singular on every graph with an edge."""
    rng = random.Random(404)
    graphs = [
        path_graph(2),
        path_graph(4),
        cycle_graph(3),
        cycle_graph(6),
        star_graph(4),
        complete_graph(4),
        complete_bipartite_graph(2, 3),
    ] + [random_connected_graph(rng, rng.randint(2, 7), rng.randint(0, 4)) for _ in range(5)]
    failures = []
    for g in graphs:
        for kind, n in (("symplectic", 4), ("symmetric", 3), ("hyperbolic", 2)):
            space = standard_space(kind, n, RATIONALS)
            ctx = VarietyContext(g, space)
            pt = origin(g, space)
            cert = singular_certificate(ctx, pt)
            if cert is None:
                failures.append((g, kind, "zero point reported smooth"))
            elif not verify_certificate(ctx, pt, cert):
                failures.append((g, kind, "no verifying certificate"))
    ok = not failures
    report(4, "zero point singular with certificate", ok, f"{len(graphs)} graphs x 3 forms")
    assert ok, failures[:3]


def test_criterion_5_point_counts_match_enumeration():
    """Closed form on the edge, full enumeration elsewhere, multiplicativity."""
    start = time.perf_counter()
    failures = []
    edge = Graph(2, [(0, 1)])
    for n in (1, 2, 3):
        for q in (2, 3, 5):
            space = standard_space("symmetric", n, PrimeField(q))
            got = count_points(CountRequest(edge, space)).count
            want = edge_count_closed_form(n, q)
            if got != want:
                failures.append(("closed form", n, q, got, want))

    cases = [
        (path_graph(3), "symmetric", 1, 3),
        (path_graph(3), "symmetric", 2, 2),
        (path_graph(4), "symmetric", 1, 5),
        (cycle_graph(3), "symmetric", 2, 3),
        (cycle_graph(4), "symmetric", 2, 2),
        (cycle_graph(5), "symmetric", 1, 3),
        (star_graph(3), "symmetric", 2, 2),
        (complete_graph(4), "symmetric", 1, 3),
        (complete_bipartite_graph(2, 3), "symmetric", 1, 3),
        (path_graph(3), "symplectic", 2, 3),
        (cycle_graph(4), "symplectic", 2, 3),
        (path_graph(4), "hyperbolic", 2, 2),
        (cycle_graph(4), "hyperbolic", 2, 2),
        (Graph(3, []), "symmetric", 2, 3),
    ]
    checked = 0
    for g, kind, n, q in cases:
        if q ** (n * g.num_vertices) > 10 ** 6:
            continue
        space = standard_space(kind, n, PrimeField(q))
        got = count_points(CountRequest(g, space)).count
        want = naive_point_count(g, space)
        if got != want:
            failures.append((kind, n, q, g, got, want))
        checked += 1

    space = standard_space("symmetric", 1, PrimeField(3))
    g1, g2 = cycle_graph(3), path_graph(3)
    union = Graph(6, list(g1.edges) + [(lo + 3, hi + 3) for lo, hi in g2.edges])
    c1 = count_points(CountRequest(g1, space)).count
    c2 = count_points(CountRequest(g2, space)).count
    cu = count_points(CountRequest(union, space)).count
    if cu != c1 * c2:
        failures.append(("multiplicativity", cu, c1, c2))

    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    report(5, "point counts match enumeration", ok, f"9 closed-form + {checked} enumerated cases, {elapsed:.2f}s (limit 60s)")
    assert ok, failures[:3] or f"too slow: {elapsed:.2f}s"


def test_criterion_6_splitting_random_graphs():
    """Splitting succeeds within the color budget on 50 bounded-degree graphs."""
    rng = random.Random(606)
    start = time.perf_counter()
    failures = []
    for i in range(50):
        g = random_connected_max_degree(rng, rng.randint(2, 40), 4)
        big_d = g.max_degree()
        w = split_into_matchings(g)
        rep = color_classes(g, w)
        if not rep.valid:
            failures.append((i, "verifier rejected the weighting"))
        if rep.color_count > color_budget(big_d):
            failures.append((i, f"{rep.color_count} classes over budget {color_budget(big_d)}"))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 30.0
    report(6, "splitting bounded-degree graphs", ok, f"50 graphs (max degree <= 4, <= 40 vertices), {elapsed:.2f}s (limit 30s)")
    assert ok, failures[:3] or f"too slow: {elapsed:.2f}s"


def test_criterion_7_splitting_random_trees():
    """Forest splitting stays within max degree; stars are tight."""
    rng = random.Random(707)
    start = time.perf_counter()
    failures = []
    for i in range(50):
        g = random_tree(rng, rng.randint(2, 200))
        rep = color_classes(g, split_forest_into_matchings(g))
        if not rep.valid:
            failures.append((i, "verifier rejected the weighting"))
        if rep.color_count > g.max_degree():
            failures.append((i, f"{rep.color_count} classes exceed max degree {g.max_degree()}"))
    for leaves in (2, 5, 9):
        g = star_graph(leaves)
        rep = color_classes(g, split_forest_into_matchings(g))
        if not rep.valid or rep.color_count != leaves:
            failures.append(("star", leaves, rep.color_count))
    elapsed = time.perf_counter() - start
    ok = not failures
    report(7, "splitting trees within max degree", ok, f"50 trees (<= 200 vertices) + 3 stars, {elapsed:.2f}s")
    assert ok, failures[:3]


def test_criterion_8_brute_force_minimums():
    """Exhaustive search confirms the minimal class counts on tiny graphs."""
    start = time.perf_counter()
    got = (
        brute_force_min_colors(Graph(2, [(0, 1)]), 2, 1),
        brute_force_min_colors(path_graph(3), 3, 2),
        brute_force_min_colors(complete_graph(3), 3, 4),
    )
    elapsed = time.perf_counter() - start
    ok = got == (1, 2, 3) and elapsed < 120.0
    report(8, "brute-force minimums", ok, f"single edge/path/triangle -> {got}, {elapsed:.2f}s (limit 120s)")
    assert ok, got


def test_criterion_9_anti_ample_matches_degree_bound():
    """On forests, anti-ampleness is exactly n > max degree."""
    rng = random.Random(909)
    failures = []
    for i in range(50):
        g = random_tree(rng, rng.randint(1, 30))
        if rng.random() < 0.3:
            other = random_tree(rng, rng.randint(1, 10))
            shift = g.num_vertices
            g = Graph(
                g.num_vertices + other.num_vertices,
                list(g.edges) + [(lo + shift, hi + shift) for lo, hi in other.edges],
            )
        for n in range(1, 7):
            want = n > g.max_degree()
            if is_anti_ample(canonical_degrees(g, n)) != want:
                failures.append((i, n, g.max_degree()))
    ok = not failures
    report(9, "anti-ample iff n exceeds max degree", ok, "50 forests x 6 dimensions")
    assert ok, failures[:3]


def _run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


def test_criterion_10_cli_is_deterministic(tmp_path):
    """Every subcommand produces byte-identical output on repeated runs."""
    path3 = tmp_path / "path3.txt"
    path3.write_text("0 1\n1 2\n")
    c4 = tmp_path / "c4.txt"
    c4.write_text("0 1\n1 2\n2 3\n0 3\n")
    triangle = tmp_path / "k3.txt"
    triangle.write_text("0 1\n1 2\n0 2\n")

    point = tmp_path / "point.json"
    code, _, err = _run_cli(
        ["sample", "--graph", str(path3), "--form", "symplectic", "--dim", "4",
         "--seed", "7", "--out", str(point)]
    )
    assert code == 0, err
    singular = tmp_path / "singular.json"
    singular.write_text(
        json.dumps({"field": "Q", "vectors": {str(v): ["1", "0", "0", "0"] for v in range(4)}})
    )
    weighting = tmp_path / "weighting.json"
    code, _, err = _run_cli(["split", "--graph", str(triangle), "--out", str(weighting)])
    assert code == 0, err

    commands = {
        "analyze": ["analyze", "--graph", str(path3), "--form", "symplectic", "--dim", "4"],
        "sample": ["sample", "--graph", str(path3), "--form", "symplectic", "--dim", "4", "--seed", "7"],
        "check": ["check", "--graph", str(path3), "--form", "symplectic", "--dim", "4", "--point", str(point)],
        "certify": ["certify", "--graph", str(c4), "--form", "symplectic", "--dim", "4", "--point", str(singular)],
        "split": ["split", "--graph", str(triangle)],
        "split-tree": ["split-tree", "--graph", str(path3)],
        "verify-split": ["verify-split", "--graph", str(triangle), "--weighting", str(weighting)],
        "count": ["count", "--graph", str(path3), "--form", "symmetric", "--dim", "1", "--field", "Fp:3"],
        "equations": ["equations", "--graph", str(path3), "--form", "symplectic", "--dim", "2"],
    }
    failures = []
    for name, argv in commands.items():
        first = _run_cli(argv)
        second = _run_cli(argv)
        if first[0] != 0:
            failures.append((name, "exit code", first[0], first[2]))
        if first != second:
            failures.append((name, "output drifted between runs"))
    ok = not failures
    report(10, "CLI determinism", ok, f"{len(commands)} subcommands run twice")
    assert ok, failures[:3]
