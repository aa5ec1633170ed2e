import hashlib
import inspect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphvariety import (
    Graph,
    PreconditionViolatedError,
    PrimeField,
    RATIONALS,
    RetriesExhaustedError,
    VarietyContext,
    VertexAssignment,
    WorkCapExceededError,
    degeneracy_order,
    field_from_spec,
    is_member,
    sample_regular_point,
    singular_certificate,
    standard_space,
    verify_certificate,
)
from graphvariety.linalg import solve
from graphvariety.sampling import _draw, _echelon_row, _reduce
from graphvariety.serialization import assignment_to_obj
from oracles import (canonical_text, complete_bipartite_graph, cycle_graph, cycle_singular_point, path_graph,
                     random_connected_graph, rank, reference_draw, regular_part_test,
                     point_key, space_from_rows, star_graph, vectors)


class TestSamplerConfig:
    """The sampler's seed, bound and max_retries arguments."""

    def test_defaults(self):
        defaults = inspect.signature(sample_regular_point).parameters
        assert [(name, defaults[name].default) for name in ("seed", "bound", "max_retries")] \
            == [("seed", 0), ("bound", 10), ("max_retries", 64)]

    def test_validation(self):
        g = path_graph(3)
        space = standard_space("symplectic", 4, RATIONALS)
        with pytest.raises(ValueError):
            sample_regular_point(g, space, bound=0)
        with pytest.raises(ValueError):
            sample_regular_point(g, space, max_retries=0)

    def test_entry_cap_is_checked_first(self):
        # 10^5 vertices at n = 256 hold 2.56e7 coordinates, past the 10^7 cap
        with pytest.raises(WorkCapExceededError):
            sample_regular_point(Graph(10**5, [(0, 1)]), standard_space("symplectic", 256),
                                 bound=0)


def spaces_for(n, include_fp=True):
    out = [standard_space("symmetric", n, RATIONALS)]
    if n % 2 == 0:
        out.append(standard_space("symplectic", n, RATIONALS))
        out.append(standard_space("hyperbolic", n, RATIONALS))
    if include_fp:
        out.append(standard_space("symmetric", n, PrimeField(101)))
        if n % 2 == 0:
            out.append(standard_space("symplectic", n, PrimeField(101)))
    return out


class TestSampler:
    def test_soundness_on_hand_graphs(self):
        graphs = [path_graph(4), cycle_graph(5), complete_bipartite_graph(2, 3), star_graph(4)]
        for g in graphs:
            _, d = degeneracy_order(g)
            n = 2 * max(d, 1)
            for space in spaces_for(n):
                ctx = VarietyContext(g, space)
                pt = sample_regular_point(g, space, seed=3)
                assert is_member(ctx, pt)
                assert regular_part_test(g, pt)
                # the stored integer form is the least one of its vectors
                assert point_key(VertexAssignment(space.field, vectors(pt))) == point_key(pt)
                zero = space.field(0)
                for v in range(g.num_vertices):
                    assert any(x != zero for x in vectors(pt)[v])

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30, deadline=None)
    def test_soundness_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 4))
        _, d = degeneracy_order(g)
        n = 2 * max(d, 1) + (seed % 2)
        for space in spaces_for(n if n % 2 == 0 else n + 1, include_fp=False):
            pt = sample_regular_point(g, space, seed=seed % 1000)
            assert is_member(VarietyContext(g, space), pt)
            assert regular_part_test(g, pt)

    def test_determinism(self):
        g = cycle_graph(6)
        sp = standard_space("symplectic", 4, RATIONALS)
        a = sample_regular_point(g, sp, seed=11)
        b = sample_regular_point(g, sp, seed=11)
        c = sample_regular_point(g, sp, seed=12)
        assert point_key(a) == point_key(b)
        assert point_key(a) != point_key(c)

    def test_dimension_precondition(self):
        g = complete_bipartite_graph(3, 3)
        _, d = degeneracy_order(g)
        assert d == 3
        sp = standard_space("symmetric", 5, RATIONALS)
        with pytest.raises(PreconditionViolatedError):
            sample_regular_point(g, sp)

    def test_small_field_precondition(self):
        g = path_graph(3)
        sp = standard_space("symmetric", 2, PrimeField(2))
        with pytest.raises(PreconditionViolatedError):
            sample_regular_point(g, sp)
        # one prime higher clears the bar
        pt = sample_regular_point(g, standard_space("symmetric", 2, PrimeField(3)))
        assert is_member(VarietyContext(path_graph(3), standard_space("symmetric", 2, PrimeField(3))), pt)

    def test_retries_can_exhaust(self):
        # a single vertex over F_2 draws the zero vector half the time, so
        # with max_retries=1 some seed must fail
        g = Graph(1, [])
        sp = standard_space("symmetric", 1, PrimeField(2))
        saw_failure = False
        for seed in range(64):
            try:
                sample_regular_point(g, sp, seed=seed, max_retries=1)
            except RetriesExhaustedError as err:
                assert str(err) == "no admissible draw for vertex 0 after 1 attempts"
                saw_failure = True
                break
        assert saw_failure


def grid_graph(rows, cols):
    edges = [(v, v + 1) for v in range(rows * cols) if (v + 1) % cols]
    edges += [(v, v + cols) for v in range((rows - 1) * cols)]
    return Graph(rows * cols, edges)


# a symplectic Gram with mixed denominators, so kernel bases are not integral
FRACTIONAL_GRAM = [["0", "1/2", "0", "3"], ["-1/2", "0", "2/3", "0"],
                   ["0", "-2/3", "0", "5/7"], ["-3", "0", "-5/7", "0"]]


class TestPinnedOutput:
    """sha256 of the canonical JSON of `sample` output, recorded from the
    sampler that drew on field scalars and re-ranked each partial family
    with a dense rank; the integer sampler must reproduce it byte
    for byte.  The comments name the rejections that fired in that run."""

    GRAPHS = {"grid3": grid_graph(3, 3), "grid6": grid_graph(6, 6),
              "K33": complete_bipartite_graph(3, 3)}
    CASES = [
        # graph, form, n, field, seed, bound, digest
        ("grid3", "symplectic", 4, "Q", 1, 1,  # one dependent draw
         "8e9e6a63ffa93a4798e44c19f989144cf5baa2e223bdba2fe9115b699d36ab22"),
        ("grid3", "fractional", 4, "Q", 0, 1,  # one zero draw
         "008d681204228da294df3160fed181e7c2c90f8e4e67b9b9f318ff3ee5f38eb8"),
        ("grid6", "symplectic", 8, "Q", 0, 10,
         "d9f304d586e41f8725880fd0a4b319565fd1b22eb0c02f69a5b791935b9469db"),
        ("K33", "symmetric", 6, "Q", 2, 10,
         "d4400c63733b35aab69284ff8b59c52d36d317255b5c023f037409081b259f46"),
        ("grid3", "symmetric", 4, "Fp:5", 1, 10,  # one zero and three dependent draws
         "83a8036c325bd9cbc226752fb1d948f339f121e2835876ecc623679ec3d02a2a"),
        ("K33", "symplectic", 6, "Fp:101", 0, 10,
         "f43f19ed40fd773d843d6a1dac37f77da2430900339d9be72b1aebfeb94ccde9"),
        ("grid6", "hyperbolic", 8, "Fp:10007", 3, 10,
         "d2be84f7dc1797d8139e9efe6152c958f1ebade04bb3bf97749d3f2e5c7c37c0"),
    ]

    @pytest.mark.parametrize("name,form,n,spec,seed,bound,digest", CASES)
    def test_sample_output_is_unchanged(self, name, form, n, spec, seed, bound, digest):
        field = field_from_spec(spec)
        if form == "fractional":
            space = space_from_rows("symplectic", [[field(x) for x in row] for row in FRACTIONAL_GRAM],
                                    field)
        else:
            space = standard_space(form, n, field)
        pt = sample_regular_point(self.GRAPHS[name], space, seed=seed, bound=bound)
        text = canonical_text(assignment_to_obj(pt))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestPivotDraw:
    """The draw solved on the constraint echelon against the draw on
    `perp`'s basis, `oracles.reference_draw`."""

    @staticmethod
    def space(rng):
        kind = rng.randrange(6)
        if kind == 0:  # a symplectic Gram with mixed denominators: L > 1
            return space_from_rows("symplectic", [[RATIONALS(x) for x in row]
                                                  for row in FRACTIONAL_GRAM])
        if kind == 1:
            return standard_space(rng.choice(["symplectic", "symmetric"]),
                                  2 * rng.randint(1, 4), RATIONALS)
        if kind == 2:
            return standard_space(rng.choice(["symmetric", "hyperbolic"]), 2 * rng.randint(1, 3),
                                  PrimeField(2))
        field = PrimeField(5 if kind < 5 else 10007)
        return standard_space(rng.choice(["symplectic", "symmetric", "hyperbolic"]),
                              2 * rng.randint(1, 4), field)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_same_candidate_and_rng_state(self, seed):
        rng = random.Random(seed)
        space = self.space(rng)
        n, p = space.n, space.field.p
        vectors = []
        for _ in range(rng.randint(0, n - 1)):  # ranks 0 to n - 1
            if vectors and rng.random() < 0.3:  # a combination of earlier constraints
                x = [sum(rng.randint(-3, 3) * v[i] for v in vectors) for i in range(n)]
            else:
                x = [rng.randint(-9, 9) for _ in range(n)]
            vectors.append(x if p is None else [a % p for a in x])
        bound = rng.choice([1, 3, 10])
        ours, theirs = random.Random(seed), random.Random(seed)
        system = solve([space._image(u) for u in vectors], n, p)
        expected, denominator = reference_draw(space, vectors, theirs, bound)
        for _ in range(3):  # as the retries draw again on one system
            assert _draw(system, n, ours, bound, p) == expected
            assert ours.getstate() == theirs.getstate()
            expected = reference_draw(space, vectors, theirs, bound)[0]
        assert system[1] == denominator


class TestEchelonRows:
    @given(st.integers(min_value=0, max_value=10**9), st.sampled_from([None, 2, 3, 5, 7]))
    @settings(max_examples=60, deadline=None)
    def test_reduction_agrees_with_rank(self, seed, p):
        """Feed a family one vector at a time, as the sampler does: the
        remainder is nonzero exactly when the vector is independent of those
        kept so far, by the dense oracle rank,
        and any nonzero multiple of the vector gets the same answer."""
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        field = RATIONALS if p is None else PrimeField(p)
        kept, rows = [], []
        for _ in range(rng.randint(1, 8)):
            if kept and rng.random() < 0.4:  # a combination of kept vectors
                x = [sum(rng.randint(-3, 3) * v[i] for v in kept) for i in range(n)]
            else:
                x = [rng.randint(-9, 9) for _ in range(n)]
            scale = rng.choice([-6, -1, 1, 2, 35])
            if p is not None:
                x = [a % p for a in x]
                scale %= p
                if scale == 0:
                    scale = 1
            scaled = [a * scale if p is None else a * scale % p for a in x]
            family = [[field(a) for a in v] for v in kept + [x]]
            independent = rank(field, family) == len(family)
            rest = _reduce(x, rows, p)
            assert any(rest) == independent
            assert any(_reduce(scaled, rows, p)) == independent
            if independent:
                assert all(rest[c] == 0 for c, _ in rows)
                rows.append(_echelon_row(rest, p))
                kept.append(x)


class TestZeroPoint:
    def test_shape_and_membership(self):
        g = cycle_graph(4)
        sp = standard_space("symmetric", 3, RATIONALS)
        pt = VertexAssignment(sp.field, [[0] * 3] * 4)
        assert pt.num_vertices == 4
        assert all(x == 0 for v in range(4) for x in vectors(pt)[v])
        assert is_member(VarietyContext(g, sp), pt)


class TestCycleSingularPoint:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_symplectic(self, k):
        sp = standard_space("symplectic", 4, RATIONALS)
        ctx, pt = VarietyContext(cycle_graph(k), sp), cycle_singular_point(k, sp)
        assert is_member(ctx, pt)
        cert = singular_certificate(ctx, pt)
        assert cert is not None
        assert verify_certificate(ctx, pt, cert)

    @pytest.mark.parametrize("k", [4, 6])
    def test_symmetric_hyperbolic(self, k):
        sp = standard_space("hyperbolic", 2, RATIONALS)
        ctx, pt = VarietyContext(cycle_graph(k), sp), cycle_singular_point(k, sp)
        assert is_member(ctx, pt)
        cert = singular_certificate(ctx, pt)
        assert cert is not None
        assert verify_certificate(ctx, pt, cert)

    # 54 cases: symplectic n = 4, 6 with k = 3..8 and hyperbolic n = 2, 4
    # with k = 4, 6, 8, each over Q, F_3 and F_7
    @pytest.mark.parametrize("field", [RATIONALS, PrimeField(3), PrimeField(7)],
                             ids=lambda f: f.name)
    @pytest.mark.parametrize("form,n,ks", [
        ("symplectic", 4, range(3, 9)),
        ("symplectic", 6, range(3, 9)),
        ("hyperbolic", 2, (4, 6, 8)),
        ("hyperbolic", 4, (4, 6, 8)),
    ])
    def test_certificate_equals_sign_formulas(self, field, form, n, ks):
        # the hand-derived weights: symplectic +1 along the consecutive edges
        # and -1 on the wrap-around edge; symmetric alternating in sign
        space = standard_space(form, n, field)
        for k in ks:
            ctx = VarietyContext(cycle_graph(k), space)
            cert = singular_certificate(ctx, cycle_singular_point(k, space))
            if form == "symplectic":
                values = [1 if hi == lo + 1 else -1 for lo, hi in cert.edges]
            else:
                values = [(-1) ** lo if hi == lo + 1 else -1 for lo, hi in cert.edges]
            assert cert.edges == cycle_graph(k).edges
            assert cert.values == tuple(map(field, values))
