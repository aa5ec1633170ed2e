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
    SamplerConfig,
    UnsupportedCombinationError,
    VarietyContext,
    complete_bipartite_graph,
    cycle_graph,
    cycle_singular_point,
    degeneracy_order,
    is_member,
    is_smooth_point,
    path_graph,
    regular_part_test,
    sample_regular_point,
    standard_space,
    star_graph,
    verify_certificate,
    zero_point,
)
from oracles import random_connected_graph


class TestSamplerConfig:
    def test_defaults(self):
        cfg = SamplerConfig()
        assert cfg.seed == 0 and cfg.bound == 10 and cfg.max_retries == 64

    def test_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(bound=0)
        with pytest.raises(ValueError):
            SamplerConfig(max_retries=0)


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
            og, d = degeneracy_order(g)
            n = 2 * max(d, 1)
            for space in spaces_for(n):
                ctx = VarietyContext(g, space)
                pt = sample_regular_point(og, space, SamplerConfig(seed=3))
                assert is_member(ctx, pt)
                assert regular_part_test(og, pt)
                zero = space.field.zero()
                for v in range(g.num_vertices):
                    assert any(x != zero for x in pt.vectors[v])

    @given(st.integers(min_value=0, max_value=10**9))
    @settings(max_examples=30, deadline=None)
    def test_soundness_on_random_graphs(self, seed):
        rng = random.Random(seed)
        g = random_connected_graph(rng, rng.randint(2, 8), rng.randint(0, 4))
        og, d = degeneracy_order(g)
        n = 2 * max(d, 1) + (seed % 2)
        for space in spaces_for(n if n % 2 == 0 else n + 1, include_fp=False):
            pt = sample_regular_point(og, space, SamplerConfig(seed=seed % 1000))
            assert is_member(VarietyContext(g, space), pt)
            assert regular_part_test(og, pt)

    def test_determinism(self):
        og, _ = degeneracy_order(cycle_graph(6))
        sp = standard_space("symplectic", 4, RATIONALS)
        a = sample_regular_point(og, sp, SamplerConfig(seed=11))
        b = sample_regular_point(og, sp, SamplerConfig(seed=11))
        c = sample_regular_point(og, sp, SamplerConfig(seed=12))
        assert a == b
        assert a != c

    def test_dimension_precondition(self):
        og, d = degeneracy_order(complete_bipartite_graph(3, 3))
        assert d == 3
        sp = standard_space("symmetric", 5, RATIONALS)
        with pytest.raises(PreconditionViolatedError):
            sample_regular_point(og, sp)

    def test_small_field_precondition(self):
        og, _ = degeneracy_order(path_graph(3))
        sp = standard_space("symmetric", 2, PrimeField(2))
        with pytest.raises(PreconditionViolatedError):
            sample_regular_point(og, sp)
        # one prime higher clears the bar
        pt = sample_regular_point(og, standard_space("symmetric", 2, PrimeField(3)))
        assert is_member(VarietyContext(path_graph(3), standard_space("symmetric", 2, PrimeField(3))), pt)

    def test_retries_can_exhaust(self):
        # a single vertex over F_2 draws the zero vector half the time, so
        # with max_retries=1 some seed must fail
        og, _ = degeneracy_order(Graph(1, []))
        sp = standard_space("symmetric", 1, PrimeField(2))
        saw_failure = False
        for seed in range(64):
            try:
                sample_regular_point(og, sp, SamplerConfig(seed=seed, max_retries=1))
            except RetriesExhaustedError as err:
                assert err.vertex == 0
                assert err.attempts == 1
                saw_failure = True
                break
        assert saw_failure


class TestZeroPoint:
    def test_shape_and_membership(self):
        g = cycle_graph(4)
        sp = standard_space("symmetric", 3, RATIONALS)
        pt = zero_point(g, sp)
        assert pt.num_vertices == 4
        assert all(x == 0 for v in range(4) for x in pt.vectors[v])
        assert is_member(VarietyContext(g, sp), pt)


class TestCycleSingularPoint:
    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_symplectic(self, k):
        sp = standard_space("symplectic", 4, RATIONALS)
        pt, cert = cycle_singular_point(k, sp)
        ctx = VarietyContext(cycle_graph(k), sp)
        assert is_member(ctx, pt)
        assert not is_smooth_point(ctx, pt)
        assert verify_certificate(ctx, pt, cert)

    @pytest.mark.parametrize("k", [4, 6])
    def test_symmetric_hyperbolic(self, k):
        sp = standard_space("hyperbolic", 2, RATIONALS)
        pt, cert = cycle_singular_point(k, sp)
        ctx = VarietyContext(cycle_graph(k), sp)
        assert is_member(ctx, pt)
        assert not is_smooth_point(ctx, pt)
        assert verify_certificate(ctx, pt, cert)

    def test_symplectic_low_dimension_rejected(self):
        with pytest.raises(PreconditionViolatedError):
            cycle_singular_point(4, standard_space("symplectic", 2, RATIONALS))

    def test_symmetric_odd_cycle_rejected(self):
        with pytest.raises(UnsupportedCombinationError):
            cycle_singular_point(3, standard_space("hyperbolic", 2, RATIONALS))

    def test_symmetric_needs_isotropic_basis_vector(self):
        with pytest.raises(UnsupportedCombinationError):
            cycle_singular_point(4, standard_space("symmetric", 2, RATIONALS))

    def test_tiny_cycle_rejected(self):
        with pytest.raises(ValueError):
            cycle_singular_point(2, standard_space("symplectic", 4, RATIONALS))
