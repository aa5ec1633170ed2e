"""Every scalar the package hands out is a reduced field element: an int in
[0, p) over F_p, a Fraction over Q."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from graphvariety import (
    PrimeField,
    RATIONALS,
    VarietyContext,
    residual,
    sample_regular_point,
    singular_certificate,
    standard_space,
)
from oracles import cycle_graph, cycle_singular_point, dot, field_kernel, jacobian, vectors


def assert_reduced(field, scalars):
    for x in scalars:
        if field.p is None:
            assert type(x) is Fraction, x
        else:
            assert type(x) is int and 0 <= x < field.p, x


@given(
    st.sampled_from([RATIONALS] + [PrimeField(p) for p in (2, 3, 5, 7, 101, 10007)]),
    st.integers(min_value=0, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_every_returned_scalar_is_reduced(field, seed):
    rng = random.Random(seed)
    raw = [rng.randint(-3 * 10**4, 3 * 10**4) for _ in range(12)]
    coerced = [field(x) for x in raw] + [field(str(x)) for x in raw]
    assert_reduced(field, coerced + [field.zero(), field(1)])

    u, v = coerced[:4], coerced[4:8]
    assert_reduced(field, [dot(field, u, v)])
    m = [coerced[0:4], coerced[4:8], [field(a + b) for a, b in zip(u, v)]]
    assert_reduced(field, [dot(field, row, coerced[8:12]) for row in m])
    for vec in field_kernel(m, 4, field.p):
        assert_reduced(field, vec)

    space = standard_space("hyperbolic", 4, field)
    assert_reduced(field, space.gram_times(u) + space.gram_transpose_times(u))
    g = cycle_graph(4)
    ctx = VarietyContext(g, space)
    point = cycle_singular_point(4, space)
    cert = singular_certificate(ctx, point)
    assert_reduced(field, cert.values)
    points = [point]
    if field.p is None or field.p > 3:
        points.append(sample_regular_point(g, space, seed=seed))
    for w in points:
        for vec in vectors(w):
            assert_reduced(field, vec)
        assert_reduced(field, residual(ctx, w))
        for row in jacobian(ctx, w):
            assert_reduced(field, row)
