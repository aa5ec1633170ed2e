"""Constructive point generation on the variety.

`sample_regular_point` walks the vertices from the oldest down.  Each new
vector is drawn from the orthogonality kernel determined by the already
assigned older neighbors, then rejected if it is zero or if it lands in the
span of some partially assembled older-neighbor family of a younger vertex.
Every accepted run therefore satisfies membership and the regular-part test
by construction, and both are still re-checked by independent code in the
variety module.

`cycle_singular_point` and `zero_point` produce the known singular points:
a cycle with every vertex carrying one fixed self-orthogonal vector, and the
origin.
"""

import random
from dataclasses import dataclass

from .errors import (
    PreconditionViolatedError,
    RetriesExhaustedError,
    UnsupportedCombinationError,
)
from .graphs import cycle_graph
from .linalg import kernel, vectors_independent
from .variety import SingularityCertificate, VertexAssignment, edge_gradient


@dataclass(frozen=True)
class SamplerConfig:
    seed: int = 0
    bound: int = 10
    max_retries: int = 64

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError("bound must be at least 1")
        if self.max_retries < 1:
            raise ValueError("max_retries must be at least 1")


def _draw(field, basis, rng, bound):
    """A random kernel element: integer coordinates in [-bound, bound] over
    the rationals, uniform residues over a prime field."""
    n = len(basis[0])
    acc = [field.zero()] * n
    for basis_vec in basis:
        if field.p is None:
            c = field(rng.randint(-bound, bound))
        else:
            c = rng.randrange(field.p)
        acc = [a + c * b for a, b in zip(acc, basis_vec)]
    return [field(x) for x in acc]


def sample_regular_point(og, space, cfg=None):
    """A member point of the variety lying in the regular part of the order.

    Needs n >= 2 * width(og) so the admissible kernels always have room
    outside the finitely many bad subspaces.  Over a prime field, p must
    exceed the number of rejection conditions at every vertex; otherwise the
    draw could fail forever and we error out up front instead.
    """
    if cfg is None:
        cfg = SamplerConfig()
    g = og.graph
    field = space.field
    d = og.width()
    if space.n < 2 * d:
        raise PreconditionViolatedError(
            f"need dimension >= {2 * d} for width {d}, got {space.n}"
        )
    if field.p is not None:
        worst = max(
            (len(og.younger_neighbors(v)) + 1 for v in range(g.num_vertices)),
            default=0,
        )
        if field.order <= worst:
            raise PreconditionViolatedError(
                f"prime field too small: need p > {worst}, got {field.order}"
            )
    rng = random.Random(cfg.seed)
    vectors = {}
    # oldest vertex first
    for v in reversed(og.order):
        older = og.older_neighbors(v)
        rows = [edge_gradient(space, v, u, vectors[u]) for u in older]
        basis = kernel(rows, space.n, field.p)
        accepted = None
        for _ in range(cfg.max_retries):
            candidate = _draw(field, basis, rng, cfg.bound)
            if all(x == 0 for x in candidate):
                continue
            if _breaks_independence(og, v, candidate, vectors, field, space.n):
                continue
            accepted = candidate
            break
        if accepted is None:
            raise RetriesExhaustedError(v, cfg.max_retries)
        vectors[v] = accepted
    return VertexAssignment(field, [vectors[v] for v in range(g.num_vertices)])


def _breaks_independence(og, v, candidate, vectors, field, n):
    """Whether giving v this vector spoils an older-neighbor family.

    For each younger neighbor y of v, the already assigned part of y's
    older-neighbor set, now including v, must stay linearly independent.
    Checking this at every assignment step covers the full families by the
    time they are complete.
    """
    for y in og.younger_neighbors(v):
        partial = [vectors[u] for u in og.older_neighbors(y) if u in vectors]
        if not vectors_independent(field, partial + [candidate], n):
            return True
    return False


def zero_point(graph, space):
    """The origin: always a member, singular as soon as the graph has an edge."""
    return VertexAssignment.zero(space.field, graph.num_vertices, space.n)


def cycle_singular_point(k, space):
    """The all-equal singular point on the k-cycle, with its certificate.

    Symplectic: any k >= 3, n >= 4; every vertex carries the first basis
    vector, and the edge weights are +1 along the consecutive edges and -1 on
    the wrap-around edge (all-ones against the cyclic orientation).

    Symmetric: k must be even and the Gram matrix must expose an isotropic
    basis vector (the hyperbolic standard space does); every vertex carries
    that vector and the weights alternate in sign around the cycle.
    """
    if k < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    g = cycle_graph(k)
    field = space.field
    if space.kind == "symplectic":
        if space.n < 4:
            raise PreconditionViolatedError(
                "symplectic cycle points need dimension >= 4"
            )
        idx = 0
        values = tuple(
            field(1) if hi == lo + 1 else field(-1) for lo, hi in g.edges
        )
    else:
        if k % 2 != 0:
            raise UnsupportedCombinationError(
                "symmetric cycle points need an even cycle"
            )
        idx = space.isotropic_basis_vector()
        if idx is None:
            raise UnsupportedCombinationError(
                "no isotropic basis vector in this symmetric space"
            )
        values = tuple(
            field((-1) ** lo) if hi == lo + 1 else field(-1) for lo, hi in g.edges
        )
    vec = [field.zero()] * space.n
    vec[idx] = field.one()
    assignment = VertexAssignment(field, [vec] * k)
    certificate = SingularityCertificate(edges=g.edges, values=values)
    return assignment, certificate
