"""Exact tools for orthogonality varieties of graphs.

Given a graph and a non-degenerate bilinear form, the variety of interest
consists of all vertex-to-vector assignments whose endpoint vectors pair to
zero along every edge.  This package builds those varieties over exact
fields, certifies smooth and singular points through Jacobian rank and
explicit edge-weight certificates, samples regular points, counts points
over prime fields, and constructs verified splittings of graphs into
matchings via integer vertex weightings.
"""

from .bilinear import BilinearSpace, standard_space
from .counting import (
    DEFAULT_WORK_CAP,
    CountReport,
    CountRequest,
    count_points,
    edge_count_closed_form,
)
from .errors import (
    BoundTooSmallError,
    DisconnectedGraphError,
    GraphVarietyError,
    InternalConflictError,
    NotAForestError,
    NotOnVarietyError,
    OddDimensionError,
    PreconditionViolatedError,
    RetriesExhaustedError,
    UnsupportedCombinationError,
    WorkCapExceededError,
)
from .fields import RATIONALS, PrimeField, RationalField, field_from_spec
from .graphs import (
    Graph,
    bfs_layers,
    connected_components,
    degeneracy_order,
    has_even_cycle,
    induced_subgraph_with_map,
    is_forest,
    parse_edge_list,
    proper_vertex_numbering,
)
from .sampling import sample_regular_point
from .splitting import (
    EdgeVerdict,
    SplittingReport,
    VertexWeighting,
    color_budget,
    color_classes,
    palette,
    split_forest_into_matchings,
    split_into_matchings,
)
from .variety import (
    SingularityCertificate,
    VarietyContext,
    VertexAssignment,
    canonical_degrees,
    expected_dimension,
    is_anti_ample,
    is_member,
    projective_smoothness,
    residual,
    singular_certificate,
    verify_certificate,
)

__version__ = "0.1.0"
