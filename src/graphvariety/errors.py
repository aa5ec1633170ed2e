"""Exception types shared across the package.

Every error a caller is expected to handle derives from GraphVarietyError so
that the CLI can map the whole family onto machine-readable error reports.
"""


class GraphVarietyError(Exception):
    """Base class for all package-specific errors."""


class DisconnectedGraphError(GraphVarietyError):
    """An operation requiring a connected graph was given a disconnected one."""


class BoundTooSmallError(GraphVarietyError):
    """A numbering or palette bound is too small for the given graph."""


class OddDimensionError(GraphVarietyError):
    """A construction requiring even dimension was asked for an odd one."""


class NotOnVarietyError(GraphVarietyError):
    """A point-level operation was applied to an assignment that is not a member."""


class RetriesExhaustedError(GraphVarietyError):
    """The rejection sampler failed to find an admissible vector for a vertex."""


class PreconditionViolatedError(GraphVarietyError):
    """A documented precondition of an operation does not hold."""


class UnsupportedCombinationError(GraphVarietyError):
    """The requested combination of form kind, field, and dimension is not supported."""


class WorkCapExceededError(GraphVarietyError):
    """An enumeration would exceed its configured work cap.

    The estimate is an int, or a power too large to print given as the pair
    (base, exponent), which the message shows as base^exponent.
    """

    def __init__(self, estimate, cap, advice=""):
        shown = "{}^{}".format(*estimate) if isinstance(estimate, tuple) else estimate
        super().__init__(f"estimated work {shown} exceeds cap {cap}{advice}")


class NotAForestError(GraphVarietyError):
    """A forest-only operation was given a graph containing a cycle."""


class InternalConflictError(GraphVarietyError):
    """The matching-splitting construction ran out of colors despite retries."""
