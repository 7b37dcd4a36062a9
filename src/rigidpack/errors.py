"""Exception types shared across the package.

The CLI maps these onto its exit-code contract: bad input is exit 2,
guardrail refusals are exit 3.
"""


class RigidpackError(Exception):
    """Base class for all errors raised by this package."""


class GraphInputError(RigidpackError):
    """Malformed graph data, out-of-range ids, or invalid parameters."""


class LimitExceededError(RigidpackError):
    """An instance was refused because it exceeds a fixed guardrail: the
    vertex bound of a graph file, or the size of an exhaustive scan."""
