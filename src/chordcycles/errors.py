"""Exception types shared across the package."""


class GraphError(Exception):
    """Base class for every error raised by this package."""


class ParseError(GraphError):
    """Malformed textual input; the message carries the offending line number."""


class ValidationError(GraphError):
    """Structurally invalid argument: bad parameters, foreign edges, loops."""


class PreconditionError(GraphError):
    """An operation's entry condition does not hold (degree or density)."""


class SizeGuardExceeded(GraphError):
    """A brute-force size guard tripped.  Raise the guard explicitly to proceed."""


class InternalInvariantError(GraphError):
    """A guaranteed invariant failed; this indicates a bug, not bad input."""


class ClosureShortfall(GraphError):
    """The rotation worklist reached a fixpoint below the required active count.

    The finished closure is attached so callers can dump it for diagnosis or
    hand the instance to the exhaustive enumeration.
    """

    def __init__(self, message, closure):
        super().__init__(message)
        self.closure = closure
