"""Exception types shared across the package."""


class GraphError(ValueError):
    """Base class for graph-related failures."""


class ParseError(GraphError):
    """Malformed graph file.  Carries the 1-based line number."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class NotAtMostLogarithmic(GraphError):
    """A subgraph with positive degree of divergence was found.

    ``witness`` is the offending edge-index set.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class AdaptedTreeNotFound(GraphError):
    """No adapted spanning tree exists for the requested family.

    ``witness`` names a family member whose restriction fails.
    """

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class NotPrimitiveError(GraphError):
    """Operation defined only for primitive divergent graphs."""

