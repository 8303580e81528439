"""Exception types shared across the package."""


class PhaseMinError(Exception):
    """Base class for all errors raised by this package."""


class DimensionError(PhaseMinError):
    """A matrix or vector has an incompatible or non-even dimension."""


class NotPositiveDefinite(PhaseMinError):
    """A matrix required to be positive definite is not.

    The offending eigenvalue, the smallest or one beyond the float range, is
    stored as ``eigenvalue``.
    """

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class NotSemidefinite(PhaseMinError):
    """A matrix required to be positive semidefinite has a genuinely negative eigenvalue."""

    def __init__(self, message, eigenvalue=None):
        super().__init__(message)
        self.eigenvalue = eigenvalue


class DegenerateMoments(PhaseMinError):
    """A second-moment matrix is singular where a definite one is required."""


class EmptyDistribution(PhaseMinError):
    """A distribution carries no mass."""


class NumericalInstability(PhaseMinError):
    """A numerical routine failed to reach its certified accuracy."""


class CellCapExceeded(PhaseMinError):
    """A request would allocate more than its cap: a lattice refinement's
    cells, or a sweep's points.

    Carries the ``requested`` and ``cap`` counts; ``need`` words the request.
    """

    def __init__(self, requested, cap, need="refinement needs {} cells"):
        super().__init__(f"{need.format(requested)}, exceeding the cap of {cap}")
        self.requested = requested
        self.cap = cap


class SchemaError(PhaseMinError):
    """An input file violates the documented schema.

    ``path`` locates the offending field as a JSON pointer, e.g. ``/potential/V``.
    """

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path
