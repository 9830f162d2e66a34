"""Exception types shared across the package."""


class HypergonError(Exception):
    """Base class for all package-specific errors."""


class OutOfRange(HypergonError):
    """An argument is outside the numerically supported range."""


class Infeasible(HypergonError):
    """No configuration with the requested data exists."""


class AmbiguousInput(HypergonError):
    """Wrong number of defining quantities supplied."""


class DegenerateTriangle(HypergonError):
    """Side lengths do not form a valid triangle."""


class InvalidPoint(HypergonError):
    """Coordinates do not lie on the unit hyperboloid sheet."""


class IdealVertex(HypergonError):
    """A polygon vertex escapes to the ideal boundary."""


class InvalidTotal(HypergonError):
    """A total-quantity argument is outside its admissible interval."""


class EvaluationFailure(HypergonError):
    """An objective could not be evaluated where it was needed."""


class OracleTooLarge(HypergonError):
    """Exhaustive grid search was requested for too many variables or points."""
