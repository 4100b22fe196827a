"""Exception types shared across the package."""


class PsdOrderError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(PsdOrderError):
    """Operands have incompatible shapes, or a matrix is not square."""


class NonConvergence(PsdOrderError):
    """An iterative routine exhausted its budget without meeting its tolerance."""


class NotPositiveSemidefinite(PsdOrderError):
    """A matrix required to be PSD has an eigenvalue below the tolerance floor."""

    rank_triple = None  # set by sim_congruence: the ranks of A, B and B - A it counted

    def __init__(self, message, min_eig=None):
        super().__init__(message)
        self.min_eig = min_eig


class NotMinusComparable(PsdOrderError):
    """Simultaneous reduction was requested for a pair that is not rank-subtractive."""

    rank_triple = None  # the ranks of A, B and B - A the decision counted


class SingularS(PsdOrderError):
    """A congruence transform matrix is singular to working precision."""


class InconsistentSamples(PsdOrderError):
    """Input/output samples cannot be explained by any single congruence."""


class ParseError(PsdOrderError):
    """A matrix or model file could not be parsed."""
