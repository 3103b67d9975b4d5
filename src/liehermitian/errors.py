"""Exception types shared across the package."""


class LieHermitianError(Exception):
    """Base class for all errors raised by this package."""


class IndexOutOfRange(LieHermitianError):
    pass


class DuplicateEntry(LieHermitianError):
    pass


class AntisymmetryViolation(LieHermitianError):
    pass


class DimensionMismatch(LieHermitianError):
    pass


class NotUnitary(LieHermitianError):
    pass


class InvalidDegree(LieHermitianError):
    pass


class InvalidAlgebra(LieHermitianError):
    """Raised when an operation requires the Jacobi identity to hold and it does not."""


class PatternMismatch(LieHermitianError):
    """Structure constants do not fit the requested sparsity pattern."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class IntegrabilityViolation(LieHermitianError):
    """Codimension-two data fails its quadratic compatibility equations."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class NegativeLambda(LieHermitianError):
    pass


class ParameterDomain(LieHermitianError):
    pass


class NotUnimodular(LieHermitianError):
    pass


class CrossCheckFailure(LieHermitianError):
    """A closed-form value disagreed with the general tensor engine.

    Carries both residuals so a report can show what disagreed and by
    how much.
    """

    def __init__(self, message, name=None, closed=None, engine=None):
        super().__init__(message)
        self.name = name
        self.closed = closed
        self.engine = engine


class NotAstheno(LieHermitianError):
    """Eigenvalue certificate for the astheno-Kahler condition failed.

    ``clause`` names the first failing requirement.
    """

    def __init__(self, message, clause=None):
        super().__init__(message)
        self.clause = clause


class NonFiniteValue(LieHermitianError, ValueError):
    """A value overflowed to inf or NaN, which a JSON report cannot carry."""


class ParseError(LieHermitianError):
    """Input file could not be parsed or fails schema validation."""
