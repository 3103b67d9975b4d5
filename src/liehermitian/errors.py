"""Exception types shared across the package.

Each class declares the exit code the command line returns for it in
its ``exit_code`` attribute: 2 for malformed input (ParseError,
ParameterDomain, DimensionMismatch, IndexOutOfRange, DuplicateEntry,
AntisymmetryViolation, NotUnitary, InvalidDegree), 3 for well-formed
input that fails a structural requirement (InvalidAlgebra,
IntegrabilityViolation, NotUnimodular, NegativeLambda), 4 for a closed
form that disagrees with the tensor engine (CrossCheckFailure), and 1,
the base class's code, for everything else (PatternMismatch,
NotAstheno, NonFiniteValue).
"""


class LieHermitianError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class IndexOutOfRange(LieHermitianError):
    exit_code = 2


class DuplicateEntry(LieHermitianError):
    exit_code = 2


class AntisymmetryViolation(LieHermitianError):
    exit_code = 2


class DimensionMismatch(LieHermitianError):
    exit_code = 2


class NotUnitary(LieHermitianError):
    exit_code = 2


class InvalidDegree(LieHermitianError):
    exit_code = 2


class InvalidAlgebra(LieHermitianError):
    """Raised when an operation requires the Jacobi identity to hold and it does not."""

    exit_code = 3


class PatternMismatch(LieHermitianError):
    """Structure constants do not fit the requested sparsity pattern."""

    def __init__(self, message, offending=None):
        super().__init__(message)
        self.offending = offending


class IntegrabilityViolation(LieHermitianError):
    """Codimension-two data fails its quadratic compatibility equations."""

    exit_code = 3

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = residuals


class NegativeLambda(LieHermitianError):
    exit_code = 3


class ParameterDomain(LieHermitianError):
    exit_code = 2


class NotUnimodular(LieHermitianError):
    exit_code = 3


class CrossCheckFailure(LieHermitianError):
    """A closed-form value disagreed with the general tensor engine.

    Carries both residuals so a report can show what disagreed and by
    how much.
    """

    exit_code = 4

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

    exit_code = 2
