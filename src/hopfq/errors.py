"""Exception hierarchy for hopfq.

Two families matter to callers: ValidationError (bad input, CLI exit code 2)
and InternalInconsistencyError (a derived quantity contradicts a ground-truth
check, CLI exit code 3).  Everything inherits from HopfqError.
"""

from __future__ import annotations


class HopfqError(Exception):
    """Base class for all hopfq errors."""


class ValidationError(HopfqError):
    """Input fails a documented precondition."""


# ---- linear algebra ----

class ZeroMatrixError(ValidationError):
    """Matrix of all zeros where a nonzero matrix is required."""


class RankDeficientError(ValidationError):
    """Matrix does not have full column rank."""


# ---- Pell equations and quadratic forms ----

class SquareDiscriminantError(ValidationError):
    """Fundamental unit requested for a perfect-square (or non-positive) D."""


class NotReducedError(ValidationError):
    """Indefinite form is not reduced."""


class BadDiscriminantError(ValidationError):
    """Form discriminant is non-positive or a perfect square."""


class EvenModulusError(ValidationError):
    """Jacobi symbol requested with an even (or non-positive) modulus."""


# ---- field parameters ----

class NotSquarefreeError(ValidationError):
    """An integer that must be squarefree is not."""

    def __init__(self, value: int):
        self.value = value
        super().__init__(f"{value} is not squarefree")


class NotCoprimeError(ValidationError):
    """Two integers that must be coprime share a factor."""


class NonPositiveError(ValidationError):
    """A parameter that must be positive is zero or negative."""


class EvenParameterError(ValidationError):
    """A parameter that must be odd is even."""


class DegenerateProductError(ValidationError):
    """Biquadratic radicands whose product radicand collapses to 0 or 1."""


# ---- Hopf structure plumbing ----

class SingularDescriptorError(ValidationError):
    """Integral-basis descriptor matrix is not invertible."""


class GramFormatError(ValidationError):
    """Custom Gram-matrix file does not parse."""


class InternalInconsistencyError(HopfqError):
    """A computed result contradicts an independent ground-truth check."""
