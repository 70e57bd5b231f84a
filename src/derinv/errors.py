"""Exception types shared across the package."""

from __future__ import annotations


class DerinvError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(DerinvError):
    """Operands live in different ambient spaces or over different fields."""


class SingularMatrix(DerinvError):
    """Matrix inversion requested for a rank-deficient matrix."""


class SingularForm(DerinvError):
    """A bilinear form that must be non-degenerate is singular."""


class NotAssociative(DerinvError):
    """Structure constants fail associativity; args carry a witness triple."""


class NoUnit(DerinvError):
    """The declared unit vector is not a two-sided unit."""


class FormNotSymmetric(DerinvError):
    """Gram matrix of a symmetrizing form is not symmetric."""


class FormDegenerate(DerinvError):
    """Gram matrix of a symmetrizing form is singular."""


class FormNotAssociative(DerinvError):
    """(ab, c) != (a, bc) for some basis triple; args carry a witness."""


class FormRequired(DerinvError):
    """Operation needs a symmetrizing form but the algebra has none."""


class NotAGroup(DerinvError):
    """A multiplication table fails the group axioms."""


class DegeneratePairing(DerinvError):
    """The induced pairing Z(A) x A/KA is not square invertible."""


# Same failure mode one level up: the HH^m x HH_m pairing matrix.
PairingDegenerate = DegeneratePairing


class SizeCapExceeded(DerinvError):
    """A tensor-power matrix would exceed the configured entry cap."""

    def __init__(self, entries: int, cap: int, what: str = "matrix"):
        super().__init__(f"{what} needs {entries} entries, cap is {cap}")
        self.entries = entries
        self.cap = cap


class DegreeMismatch(DerinvError):
    """Chains/cochains of incompatible degrees were combined."""


class ParityViolation(DerinvError):
    """p-power operation requested outside its degree-parity regime."""


class InvariantViolation(DerinvError):
    """An internal exact identity that must hold failed; carries a witness."""


class MalformedDocument(DerinvError):
    """A JSON document violates the schema."""


class SchemaVersionMismatch(MalformedDocument):
    """A JSON document carries an unsupported schema_version."""


class Incomparable(DerinvError):
    """Signatures over different fields cannot be compared."""
