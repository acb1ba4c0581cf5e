"""Exception hierarchy for domain-level failures.

Violations that are *data* (axiom check reports, simplicity verdicts) are not
exceptions; only contract breaches and out-of-scope inputs raise.
"""


class ColorLieError(Exception):
    """Base class for all domain errors."""


class DimensionMismatch(ColorLieError):
    pass


class NotARepresentation(ColorLieError):
    """Module matrices that fail the color-homomorphism or graded-module
    check of is_representation."""


class NotClosed(ColorLieError):
    """A commutator of basis matrices leaves their span."""

    def __init__(self, i, j, residual):
        self.pair = (i, j)
        self.residual = residual
        super().__init__(f"commutator of basis matrices {i},{j} leaves the span")


class HintInvalid(ColorLieError):
    pass


class AutoSearchFailed(ColorLieError):
    pass


class IrrationalEigenvalue(ColorLieError):
    """A characteristic/minimal polynomial has an irreducible factor of
    degree >= 2 over Q(i); the input is outside exact-arithmetic scope."""


class PairingDegenerate(ColorLieError):
    pass


class DegenerateOrder(ColorLieError):
    pass


class NotSelfCentralizing(ColorLieError):
    pass


class NonIntegralWeight(ColorLieError):
    pass


class DecompositionIncomplete(ColorLieError):
    pass


class UngradedFirstFactor(ColorLieError):
    pass


class SingularForm(ColorLieError):
    pass


class CertificateFailed(ColorLieError):
    """An exact identity the theory guarantees did not hold on the input."""
