"""Exception hierarchy.

Every error carries a CLI exit code: 2 for domain/precondition violations,
3 for numeric non-convergence.
"""


class SliceRegularError(Exception):
    exit_code = 2


# --- domain / precondition errors (exit 2) ---

class NotInDomain(SliceRegularError):
    pass


class OnRealAxis(SliceRegularError):
    pass


class OnBoundary(SliceRegularError):
    pass


class OnCut(OnBoundary):
    pass


class EmptyInput(SliceRegularError):
    pass


class DomainMismatch(SliceRegularError):
    pass


class DegeneratePair(SliceRegularError):
    pass


class IdenticallyZero(SliceRegularError):
    pass


class ZeroPolynomial(IdenticallyZero):
    pass


class NotADivisor(SliceRegularError):
    pass


class NotVanishingOnCap(SliceRegularError):
    pass


class CapMismatch(SliceRegularError):
    pass


class CapTooSmall(SliceRegularError):
    pass


class UnitsEqual(SliceRegularError):
    pass


class RealTraceMismatch(SliceRegularError):
    pass


class NoAnnulus(SliceRegularError):
    pass


class OutsideConvergenceRegion(SliceRegularError):
    pass


class OpenContour(SliceRegularError):
    pass


class ProbeOutside(SliceRegularError):
    pass


class ProbeOutsideValidated(ProbeOutside):
    pass


class ParamOutOfRange(SliceRegularError):
    pass


class BadUnitChoice(SliceRegularError):
    pass


# --- numeric non-convergence (exit 3) ---

class NumericError(SliceRegularError):
    exit_code = 3


class MaxTermsExceeded(NumericError):
    pass
