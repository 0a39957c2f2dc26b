"""Exception hierarchy for ccrlab."""


class CcrError(Exception):
    """Base class for all ccrlab errors."""


class DimensionMismatch(CcrError):
    pass


class NotHermitian(CcrError):
    pass


class NotNormal(CcrError):
    pass


class NotNormalized(CcrError):
    pass


class NotTraceless(CcrError):
    pass


class TrivialMatrix(CcrError):
    pass


class RepeatedBValue(CcrError):
    pass


class ZeroEigenvalueRequested(CcrError):
    pass


class CommutingPair(CcrError):
    pass


class ConstraintViolated(CcrError):
    pass


class DegenerateSpectrum(CcrError):
    pass


class PurelyDegenerate(CcrError):
    pass


class TooSmall(CcrError):
    pass


class NoCanonicalEigenvalue(CcrError):
    pass


class FamilyConstraintViolated(CcrError):
    pass


class NotHermitianPair(CcrError):
    pass


class StateOutsideDomain(CcrError):
    pass


class BasePointNotInvariant(CcrError):
    pass


class EmptyInput(CcrError):
    pass


class NonPositiveValue(CcrError):
    pass
