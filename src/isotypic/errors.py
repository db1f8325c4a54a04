"""Exception types shared across the package."""


class IsotypicError(Exception):
    """Base class for all package-specific errors."""


class InvalidPermutation(IsotypicError):
    """A generator is not a bijection on {0..degree-1}."""


class ClosureOverflow(IsotypicError):
    """Closure under multiplication exceeded the configured order cap."""


class CapExceeded(IsotypicError):
    """Input size exceeds a configured cap."""


class NotNormal(IsotypicError):
    """Subgroup is not normal where normality is required."""


class NotSubgroup(IsotypicError):
    """Subgroup/group mismatch in a restriction or induction."""


class GroupMismatch(IsotypicError):
    """Class functions live on different groups."""


class SplitFailure(IsotypicError):
    """The regular representation gave no valid matrix model of an irreducible."""


class NumericalDegeneracy(IsotypicError):
    """The averaged intertwiner is not finite, vanishes or misses the tolerance."""


class SnapFailure(IsotypicError):
    """A numeric scalar is too far from every allowed root of unity."""


class NonScalar(IsotypicError):
    """A matrix expected to be scalar by Schur's lemma is not."""


class NotATrivial(IsotypicError):
    """The distinguished normal subgroup moves a point of the base."""


class InvalidCocycle(IsotypicError):
    """A 2-cocycle table violates the cocycle identity or normalization."""


class NotPrime(IsotypicError):
    """Expected an odd prime."""


class NotOdd(IsotypicError):
    """Expected an odd number."""
