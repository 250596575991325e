"""Exception types shared across the package."""


class CStarHodgeError(Exception):
    """Base class for every error raised by this package."""


class SpecMismatch(CStarHodgeError):
    """Operands live over incompatible algebras, modules, or shapes."""


class NotAComplex(SpecMismatch):
    """Differentials do not compose to zero; index names the failing summand of a stack."""

    def __init__(self, message: str, index=None):
        super().__init__(message)
        self.index = index


class ProjectionLeak(SpecMismatch):
    """A map leaves its projective modules: R_b differs from P_source,b R_b P_target,b.

    index names the failing summand of a stack and degree its map.
    """

    def __init__(self, residual: float, index=None, degree=None):
        super().__init__(
            f"map leaks outside its modules' projections: R = P_source R P_target "
            f"off by {residual:.3e} relative"
        )
        self.index = index
        self.degree = degree


class IndexOutOfRange(CStarHodgeError, IndexError):
    """Degree index lies outside the complex."""


class DegreeMismatch(CStarHodgeError):
    """A parametrix family does not cover the degrees of its complex."""


class NotACocycle(CStarHodgeError):
    """Vector fails the cocycle condition beyond tolerance."""


class ZeroCoefficient(CStarHodgeError):
    """Weighted symbol Laplacian needs both weights nonzero."""


class EmptySampleSet(CStarHodgeError):
    """An ellipticity scan needs at least one symbol sample."""


class HypothesisViolated(CStarHodgeError):
    """Derivative order too high for the Sobolev index: the constant diverges."""


class GeometryMismatch(CStarHodgeError):
    """Sections disagree in torus geometry or form degree."""


class ParseError(CStarHodgeError):
    """Input file malformed."""


class ValidationError(CStarHodgeError):
    """Input parsed but violates a structural invariant."""
