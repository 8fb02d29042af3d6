"""Exception types raised by the library."""


class XapproxError(Exception):
    """Base class for all library-specific errors."""


class InvalidSigma(XapproxError, ValueError):
    """Power-measure exponent outside (0, 2) or equal to 1."""


class InvalidPointMass(XapproxError, ValueError):
    """Point-mass list empty, non-increasing, or with bad lambda/weight."""


class QuadratureNonConvergence(XapproxError, ArithmeticError):
    """A quadrature rule failed to meet its tolerance."""


class SeriesNonConvergence(XapproxError, ArithmeticError):
    """Cardinal series not finite (cosh pi Im w overflows beyond |Im w| ~ 226),
    or asked at |Re w| above 2^20."""


class NonFinitePoint(XapproxError, ValueError):
    """A point x of the circle R/Z is nan or infinite: it has no place mod 1."""


class DivergentAtZero(XapproxError, ValueError):
    """Periodized target is +infinity at x = 0 (mod 1) for this measure."""


class UnknownCheckName(XapproxError, KeyError):
    """Certification check name not present in the registry."""

    def __str__(self):
        # KeyError's __str__ would repr() the message and add quotes
        return str(self.args[0]) if self.args else ""
