"""Exception types shared across the package."""


class PolyconvError(Exception):
    """Base class for all polyconv errors."""


class NonTerminatingSeriesError(PolyconvError):
    """No numerator parameter of a pFq is a nonpositive integer."""


class DenominatorPoleError(PolyconvError):
    """A denominator Pochhammer of a terminating pFq vanishes before the
    series terminates."""


class GammaPoleError(PolyconvError):
    """A Pochhammer symbol of negative order, a gamma quotient, has a pole:
    (z)_{-t} = 1/(z-t)_t with (z-t)_t = 0."""


class IndexOutOfRangeError(PolyconvError):
    """An index argument lies outside its documented range."""


class IndexContractError(PolyconvError):
    """A piecewise formula was called outside its validity region."""


class MissingDataError(PolyconvError):
    """A generic basis table lacks a required entry."""


class FamilyMismatchError(PolyconvError):
    """Two series that must share a polynomial family do not."""
