"""Exact scalar arithmetic and combinatorial primitives.

Every coefficient in this package is a :class:`Scalar` holding an exact
``Fraction``.  Arithmetic never rounds: its result is a rational scalar
whatever backends its operands carry.  A backend is only a tag saying how a
value is printed.  :data:`RATIONAL` prints the fraction itself;
``FloatBackend(bits)`` rounds a value once, when the value is made, to a
binary float of that precision (stored exactly as the dyadic rational it
is) and prints it as a decimal.  That rounding and printing is the only
code that touches mpmath, and it imports mpmath on first use, so a rational
run never loads it.  Plain ``int`` and ``Fraction`` operands are coerced.

On top of the scalar type sit the primitives every coefficient formula is
built from: rising factorials (Pochhammer symbols) and terminating
generalized hypergeometric sums.  One cached helper, :func:`pochhammer`,
gives the rising factorial of every integer order; a negative order stands
for a gamma quotient, so no transcendental gamma is ever needed.
"""

import math
from fractions import Fraction
from functools import lru_cache
from math import factorial  # noqa: F401  (re-exported for the formulas)

from .errors import (
    DenominatorPoleError,
    GammaPoleError,
    NonTerminatingSeriesError,
)


class RationalBackend:
    """Exact values printed as fractions."""

    name = "rational"

    def make(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value if value.backend == self else Scalar(self, value.value)
        if isinstance(value, (int, Fraction, str)):
            return Scalar(self, Fraction(value))
        raise TypeError(f"cannot build a scalar from {value!r}")

    def zero(self) -> "Scalar":
        return Scalar(self, Fraction(0))

    def one(self) -> "Scalar":
        return Scalar(self, Fraction(1))

    def format(self, value: Fraction) -> str:
        return str(value)

    def __eq__(self, other):
        return isinstance(other, RationalBackend)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalBackend()"


RATIONAL = RationalBackend()


class FloatBackend:
    """Rounding to binary floats of fixed precision (bits) for output.

    `make` rounds the exact value to nearest at `precision` bits and tags
    the result, whose exact dyadic value is kept; `str` of a tagged value
    prints it in decimal with all its digits.
    """

    def __init__(self, precision: int = 256):
        if precision < 53:
            raise ValueError("float backend precision must be at least 53 bits")
        self.precision = precision

    @property
    def name(self) -> str:
        return f"float:{self.precision}"

    def _mpf(self, value: Fraction):
        """`value` as an mpmath float rounded to `precision` bits."""
        import mpmath

        with mpmath.workprec(self.precision):
            return mpmath.mpf(value.numerator) / value.denominator

    def make(self, value) -> "Scalar":
        if isinstance(value, Scalar) and value.backend == self:
            return value
        sign, man, exp, _ = self._mpf(RATIONAL.make(value).value)._mpf_
        return Scalar(self, Fraction(-man if sign else man) * Fraction(2) ** exp)

    def zero(self) -> "Scalar":
        return Scalar(self, Fraction(0))

    def one(self) -> "Scalar":
        return Scalar(self, Fraction(1))

    def format(self, value: Fraction) -> str:
        import mpmath

        return mpmath.nstr(self._mpf(value), int(self.precision * 0.30103) + 3)

    def __eq__(self, other):
        return isinstance(other, FloatBackend) and other.precision == self.precision

    def __hash__(self):
        return hash(("float", self.precision))

    def __repr__(self):
        return f"FloatBackend({self.precision})"


class Scalar:
    """An exact rational value with the backend tag that prints it.
    Immutable and hashable; equality and hashing see the value only."""

    __slots__ = ("backend", "value")

    def __init__(self, backend, value):
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- coercion ---------------------------------------------------------

    @staticmethod
    def _other(other):
        """The exact value of `other`, or None if unsupported."""
        if isinstance(other, Scalar):
            return other.value
        if isinstance(other, (int, Fraction)):
            return other
        return None

    def _binop(self, other, op):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return Scalar(RATIONAL, op(self.value, v))

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        return Scalar(RATIONAL, self.value ** exponent)

    def __neg__(self):
        return Scalar(RATIONAL, -self.value)

    def __abs__(self):
        return Scalar(RATIONAL, abs(self.value))

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self.value == v

    def __lt__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self.value < v

    def __le__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self.value <= v

    def __gt__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self.value > v

    def __ge__(self, other):
        v = self._other(other)
        if v is None:
            return NotImplemented
        return self.value >= v

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    # -- conversions ------------------------------------------------------

    def is_integer(self) -> bool:
        return self.value.denominator == 1

    def as_fraction(self) -> Fraction:
        return self.value

    def to_backend(self, backend) -> "Scalar":
        """The value made in `backend`: rounded for a float backend, the
        same exact value for the rational one."""
        return backend.make(self)

    def __float__(self):
        return float(self.value)

    def __str__(self):
        return self.backend.format(self.value)

    def __repr__(self):
        return f"Scalar({self.backend.name}, {self})"


def as_integer(value):
    """The exact integer a value represents, or None (ints, Fractions and
    scalars)."""
    if isinstance(value, int):
        return value
    if isinstance(value, Scalar):
        value = value.value
    if isinstance(value, Fraction):
        return value.numerator if value.denominator == 1 else None
    return None


# ---------------------------------------------------------------------------
# rising factorials
# ---------------------------------------------------------------------------

_POCH_STRIDE = 256


@lru_cache(maxsize=500_000)
def pochhammer(z, n: int) -> Scalar:
    """Rising factorial (z)_n = z (z+1) ... (z+n-1), with (z)_0 = 1, and
    (z)_{-t} = 1/(z-t)_t = Gamma(z-t)/Gamma(z) for negative order.

    `z` is a Scalar, Fraction or int; the result is a rational Scalar.
    Exact and cached: (z)_n costs one product once (z)_{n-1} is cached.
    Raises GammaPoleError when a negative order hits a pole, that is when
    (z-t)_t vanishes.
    """
    if n < 0:
        den = pochhammer(z + n, -n)
        if den == 0:
            raise GammaPoleError(f"pochhammer pole: ({z})_{n} has a zero "
                                 "denominator")
        return 1 / den
    if n == 0:
        return RATIONAL.one()
    if n > _POCH_STRIDE:
        # warm the cache a stride below first, so the recursion depth stays
        # near _POCH_STRIDE however cold the cache is
        pochhammer(z, n - _POCH_STRIDE)
    return pochhammer(z, n - 1) * (z + (n - 1))


# ---------------------------------------------------------------------------
# terminating generalized hypergeometric series
# ---------------------------------------------------------------------------


def hyp_pfq(numerator_params, denominator_params, argument) -> Scalar:
    """Sum a terminating pFq term by term with a running-term ratio.

    The series must terminate: some numerator parameter is a nonpositive
    integer -t, and the sum runs over k = 0..t.  A denominator parameter
    hitting zero before termination raises DenominatorPoleError.
    """
    x = RATIONAL.make(argument)
    nums = [RATIONAL.make(a) for a in numerator_params]
    dens = [RATIONAL.make(b) for b in denominator_params]

    t = None
    for a in nums:
        ia = as_integer(a)
        if ia is not None and ia <= 0 and (t is None or -ia < t):
            t = -ia
    if t is None:
        raise NonTerminatingSeriesError(
            "no numerator parameter is a nonpositive integer"
        )
    for b in dens:
        ib = as_integer(b)
        if ib is not None and ib <= 0 and -ib <= t - 1:
            raise DenominatorPoleError(
                f"denominator parameter {b} vanishes at k = {-ib} <= {t - 1}"
            )

    term = total = RATIONAL.one()
    for k in range(t):
        for a in nums:
            term = term * (a + k)
        for b in dens:
            term = term / (b + k)
        term = term * x / (k + 1)
        total = total + term
    return total


def log10_abs(s: Scalar) -> float:
    """log10 |s| as a machine float; -inf for zero.  Exact-integer logs are
    used so huge magnitudes cannot overflow."""
    if s == 0:
        return float("-inf")
    v = abs(s.value)
    return math.log10(v.numerator) - math.log10(v.denominator)
