"""Exact numbers inside the package, and the Scalar type at its boundary.

Inside the package every exact value is a plain ``int`` or ``Fraction``.
A :class:`Scalar`, made only where a value leaves the package, holds the
exact ``Fraction`` and a backend, a tag saying how it is printed.
:data:`RATIONAL` prints the fraction itself; ``FloatBackend(bits)`` rounds
a value once, when the value is made, to a binary float of that precision
(stored exactly as the dyadic rational it is) and prints it as a decimal.
That rounding and printing is the only code that touches mpmath, imported
on first use, so a rational run never loads it.  Scalar arithmetic, for
callers, never rounds: its result is a rational scalar whatever backends
its operands carry.  :func:`exact` reads any of these types back.

The primitives every coefficient formula is built from are rising
factorials (Pochhammer symbols), whose negative orders stand for gamma
quotients, and terminating generalized hypergeometric sums.  Each is one
integer core on int pairs (numerator, denominator), :func:`pochhammer_ints`
and :func:`hyp_pfq_ints`, which every formula in the package calls, next
to the int-pair operations the formulas share (:func:`sign`, :func:`times`,
:func:`over_rising`, :func:`lowest`, :func:`over_lcm`,
:func:`over_lcm_ints`); a formula makes one ``Fraction`` per value.
:func:`pochhammer` (cached) and :func:`hyp_pfq` are thin ``Fraction``
wrappers for callers outside the package; no package path calls them.  :func:`log10_abs_ints` and its
wrapper :func:`log10_abs` follow the same pattern for the figure's
magnitudes.

The package's record classes (``FamilySpec``, ``SeriesCoeffs`` and five
more) are plain classes on the private bases :class:`_Record` and
:class:`_FrozenRecord`, which give the equality, repr and, when frozen,
the hash a dataclass would; the oracle's ``MonomialPoly`` writes out its
own.  No module imports ``dataclasses``, whose import of ``inspect``
would cost every command more start-up than the package's own modules.
"""

import math
import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial  # noqa: F401  (re-exported for the formulas)

from .errors import (
    DenominatorPoleError,
    GammaPoleError,
    NonTerminatingSeriesError,
)


class _Backend:
    """Zero and one, exact in every backend."""

    def zero(self) -> "Scalar":
        return Scalar(self, Fraction(0))

    def one(self) -> "Scalar":
        return Scalar(self, Fraction(1))


class RationalBackend(_Backend):
    """Exact values printed as fractions."""

    name = "rational"

    def make(self, value) -> "Scalar":
        """`value` as a rational Scalar.  A Fraction is wrapped as it is,
        not rebuilt; a Fraction subclass, an int, a string or a Scalar of
        another backend goes through `exact` to a plain Fraction."""
        if type(value) is Fraction:
            return Scalar(self, value)
        if isinstance(value, Scalar) and value.backend == self:
            return value
        return Scalar(self, Fraction(exact(value)))

    def format(self, value: Fraction) -> str:
        return str(value)

    def __eq__(self, other):
        return isinstance(other, RationalBackend)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalBackend()"


RATIONAL = RationalBackend()


class FloatBackend(_Backend):
    """Rounding to binary floats of fixed precision (bits) for output.

    A value is rounded once, from the exact value, to the nearest float of
    `precision` bits, ties to even (at 53 bits, CPython's `float()`); `make`
    keeps its exact dyadic value, `format` prints it with all its digits.
    """

    def __init__(self, precision: int = 256):
        if precision < 53:
            raise ValueError("float backend precision must be at least 53 bits")
        self.precision = precision

    @property
    def name(self) -> str:
        return f"float:{self.precision}"

    def _round(self, value):
        """The raw mpmath float (sign, mantissa, exponent, bit count)
        nearest the exact `value`: one correctly rounded division."""
        from mpmath.libmp import from_rational, round_nearest

        return from_rational(value.numerator, value.denominator,
                             self.precision, round_nearest)

    def make(self, value) -> "Scalar":
        if isinstance(value, Scalar) and value.backend == self:
            return value
        sign, man, exp, _ = self._round(exact(value))
        return Scalar(self, Fraction(-man if sign else man) * Fraction(2) ** exp)

    def format(self, value: Fraction) -> str:
        from mpmath.libmp import to_str

        return to_str(self._round(value), int(self.precision * 0.30103) + 3)

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

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since the
        # default restores slots through `__setattr__`
        return Scalar, (self.backend, self.value)

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

    def _compare(self, other, op):
        v = self._other(other)
        return NotImplemented if v is None else op(self.value, v)

    def __eq__(self, other):
        return self._compare(other, operator.eq)

    def __lt__(self, other):
        return self._compare(other, operator.lt)

    def __le__(self, other):
        return self._compare(other, operator.le)

    def __gt__(self, other):
        return self._compare(other, operator.gt)

    def __ge__(self, other):
        return self._compare(other, operator.ge)

    def __hash__(self):
        return hash(self.value)

    def __bool__(self):
        return self.value != 0

    # -- conversions ------------------------------------------------------

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


def exact(value):
    """The exact value of an int, Fraction, Scalar or rational string: an
    int or Fraction as it is, a Scalar's Fraction, a string parsed."""
    if isinstance(value, (int, Fraction)):
        return value
    if isinstance(value, Scalar):
        return value.value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot build a scalar from {value!r}")


def as_integer(value):
    """The exact integer an int, Fraction or Scalar represents, or None."""
    value = exact(value)
    return value.numerator if value.denominator == 1 else None


# ---------------------------------------------------------------------------
# rising factorials
# ---------------------------------------------------------------------------

def pochhammer_ints(p: int, q: int, n: int) -> tuple:
    """(p/q)_n as an int pair (numerator, denominator > 0), q > 0 and p/q
    not necessarily in lowest terms: prod_{k<n} (p + kq) / q^n for n >= 0,
    and (z)_{-t} = 1/(z-t)_t for a negative order, which raises
    GammaPoleError when (z-t)_t vanishes.  The one rising factorial every
    formula is built from; nothing is cached."""
    if n < 0:
        den, num = pochhammer_ints(p + n * q, q, -n)
        if den == 0:
            raise GammaPoleError(f"pochhammer pole: ({Fraction(p, q)})_{n} "
                                 "has a zero denominator")
        return (num, den) if den > 0 else (-num, -den)
    return math.prod(range(p, p + n * q, q)), q ** n


@lru_cache(maxsize=8192)
def pochhammer(z, n: int) -> Fraction:
    """Rising factorial (z)_n = z (z+1) ... (z+n-1), with (z)_0 = 1, and
    (z)_{-t} = 1/(z-t)_t = Gamma(z-t)/Gamma(z) for negative order, as an
    exact Fraction read from `pochhammer_ints`; GammaPoleError when
    (z-t)_t vanishes.  `z` is an int, Fraction, Scalar or rational string.

    For callers outside the package; no package path calls it.  Its cache
    (equal keys share an entry) stays for them and for the benchmark,
    which reads its statistics; it keeps the 8192 most recently used
    (z, n), which bounds its memory in a long-lived process."""
    z = exact(z)
    return Fraction(*pochhammer_ints(z.numerator, z.denominator, n))


def over_rising(p: int, q: int, n: int) -> tuple:
    """1 / (p/q)_n as an int pair, its denominator 0 where (p/q)_n is."""
    return pochhammer_ints(p, q, n)[::-1]


def sign(k: int) -> int:
    """(-1)^k."""
    return -1 if k % 2 else 1


def times(*pairs) -> tuple:
    """The product of int pairs (numerator, denominator), not reduced."""
    return math.prod(p for p, _ in pairs), math.prod(q for _, q in pairs)


def lowest(num: int, den: int) -> tuple:
    """num / den in lowest terms with a positive denominator."""
    g = -math.gcd(num, den) if den < 0 else math.gcd(num, den)
    return num // g, den // g


def over_lcm(values) -> tuple:
    """Exact rationals as (int numerators, the lcm of their denominators),
    in lowest terms as a whole."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def over_lcm_ints(pairs) -> tuple:
    """`over_lcm` for int pairs (num, den), den != 0, not necessarily in
    lowest terms: each pair is reduced by `lowest`, then put over the lcm
    of the reduced denominators."""
    pairs = [lowest(p, q) for p, q in pairs]
    den = math.lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


# ---------------------------------------------------------------------------
# terminating generalized hypergeometric series
# ---------------------------------------------------------------------------


def hyp_pfq_ints(numerator_params, denominator_params, argument) -> tuple:
    """A terminating pFq as an int pair (numerator, denominator), every
    parameter and the argument an int pair (p, q) with q > 0, not
    necessarily in lowest terms.

    The series must terminate: some numerator parameter is a nonpositive
    integer -t, and the sum runs over k = 0..t.  A denominator parameter
    hitting zero before termination raises DenominatorPoleError.  The sum is
    an integer Horner loop from the last term, S <- 1 + r(k) S with the term
    ratio r(k) an int numerator and denominator; the pair is not reduced.
    """
    ends = [-(p // q) for p, q in numerator_params if p <= 0 and p % q == 0]
    if not ends:
        raise NonTerminatingSeriesError("no numerator parameter is a "
                                        "nonpositive integer")
    t = min(ends)
    for p, q in denominator_params:
        if p <= 0 and p % q == 0 and -(p // q) <= t - 1:
            raise DenominatorPoleError(
                f"denominator parameter {Fraction(p, q)} vanishes at "
                f"k = {-(p // q)} <= {t - 1}"
            )

    # term k+1 / term k = r(k) = prod (a+k) / prod (b+k) * x / (k+1); with
    # each parameter p/q, r(k) = prod (p+kq) / prod (p'+kq') * scale, so the
    # sum 1 + r(0) (1 + r(1) (... (1 + r(t-1)))) is N/D over ints
    scale_num, scale_den = argument
    for _, q in numerator_params:
        scale_den *= q
    for _, q in denominator_params:
        scale_num *= q
    num = den = 1
    for k in range(t - 1, -1, -1):
        r_num, r_den = scale_num, scale_den * (k + 1)
        for p, q in numerator_params:
            r_num *= p + k * q
        for p, q in denominator_params:
            r_den *= p + k * q
        num, den = r_den * den + r_num * num, r_den * den
    return num, den


def hyp_pfq(numerator_params, denominator_params, argument) -> Fraction:
    """Sum a terminating pFq as an exact Fraction; the parameters are ints,
    Fractions or Scalars.  `hyp_pfq_ints` on their int pairs, with its
    termination and pole checks, and one Fraction made at the end; for
    callers outside the package."""

    def pair(v):
        v = exact(v)
        return v.numerator, v.denominator

    return Fraction(*hyp_pfq_ints([pair(a) for a in numerator_params],
                                  [pair(b) for b in denominator_params],
                                  pair(argument)))


def log10_abs_ints(num: int, den: int) -> float:
    """log10 |num / den| as a machine float for int num != 0 and den > 0,
    not necessarily in lowest terms.  With |num| / den = N / D in lowest
    terms it is log10 N - log10 D, each CPython's math.log10 of an int:
    past 2^1024, N = m 2^e with m in [1/2, 1) rounded to 53 bits, and
    log10 m + e log10 2, so no magnitude overflows.  With a C log10 good to
    1 ulp, the roundings of m, log10 2, the product and the sums keep the
    error within 2^-51 (log10 N + log10 D) + ulp(result)/2.  It is not
    correctly rounded.  The one core the figure grid reads its cells
    through, straight off an engine column; no Fraction is made."""
    g = math.gcd(num, den)
    return math.log10(abs(num) // g) - math.log10(den // g)


def log10_abs(value) -> float:
    """log10 |value| as a machine float for an exact value (int, Fraction
    or Scalar); -inf for zero.  `log10_abs_ints` on its numerator and
    denominator, with the same value and error bound; for callers outside
    the package."""
    v = exact(value)
    if v == 0:
        return float("-inf")
    return log10_abs_ints(v.numerator, v.denominator)


# ---------------------------------------------------------------------------
# record classes
# ---------------------------------------------------------------------------


class _Record:
    """Equality and repr over the fields a subclass names in `_fields`, as
    a dataclass makes them, and no hash.  Each subclass writes its own
    `__init__`.  Equality compares one `operator.attrgetter` tuple per
    side, which `ConvMatrix.matvec` pays once per call on its specs."""

    def __init_subclass__(cls):
        if "_fields" in vars(cls):
            cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        values = self._values
        return values(self) == values(other)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"


class _FrozenRecord(_Record):
    """A `_Record` hashed by its fields, which `__init__` sets once through
    `object.__setattr__`; assigning or deleting one raises."""

    def __hash__(self):
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
