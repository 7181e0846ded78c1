"""Classical orthogonal polynomial families and their connection data.

Each family is described by a :class:`FamilySpec`.  The module evaluates
polynomials by their three-term recurrences, gives closed forms for
derivatives at the left endpoint of the domain, and gives two kinds of
connection coefficients:

* ``monomial_expansion_b``: coefficients b_{n,k} of the shifted monomial
  (x+a)^n in the family basis, the data of ``GenericBasisData``;
* ``connection_gamma``: coefficients linking the p-th derivatives of the
  sequence to the q-th derivatives of shifted-degree members.  Public, but
  nothing in the package is built from it.

Every interval family is a normalized Jacobi polynomial,
P_n = (p)_n / (q)_n * P_n^(alpha,beta) (DLMF 18.7), and states its row
(alpha, beta, p, q) once, in ``_JACOBI_ROWS``: Jacobi (alpha, beta, 1, 1),
symmetric Jacobi (alpha, alpha, 1, 1), Gegenbauer C_n^(lam)
(lam-1/2, lam-1/2, 2 lam, lam+1/2), Legendre (0, 0, 1, 1) and Chebyshev
T_n (-1/2, -1/2, 1, 1/2).  The Jacobi parameters, the normalization c_n,
the derivative connection ``connection_ints``, the recurrence of
``eval_polys`` and the endpoint values ``endpoint_ints`` all read that
row.  Jacobi is normalized by P_n^(a,b)(1) = (a+1)_n / n! and Laguerre by
L_n^(alpha)(0) = (1+alpha)_n / n!.

Note: the Chebyshev family here is sometimes labelled "second kind" in
parts of the literature this follows, but the parameters used
(alpha = beta = -1/2) and the symbol T_n are those of the first kind; the
formulas, not the label, are authoritative here.
"""

import math
import operator
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import IndexOutOfRangeError, MissingDataError
from .scalars import RATIONAL, Scalar, exact, factorial, hyp_pfq, pochhammer


class Family(Enum):
    JACOBI = "jacobi"
    SYMMETRIC_JACOBI = "symmetric_jacobi"
    GEGENBAUER = "gegenbauer"
    LEGENDRE = "legendre"
    CHEBYSHEV = "chebyshev"
    LAGUERRE = "laguerre"
    GENERIC_MONIC = "generic_monic"


_HALF = Fraction(1, 2)
_ZERO = Fraction(0)
_ONE = Fraction(1)

# Interval family -> its row (alpha, beta, p, q) from the spec's exact
# (alpha, beta, lam): P_n = (p)_n / (q)_n * P_n^(alpha, beta) (DLMF 18.7).
_JACOBI_ROWS = {
    Family.JACOBI: lambda alpha, beta, lam: (alpha, beta, 1, 1),
    Family.SYMMETRIC_JACOBI: lambda alpha, beta, lam: (alpha, alpha, 1, 1),
    Family.GEGENBAUER: lambda alpha, beta, lam: (lam - _HALF, lam - _HALF,
                                                 2 * lam, lam + _HALF),
    Family.LEGENDRE: lambda alpha, beta, lam: (0, 0, 1, 1),
    Family.CHEBYSHEV: lambda alpha, beta, lam: (-_HALF, -_HALF, 1, _HALF),
}


@dataclass(frozen=True)
class FamilySpec:
    """A polynomial family with its exact parameters and the backend its
    tables and series are rounded to on output."""

    family: Family
    alpha: Scalar | None = None
    beta: Scalar | None = None
    lam: Scalar | None = None
    backend: object = field(default=RATIONAL)

    def __post_init__(self):
        f = self.family
        if f is Family.JACOBI:
            if self.alpha is None or self.beta is None:
                raise ValueError("Jacobi needs alpha and beta")
            if not (self.alpha > -1 and self.beta > -1):
                raise ValueError("Jacobi needs alpha > -1 and beta > -1")
        elif f is Family.SYMMETRIC_JACOBI:
            if self.alpha is None:
                raise ValueError("symmetric Jacobi needs alpha")
            if not self.alpha > -1:
                raise ValueError("symmetric Jacobi needs alpha > -1")
            if self.alpha == 0:
                raise ValueError(
                    "symmetric Jacobi with alpha = 0 is Legendre; use the "
                    "symmetric_jacobi() factory, which redirects"
                )
        elif f is Family.GEGENBAUER:
            if self.lam is None:
                raise ValueError("Gegenbauer needs lambda")
            if not self.lam > Fraction(-1, 2):
                raise ValueError("Gegenbauer needs lambda > -1/2")
            if self.lam == 0:
                raise ValueError("Gegenbauer lambda must be nonzero")
            if self.lam == Fraction(1, 2):
                raise ValueError(
                    "Gegenbauer with lambda = 1/2 is Legendre; use the "
                    "gegenbauer() factory, which redirects"
                )
        elif f is Family.LAGUERRE:
            if self.alpha is None:
                raise ValueError("Laguerre needs alpha")
            if not self.alpha > -1:
                raise ValueError("Laguerre needs alpha > -1")

    # -- derived constants -------------------------------------------------

    @property
    def domain_offset_a(self) -> Scalar:
        """Offset a of the shifted argument: 1 for interval families, 0 for
        Laguerre."""
        return RATIONAL.make(0 if self.family is Family.LAGUERRE else 1)

    @property
    def zero_region_q(self) -> int | None:
        """Family constant of the guaranteed zero band (1 for Jacobi-type,
        0 for Laguerre)."""
        if self.family in _JACOBI_ROWS:
            return 1
        if self.family is Family.LAGUERRE:
            return 0
        return None

    @cached_property
    def _exact(self) -> tuple:
        """(alpha, beta, lam) as Fractions, None where unset."""
        return tuple(None if v is None else Fraction(exact(v))
                     for v in (self.alpha, self.beta, self.lam))

    @cached_property
    def _jacobi_row(self) -> tuple:
        """(alpha, beta, p, q) of the family's `_JACOBI_ROWS` row."""
        row = _JACOBI_ROWS.get(self.family)
        if row is None:
            raise ValueError(f"{self.family.value} has no Jacobi parameters")
        return tuple(Fraction(v) for v in row(*self._exact))

    @cached_property
    def _row_ints(self) -> tuple:
        """The family's rational row over one common denominator d, as
        ints: (d, d alpha, d beta, d p, d q) from `_jacobi_row` for an
        interval family, (d, d alpha) for Laguerre."""
        if self.family is Family.LAGUERRE:
            row = self._exact[:1]
        else:
            row = self._jacobi_row
        d = math.lcm(*(v.denominator for v in row))
        return (d, *(v.numerator * (d // v.denominator) for v in row))

    def jacobi_parameters(self) -> tuple[Fraction, Fraction]:
        """The (alpha, beta) of the underlying Jacobi normalization."""
        return self._jacobi_row[:2]

    def normalization(self, n: int) -> Fraction:
        """c_n = (p)_n / (q)_n with FamilyPoly_n = c_n * P_n^(alpha, beta)."""
        _, _, p, q = self._jacobi_row
        return _ONE if p == q else pochhammer(p, n) / pochhammer(q, n)

    def to_backend(self, backend) -> "FamilySpec":
        """The same family with output rounded to `backend`."""
        return replace(self, backend=backend)

    # -- serialization -----------------------------------------------------

    def to_config(self) -> dict:
        """Small record format with rational parameters as strings."""
        out = {"family": self.family.value}
        for key, v in zip(("alpha", "beta", "lambda"), self._exact):
            if v is not None:
                out[key] = str(v)
        return out

    def label(self) -> str:
        params = ",".join(str(v) for v in self._exact if v is not None)
        return f"{self.family.value}({params})" if params else self.family.value


# The factories keep the parameters exact whatever `backend` says.


def jacobi(alpha, beta, backend=RATIONAL) -> FamilySpec:
    return FamilySpec(Family.JACOBI, RATIONAL.make(alpha), RATIONAL.make(beta),
                      backend=backend)


def symmetric_jacobi(alpha, backend=RATIONAL) -> FamilySpec:
    alpha = RATIONAL.make(alpha)
    if alpha == 0:
        return legendre(backend=backend)
    return FamilySpec(Family.SYMMETRIC_JACOBI, alpha, backend=backend)


def gegenbauer(lam, backend=RATIONAL) -> FamilySpec:
    lam = RATIONAL.make(lam)
    if lam == Fraction(1, 2):
        return legendre(backend=backend)
    return FamilySpec(Family.GEGENBAUER, lam=lam, backend=backend)


def legendre(backend=RATIONAL) -> FamilySpec:
    return FamilySpec(Family.LEGENDRE, backend=backend)


def chebyshev(backend=RATIONAL) -> FamilySpec:
    return FamilySpec(Family.CHEBYSHEV, backend=backend)


def laguerre(alpha, backend=RATIONAL) -> FamilySpec:
    return FamilySpec(Family.LAGUERRE, RATIONAL.make(alpha), backend=backend)


def generic_monic(backend=RATIONAL) -> FamilySpec:
    """The shifted monomial sequence (x+1)^n; the escape hatch for the
    family-agnostic machinery."""
    return FamilySpec(Family.GENERIC_MONIC, backend=backend)


# Family name -> (factory, the config keys of its parameters in order).
_FACTORIES = {
    "jacobi": (jacobi, ("alpha", "beta")),
    "symmetric_jacobi": (symmetric_jacobi, ("alpha",)),
    "gegenbauer": (gegenbauer, ("lambda",)),
    "legendre": (legendre, ()),
    "chebyshev": (chebyshev, ()),
    "laguerre": (laguerre, ("alpha",)),
    "generic_monic": (generic_monic, ()),
}


def spec_from_config(config: dict) -> FamilySpec:
    """Inverse of FamilySpec.to_config; applies the factory redirects.  A
    parameter the family does not take is an error, not ignored."""
    kind = config["family"].lower()
    if kind not in _FACTORIES:
        raise ValueError(f"unknown family {config['family']!r}")
    factory, keys = _FACTORIES[kind]
    for key, value in config.items():
        if key != "family" and value is not None and key not in keys:
            raise ValueError(f"family {kind!r} takes no parameter {key!r}")

    def need(key):
        value = config.get(key)
        if value is None:
            raise ValueError(f"family {kind!r} requires parameter {key!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"family {kind!r}: parameter {key!r} is not a "
                             f"rational number: {value!r}") from None

    return factory(*(need(key) for key in keys))


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_polys(spec: FamilySpec, n: int, x) -> list:
    """Values [P_0(x), ..., P_n(x)] of the family's polynomials (three-term
    recurrences, exact).  An interval family runs the Jacobi recurrence and
    scales J_k by its running normalization c_k."""
    if n < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    x = Fraction(exact(x))

    if spec.family is Family.GENERIC_MONIC:
        values = [(x + 1) ** k for k in range(n + 1)]
    elif spec.family is Family.LAGUERRE:
        alpha = spec._exact[0]
        values = [_ONE, 1 + alpha - x]
        for k in range(2, n + 1):
            values.append(((2 * k - 1 + alpha - x) * values[-1]
                           - (k - 1 + alpha) * values[-2]) / k)
    else:
        alpha, beta, p, q = spec._jacobi_row
        s = alpha + beta
        prev, cur = _ONE, (alpha + 1) + (s + 2) * (x - 1) / 2
        c = p / q
        values = [prev, c * cur]
        for k in range(2, n + 1):
            c1 = 2 * k * (k + s) * (2 * k + s - 2)
            c2 = (2 * k + s - 1) * ((2 * k + s) * (2 * k + s - 2) * x
                                    + (alpha - beta) * s)
            c3 = 2 * (k + alpha - 1) * (k + beta - 1) * (2 * k + s)
            prev, cur = cur, (c2 * cur - c3 * prev) / c1
            c = c * (p + k - 1) / (q + k - 1)
            values.append(c * cur)
    return values[:n + 1]


def eval_poly(spec: FamilySpec, n: int, x) -> Scalar:
    """Value of the family's degree-n polynomial at x."""
    return RATIONAL.make(eval_polys(spec, n, x)[n])


# ---------------------------------------------------------------------------
# endpoint derivatives
# ---------------------------------------------------------------------------


def _jacobi_endpoint_derivative(n: int, p: int, alpha: Fraction,
                                beta: Fraction) -> Fraction:
    # d^p/dx^p P_n^(alpha,beta) at x = -1:
    #   2^-p (-1)^(n+p) (p+beta+1)_(n-p) (n+alpha+beta+1)_p / (n-p)!
    sign = -1 if (n + p) % 2 else 1
    num = pochhammer(beta + p + 1, n - p) * pochhammer(alpha + beta + n + 1, p)
    return sign * num / (2 ** p * factorial(n - p))


def endpoint_derivative(spec: FamilySpec, n: int, p: int) -> Scalar:
    """d^p/dx^p of the degree-n family polynomial at x = -a (the lower end
    of the convolution domain); 0 when p > n."""
    if n < 0 or p < 0:
        raise IndexOutOfRangeError("degree and order must be nonnegative")
    f = spec.family
    if p > n:
        value = 0
    elif f is Family.LAGUERRE:
        sign = -1 if p % 2 else 1
        value = (sign * pochhammer(spec._exact[0] + p + 1, n - p)
                 / factorial(n - p))
    elif f is Family.GENERIC_MONIC:
        value = factorial(n) if p == n else 0
    else:
        alpha, beta = spec.jacobi_parameters()
        value = (spec.normalization(n)
                 * _jacobi_endpoint_derivative(n, p, alpha, beta))
    return RATIONAL.make(value)


def _lowest(num: int, den: int) -> tuple:
    """num / den in lowest terms with a positive denominator."""
    g = math.gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def _endpoint_ratio(spec: FamilySpec, k: int) -> tuple:
    """P_{k+1}(-a) / P_k(-a) as an int pair in lowest terms:
    -(beta+k+1)/(k+1) * (p+k)/(q+k) for the row (alpha, beta, p, q) of an
    interval family, (alpha+k+1)/(k+1) for Laguerre, in `_row_ints`."""
    if spec.family is Family.LAGUERRE:
        d, alpha = spec._row_ints
        num, den = alpha + d * (k + 1), d * (k + 1)
    else:
        d, _, beta, p, q = spec._row_ints
        num, den = -(beta + d * (k + 1)), d * (k + 1)
        if p != q:
            num, den = num * (d * k + p), den * (d * k + q)
    return _lowest(num, den)


def endpoint_ints(spec: FamilySpec, n: int) -> tuple:
    """(nums, den) with P_k(-a) = nums[k] / den for k = 0..n, den the least
    common denominator, from the `_endpoint_ratio`s and no Pochhammer
    cache.  P_n(-a) is one product of the ratios, kept in lowest terms, and
    each numerator below follows from the one above it, nums[k] =
    nums[k+1] / ratio_k, an exact division by a small int.

    den is that of P_n(-a): each P_k(-a) is +-(c)_k / k! for a rational
    c > -1 that is not an integer <= 0 (c = beta + 1, 2 lam or alpha + 1;
    Chebyshev's is +-1), and the denominators of (c)_k / k! in lowest terms
    divide one another as k grows.  For a prime l not dividing c's
    denominator, the k factors of (c)_k meet every power of l no later than
    1..k do, so l stays in the numerator; a prime that divides it only
    gains powers."""
    if n < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    ratios = [_endpoint_ratio(spec, k) for k in range(n)]
    num, den = 1, 1
    for rn, rd in ratios:
        g, h = math.gcd(num, rd), math.gcd(rn, den)
        num, den = (num // g) * (rn // h), (den // h) * (rd // g)
    nums = [num]
    for rn, rd in reversed(ratios):
        nums.append(nums[-1] * rd // rn)
    return nums[::-1], den


def connection_ints(spec: FamilySpec, n: int) -> tuple:
    """(A_n, B_n, C_n) with P_n = A_n P'_{n+1} + B_n P'_n + C_n P'_{n-1}
    in the family's own normalization, as three int pairs (numerator,
    denominator > 0) in lowest terms: the DLMF 18.9 coefficients in the
    row's integers `_row_ints`, d the common denominator and
    s = d (alpha + beta).

    B_0, C_0 and C_1 multiply P'_0 = 0 or P'_{-1} and are set to 0; for
    C_1 this also avoids the 0/0 of the Jacobi display at alpha+beta = -1.
    """
    if n < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    f = spec.family
    if f is Family.LAGUERRE:
        return (-1, 1), (1, 1), (0, 1)
    if f is Family.GENERIC_MONIC:
        raise ValueError(
            "generic sequences have no derivative connection; use the "
            "family-agnostic formulas in polyconv.generic_conv"
        )
    d, alpha, beta, p, q = spec._row_ints
    s = alpha + beta
    if n == 0:
        a, b, c = (2 * d, s + 2 * d), (0, 1), (0, 1)
    else:
        t = d * (2 * n) + s
        a = (2 * d * (d * n + s + d), (t + d) * (t + 2 * d))
        b = (2 * d * (alpha - beta), t * (t + 2 * d))
        c = (0, 1) if n == 1 else (-2 * d * (d * n + alpha) * (d * n + beta),
                                   (d * n + s) * t * (t + d))
    # P_n = c_n J_n, so A and C pick up the ratios c_{k+1}/c_k = (p+k)/(q+k)
    if p != q:
        a = (a[0] * (d * n + q), a[1] * (d * n + p))
        c = (c[0] * (d * (n - 1) + p), c[1] * (d * (n - 1) + q))
    return _lowest(*a), _lowest(*b), _lowest(*c)


# ---------------------------------------------------------------------------
# monomial expansion coefficients b_{n,k}
# ---------------------------------------------------------------------------


def _jacobi_b(n: int, k: int, alpha: Fraction, beta: Fraction) -> Fraction:
    # (x+1)^n = sum_k b_{n,k} P_k^(alpha,beta)(x) with
    #   b_{n,k} = 2^n n! (beta+1)_n (alpha+beta+2k+1) Gamma(alpha+beta+k+1)
    #             / ((beta+1)_k Gamma(alpha+beta+n+k+2) (n-k)!).
    # At k = 0 the prefactor and the leading gamma merge so the formula
    # stays finite when alpha + beta + 1 = 0.
    s = alpha + beta
    common = 2 ** n * factorial(n) * pochhammer(beta + 1, n)
    if k == 0:
        # (s+1) Gamma(s+1) / Gamma(s+n+2) = Gamma(s+2) / Gamma(s+n+2)
        return common * pochhammer(s + 2 + n, -n) / factorial(n)
    ratio = pochhammer(s + k + n + 2, -(n + 1))
    return (common * (s + 2 * k + 1) * ratio
            / (pochhammer(beta + 1, k) * factorial(n - k)))


def monomial_expansion_b(spec: FamilySpec, n: int, k: int) -> Scalar:
    """b_{n,k} with (x+a)^n = sum_k b_{n,k} P_k(x) in the family basis."""
    if n < 0 or k < 0 or k > n:
        raise IndexOutOfRangeError(f"b-coefficient index out of range: n={n}, k={k}")
    f = spec.family
    if f is Family.LAGUERRE:
        # x^n = sum_k b_{n,k} L_k^(alpha), b_{n,k} = (-n)_k (k+alpha+1)_(n-k)
        value = pochhammer(-n, k) * pochhammer(spec._exact[0] + k + 1, n - k)
    elif f is Family.GENERIC_MONIC:
        value = 1 if n == k else 0
    else:
        alpha, beta = spec.jacobi_parameters()
        value = _jacobi_b(n, k, alpha, beta) / spec.normalization(k)
    return RATIONAL.make(value)


# ---------------------------------------------------------------------------
# connection coefficients between derivative sequences
# ---------------------------------------------------------------------------


def _jacobi_connection_gamma(n: int, k: int, p: int, q: int,
                             alpha: Fraction, beta: Fraction) -> Fraction:
    # gamma_{n,k}^(p,q): d^p/dx^p P_{n+p} = sum_k gamma d^q/dx^q P_{k+q},
    # a terminating 3F2 at unit argument.  Pole-free for alpha, beta > -1,
    # so it serves every interval family, alpha = beta = -1/2 included.  For
    # alpha = beta and odd n-k the 3F2 sums to 0.
    s = alpha + beta
    num = (pochhammer(alpha + k + p + 1, n - k)
           * pochhammer(s + n + p + 1, p)
           * pochhammer(s + n + 2 * p + 1, k))
    den = (Fraction(2) ** (p - q) * factorial(n - k)
           * pochhammer(s + k + q + 1, q)
           * pochhammer(s + k + 2 * q + 1, k))
    f = hyp_pfq(
        [k - n, alpha + k + q + 1, s + k + n + 2 * p + 1],
        [alpha + k + p + 1, s + 2 * k + 2 * q + 2],
        1,
    )
    return num / den * f


def connection_gamma(spec: FamilySpec, n: int, k: int, p: int,
                     q: int) -> Scalar:
    """gamma_{n,k}^(p,q) linking d^p P_{n+p} to the d^q P_{k+q} basis."""
    if k < 0 or k > n:
        raise IndexOutOfRangeError(f"connection index out of range: n={n}, k={k}")
    if p < 0 or q < 0:
        raise IndexOutOfRangeError("derivative orders must be nonnegative")
    f = spec.family
    if f is Family.LAGUERRE:
        sign = -1 if (p + q) % 2 else 1
        value = sign * pochhammer(p - q, n - k) / factorial(n - k)
    elif f is Family.GENERIC_MONIC:
        value = Fraction(factorial(n + p), factorial(n + q)) if n == k else 0
    else:
        alpha, beta = spec.jacobi_parameters()
        value = (_jacobi_connection_gamma(n, k, p, q, alpha, beta)
                 * spec.normalization(n + p) / spec.normalization(k + q))
    return RATIONAL.make(value)


# ---------------------------------------------------------------------------
# generic basis data and the b -> gamma bridge
# ---------------------------------------------------------------------------


@dataclass
class GenericBasisData:
    """User-suppliable connection data for an arbitrary degree-graded
    polynomial sequence: monomial-expansion b-coefficients and derivatives
    at x = -a up to ``max_degree``.  ``backend`` records the output backend
    of the family the data came from; the data and every coefficient
    computed from them are exact.  The tables may hold ints, Fractions or
    Scalars; `b` and `deriv` return every entry as a Fraction."""

    domain_offset_a: Scalar
    max_degree: int
    b_coeffs: dict
    endpoint_derivs: dict
    backend: object = RATIONAL

    def __post_init__(self):
        for n in range(self.max_degree + 1):
            lead = self.b_coeffs.get((n, n))
            if lead is None or lead == 0:
                raise MissingDataError(
                    f"b_coeffs must carry a nonzero leading entry (n,n) for "
                    f"n = {n}"
                )

    @classmethod
    def from_family(cls, spec: FamilySpec, max_degree: int) -> "GenericBasisData":
        b = {}
        d = {}
        for n in range(max_degree + 1):
            for k in range(n + 1):
                b[(n, k)] = monomial_expansion_b(spec, n, k).as_fraction()
                d[(n, k)] = endpoint_derivative(spec, n, k).as_fraction()
        return cls(spec.domain_offset_a, max_degree, b, d, spec.backend)

    def b(self, n: int, k: int) -> Fraction:
        if n < 0 or k < 0:
            raise IndexOutOfRangeError(
                f"b-coefficient index out of range: n={n}, k={k}")
        return _lookup(self.b_coeffs, (n, k), "b-coefficient")

    def deriv(self, n: int, p: int) -> Fraction:
        if n < 0 or p < 0:
            raise IndexOutOfRangeError(
                f"endpoint derivative index out of range: n={n}, p={p}")
        if p > n:
            return _ZERO
        return _lookup(self.endpoint_derivs, (n, p), "endpoint derivative")


def _lookup(table: dict, key: tuple, what: str) -> Fraction:
    """table[key] as a Fraction; MissingDataError names a missing entry."""
    try:
        value = table[key]
    except KeyError:
        raise MissingDataError(f"missing {what} {key}") from None
    return value if isinstance(value, Fraction) else Fraction(exact(value))


# The integer kernel of the family-agnostic formulas.  Every sum of
# `gamma_from_b` and `generic_conv` is a column of b_{q,j}/q! dotted with
# int weights made from endpoint derivatives.  Each entry is read once,
# through `data.b` or `data.deriv`; the entries of a column or of a
# derivative row are put over one common denominator, and each sum makes
# one Fraction.  Nothing is kept between calls.


def _over_lcm(nums: list, dens: list) -> tuple:
    """(scaled, den) with nums[i] / dens[i] = scaled[i] / den, den the lcm
    of dens."""
    den = math.lcm(*dens)
    return [a * (den // d) for a, d in zip(nums, dens)], den


def _deriv_ints(data: GenericBasisData, n: int, lo: int, hi: int) -> tuple:
    """(nums, den) with d^p P_n |_{x=-a} = nums[p - lo] / den for
    p = lo..hi."""
    row = [data.deriv(n, p) for p in range(lo, hi + 1)]
    return _over_lcm([v.numerator for v in row], [v.denominator for v in row])


def deriv_products(data: GenericBasisData, m: int, n: int, m_lo: int,
                   n_lo: int, t_lo: int, t_hi: int) -> tuple:
    """(sums, den) with

        sum_{a+b=t} d^a P_m * d^b P_n |_{x=-a} = sums[t - t_lo] / den

    for t = t_lo..t_hi, reading d^a P_m for a = m_lo..m and then d^b P_n
    for b = n_lo..n.  Terms with a < m_lo or b < n_lo are left out, so a
    caller sets the bounds where those terms have no partner."""
    dm, den_m = _deriv_ints(data, m, m_lo, m)
    dn, den_n = _deriv_ints(data, n, n_lo, n)
    sums = []
    for t in range(t_lo, t_hi + 1):
        a_lo, a_hi = max(m_lo, t - n), min(m, t - n_lo)
        sums.append(sum(dm[a - m_lo] * dn[t - a - n_lo]
                        for a in range(a_lo, a_hi + 1)))
    return sums, den_m * den_n


def column_sum(data: GenericBasisData, j: int, lo: int, hi: int,
               weights: list, den: int) -> Fraction:
    """sum_{q=lo}^{hi} b_{q,j}/q! * weights[q - lo] / den for int weights.

    Reads b_{lo,j}, ..., b_{hi,j} in that order, so a table that stops
    short names the first entry of the column it lacks."""
    nums, dens = [], []
    f = factorial(lo)
    for q in range(lo, hi + 1):
        if q > lo:
            f *= q
        v = data.b(q, j)
        nums.append(v.numerator)
        dens.append(v.denominator * f)
    scaled, b_den = _over_lcm(nums, dens)
    return Fraction(sum(map(operator.mul, scaled, weights)), b_den * den)


def gamma_from_b(data: GenericBasisData, n: int, k: int, r: int,
                 s: int) -> Scalar:
    """gamma_{n-r,k}^(r,s) assembled from b-coefficients and endpoint
    derivatives of P_n:

        sum_{sigma=0}^{n-(r+k)} b_{sigma+k+s, k+s} / (sigma+k+s)!
                                * d^{r+k+sigma} P_n |_{x=-a}

    computed by the integer kernel: the derivatives d^{r+k..n} P_n and the
    column b_{k+s..n-r+s, k+s} / q! are each read once and put over one
    denominator, and the sum is one Fraction."""
    if r < 0 or s < 0:
        raise IndexOutOfRangeError(
            f"derivative orders must be nonnegative, got r={r}, s={s}")
    if n < r:
        raise IndexOutOfRangeError(f"need n >= r, got n={n}, r={r}")
    if k < 0 or k > n - r:
        raise IndexOutOfRangeError(f"need 0 <= k <= n-r, got k={k}")
    weights, den = _deriv_ints(data, n, r + k, n)
    return RATIONAL.make(column_sum(data, k + s, k + s, n - r + s,
                                    weights, den))
