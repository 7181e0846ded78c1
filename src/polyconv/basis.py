"""Classical orthogonal polynomial families and their connection data.

Each family is described by a :class:`FamilySpec`, an immutable,
hashable record of the family, its exact parameters and its output
backend, checked when it is made.  The module evaluates polynomials by
their three-term recurrences, gives closed forms for derivatives at the
left endpoint of the domain, and gives two kinds of connection
coefficients:

* ``monomial_expansion_b``: coefficients b_{n,k} of the shifted monomial
  (x+a)^n in the family basis, the data of ``GenericBasisData``, a
  record whose constructor checks each leading entry;
* ``connection_gamma``: coefficients linking the p-th derivatives of the
  sequence to the q-th derivatives of shifted-degree members.  Public, but
  nothing in the package is built from it.

Every interval family is a normalized Jacobi polynomial,
P_n = (p)_n / (q)_n * P_n^(alpha,beta) (DLMF 18.7), and states its row
(alpha, beta, p, q) once, in ``_JACOBI_ROWS``: Jacobi (alpha, beta, 1, 1),
symmetric Jacobi (alpha, alpha, 1, 1), Gegenbauer C_n^(lam)
(lam-1/2, lam-1/2, 2 lam, lam+1/2), Legendre (0, 0, 1, 1) and Chebyshev
T_n (-1/2, -1/2, 1, 1/2).  The Jacobi parameters, the recurrence of
``eval_polys`` and every formula read that row, the formulas over one
common denominator, ``_row_ints`` (Laguerre: alpha over its own): c_n,
the endpoint derivatives, b_{n,k} and gamma are each a product of int
rising factorials with at most one ``hyp_pfq_ints`` sum, one ``Fraction``
per value, uncached; ``connection_ints`` and ``endpoint_runs`` are int
pairs.  ``pole_free_quotient`` is the factor (s+2k+1) / (s+k+1)_(nu+1)
that b_{n,k}, the closed forms' d terms and the Bateman tensor share,
with its limit at k = 0, s = alpha + beta = -1.  The values
P_k(-a) = sigma^k (c)_k / k! are read from one family constant, the
spec's (sigma, c) (``FamilySpec._endpoint_constant``).
``endpoint_runs`` makes them only on the runs of k a caller reads, over
the denominator of the highest one, which is a closed form in c's
denominator (``_endpoint_den``: Legendre's formula for the prime powers
of n!), each run from one rising factorial of c stepped by the term
ratio sigma (c + k) / (k + 1).  ``b_table`` and ``derivative_table`` step
the same way: the whole tables of b_{n,k} and of d^p P_n(-a) that
``GenericBasisData.from_family`` holds, each b column b_{k..top,k} and
each derivative row d^(0..n) P_n(-a) from its first entry's display, one
Fraction per entry, every later entry the one before times the display's
term ratio (`_b_ratio`, `_deriv_ratio`), no zero stepped through.
Jacobi is normalized by P_n^(a,b)(1) = (a+1)_n / n! and Laguerre by
L_n^(alpha)(0) = (1+alpha)_n / n!.

Note: the Chebyshev family here is sometimes labelled "second kind" in
parts of the literature this follows, but the parameters used
(alpha = beta = -1/2) and the symbol T_n are those of the first kind; the
formulas, not the label, are authoritative here.
"""

import math
import operator
from enum import Enum
from fractions import Fraction
from functools import cached_property

from .errors import IndexOutOfRangeError, MissingDataError
from .scalars import (RATIONAL, Scalar, _FrozenRecord, _Record, exact,
                      factorial, hyp_pfq_ints, lowest, over_lcm, over_rising,
                      sign, times)
# unused here: the benchmark's trace (bench/tracing.py) wraps this name
from .scalars import hyp_pfq  # noqa: F401
from .scalars import pochhammer_ints as _rising


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


class FamilySpec(_FrozenRecord):
    """A polynomial family with its exact parameters and the backend its
    tables and series are rounded to on output.  Immutable and hashable;
    equal when family, parameters and backend are."""

    _fields = ("family", "alpha", "beta", "lam", "backend")

    def __init__(self, family: Family, alpha: Scalar | None = None,
                 beta: Scalar | None = None, lam: Scalar | None = None,
                 backend=RATIONAL):
        object.__setattr__(self, "family", family)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "backend", backend)
        if family is Family.JACOBI:
            if alpha is None or beta is None:
                raise ValueError("Jacobi needs alpha and beta")
            if not (alpha > -1 and beta > -1):
                raise ValueError("Jacobi needs alpha > -1 and beta > -1")
        elif family is Family.SYMMETRIC_JACOBI:
            if alpha is None:
                raise ValueError("symmetric Jacobi needs alpha")
            if not alpha > -1:
                raise ValueError("symmetric Jacobi needs alpha > -1")
            if alpha == 0:
                raise ValueError(
                    "symmetric Jacobi with alpha = 0 is Legendre; use the "
                    "symmetric_jacobi() factory, which redirects"
                )
        elif family is Family.GEGENBAUER:
            if lam is None:
                raise ValueError("Gegenbauer needs lambda")
            if not lam > Fraction(-1, 2):
                raise ValueError("Gegenbauer needs lambda > -1/2")
            if lam == 0:
                raise ValueError("Gegenbauer lambda must be nonzero")
            if lam == Fraction(1, 2):
                raise ValueError(
                    "Gegenbauer with lambda = 1/2 is Legendre; use the "
                    "gegenbauer() factory, which redirects"
                )
        elif family is Family.LAGUERRE:
            if alpha is None:
                raise ValueError("Laguerre needs alpha")
            if not alpha > -1:
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

    @cached_property
    def _endpoint_constant(self) -> tuple:
        """(sigma, P, Q) with P_k(-a) = sigma^k (c)_k / k! for every k, c =
        P/Q in lowest terms, Q > 0: the one family fact the endpoint values
        are read from.  An interval row (alpha, beta, p, q) has sigma = -1
        and c = beta + 1 when p = q; when p != q it has q = beta + 1
        (Gegenbauer, Chebyshev), so c_k (beta+1)_k = (p)_k and c = p.
        Laguerre has sigma = +1 and c = alpha + 1, and a generic sequence,
        whose P_0 = 1 and P_k(-a) = 0 for k >= 1, sigma = +1 and c = 0."""
        if self.family is Family.GENERIC_MONIC:
            return 1, 0, 1
        if self.family is Family.LAGUERRE:
            d, alpha = self._row_ints
            return (1, *lowest(alpha + d, d))
        d, _, beta, p, q = self._row_ints
        return (-1, *lowest(beta + d if p == q else p, d))

    def jacobi_parameters(self) -> tuple[Fraction, Fraction]:
        """The (alpha, beta) of the underlying Jacobi normalization."""
        return self._jacobi_row[:2]

    def _normalization_ints(self, n: int) -> tuple:
        """c_n = (p)_n / (q)_n as an int pair read off `_row_ints`, n >= 0:
        the numerators of the two rising factorials over d, whose d^n
        cancel."""
        if self._jacobi_row[2] == self._jacobi_row[3]:  # raises for Laguerre
            return 1, 1
        d, _, _, p, q = self._row_ints
        return _rising(p, d, n)[0], _rising(q, d, n)[0]

    def normalization(self, n: int) -> Fraction:
        """c_n = (p)_n / (q)_n with FamilyPoly_n = c_n * P_n^(alpha, beta)."""
        if n < 0:
            raise IndexOutOfRangeError("degree must be nonnegative")
        return Fraction(*self._normalization_ints(n))

    def to_backend(self, backend) -> "FamilySpec":
        """The same family with output rounded to `backend`."""
        return FamilySpec(self.family, self.alpha, self.beta, self.lam,
                          backend)

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


def endpoint_derivative(spec: FamilySpec, n: int, p: int) -> Scalar:
    """d^p/dx^p of the degree-n family polynomial at x = -a (the lower end
    of the convolution domain); 0 when p > n.  For an interval family,
    c_n times

        d^p P_n^(alpha,beta) |_{x=-1}
            = (-1)^(n+p) (beta+p+1)_(n-p) (s+n+1)_p / (2^p (n-p)!),

    s = alpha + beta; for Laguerre (-1)^p (alpha+p+1)_(n-p) / (n-p)!.  One
    product of rising factorials of the family's row, one Fraction."""
    if n < 0 or p < 0:
        raise IndexOutOfRangeError("degree and order must be nonnegative")
    f = spec.family
    if p > n:
        value = 0, 1
    elif f is Family.GENERIC_MONIC:
        value = factorial(n) if p == n else 0, 1
    elif f is Family.LAGUERRE:
        d, a = spec._row_ints
        value = times((sign(p), factorial(n - p)),
                      _rising(a + (p + 1) * d, d, n - p))
    else:
        d, a, b, _, _ = spec._row_ints
        value = times((sign(n + p), 2 ** p * factorial(n - p)),
                      _rising(b + (p + 1) * d, d, n - p),
                      _rising(a + b + (n + 1) * d, d, p),
                      spec._normalization_ints(n))
    return RATIONAL.make(Fraction(*value))


def _endpoint_den(spec: FamilySpec, n: int) -> int:
    """The denominator of P_n(-a) in lowest terms, in closed form.

    P_n(-a) = +-(c)_n / n! with c = P/Q in lowest terms from the spec's
    `_endpoint_constant`, and (c)_n / n! = prod_{i<n} (P + iQ) / (Q^n n!).
    A prime l dividing Q divides no factor P + iQ, so it keeps all of
    Q^n n!: n v_l(Q) + v_l(n!), with v_l(n!) = sum_i floor(n / l^i)
    (Legendre's formula).  For a prime l not dividing Q, n consecutive
    terms of the progression P + iQ meet every power of l no later than
    1..n do, so n!'s powers of l cancel.  So the denominator is
    Q^n prod_{l | Q} l^(v_l(n!)), and Q is the row's small denominator
    (1 for a generic sequence, whose P_n(-a) are ints).
    A prime l > n has v_l(n!) = 0, so trial division stops at
    min(sqrt(Q), n) and a large prime in Q costs nothing."""
    q = spec._endpoint_constant[2]
    den, rest, ell = q ** n, q, 2
    while rest > 1 and ell <= n:  # the primes l <= n of Q, trial division
        if ell * ell > rest:  # rest is a prime
            if rest > n:
                break
            ell = rest
        if rest % ell == 0:
            while rest % ell == 0:
                rest //= ell
            v, t = 0, n
            while t:
                t //= ell
                v += t
            den *= ell ** v
        ell += 1
    return den


def endpoint_runs(spec: FamilySpec, runs, n: int) -> tuple:
    """(nums, den) with P_k(-a) = nums[k] / den for every k in the runs
    [lo, hi) of `runs`, disjoint and within 0..n, and nums[k] = 0 for the
    other k <= n; den is the denominator of P_n(-a) in lowest terms, in
    closed form from `_endpoint_den`, and the least common denominator of
    every P_k(-a), k <= n, since those of (c)_k / k! divide one another
    as k grows.

    Every value is read from the spec's `_endpoint_constant` (sigma, P,
    Q), P_k(-a) = sigma^k (P/Q)_k / k!.  Each run starts from one
    `pochhammer_ints(P, Q, lo)` over Q^lo lo!, and each value after it is
    the one before times sigma (P + kQ) / (Q (k+1)), an exact division by
    a small int: one step per k in the runs, none for the k between them.
    The run starts are not stepped: each is a product of O(lo) factors,
    and nums is allocated at full length."""
    if n < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    sigma, p, q = spec._endpoint_constant
    den = _endpoint_den(spec, n)
    nums = [0] * (n + 1)
    for lo, hi in runs:
        num, num_den = _rising(p, q, lo)
        v = sigma ** lo * num * den // (num_den * factorial(lo))
        nums[lo] = v
        for k in range(lo, hi - 1):
            v = v * (sigma * (p + k * q)) // (q * (k + 1))
            nums[k + 1] = v
    return nums, den


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
    return lowest(*a), lowest(*b), lowest(*c)


# ---------------------------------------------------------------------------
# connection coefficients: b_{n,k} and gamma_{n,k}^(p,q)
# ---------------------------------------------------------------------------


def monomial_expansion_b(spec: FamilySpec, n: int, k: int) -> Scalar:
    """b_{n,k} with (x+a)^n = sum_k b_{n,k} P_k(x) in the family basis.

    For an interval family, with s = alpha + beta and P_k = c_k J_k,

        b_{n,k} = 2^n n! (beta+k+1)_(n-k) (s+2k+1)
                  / ((s+k+1)_(n+1) (n-k)!) / c_k,

    and at k = 0, where the display's (s+1) / (s+1)_(n+1) is 0/0 for
    s = -1, its limit b_{n,0} = 2^n (beta+1)_n / (s+2)_n
    (`pole_free_quotient`).  For Laguerre x^n = sum_k b_{n,k} L_k^(alpha),
    b_{n,k} = (-n)_k (alpha+k+1)_(n-k)."""
    if n < 0 or k < 0 or k > n:
        raise IndexOutOfRangeError(f"b-coefficient index out of range: n={n}, k={k}")
    f = spec.family
    if f is Family.GENERIC_MONIC:
        value = 1 if n == k else 0, 1
    elif f is Family.LAGUERRE:
        d, a = spec._row_ints
        value = times(_rising(-n, 1, k), _rising(a + (k + 1) * d, d, n - k))
    else:
        d, a, b, _, _ = spec._row_ints
        value = times((2 ** n * factorial(n), factorial(n - k)),
                      _rising(b + (k + 1) * d, d, n - k),
                      pole_free_quotient(a + b, d, k, n),
                      spec._normalization_ints(k)[::-1])
    return RATIONAL.make(Fraction(*value))


def pole_free_quotient(s: int, d: int, k: int, nu: int) -> tuple:
    """(s/d + 2k+1) / (s/d + k+1)_(nu+1) as an int pair, s/d = alpha + beta
    over the row's denominator d: the factor of the b coefficients, the
    closed forms' d terms and the Bateman tensor.  At k = 0 it is written
    1 / (s/d + 2)_nu: the same number for s/d != -1, and at s/d = -1,
    where the display is 0/0, its limit."""
    if k == 0:
        return over_rising(s + 2 * d, d, nu)
    return times((s + (2 * k + 1) * d, d),
                 over_rising(s + (k + 1) * d, d, nu + 1))


def connection_gamma(spec: FamilySpec, n: int, k: int, p: int,
                     q: int) -> Scalar:
    """gamma_{n,k}^(p,q): d^p P_{n+p} = sum_k gamma_{n,k}^(p,q) d^q P_{k+q}.
    For an interval family, with s = alpha + beta, c_{n+p} / c_{k+q} times
    the terminating 3F2 at unit argument

        (alpha+k+p+1)_(n-k) (s+n+p+1)_p (s+n+2p+1)_k
        / (2^(p-q) (n-k)! (s+k+q+1)_q (s+k+2q+1)_k)
        * 3F2(k-n, alpha+k+q+1, s+k+n+2p+1; alpha+k+p+1, s+2k+2q+2; 1),

    pole-free for alpha, beta > -1, alpha = beta = -1/2 included; for
    alpha = beta and odd n-k the 3F2 sums to 0.  For Laguerre
    (-1)^(p+q) (p-q)_(n-k) / (n-k)!."""
    if k < 0 or k > n:
        raise IndexOutOfRangeError(f"connection index out of range: n={n}, k={k}")
    if p < 0 or q < 0:
        raise IndexOutOfRangeError("derivative orders must be nonnegative")
    f = spec.family
    if f is Family.LAGUERRE:
        value = times((sign(p + q), factorial(n - k)),
                      _rising(p - q, 1, n - k))
    elif f is Family.GENERIC_MONIC:
        value = (factorial(n + p), factorial(n + q)) if n == k else (0, 1)
    else:
        d, a, b, _, _ = spec._row_ints
        s = a + b
        value = times(
            (2 ** max(q - p, 0), 2 ** max(p - q, 0) * factorial(n - k)),
            _rising(a + (k + p + 1) * d, d, n - k),
            _rising(s + (n + p + 1) * d, d, p),
            _rising(s + (n + 2 * p + 1) * d, d, k),
            over_rising(s + (k + q + 1) * d, d, q),
            over_rising(s + (k + 2 * q + 1) * d, d, k),
            hyp_pfq_ints([(k - n, 1), (a + (k + q + 1) * d, d),
                          (s + (k + n + 2 * p + 1) * d, d)],
                         [(a + (k + p + 1) * d, d),
                          (s + (2 * k + 2 * q + 2) * d, d)], (1, 1)),
            spec._normalization_ints(n + p),
            spec._normalization_ints(k + q)[::-1])
    return RATIONAL.make(Fraction(*value))


# ---------------------------------------------------------------------------
# the connection data as whole tables, stepped
# ---------------------------------------------------------------------------


def _stepped(lo: int, hi: int, direct, ratio) -> list:
    """[v(lo), ..., v(hi)] as Fractions, each value the one before times
    the display's term ratio (a, b) = ratio(i), v(i+1) = v(i) a / b.  A
    value is made by its display, direct(i), at i = lo and wherever the
    value before is 0 or its ratio has a zero factor: no zero is stepped
    through."""
    values, v = [], None
    for i in range(lo, hi + 1):
        if v is None:
            v = direct(i)
        values.append(v)
        if i < hi:
            a, b = ratio(i)
            v = (Fraction(v.numerator * a, v.denominator * b)
                 if v and a and b else None)
    return values


def _b_ratio(spec: FamilySpec, n: int, k: int) -> tuple:
    """(a, b) with b_{n+1,k} = b_{n,k} a / b, the term ratio in n of the
    `monomial_expansion_b` display: 2 (n+1) (beta+n+1) / ((s+n+k+2)
    (n+1-k)) for an interval family, (n+1) (alpha+n+1) / (n+1-k) for
    Laguerre, in the row's ints; 0 for a generic sequence, whose
    b_{n,k} is 1 at n = k and 0 below it."""
    f = spec.family
    if f is Family.GENERIC_MONIC:
        return 0, 1
    if f is Family.LAGUERRE:
        d, a = spec._row_ints
        return (n + 1) * (a + (n + 1) * d), (n + 1 - k) * d
    d, a, b, _, _ = spec._row_ints
    return (2 * (n + 1) * (b + (n + 1) * d),
            (a + b + (n + k + 2) * d) * (n + 1 - k))


def _deriv_ratio(spec: FamilySpec, n: int, p: int) -> tuple:
    """(a, b) with d^(p+1) P_n(-a) = d^p P_n(-a) a / b, the term ratio in
    p of the `endpoint_derivative` display: -(s+n+p+1) (n-p) /
    (2 (beta+p+1)) for an interval family, -(n-p) / (alpha+p+1) for
    Laguerre, in the row's ints; 0 for a generic sequence, whose row is 0
    but for d^n P_n = n!."""
    f = spec.family
    if f is Family.GENERIC_MONIC:
        return 0, 1
    if f is Family.LAGUERRE:
        d, a = spec._row_ints
        return -(n - p) * d, a + (p + 1) * d
    d, a, b, _, _ = spec._row_ints
    return -(a + b + (n + p + 1) * d) * (n - p), 2 * (b + (p + 1) * d)


def b_table(spec: FamilySpec, top: int) -> dict:
    """{(n, k): b_{n,k}} for 0 <= k <= n <= top, as Fractions: each
    column b_{k..top,k} is stepped from b_{k,k} (`monomial_expansion_b`)
    by the display's term ratio in n."""
    if top < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    columns = []
    for k in range(top + 1):
        columns.append(_stepped(
            k, top, lambda n: monomial_expansion_b(spec, n, k).as_fraction(),
            lambda n: _b_ratio(spec, n, k)))
    return {(n, k): columns[k][n - k]
            for n in range(top + 1) for k in range(n + 1)}


def derivative_table(spec: FamilySpec, top: int) -> dict:
    """{(n, p): d^p P_n |_{x=-a}} for 0 <= p <= n <= top, as Fractions:
    each row d^(0..n) P_n is stepped from P_n(-a) (`endpoint_derivative`)
    by the display's term ratio in p."""
    if top < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    return {(n, p): v for n in range(top + 1)
            for p, v in enumerate(_stepped(
                0, n, lambda p: endpoint_derivative(spec, n, p).as_fraction(),
                lambda p: _deriv_ratio(spec, n, p)))}


# ---------------------------------------------------------------------------
# generic basis data and the b -> gamma bridge
# ---------------------------------------------------------------------------


class GenericBasisData(_Record):
    """User-suppliable connection data for an arbitrary degree-graded
    polynomial sequence: monomial-expansion b-coefficients and derivatives
    at x = -a up to ``max_degree``.  ``backend`` records the output backend
    of the family the data came from; the data and every coefficient
    computed from them are exact.  The tables may hold ints, Fractions or
    Scalars; `b` and `deriv` return every entry as a Fraction."""

    _fields = ("domain_offset_a", "max_degree", "b_coeffs", "endpoint_derivs",
               "backend")

    def __init__(self, domain_offset_a: Scalar, max_degree: int,
                 b_coeffs: dict, endpoint_derivs: dict, backend=RATIONAL):
        self.domain_offset_a = domain_offset_a
        self.max_degree = max_degree
        self.b_coeffs = b_coeffs
        self.endpoint_derivs = endpoint_derivs
        self.backend = backend
        if max_degree < 0:
            raise IndexOutOfRangeError("max_degree must be nonnegative")
        for n in range(max_degree + 1):
            lead = b_coeffs.get((n, n))
            if lead is None or lead == 0:
                raise MissingDataError(
                    f"b_coeffs must carry a nonzero leading entry (n,n) for "
                    f"n = {n}"
                )

    @classmethod
    def from_family(cls, spec: FamilySpec, max_degree: int) -> "GenericBasisData":
        """The family's b-coefficients and endpoint derivatives up to
        degree `max_degree`, from `b_table` and `derivative_table`."""
        return cls(spec.domain_offset_a, max_degree,
                   b_table(spec, max_degree),
                   derivative_table(spec, max_degree), spec.backend)

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
# one Fraction.  Nothing is kept between calls, but a caller may reuse the
# rows and columns of one call for many sums, as `generic_conv` does.


def deriv_ints(data: GenericBasisData, n: int, lo: int, hi: int) -> tuple:
    """(nums, den) with d^p P_n |_{x=-a} = nums[p - lo] / den for
    p = lo..hi."""
    return over_lcm([data.deriv(n, p) for p in range(lo, hi + 1)])


def row_products(row_m: tuple, row_n: tuple, m_lo: int, n_lo: int,
                 t_lo: int, t_hi: int) -> tuple:
    """(sums, den) with

        sum_{a+b=t} d^a P_m * d^b P_n |_{x=-a} = sums[t - t_lo] / den

    for t = t_lo..t_hi, from the `deriv_ints` rows of P_m from order m_lo
    and of P_n from order n_lo.  Terms with a < m_lo or b < n_lo are left
    out, so a caller sets the bounds where those terms have no partner."""
    (dm, den_m), (dn, den_n) = row_m, row_n
    m, n = m_lo + len(dm) - 1, n_lo + len(dn) - 1
    sums = []
    for t in range(t_lo, t_hi + 1):
        a_lo, a_hi = max(m_lo, t - n), min(m, t - n_lo)
        sums.append(sum(dm[a - m_lo] * dn[t - a - n_lo]
                        for a in range(a_lo, a_hi + 1)))
    return sums, den_m * den_n


def column_ints(data: GenericBasisData, j: int, lo: int, hi: int) -> tuple:
    """(nums, den) with b_{q,j}/q! = nums[q - lo] / den for q = lo..hi:
    the column over one denominator, each entry weighted by hi!/q!.

    Reads b_{lo,j}, ..., b_{hi,j} in that order, so a table that stops
    short names the first entry of the column it lacks."""
    column, b_den = over_lcm([data.b(q, j) for q in range(lo, hi + 1)])
    f = 1
    for q in range(hi, lo - 1, -1):  # f = hi!/q!
        column[q - lo] *= f
        f *= q
    return column, b_den * factorial(hi)


def column_sum(data: GenericBasisData, j: int, lo: int, hi: int,
               weights: list, den: int) -> Fraction:
    """sum_{q=lo}^{hi} b_{q,j}/q! * weights[q - lo] / den for int weights,
    the column read by `column_ints`."""
    column, col_den = column_ints(data, j, lo, hi)
    return Fraction(sum(map(operator.mul, column, weights)), col_den * den)


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
    weights, den = deriv_ints(data, n, r + k, n)
    return RATIONAL.make(column_sum(data, k + s, k + s, n - r + s,
                                    weights, den))
