"""Closed-form convolution coefficients for the classical families.

For each family the coefficient rho_{j,n}^m of the convolution expansion
splits into three index regimes (assuming m <= n, free by commutativity):

* j >= max(m+1, n-m-1): a single sum of ``varpi`` terms,
* m+1 <= j <= n-m-2 (possible once n >= 2m+3): exactly zero,
* 0 <= j <= m: a ``varpi`` sum with the degree roles swapped plus a sum of
  ``d`` terms.

Laguerre collapses to an explicit piecewise rational expression.  The
interval families take their varpi and d sums from one table, ``_SUMS``,
and their parameters from the Jacobi row over one common denominator,
``FamilySpec._row_ints``.  Each sum is evaluated from its printed display
by term ratios: the first term is one product of rising factorials, each
later term is the one before times a low-degree rational function of nu,
and the sum is one integer Horner loop (``_ratio_sum``) over a running
denominator, times that first term, with one ``Fraction`` made per cell.
A sum of n terms costs O(n) int steps, plus one short terminating pFq per
term where the display has one.  The displays whose terms vanish for odd
n+nu-j (symmetric, Legendre and Chebyshev varpi) step nu by 2, and so
does the Legendre d sum, once per parity, since its gamma quotient gains
a half-integer shift at each single step.

Every rescaling comes from the family's normalization c_n = (p)_n / (q)_n
(P_n = c_n J_n, J the Jacobi polynomial), two int rising factorials of
its row: Gegenbauer sums the symmetric-Jacobi terms at
alpha = lam - 1/2 and multiplies by c_m c_n / c_j; Chebyshev has its own
simplified forms in the T normalization, whose n = 0 case takes the same
factor; and ``symmetry_factor`` is the Jacobi one times (c_j / c_n)^2.  The
symmetric varpi display has a removable singularity at alpha = -1/2, where
the equivalent general-parameter form is used instead; the symmetric d
sum is the general display at beta = alpha, with its own 4F3.

The figure grid (``magnitude_grid``) and every table and series product
in ``convmat`` are not summed cell by cell.  ``series_columns`` fills the
columns of a weighted sum sum_m w_m rho^m exactly by one recurrence in n:
it starts from the derivative connection, closes each column at j = 0 by
the endpoint condition, and skips every row whose operands are zero,
making connection data only for the rows a column can reach.
``rho_columns`` is its single-weight case.  The recurrence runs in ints:
its coefficients and the values P_k(-a) are int pairs from
``basis.connection_ints`` and ``basis.endpoint_ints``, and each column is
kept as int numerators over one positive denominator, (nums, den), with
its content divided out.  A cell leaves that layout in one of two ways.
``magnitude_grid`` reads log10 |rho| straight off each column's ints
(``scalars.log10_abs_ints``), with no ``Fraction`` made.  The tables in
``convmat``, their entries and writers walk the rows of ``_rows``, which
makes a ``Fraction`` in lowest terms per cell as it leaves, one row at a
time as it is read; ``_write_jn_rows`` writes the ``j,n,value`` lines of
those tables and of the figure.  The closed forms are off both paths;
they remain the reference that certifies them (``verify``, the tests and
the benchmark's checks).

Everything here is a pure function of its inputs.  Every formula, Laguerre,
the symmetry factors and the Bateman tensor included, is a product of int
pairs: rising factorials from ``scalars.pochhammer_ints`` (imported as
``_rising``; a negative order is a gamma quotient) and pFq sums from
``scalars.hyp_pfq_ints``, with one ``Fraction`` per value.  Only the 4F3
factors of the ``d`` terms (``_jacobi_d_f43``, ``_sym_d_f43``,
``_cheb_d_f43``), which cells of the same m and j share, are memoized.
``clear_caches`` empties them and the cache of ``scalars.pochhammer``
(imported as ``_poch``), which no package path calls.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import repeat

from .basis import (Family, FamilySpec, chebyshev, connection_ints,
                    endpoint_ints)
from .errors import IndexContractError
from .scalars import (RATIONAL, Scalar, exact, factorial, hyp_pfq_ints,
                      log10_abs_ints, lowest, over_lcm, over_rising, sign,
                      times)
# unused here: bench/tracing.py wraps `hyp_pfq` and `log10_abs`,
# bench/job.py reads `_poch`
from .scalars import hyp_pfq, log10_abs  # noqa: F401
from .scalars import pochhammer as _poch
from .scalars import pochhammer_ints as _rising

_ZERO = Fraction(0)
_CHEBYSHEV = chebyshev()


def _ratio_sum(nus: range, term, ratio, factor=None) -> tuple:
    """sum over nu in `nus` of term(nu) * factor(nu), as an int pair.

    term(nu) is the display's term as an int pair and ratio(nu) = (a, b),
    two ints with term(nu') = term(nu) * a / b for nu' the next nu in
    `nus`; factor(nu), when given, is a short pFq as an int pair, and 1
    when None.  The sum is a Horner loop from the last nu,
    H <- factor(nu) + (a / b) H, over one running denominator with its
    common factor divided out at each step (the b's telescope against the
    a's, so the running pair would otherwise grow many times past the
    sum's own size), times one direct first term.  A ratio with a zero
    factor is never divided through: the sum restarts from a direct term at
    the next nu, and a run that starts at a zero term, zero throughout,
    costs that one term and no loop.
    """
    if not nus:
        return 0, 1
    ratios = [ratio(nu) for nu in nus[:-1]]
    starts = [0] + [i + 1 for i, (a, b) in enumerate(ratios) if not (a and b)]
    num, den, end = 0, 1, len(nus)
    for start in reversed(starts):
        tn, td = term(nus[start])
        if tn:
            hn, hd = (1, 1) if factor is None else factor(nus[end - 1])
            for i in range(end - 2, start - 1, -1):
                a, b = ratios[i]
                fn, fd = (1, 1) if factor is None else factor(nus[i])
                hn, hd = fn * b * hd + a * fd * hn, fd * b * hd
                g = math.gcd(hn, hd)
                hn, hd = hn // g, hd // g
            tn, td = tn * hn, td * hd
            num, den = num * td + tn * den, den * td
        end = start
    return num, den


def _parity_range(lo: int, hi: int, k: int) -> range:
    """nu = lo..hi with k + nu even, the nonzero terms of a display that
    vanishes for odd k + nu, in steps of 2."""
    return range(lo + (k + lo) % 2, hi + 1, 2)


# ---------------------------------------------------------------------------
# general Jacobi parameters
# ---------------------------------------------------------------------------
#
# Every interval family's sums take its Jacobi row over one common
# denominator, (d, d alpha, d beta) from `FamilySpec._row_ints`, and
# s = alpha + beta.  Each display below is written as its nu-th term,
# then the quotient of consecutive terms, read off the rising factorials.


def _jacobi_varpi_sum(m: int, n: int, j: int, lo: int, hi: int,
                      row: tuple) -> tuple:
    """sum_{nu=lo}^{hi} of the inner-sum terms of the j >= max(m+1, n-m-1)
    regime for general (alpha, beta):

        varpi_nu = 2 (-1)^(m+nu-1) (alpha+j-nu+1)_(n-j+nu) (s+n+1)_(j-nu)
                   (beta+nu)_(m-nu+1) (s+m+1)_(nu-1)
                   / ((s+j+1)_j (m+1-nu)! (n-j+nu)!)
                   * 3F2(j-n-nu, alpha+j+1, s+n+j-nu+1;
                         alpha+j-nu+1, s+2j+2; 1)

    and, apart from the 3F2, varpi_(nu+1) / varpi_nu =
    -(alpha+j-nu)(s+m+nu)(m+1-nu) / ((s+n+j-nu)(beta+nu)(n-j+nu+1))."""
    d, a, b = row
    s = a + b

    def term(nu):
        return times((2 * sign(m + nu - 1),
                      factorial(m + 1 - nu) * factorial(n - j + nu)),
                     _rising(a + (j - nu + 1) * d, d, n - j + nu),
                     _rising(s + (n + 1) * d, d, j - nu),
                     _rising(b + nu * d, d, m - nu + 1),
                     _rising(s + (m + 1) * d, d, nu - 1),
                     over_rising(s + (j + 1) * d, d, j))

    def ratio(nu):
        return (-(a + (j - nu) * d) * (s + (m + nu) * d) * (m + 1 - nu),
                (s + (n + j - nu) * d) * (b + nu * d) * (n - j + nu + 1))

    def factor(nu):
        return hyp_pfq_ints(
            [(j - n - nu, 1), (a + (j + 1) * d, d),
             (s + (n + j - nu + 1) * d, d)],
            [(a + (j - nu + 1) * d, d), (s + (2 * j + 2) * d, d)], (1, 1))

    return _ratio_sum(range(lo, hi + 1), term, ratio, factor)


@lru_cache(maxsize=200_000)
def _jacobi_d_f43(m: int, nu: int, j: int, d: int, a: int, b: int) -> tuple:
    """4F3(1, -m, beta+nu+1, s+m+1; nu-j+1, beta+1, s+j+nu+2; 1) in lowest
    terms, (alpha, beta) = (a/d, b/d)."""
    s = a + b
    return lowest(*hyp_pfq_ints(
        [(1, 1), (-m, 1), (b + (nu + 1) * d, d), (s + (m + 1) * d, d)],
        [(nu - j + 1, 1), (b + d, d), (s + (j + nu + 2) * d, d)], (1, 1)))


def _jacobi_d_sum(m: int, n: int, j: int, row: tuple, f43=None) -> tuple:
    """sum_{nu=j+1}^{n+1} of the second-sum terms of the j <= m regime for
    general (alpha, beta):

        d_nu = 2 (-1)^(m+n+1+nu) (beta+nu) (beta+j+1)_(m-j) (beta+1)_n
               (s+n+1)_(nu-1) / (m! (n+1-nu)! (nu-j)!)
               * (s+2j+1) / (s+j+1)_(nu+1) * f43(nu)

    and, apart from the 4F3 `f43` (`_jacobi_d_f43` unless given),
    d_(nu+1) / d_nu = -(beta+nu+1)(s+n+nu)(n+1-nu)
    / ((beta+nu)(nu+1-j)(s+j+nu+2)).  At j = 0, (s+1) / (s+1)_(nu+1) is
    written 1 / (s+2)_nu: the same number for s != -1, and at s = -1,
    where the display is 0/0, its limit."""
    d, a, b = row
    s = a + b
    if f43 is None:
        def f43(nu):
            return _jacobi_d_f43(m, nu, j, d, a, b)

    def term(nu):
        if j == 0:
            quotient = over_rising(s + 2 * d, d, nu)
        else:
            quotient = times((s + (2 * j + 1) * d, d),
                             over_rising(s + (j + 1) * d, d, nu + 1))
        return times((2 * sign(m + n + 1 + nu) * (b + nu * d),
                      d * factorial(m) * factorial(n + 1 - nu)
                      * factorial(nu - j)),
                     _rising(b + (j + 1) * d, d, m - j),
                     _rising(b + d, d, n),
                     _rising(s + (n + 1) * d, d, nu - 1),
                     quotient)

    def ratio(nu):
        return (-(b + (nu + 1) * d) * (s + (n + nu) * d) * (n + 1 - nu),
                (b + nu * d) * (nu + 1 - j) * (s + (j + nu + 2) * d))

    return _ratio_sum(range(j + 1, n + 2), term, ratio, f43)


# ---------------------------------------------------------------------------
# symmetric Jacobi (alpha = beta)
# ---------------------------------------------------------------------------


def _sym_varpi_sum(m: int, n: int, j: int, lo: int, hi: int,
                   row: tuple) -> tuple:
    """The symmetric-parameter varpi sum, zero for odd n+nu-j, so in steps
    of 2 over h = (n+nu-j)/2:

        varpi_nu = 2 (-1)^(m+nu+1) (alpha+nu)_(m+1-nu) (2alpha+m+1)_(nu-1)
                   (2alpha+n+1)_(j-nu) (-nu)_h (alpha+j-nu+1/2)_h
                   (alpha+j-nu+1)_(n+nu-j)
                   / ((m-nu+1)! h! (2alpha+j+1)_j (alpha+j+3/2)_h
                      (2alpha+2j-2nu+1)_(n+nu-j)),

        varpi_(nu+2) / varpi_nu = (m+1-nu)(m-nu)(2alpha+m+nu)
            (2alpha+m+nu+1)(nu+1)(nu+2) / ((alpha+nu)(alpha+nu+1)(n-j-nu-2)
            (2alpha+n+j-nu-1)(n-j+nu+2)(2alpha+n+j+nu+3)).

    At alpha = -1/2 the display is indeterminate (0/0) and the general form
    is used."""
    d, a, _ = row
    if 2 * a == -d:
        return _jacobi_varpi_sum(m, n, j, lo, hi, (d, a, a))

    def term(nu):
        h = (n + nu - j) // 2
        return times((2 * sign(m + nu + 1),
                      factorial(m - nu + 1) * factorial(h)),
                     _rising(a + nu * d, d, m + 1 - nu),
                     _rising(2 * a + (m + 1) * d, d, nu - 1),
                     _rising(2 * a + (n + 1) * d, d, j - nu),
                     _rising(-nu, 1, h),
                     _rising(2 * a + (2 * (j - nu) + 1) * d, 2 * d, h),
                     _rising(a + (j - nu + 1) * d, d, n + nu - j),
                     over_rising(2 * a + (j + 1) * d, d, j),
                     over_rising(2 * a + (2 * j + 3) * d, 2 * d, h),
                     over_rising(2 * a + (2 * (j - nu) + 1) * d, d,
                                 n + nu - j))

    def ratio(nu):
        return ((m + 1 - nu) * (m - nu) * (2 * a + (m + nu) * d)
                * (2 * a + (m + nu + 1) * d) * (nu + 1) * (nu + 2) * d * d,
                (a + nu * d) * (a + (nu + 1) * d) * (n - j - nu - 2)
                * (2 * a + (n + j - nu - 1) * d) * (n - j + nu + 2)
                * (2 * a + (n + j + nu + 3) * d))

    return _ratio_sum(_parity_range(lo, hi, n - j), term, ratio)


@lru_cache(maxsize=200_000)
def _sym_d_f43(m: int, nu: int, j: int, d: int, a: int) -> tuple:
    """4F3(1, -m, alpha+nu+1, 2alpha+m+1; nu-j+1, alpha+1, 2alpha+j+nu+2;
    1) in lowest terms, alpha = a/d."""
    return lowest(*hyp_pfq_ints(
        [(1, 1), (-m, 1), (a + (nu + 1) * d, d), (2 * a + (m + 1) * d, d)],
        [(nu - j + 1, 1), (a + d, d), (2 * a + (j + nu + 2) * d, d)], (1, 1)))


def _sym_d_sum(m: int, n: int, j: int, row: tuple) -> tuple:
    """The symmetric-parameter d sum: the general display at beta = alpha,
    alpha = -1/2 and its j = 0 limit included, with the symmetric 4F3."""
    d, a, _ = row
    return _jacobi_d_sum(m, n, j, (d, a, a),
                         lambda nu: _sym_d_f43(m, nu, j, d, a))


# ---------------------------------------------------------------------------
# Legendre
# ---------------------------------------------------------------------------


def _legendre_varpi_sum(m: int, n: int, j: int, lo: int, hi: int,
                        row: tuple) -> tuple:
    """The Legendre varpi sum, zero for odd n+nu-j, with h = (n-j+nu)/2:

        varpi_nu = (-1)^(m+nu+1) (2j+1) (m+nu-1)! (-nu)_h
                   / (4^nu (nu-1)! (m-nu+1)! h! ((n+j-nu+1)/2)_(nu+1)),

        varpi_(nu+2) / varpi_nu = (m+nu)(m+nu+1)(nu+2)(m+1-nu)(m-nu)
            / (nu (n-j-nu-2)(n-j+nu+2)(n+j-nu-1)(n+j+nu+3))."""

    def term(nu):
        h = (n - j + nu) // 2
        return times((sign(m + nu + 1) * (2 * j + 1) * factorial(m + nu - 1),
                      4 ** nu * factorial(nu - 1) * factorial(m - nu + 1)
                      * factorial(h)),
                     _rising(-nu, 1, h),
                     over_rising(n + j - nu + 1, 2, nu + 1))

    def ratio(nu):
        return ((m + nu) * (m + nu + 1) * (nu + 2) * (m + 1 - nu) * (m - nu),
                nu * (n - j - nu - 2) * (n - j + nu + 2) * (n + j - nu - 1)
                * (n + j + nu + 3))

    return _ratio_sum(_parity_range(lo, hi, n - j), term, ratio)


def _sqrt_pi_over_gammas(a2: int, b2: int) -> tuple:
    """sqrt(pi) / (Gamma(a2/2) Gamma(b2/2)) for positive half-arguments,
    exactly one of which is a half-integer, as an int pair."""
    if a2 % 2 == 1:
        t = (a2 - 1) // 2
        other = b2 // 2
    else:
        t = (b2 - 1) // 2
        other = a2 // 2
    # Gamma(t + 1/2) = (2t)! / (4^t t!) sqrt(pi)
    return 4 ** t * factorial(t), factorial(2 * t) * factorial(other - 1)


def _legendre_d_sum(m: int, n: int, j: int, row: tuple) -> tuple:
    """The Legendre d sum.  With the gamma quotient
    G_nu = sqrt(pi) / (Gamma((m-j+nu+2)/2) Gamma((j+m+nu+3)/2)),

        d_nu = (-1)^(m+nu+n+1) (2j+1) nu 2^(j+m-nu) (n+nu-1)!
               ((nu+1-j-m)/2)_(j+m) ((j-m+nu+2)/2)_m
               / ((n-nu+1)! (j+m+nu)!) * G_nu.

    Exactly one of G's arguments is a half-integer, and which one flips
    with nu, so the sum runs as two sums in steps of 2, one per parity:

        d_(nu+2) / d_nu = (nu+2)(n+nu)(n+nu+1)(n+1-nu)(n-nu)
            / (nu (nu+1-j-m)(nu+2+j-m)(nu+2+m-j)(nu+3+j+m))."""

    def term(nu):
        e = j + m - nu
        return times((sign(m + nu + n + 1) * (2 * j + 1) * nu
                      * factorial(n + nu - 1),
                      factorial(n - nu + 1) * factorial(j + m + nu)),
                     (2 ** e, 1) if e >= 0 else (1, 2 ** -e),
                     _rising(nu + 1 - j - m, 2, j + m),
                     _rising(j - m + nu + 2, 2, m),
                     _sqrt_pi_over_gammas(m - j + nu + 2, j + m + nu + 3))

    def ratio(nu):
        return ((nu + 2) * (n + nu) * (n + nu + 1) * (n + 1 - nu) * (n - nu),
                nu * (nu + 1 - j - m) * (nu + 2 + j - m) * (nu + 2 + m - j)
                * (nu + 3 + j + m))

    (pn, pd), (qn, qd) = (_ratio_sum(range(first, n + 2, 2), term, ratio)
                          for first in (j + 1, j + 2))
    return pn * qd + qn * pd, pd * qd


# ---------------------------------------------------------------------------
# Chebyshev (T normalization)
# ---------------------------------------------------------------------------


def _chebyshev_varpi_sum(m: int, n: int, j: int, lo: int, hi: int,
                         row: tuple) -> tuple:
    """The T-normalized varpi sum, zero for odd n+nu-j, with
    h = (n+nu-j)/2:

        varpi_nu = (-1)^m 2^(1-2nu) n (-m)_(nu-1) (m)_(nu-1) (-nu)_h
                   ((n+nu-j+2)/2)_(j-nu-1) / ((1/2)_(nu-1) ((n+nu+j)/2)!),

        varpi_(nu+2) / varpi_nu = 4 (m+1-nu)(m-nu)(m+nu-1)(m+nu)(nu+1)(nu+2)
            / ((n-j-nu-2)(n-j+nu+2)(n+j-nu-2)(2nu-1)(2nu+1)(n+j+nu+2)).

    The display carries a factor n and degenerates at n = 0; that case is
    rescaled from the general form."""
    if n == 0:
        return times(_rescale(_CHEBYSHEV, m, n, j),
                     _jacobi_varpi_sum(m, n, j, lo, hi, row))

    def term(nu):
        h = (n + nu - j) // 2
        return times((sign(m) * 2 * n,
                      4 ** nu * factorial((n + nu + j) // 2)),
                     _rising(-m, 1, nu - 1),
                     _rising(m, 1, nu - 1),
                     _rising(-nu, 1, h),
                     _rising(n + nu - j + 2, 2, j - nu - 1),
                     over_rising(1, 2, nu - 1))

    def ratio(nu):
        return (4 * (m + 1 - nu) * (m - nu) * (m + nu - 1) * (m + nu)
                * (nu + 1) * (nu + 2),
                (n - j - nu - 2) * (n - j + nu + 2) * (n + j - nu - 2)
                * (2 * nu - 1) * (2 * nu + 1) * (n + j + nu + 2))

    return _ratio_sum(_parity_range(lo, hi, n - j), term, ratio)


@lru_cache(maxsize=200_000)
def _cheb_d_f43(m: int, nu: int, j: int) -> tuple:
    """4F3(1, -m, m, nu+1/2; 1/2, nu-j+1, j+nu+1; 1) in lowest terms."""
    return lowest(*hyp_pfq_ints(
        [(1, 1), (-m, 1), (m, 1), (2 * nu + 1, 2)],
        [(1, 2), (nu - j + 1, 1), (j + nu + 1, 1)], (1, 1)))


def _chebyshev_d_sum(m: int, n: int, j: int, row: tuple) -> tuple:
    """The T-normalized d sum, with lead = 2 at j = 0 and 4 otherwise:

        d_nu = lead (-1)^(m+n) (-n)_(nu-1) (n)_(nu-1) (nu-1/2)
               / ((nu-j)! (j+nu)!) * 4F3(nu),

    and, apart from the 4F3 `_cheb_d_f43`, d_(nu+1) / d_nu =
    (nu-1-n)(n+nu-1)(2nu+1) / ((2nu-1)(nu+1-j)(nu+1+j))."""

    def term(nu):
        return times(((2 if j == 0 else 4) * sign(m + n) * (2 * nu - 1),
                      2 * factorial(nu - j) * factorial(j + nu)),
                     _rising(-n, 1, nu - 1),
                     _rising(n, 1, nu - 1))

    def ratio(nu):
        return ((nu - 1 - n) * (n + nu - 1) * (2 * nu + 1),
                (2 * nu - 1) * (nu + 1 - j) * (nu + 1 + j))

    return _ratio_sum(range(j + 1, n + 2), term, ratio,
                      lambda nu: _cheb_d_f43(m, nu, j))


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------


def laguerre_rho(alpha: Fraction, m: int, n: int, j: int) -> Fraction:
    """Piecewise closed form, m <= n assumed; j in [0, m+n+1].  With
    t_j = (alpha-1)_(m+n+1-j) / (m+n+1-j)!, it is -t_j for j > n, t_j for
    j < m, and (alpha)_(m+1) / (m+1)! + (alpha)_m / m!, written
    (alpha)_m (alpha+2m+1) / (m+1)!, at j = m = n.  For m < n it is
    (alpha)_m / m! at j = n, (alpha)_(n+1) / (n+1)! at j = m, 0 between."""
    alpha = exact(alpha)
    a, d = alpha.numerator, alpha.denominator

    def term(p, k, scale=(1, 1)):
        """(p/d)_k / k! times the int pair `scale`."""
        num, den = times(_rising(p, d, k), scale)
        return Fraction(num, den * factorial(k))

    if j > n:
        return term(a - d, m + n + 1 - j, (-1, 1))
    if j < m:
        return term(a - d, m + n + 1 - j)
    if m == n:
        return term(a, m, (a + (2 * m + 1) * d, d * (m + 1)))
    if j == n:
        return term(a, m)
    return term(a, n + 1) if j == m else _ZERO


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


# Interval family -> (varpi sum, d sum, whether the sums are in the Jacobi
# normalization rather than the family's own).
_SUMS = {
    Family.JACOBI: (_jacobi_varpi_sum, _jacobi_d_sum, False),
    Family.SYMMETRIC_JACOBI: (_sym_varpi_sum, _sym_d_sum, False),
    Family.GEGENBAUER: (_sym_varpi_sum, _sym_d_sum, True),
    Family.LEGENDRE: (_legendre_varpi_sum, _legendre_d_sum, False),
    Family.CHEBYSHEV: (_chebyshev_varpi_sum, _chebyshev_d_sum, False),
}


def _rescale(spec: FamilySpec, m: int, n: int, j: int) -> tuple:
    """c_m c_n / c_j as an int pair (P_k = c_k J_k): the factor taking
    rho_{j,n}^m from the Jacobi normalization to the family's own."""
    c = spec._normalization_ints
    return times(c(m), c(n), c(j)[::-1])


def rho_closed(spec: FamilySpec, m: int, n: int, j: int) -> Scalar:
    """The coefficient rho_{j,n}^m in the family's own normalization,
    from the closed forms, exact whatever the spec's backend.  Swaps (m, n)
    when m > n (commutativity)."""
    if m < 0 or n < 0:
        raise IndexContractError("degrees must be nonnegative")
    if m > n:
        m, n = n, m

    f = spec.family
    if j < 0 or j > m + n + 1:
        total = _ZERO
    elif f is Family.LAGUERRE:
        total = laguerre_rho(spec._exact[0], m, n, j)
    elif f is Family.GENERIC_MONIC:
        raise ValueError("generic sequences have no closed form; use the "
                         "family-agnostic formulas in polyconv.generic_conv")
    elif m + 1 <= j <= n - m - 2:
        total = _ZERO
    else:
        varpi, d_sum, jacobi_normalized = _SUMS[f]
        row = spec._row_ints[:3]
        if j >= max(m + 1, n - m - 1):
            num, den = varpi(m, n, j, max(1, abs(j - n)), m + 1, row)
        else:
            # the varpi sum with the degrees' roles swapped, then the d sum
            (vn, vd), (dn, dd) = (varpi(n, m, j, 1, j, row),
                                  d_sum(m, n, j, row))
            num, den = vn * dd + dn * vd, vd * dd
        if jacobi_normalized:
            num, den = times((num, den), _rescale(spec, m, n, j))
        total = Fraction(num, den)
    return RATIONAL.make(total)


def rho_closed_vector(spec: FamilySpec, m: int, n: int) -> list:
    """All rho_{j,n}^m for j = 0..m+n+1."""
    return [rho_closed(spec, m, n, j) for j in range(m + n + 2)]


def clear_caches() -> None:
    """Empty the memo caches of the d terms' 4F3 factors and of
    `scalars.pochhammer`, which no package path calls.  No result depends
    on them; this only frees the memory they hold."""
    for cache in (_poch, _jacobi_d_f43, _sym_d_f43, _cheb_d_f43):
        cache.cache_clear()


# ---------------------------------------------------------------------------
# zero regions and symmetry scalings
# ---------------------------------------------------------------------------


def zero_region(spec: FamilySpec, m: int, n: int) -> tuple[int, int] | None:
    """The guaranteed-zero index band [lo, hi] (inclusive), or None.

    For a classical family with constant q, rho_{j,n}^m = 0 for
    m+1 <= j <= n-m-q-1 once n >= 2m+q+2; roles swap when m dominates.
    """
    q = spec.zero_region_q
    if q is None:
        return None
    if n >= 2 * m + q + 2:
        return (m + 1, n - m - q - 1)
    if m >= 2 * n + q + 2:
        return (n + 1, m - n - q - 1)
    return None


def symmetry_factor(spec: FamilySpec, m: int, n: int, j: int) -> Scalar:
    """Factor F with rho_{n,j}^m = F * rho_{j,n}^m.

    Valid for j, n >= m+1 in every interval family and for all j, n in the
    Legendre case.  Laguerre has no such relation.  With s = alpha + beta,

        F = (-1)^(n+j) (s+2n+1) (alpha+1)_j (beta+1)_j
            / ((s+2j+1) (alpha+1)_n (beta+1)_n)
            * ((s+2)_(n-1) / (s+2)_(j-1) * c_j / c_n)^2,

    the Jacobi factor times (c_j / c_n)^2, (s+1)_n / (s+1)_j written as
    above so that it holds at s = -1 too."""
    f = spec.family
    if f is Family.LAGUERRE or f is Family.GENERIC_MONIC:
        raise IndexContractError(f"{f.value} has no symmetry scaling")
    if f is not Family.LEGENDRE and (j < m + 1 or n < m + 1):
        raise IndexContractError(
            f"symmetry scaling needs j, n >= m+1; got j={j}, n={n}, m={m}"
        )
    d, a, b, _, _ = spec._row_ints
    s, c = a + b, spec._normalization_ints
    squared = times(_rising(s + 2 * d, d, n - 1),
                    over_rising(s + 2 * d, d, j - 1), c(j), c(n)[::-1])
    value = times((sign(n + j) * (s + (2 * n + 1) * d), s + (2 * j + 1) * d),
                  _rising(a + d, d, j), _rising(b + d, d, j),
                  over_rising(a + d, d, n), over_rising(b + d, d, n),
                  squared, squared)
    return RATIONAL.make(Fraction(*value))


# ---------------------------------------------------------------------------
# tensor expansion of the difference kernel
# ---------------------------------------------------------------------------


@dataclass
class BatemanTensor:
    """Coefficients c_{m-k,j} detaching the variables of P_m(x - t):

        P_m(x-t) = sum_{k=0}^m sum_{j=0}^{m-k} c_{m-k,j}
                   * P_j(x+1) P_k(t),

    stored, as exact Fractions, only on the triangle j <= m-k."""

    m: int
    alpha: Scalar
    beta: Scalar
    coeffs: dict

    def coefficient(self, k: int, j: int) -> Scalar:
        return RATIONAL.make(self.coeffs.get((k, j), _ZERO))


def bateman_tensor(m: int, alpha, beta) -> BatemanTensor:
    """Tensor-product expansion coefficients of the shifted difference
    kernel for exact Jacobi parameters (alpha, beta), kept as given:

        c_{m-k,j} = sum_{nu=k}^{m-j} (-1)^nu (s+2k+1) (beta+k+1)_(nu-k)
            (alpha+j+nu+1)_(m-nu-j) (s+m+1)_nu (s+m+nu+1)_j * 3F2(j-m+nu,
            alpha+j+1, s+j+m+nu+1; alpha+j+nu+1, s+2j+2; 1)
            / ((s+k+1)_(nu+1) (nu-k)! (m-nu-j)! (s+j+1)_j),

    s = alpha + beta, each term an int pair, one Fraction per entry."""
    (a, b), d = over_lcm([exact(alpha), exact(beta)])
    s = a + b
    coeffs = {}
    for k in range(m + 1):
        for j in range(m - k + 1):
            num, den = 0, 1
            for nu in range(k, m - j + 1):
                tn, td = times(
                    (sign(nu) * (s + (2 * k + 1) * d),
                     d * factorial(nu - k) * factorial(m - nu - j)),
                    _rising(b + (k + 1) * d, d, nu - k),
                    over_rising(s + (k + 1) * d, d, nu + 1),
                    _rising(a + (j + nu + 1) * d, d, m - nu - j),
                    _rising(s + (m + 1) * d, d, nu),
                    _rising(s + (m + nu + 1) * d, d, j),
                    over_rising(s + (j + 1) * d, d, j),
                    hyp_pfq_ints([(j - m + nu, 1), (a + (j + 1) * d, d),
                                  (s + (j + m + nu + 1) * d, d)],
                                 [(a + (j + nu + 1) * d, d),
                                  (s + (2 * j + 2) * d, d)], (1, 1)))
                num, den = num * td + tn * den, den * td
            coeffs[(k, j)] = Fraction(num, den)
    return BatemanTensor(m, alpha, beta, coeffs)


# ---------------------------------------------------------------------------
# the column engine and figure data
# ---------------------------------------------------------------------------


def series_columns(spec: FamilySpec, weights: dict, nmax: int) -> list:
    """The columns R_{., n} = sum_m w_m rho^m_{., n}, n = 0..nmax, where
    `weights` maps each degree m to its exact coefficient w_m.  Column n
    holds j = 0..M+n+1, M the highest degree of nonzero weight (0 when
    there is none), as a pair (nums, den): R_{j,n} = nums[j] / den, with
    int numerators and one positive int denominator, the column's content
    divided out (gcd(den, *nums) = 1).

    rho is linear in P_m and the recurrence below is linear in rho, so one
    run serves a whole series.  With the derivative connection
    P_n = A_n P'_{n+1} + B_n P'_n + C_n P'_{n-1} and the weighted image

        h_j = sum_m w_m [A_m d_{j,m+1} + B_m d_{j,m} + C_m d_{j,m-1}]

    (d the Kronecker delta), column 0 is h for j >= 1: the convolution of
    P_m with P_0 = 1 is the integral of P_m from -a to x+a.  No closed
    form is evaluated.  Each later column follows from the two before it:
    for j >= 1

        A_n R_{j,n+1} = A_{j-1} R_{j-1,n} + (B_j - B_n) R_{j,n}
                        + C_{j+1} R_{j+1,n} - C_n R_{j,n-1} + E_n h_j

    with E_n = A_n P_{n+1}(-a) + B_n P_n(-a) + C_n P_{n-1}(-a).  Every
    column's j = 0 entry, column 0's included, closes it through
    sum_j R_{j,n} P_j(-a) = 0, since the convolution vanishes at x = -2a
    (P_0 = 1).

    The arithmetic is integer.  A, B and C are int pairs from
    `basis.connection_ints`, and the values P_k(-a) int numerators over one
    denominator from `basis.endpoint_ints`.  Row j's equation is weighted
    by l_j, the lcm of the denominators of A_{j-1}, B_j and C_{j+1}, which
    makes its row part an int combination of the column's numerators; the
    terms of the column (B_n, C_n, E_n, 1/A_n and the denominators of the
    columns they act on) share one denominator G.  A row's weight is
    divided back out by its gcd with that row's numerator before the
    column takes the lcm of what is left, so the lcm of the row weights
    never multiplies the numerators: the new column's denominator is G
    times a divisor of its true one, until one `math.gcd` over the column
    removes its content.  A row whose operands are all zero is skipped.
    Column n + 1 can be nonzero only within n + 2 rows of row 0 or of a
    degree m of nonzero weight, so the connection data and row weights are
    made only for the rows within nmax + 1 of those, O(nmax) rows per
    weight, in a table local to the call: the zero band between two
    weights costs one test per row and column and no set-up, and a row in
    it costs O(1) int operations per nonzero entry.  The endpoint values
    P_k(-a), k <= top = M + nmax + 2, are still made for every k, O(top)
    once per call, since the closing sum needs the common denominator of
    P_top(-a).
    """
    weights = {m: w for m, w in weights.items() if w}
    if nmax < 0 or any(m < 0 for m in weights):
        raise IndexContractError("degrees must be nonnegative")
    top_m = max(weights, default=0)
    top = top_m + nmax + 2
    ends, end_den = endpoint_ints(spec, top)
    # the rows a column can reach, and row k's (l_k, l_k A_{k-1}, l_k B_k,
    # l_k C_{k+1}) as ints
    visits = {k for m in (0, *weights)
              for k in range(max(1, m - nmax - 1), min(top, m + nmax + 2))}
    conn = {k: connection_ints(spec, k) for k in
            {0, *weights, *(i for k in visits for i in (k - 1, k, k + 1))}}
    rows = [None] * top
    for k in visits:
        pairs = (conn[k - 1][0], conn[k][1], conn[k + 1][2])
        weight = math.lcm(*(y for _, y in pairs))
        rows[k] = (weight, *(x * (weight // y) for x, y in pairs))

    image = {}
    for m, w in weights.items():
        a, b, c = conn[m]
        for k, (x, y) in ((m + 1, a), (m, b), (m - 1, c)):
            if k >= 1 and x:
                image[k] = image.get(k, _ZERO) + w * Fraction(x, y)
    h = [0] * (top + 1)
    image_nums, h_den = over_lcm(image.values())
    for k, v in zip(image, image_nums):
        h[k] = v

    def close(nums, den):
        """Set nums[0] from sum_j R_j P_j(-a) = 0; divide out the content."""
        total = sum(v * e for v, e in zip(nums[1:], ends[1:]) if v)
        first = Fraction(-total, den * end_den)
        scale = first.denominator // math.gcd(first.denominator, den)
        if scale > 1:
            nums = [v * scale for v in nums]
            den *= scale
        nums[0] = first.numerator * (den // first.denominator)
        g = math.gcd(den, *nums)
        if g > 1:
            nums = [v // g for v in nums]
            den //= g
        return nums, den

    cols = [close(h[:top_m + 2], h_den)]
    for n in range(nmax):
        size = top_m + n + 3
        cur, den = cols[n]
        cur = cur + [0, 0]
        prev, prev_den = cols[n - 1] if n else ([], 1)
        prev = prev + [0] * (size - len(prev))
        (an, ad), (bn, bd), (cn, cd) = conn[n]
        # E_n times end_den; C_0 = 0, so n = 0 reads no P_{-1}(-a)
        e = sum((Fraction(x * ends[k], y) for (x, y), k
                 in zip(conn[n], (n + 1, n, n - 1)) if x), _ZERO)
        # R_{., n+1} = [rows/l_k / den - B_n cur / den - C_n prev / prev_den
        #               + E_n h / h_den] / A_n, the column terms over G
        (u, vb, vc, w), g_den = over_lcm([
            Fraction(ad, an * den), Fraction(-bn * ad, bd * an * den),
            Fraction(-cn * ad, cd * an * prev_den),
            e * Fraction(ad, an * h_den * end_den)])
        nxt, row_dens = [0] * size, [1] * size
        for k in range(1, size):
            x0, x1, x2, y, z = cur[k - 1], cur[k], cur[k + 1], prev[k], h[k]
            if not (x0 or x1 or x2 or y or z):
                continue
            weight, ra, rb, rc = rows[k]
            t = u * (ra * x0 + rb * x1 + rc * x2) + weight * (vb * x1 + vc * y
                                                              + w * z)
            if weight > 1:
                g = math.gcd(t, weight)
                t //= g
                row_dens[k] = weight // g
            nxt[k] = t
        scale = math.lcm(*row_dens)
        nxt = [v * (scale // d) if v else 0 for v, d in zip(nxt, row_dens)]
        cols.append(close(nxt, g_den * scale))
    return cols


def rho_columns(spec: FamilySpec, m: int, nmax: int) -> list:
    """The columns rho^m_{., n} for n = 0..nmax in the layout of
    `series_columns`, column n holding j = 0..m+n+1: `series_columns` with
    the single weight w_m = 1."""
    return series_columns(spec, {m: Fraction(1)}, nmax)


def _fractions(col: tuple) -> list:
    """The exact values of one column (nums, den), each a Fraction in
    lowest terms: made only where a cell leaves the engine."""
    return list(_cells(col, len(col[0])))


def _cells(col: tuple, n_rows: int):
    """Cells j < n_rows of the column (nums, den), zero below its end, each
    a Fraction in lowest terms made when it is read."""
    nums, den = col
    for v in nums[:n_rows]:
        yield Fraction(v, den) if v else _ZERO
    yield from repeat(_ZERO, n_rows - len(nums))


def _rows(cols: list, n_rows: int):
    """Rows j < n_rows of the columns `cols`, as Fractions: the walk over
    the column layout for the tables' entries and their writers.  One
    `_cells` generator per column, zipped, so row j's Fractions are made
    only when row j is read."""
    return zip(*(_cells(col, n_rows) for col in cols))


def structural_zero(spec: FamilySpec, m: int, n: int, j: int) -> bool:
    """True when branch logic alone certifies rho_{j,n}^m = 0 exactly.

    Degree bound, the guaranteed zero bands in both orientations, the
    symmetric extension available for Legendre, and (Laguerre only, where
    the closed form is a cheap product) exact evaluation.
    """
    if j > m + n + 1:
        return True
    if spec.family is Family.LAGUERRE:
        mm, nn = (m, n) if m <= n else (n, m)
        return laguerre_rho(spec._exact[0], mm, nn, j) == 0
    if spec.family is Family.LEGENDRE and (n > j + m + 1 or m > j + n + 1):
        # full symmetry in (j, n, m): support is the tilted band where no
        # index exceeds the sum of the others plus one
        return True
    band = zero_region(spec, m, n)
    return band is not None and band[0] <= j <= band[1]


def magnitude_grid(spec: FamilySpec, m: int, jmax: int, nmax: int) -> list:
    """log10 |rho| on the grid, as rows grid[j][n]; None marks exact zeros.
    Every cell is computed exactly by `rho_columns`, so zeros are exact, and
    the logarithm is taken of the exact value, read straight off its
    column's int numerator and denominator by `log10_abs_ints`: the grid
    starts as all None and only the nonzero cells are filled, with no
    Fraction made."""
    cols = rho_columns(spec, m, nmax)
    grid = [[None] * (nmax + 1) for _ in range(jmax + 1)]
    for n, (nums, den) in enumerate(cols):
        for row, v in zip(grid, nums):
            if v:
                row[n] = log10_abs_ints(v, den)
    return grid


def _write_jn_rows(rows, fmt, stream, zero=None, name: str = "value") -> None:
    """Write rows[j][n] as `j,n,<name>` lines, each row's lines as one
    joined string: a nonzero cell as fmt(cell), tested before fmt runs, so
    a backend's `format` rounds it once; a zero cell as the text `zero`,
    made once by the caller, or not at all when `zero` is None (the triplet
    format).  No field ever holds a comma, quote or newline, so the lines
    are the ones a `csv.writer` would write, unquoted."""
    stream.write(f"j,n,{name}\n")
    for j, row in enumerate(rows):
        stream.write("".join([f"{j},{n},{fmt(v) if v else zero}\n"
                              for n, v in enumerate(row)
                              if v or zero is not None]))


def write_magnitude_csv(grid: list, stream) -> None:
    """Write figure data as `j,n,log10abs` with `-inf` for exact zeros.
    Each cell is its repr text before the writer tests it, so a 0.0 cell
    (|rho| = 1) prints `0.0`, not `-inf`."""
    text = ([None if v is None else repr(v) for v in row] for row in grid)
    _write_jn_rows(text, str, stream, "-inf", name="log10abs")
