"""Closed-form convolution coefficients for the classical families.

For each family the coefficient rho_{j,n}^m of the convolution expansion
splits into three index regimes (assuming m <= n, free by commutativity):

* j >= max(m+1, n-m-1): a single sum of ``varpi`` terms,
* m+1 <= j <= n-m-2 (possible once n >= 2m+3): exactly zero,
* 0 <= j <= m: a ``varpi`` sum with the degree roles swapped plus a sum of
  ``d`` terms.

Laguerre collapses to an explicit piecewise rational expression.  Every
interval family is summed at its Jacobi row over one common denominator,
``FamilySpec._row_ints``, and the row alone picks the sums: the symmetric
varpi display where alpha = beta (symmetric Jacobi, Gegenbauer, Legendre,
Chebyshev, jacobi(alpha, alpha)), the general one elsewhere, and the one
d sum, ``_jacobi_d_sum``, everywhere.  Each sum is evaluated from its
printed display by term ratios: the first term is one product of rising
factorials, each later term is the one before times a low-degree rational
function of nu, and the sum is one integer Horner loop (``_ratio_sum``)
over a running denominator, times that first term, with one ``Fraction``
made per cell.  A sum of n terms costs O(n) int steps, plus one short
terminating pFq per term where the display has one.  The symmetric
display has no pFq, and its terms vanish for odd n+nu-j, so it steps nu
by 2.  It is the paper's display with three factors merged into one by
the duplication formula, so it has no pole at alpha = -1/2 (Chebyshev's
row), where the paper's is 0/0.

The sums are in the Jacobi normalization.  A row with p != q (Gegenbauer,
Chebyshev) has P_n = c_n J_n, c_n = (p)_n / (q)_n, and its rho is
c_m c_n / c_j times the Jacobi one, c_n / c_j read as the quotient
(p+j)_(n-j) / (q+j)_(n-j) of |n - j| factors; ``symmetry_factor`` is the
Jacobi one times (c_j / c_n)^2.  Every d sum reads one 4F3,
``_jacobi_d_f43``.

One per-pair core, ``_closed_pair``, serves every closed-form value: it
picks the pair's display, reads the row and forms c_m once, then sums each
j alone.  ``rho_closed`` is its one-cell case, ``rho_closed_vector`` its
one-pair case (both swap m > n), and ``table_fractions`` all pairs
m <= n <= D as one table of Fractions in the layout of
``oracle.table_fractions``, the closed route of ``verify``.

Every table, product and figure grid comes from the column engine
(``engine``); the closed forms are the reference that certifies it.
``magnitude_grid`` reads its columns into the figure grid, log10 |rho|
off their ints, and ``write_magnitude_csv`` writes that grid.

Everything here is a pure function of its inputs.  Every formula, Laguerre,
the symmetry factors and the Bateman tensor included, is a product of int
pairs: rising factorials from ``scalars.pochhammer_ints`` (imported as
``_rising``; a negative order is a gamma quotient) and pFq sums from
``scalars.hyp_pfq_ints``, with one ``Fraction`` per value.
``bateman_tensor`` returns its entries in a :class:`BatemanTensor`, a
record (``scalars._Record``) equal when its fields are.  Only the 4F3
factor of the ``d`` terms, ``_jacobi_d_f43``, which cells of the same m
and j share, is memoized; ``clear_caches`` empties it, the benchmark's
handles ``_sym_d_f43`` and ``_cheb_d_f43`` (its specializations, which
nothing here calls) and the cache of ``scalars.pochhammer`` (imported as
``_poch``), which no package path calls.
"""

import math
from fractions import Fraction
from functools import lru_cache

from .basis import Family, FamilySpec, legendre, pole_free_quotient
from .engine import iter_columns, write_jn_rows
from .errors import IndexContractError
from .scalars import (RATIONAL, Scalar, _Record, exact, factorial,
                      hyp_pfq_ints, log10_abs_ints, lowest, over_lcm,
                      over_rising, sign, times)
# unused here: bench/tracing.py wraps `hyp_pfq` and `log10_abs`,
# bench/job.py reads `_poch`
from .scalars import hyp_pfq, log10_abs  # noqa: F401
from .scalars import pochhammer as _poch
from .scalars import pochhammer_ints as _rising

_ZERO = Fraction(0)
# (alpha, beta, p, q) of Legendre, whose rho is symmetric in all of
# (j, n, m); jacobi(0, 0) has the same row
_LEGENDRE_ROW = legendre()._jacobi_row


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


def _jacobi_d_sum(m: int, n: int, j: int, row: tuple) -> tuple:
    """sum_{nu=j+1}^{n+1} of the second-sum terms of the j <= m regime for
    every interval row, beta = alpha included:

        d_nu = 2 (-1)^(m+n+1+nu) (beta+nu) (beta+j+1)_(m-j) (beta+1)_n
               (s+n+1)_(nu-1) / (m! (n+1-nu)! (nu-j)!)
               * (s+2j+1) / (s+j+1)_(nu+1) * 4F3(nu)

    and, apart from the 4F3 (`_jacobi_d_f43`), d_(nu+1) / d_nu =
    -(beta+nu+1)(s+n+nu)(n+1-nu) / ((beta+nu)(nu+1-j)(s+j+nu+2)).  The
    factor (s+2j+1) / (s+j+1)_(nu+1) is `basis.pole_free_quotient`, which
    takes its limit at j = 0, s = -1."""
    d, a, b = row
    s = a + b

    def term(nu):
        return times((2 * sign(m + n + 1 + nu) * (b + nu * d),
                      d * factorial(m) * factorial(n + 1 - nu)
                      * factorial(nu - j)),
                     _rising(b + (j + 1) * d, d, m - j),
                     _rising(b + d, d, n),
                     _rising(s + (n + 1) * d, d, nu - 1),
                     pole_free_quotient(s, d, j, nu))

    def ratio(nu):
        return (-(b + (nu + 1) * d) * (s + (n + nu) * d) * (n + 1 - nu),
                (b + nu * d) * (nu + 1 - j) * (s + (j + nu + 2) * d))

    return _ratio_sum(range(j + 1, n + 2), term, ratio,
                      lambda nu: _jacobi_d_f43(m, nu, j, d, a, b))


# ---------------------------------------------------------------------------
# symmetric Jacobi (alpha = beta)
# ---------------------------------------------------------------------------


def _sym_varpi_sum(m: int, n: int, j: int, lo: int, hi: int,
                   row: tuple) -> tuple:
    """The varpi sum of an alpha = beta row, zero for odd n+nu-j, so in
    steps of 2 over h = (n+nu-j)/2:

        varpi_nu = 2 (-1)^(m+nu+1) (alpha+nu)_(m+1-nu) (2alpha+m+1)_(nu-1)
                   (2alpha+n+1)_(j-nu) (-nu)_h (alpha+j-nu+h+1)_h
                   / (4^h (m-nu+1)! h! (2alpha+j+1)_j (alpha+j+3/2)_h),

        varpi_(nu+2) / varpi_nu = (m+1-nu)(m-nu)(2alpha+m+nu)
            (2alpha+m+nu+1)(nu+1)(nu+2) / ((alpha+nu)(alpha+nu+1)(n-j-nu-2)
            (2alpha+n+j-nu-1)(n-j+nu+2)(2alpha+n+j+nu+3)).

    The paper's display has (alpha+j-nu+1/2)_h (alpha+j-nu+1)_(2h)
    / (2alpha+2j-2nu+1)_(2h) where this has (alpha+j-nu+h+1)_h / 4^h: the
    same number by the duplication formula (2x)_(2h) = 4^h (x)_h (x+1/2)_h
    (DLMF 5.5.5) at x = alpha+j-nu+1/2.  The display is 0/0 at
    alpha = -1/2 (Chebyshev's row); this form has no pole there."""
    d, a, _ = row

    def term(nu):
        h = (n + nu - j) // 2
        return times((2 * sign(m + nu + 1),
                      4 ** h * factorial(m - nu + 1) * factorial(h)),
                     _rising(a + nu * d, d, m + 1 - nu),
                     _rising(2 * a + (m + 1) * d, d, nu - 1),
                     _rising(2 * a + (n + 1) * d, d, j - nu),
                     _rising(-nu, 1, h),
                     _rising(a + (j - nu + h + 1) * d, d, h),
                     over_rising(2 * a + (j + 1) * d, d, j),
                     over_rising(2 * a + (2 * j + 3) * d, 2 * d, h))

    def ratio(nu):
        return ((m + 1 - nu) * (m - nu) * (2 * a + (m + nu) * d)
                * (2 * a + (m + nu + 1) * d) * (nu + 1) * (nu + 2) * d * d,
                (a + nu * d) * (a + (nu + 1) * d) * (n - j - nu - 2)
                * (2 * a + (n + j - nu - 1) * d) * (n - j + nu + 2)
                * (2 * a + (n + j + nu + 3) * d))

    return _ratio_sum(_parity_range(lo, hi, n - j), term, ratio)


@lru_cache(maxsize=200_000)
def _sym_d_f43(m: int, nu: int, j: int, d: int, a: int) -> tuple:
    """`_jacobi_d_f43` at beta = alpha = a/d.  The d sums of an
    alpha = beta row read `_jacobi_d_f43` itself; only bench/job.py reads
    this."""
    return _jacobi_d_f43(m, nu, j, d, a, a)


@lru_cache(maxsize=200_000)
def _cheb_d_f43(m: int, nu: int, j: int) -> tuple:
    """`_jacobi_d_f43` at alpha = beta = -1/2.  Chebyshev's d sums read
    `_jacobi_d_f43` itself at its row; only bench/job.py reads this."""
    return _jacobi_d_f43(m, nu, j, 2, -1, -1)


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


def _check_degrees(*degrees: int) -> None:
    """Raise IndexContractError unless every degree is nonnegative."""
    if min(degrees) < 0:
        raise IndexContractError("degrees must be nonnegative")


def _closed_pair(spec: FamilySpec, m: int, n: int, js) -> list:
    """rho_{j,n}^m for each j in `js`, m <= n, as Fractions.  The pair
    picks its display, reads the row and forms c_m once; each j is summed
    alone, zero outside 0..m+n+1 and in the band m+1..n-m-2, and a p != q
    row scales it by c_m (p/d + j)_(n-j) / (q/d + j)_(n-j), a negative
    order for j > n."""
    f = spec.family
    if f is Family.LAGUERRE:
        alpha = spec._exact[0]

        def cell(j):
            return laguerre_rho(alpha, m, n, j)
    elif f is Family.GENERIC_MONIC:
        def cell(j):
            raise ValueError("generic sequences have no closed form; use "
                             "the family-agnostic formulas in "
                             "polyconv.generic_conv")
    else:
        # the sums read the family's Jacobi row; an alpha = beta row takes
        # the symmetric varpi display, which steps nu by 2
        d, a, b, p, q = spec._row_ints
        row = d, a, b
        varpi = _sym_varpi_sum if a == b else _jacobi_varpi_sum
        c_m = spec._normalization_ints(m)

        def cell(j):
            if m + 1 <= j <= n - m - 2:
                return _ZERO
            if j >= max(m + 1, n - m - 1):
                num, den = varpi(m, n, j, max(1, abs(j - n)), m + 1, row)
            else:
                # the varpi sum with the degrees' roles swapped, then the
                # d sum
                (vn, vd), (dn, dd) = (varpi(n, m, j, 1, j, row),
                                      _jacobi_d_sum(m, n, j, row))
                num, den = vn * dd + dn * vd, vd * dd
            if p != q:
                # Jacobi's rho times c_m c_n / c_j, since P_k = c_k J_k
                num, den = times((num, den), c_m,
                                 _rising(p + j * d, d, n - j),
                                 over_rising(q + j * d, d, n - j))
            return Fraction(num, den)

    return [cell(j) if 0 <= j <= m + n + 1 else _ZERO for j in js]


def rho_closed(spec: FamilySpec, m: int, n: int, j: int) -> Scalar:
    """The coefficient rho_{j,n}^m in the family's own normalization,
    from the closed forms, exact whatever the spec's backend.  Swaps (m, n)
    when m > n (commutativity)."""
    _check_degrees(m, n)
    if m > n:
        m, n = n, m
    return RATIONAL.make(_closed_pair(spec, m, n, (j,))[0])


def rho_closed_vector(spec: FamilySpec, m: int, n: int) -> list:
    """All rho_{j,n}^m for j = 0..m+n+1, from one pass of the core of
    `rho_closed`.  Swaps (m, n) when m > n (commutativity)."""
    _check_degrees(m, n)
    if m > n:
        m, n = n, m
    return [RATIONAL.make(v)
            for v in _closed_pair(spec, m, n, range(m + n + 2))]


def table_fractions(spec: FamilySpec, max_degree: int) -> dict:
    """The closed forms as one table of Fractions in the layout of
    `oracle.table_fractions`: {(m, n): [rho_{j,n}^m for j = 0..m+n+1]} for
    0 <= m <= n <= max_degree, one pass of the core of `rho_closed` per
    pair."""
    _check_degrees(max_degree)
    return {(m, n): _closed_pair(spec, m, n, range(m + n + 2))
            for m in range(max_degree + 1) for n in range(m, max_degree + 1)}


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
    _check_degrees(m, n)
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

    Valid for j, n >= m+1 in every interval family and for all j, n at
    Legendre's row (jacobi(0, 0) included).  Laguerre has no such relation.
    With s = alpha + beta,

        F = (-1)^(n+j) (s+2n+1) (alpha+1)_j (beta+1)_j
            / ((s+2j+1) (alpha+1)_n (beta+1)_n)
            * ((s+2)_(n-1) / (s+2)_(j-1) * c_j / c_n)^2,

    the Jacobi factor times (c_j / c_n)^2, (s+1)_n / (s+1)_j written as
    above so that it holds at s = -1 too."""
    _check_degrees(m, n, j)
    f = spec.family
    if f is Family.LAGUERRE or f is Family.GENERIC_MONIC:
        raise IndexContractError(f"{f.value} has no symmetry scaling")
    if spec._jacobi_row != _LEGENDRE_ROW and (j < m + 1 or n < m + 1):
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


class BatemanTensor(_Record):
    """Coefficients c_{m-k,j} detaching the variables of P_m(x - t):

        P_m(x-t) = sum_{k=0}^m sum_{j=0}^{m-k} c_{m-k,j}
                   * P_j(x+1) P_k(t),

    stored, as exact Fractions, only on the triangle j <= m-k."""

    _fields = ("m", "alpha", "beta", "coeffs")

    def __init__(self, m: int, alpha: Scalar, beta: Scalar, coeffs: dict):
        self.m = m
        self.alpha = alpha
        self.beta = beta
        self.coeffs = coeffs

    def coefficient(self, k: int, j: int) -> Scalar:
        return RATIONAL.make(self.coeffs.get((k, j), _ZERO))


def bateman_tensor(m: int, alpha, beta) -> BatemanTensor:
    """Tensor-product expansion coefficients of the shifted difference
    kernel for exact Jacobi parameters (alpha, beta), kept as given:

        c_{m-k,j} = sum_{nu=k}^{m-j} (-1)^nu (s+2k+1) (beta+k+1)_(nu-k)
            (alpha+j+nu+1)_(m-nu-j) (s+m+1)_nu (s+m+nu+1)_j * 3F2(j-m+nu,
            alpha+j+1, s+j+m+nu+1; alpha+j+nu+1, s+2j+2; 1)
            / ((s+k+1)_(nu+1) (nu-k)! (m-nu-j)! (s+j+1)_j),

    s = alpha + beta, each term an int pair, one Fraction per entry.  The
    factor (s+2k+1) / (s+k+1)_(nu+1) is `basis.pole_free_quotient`, which
    takes its limit at k = 0, s = -1."""
    _check_degrees(m)
    (a, b), d = over_lcm([exact(alpha), exact(beta)])
    s = a + b
    coeffs = {}
    for k in range(m + 1):
        for j in range(m - k + 1):
            num, den = 0, 1
            for nu in range(k, m - j + 1):
                tn, td = times(
                    (sign(nu), factorial(nu - k) * factorial(m - nu - j)),
                    pole_free_quotient(s, d, k, nu),
                    _rising(b + (k + 1) * d, d, nu - k),
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
# zero certificates and figure data
# ---------------------------------------------------------------------------


def structural_zero(spec: FamilySpec, m: int, n: int, j: int) -> bool:
    """True when branch logic alone certifies rho_{j,n}^m = 0 exactly.

    Degree bound, the guaranteed zero bands in both orientations, the
    symmetric extension available at Legendre's row (jacobi(0, 0)
    included), and (Laguerre only, where the closed form is a cheap
    product) exact evaluation.
    """
    _check_degrees(m, n)
    if j > m + n + 1:
        return True
    if spec.family is Family.LAGUERRE:
        mm, nn = (m, n) if m <= n else (n, m)
        return laguerre_rho(spec._exact[0], mm, nn, j) == 0
    if (spec.family is not Family.GENERIC_MONIC
            and spec._jacobi_row == _LEGENDRE_ROW
            and (n > j + m + 1 or m > j + n + 1)):
        # full symmetry in (j, n, m): support is the tilted band where no
        # index exceeds the sum of the others plus one
        return True
    band = zero_region(spec, m, n)
    return band is not None and band[0] <= j <= band[1]


def magnitude_grid(spec: FamilySpec, m: int, jmax: int, nmax: int) -> list:
    """log10 |rho| on the grid, as rows grid[j][n]; None marks exact zeros.
    Every cell is computed exactly by the engine, so zeros are exact, and
    the logarithm is taken of the exact value, read straight off its
    column's int numerator and denominator by `log10_abs_ints` as each
    column is drawn from the stream: the grid starts as all None and only
    the nonzero cells are filled, with no Fraction made."""
    if jmax < 0:
        raise IndexContractError("jmax must be nonnegative")
    grid = [[None] * (nmax + 1) for _ in range(jmax + 1)]
    for n, (nums, den) in enumerate(iter_columns(spec, {m: 1}, nmax)):
        for row, v in zip(grid, nums):
            if v:
                row[n] = log10_abs_ints(v, den)
    return grid


def write_magnitude_csv(grid: list, stream) -> None:
    """Write figure data as `j,n,log10abs` with `-inf` for exact zeros.
    Each cell is its repr text before the writer tests it, so a 0.0 cell
    (|rho| = 1) prints `0.0`, not `-inf`."""
    text = ([None if v is None else repr(v) for v in row] for row in grid)
    write_jn_rows(text, str, stream, "-inf", name="log10abs")
