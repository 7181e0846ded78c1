"""Closed-form convolution coefficients for the classical families.

For each family the coefficient rho_{j,n}^m of the convolution expansion
splits into three index regimes (assuming m <= n, free by commutativity):

* j >= max(m+1, n-m-1): a single sum of ``varpi`` terms,
* m+1 <= j <= n-m-2 (possible once n >= 2m+3): exactly zero,
* 0 <= j <= m: a ``varpi`` sum with the degree roles swapped plus a sum of
  ``d`` terms.

Laguerre collapses to an explicit piecewise rational expression.  The
interval families take their varpi and d terms from one table, ``_TERMS``,
and their parameters from ``FamilySpec.jacobi_parameters``.
Every rescaling comes from ``FamilySpec.normalization`` (P_n = c_n J_n, J
the Jacobi polynomial): Gegenbauer sums the symmetric-Jacobi terms at
alpha = lam - 1/2 and multiplies by c_m c_n / c_j; Chebyshev has its own
simplified forms in the T normalization, whose n = 0 case takes the same
factor; and ``symmetry_factor`` is the Jacobi one times (c_j / c_n)^2.  The
symmetric-parameter displays have removable singularities at alpha = -1/2,
where the equivalent general-parameter forms are used instead.

Whole tables (``rho_table``, ``magnitude_grid``) and every series product
in ``convmat`` are not summed cell by cell.  ``series_columns`` fills the
columns of a weighted sum sum_m w_m rho^m exactly by one recurrence in n:
it starts from the derivative connection, closes each column at j = 0 by
the endpoint condition, and skips every row whose operands are zero.
``rho_columns`` is its single-weight case.  The recurrence runs in ints:
its coefficients and the values P_k(-a) are int pairs from
``basis.connection_ints`` and ``basis.endpoint_ints``, and each column is
kept as int numerators over one positive denominator, (nums, den), with
its content divided out.  A ``Fraction`` in lowest terms is made only
where a cell leaves: ``_rows``, the one walk over that layout, makes them
for every grid and writer.  The closed forms are off that path; they
remain the reference that certifies it (``verify``, the tests and the
benchmark's checks).

Everything here is a pure function of its inputs.  The rising factorials
come from the one cached helper ``scalars.pochhammer`` (imported as
``_poch``; a negative order is a gamma quotient), whose cache keeps one
entry per (z, n) asked for, and the small hypergeometric factors of the
``d`` terms are memoized across calls; ``clear_caches`` empties both.
"""

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

from .basis import (Family, FamilySpec, chebyshev, connection_ints,
                    endpoint_ints)
from .errors import IndexContractError
from .scalars import RATIONAL, Scalar, exact, factorial, hyp_pfq, log10_abs
from .scalars import pochhammer as _poch

_HALF = Fraction(1, 2)
_ZERO = Fraction(0)
_CHEBYSHEV = chebyshev()


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# general Jacobi parameters
# ---------------------------------------------------------------------------


def jacobi_varpi(m: int, n: int, j: int, nu: int, alpha: Fraction,
                 beta: Fraction) -> Fraction:
    """Inner-sum term of the j >= max(m+1, n-m-1) regime for general
    (alpha, beta)."""
    s = alpha + beta
    num = (2 * _sign(m + nu - 1)
           * _poch(alpha + (j - nu + 1), n - j + nu)
           * _poch(s + (n + 1), j - nu)
           * _poch(beta + nu, m - nu + 1)
           * _poch(s + (m + 1), nu - 1))
    den = (_poch(s + (j + 1), j) * factorial(m + 1 - nu)
           * factorial(n - j + nu))
    f = hyp_pfq(
        [j - n - nu, alpha + (j + 1), s + (n + j - nu + 1)],
        [alpha + (j - nu + 1), s + (2 * j + 2)],
        1,
    )
    return num / den * f


@lru_cache(maxsize=200_000)
def _jacobi_d_f43(m: int, nu: int, j: int, alpha: Fraction,
                  beta: Fraction) -> Fraction:
    s = alpha + beta
    return hyp_pfq(
        [1, -m, beta + (nu + 1), s + (m + 1)],
        [nu - j + 1, beta + 1, s + (j + nu + 2)],
        1,
    )


def jacobi_d(nu: int, j: int, n: int, m: int, alpha: Fraction,
             beta: Fraction) -> Fraction:
    """Second-sum term of the j <= m regime for general (alpha, beta)."""
    s = alpha + beta
    num = (2 * _sign(m + n + 1 + nu) * (beta + nu)
           * _poch(beta + (j + 1), m - j)
           * _poch(beta + 1, n)
           * _poch(s + (n + 1), nu - 1))
    den = factorial(m) * factorial(n + 1 - nu) * factorial(nu - j)
    if j == 0 and s + 1 == 0:
        # (s+2j+1) / (s+j+1)_(nu+1) is 0/0 here; its limit in s is 1/nu!
        ratio = Fraction(1, factorial(nu))
    else:
        ratio = (s + (2 * j + 1)) / _poch(s + (j + 1), nu + 1)
    return num / den * ratio * _jacobi_d_f43(m, nu, j, alpha, beta)


# ---------------------------------------------------------------------------
# symmetric Jacobi (alpha = beta)
# ---------------------------------------------------------------------------


def sym_jacobi_varpi(m: int, n: int, j: int, nu: int,
                     alpha: Fraction) -> Fraction:
    """Symmetric-parameter varpi; zero for odd n+nu-j.  At alpha = -1/2 the
    parity display is indeterminate (0/0) and the general form is used."""
    if (n + nu - j) % 2:
        return _ZERO
    if alpha == -_HALF:
        return jacobi_varpi(m, n, j, nu, alpha, alpha)
    h = (n + nu - j) // 2
    num = (2 * _sign(m + nu + 1)
           * _poch(alpha + nu, m + 1 - nu)
           * _poch(2 * alpha + (m + 1), nu - 1)
           * _poch(2 * alpha + (n + 1), j - nu)
           * _poch(-nu, h)
           * _poch(alpha + (j - nu) + _HALF, h)
           * _poch(alpha + (j - nu + 1), n + nu - j))
    den = (factorial(m - nu + 1) * factorial(h)
           * _poch(2 * alpha + (j + 1), j)
           * _poch(alpha + j + Fraction(3, 2), h)
           * _poch(2 * alpha + (2 * j - 2 * nu + 1), n + nu - j))
    return num / den


@lru_cache(maxsize=200_000)
def _sym_d_f43(m: int, nu: int, j: int, alpha: Fraction) -> Fraction:
    return hyp_pfq(
        [1, -m, alpha + (nu + 1), 2 * alpha + (m + 1)],
        [nu - j + 1, alpha + 1, 2 * alpha + (j + nu + 2)],
        1,
    )


def sym_jacobi_d(nu: int, j: int, n: int, m: int,
                 alpha: Fraction) -> Fraction:
    """Symmetric-parameter d term; alpha = -1/2 reroutes through the
    general form, whose j = 0 branch takes the required limit."""
    if alpha == -_HALF:
        return jacobi_d(nu, j, n, m, alpha, alpha)
    num = (2 * _sign(m + n + 1 + nu) * (2 * alpha + (2 * j + 1)) * (alpha + nu)
           * _poch(alpha + (j + 1), m - j)
           * _poch(alpha + 1, n)
           * _poch(2 * alpha + (n + 1), nu - 1))
    den = (factorial(m) * factorial(n + 1 - nu) * factorial(nu - j)
           * _poch(2 * alpha + (j + 1), nu + 1))
    return num / den * _sym_d_f43(m, nu, j, alpha)


# ---------------------------------------------------------------------------
# Legendre
# ---------------------------------------------------------------------------


def legendre_varpi(m: int, n: int, j: int, nu: int) -> Fraction:
    if (n + nu - j) % 2:
        return _ZERO
    h = (n - j + nu) // 2
    num = (_sign(m + nu + 1) * (2 * j + 1) * factorial(m + nu - 1)
           * _poch(-nu, h))
    den = (4 ** nu * factorial(nu - 1) * factorial(m - nu + 1)
           * factorial(h)
           * _poch(Fraction(n + j - nu + 1, 2), nu + 1))
    return num / den


def _sqrt_pi_over_gammas(a2: int, b2: int) -> Fraction:
    """sqrt(pi) / (Gamma(a2/2) Gamma(b2/2)) for positive half-arguments,
    exactly one of which is a half-integer; exact rational."""
    if a2 % 2 == 1:
        t = (a2 - 1) // 2
        other = b2 // 2
    else:
        t = (b2 - 1) // 2
        other = a2 // 2
    # Gamma(t + 1/2) = (2t)! / (4^t t!) sqrt(pi)
    return Fraction(4 ** t * factorial(t),
                    factorial(2 * t) * factorial(other - 1))


def legendre_d(nu: int, j: int, n: int, m: int) -> Fraction:
    num = (_sign(m + nu + n + 1) * (2 * j + 1) * nu
           * Fraction(2) ** (j + m - nu)
           * factorial(n + nu - 1)
           * _poch(Fraction(-j - m + nu + 1, 2), j + m)
           * _poch(Fraction(j - m + nu + 2, 2), m))
    den = factorial(n - nu + 1) * factorial(j + m + nu)
    # twice the two gamma arguments
    gam = _sqrt_pi_over_gammas(-j + m + nu + 2, j + m + nu + 3)
    return num / den * gam


# ---------------------------------------------------------------------------
# Chebyshev (T normalization)
# ---------------------------------------------------------------------------


def chebyshev_varpi(m: int, n: int, j: int, nu: int) -> Fraction:
    """T-normalized varpi.  The simplified display carries a factor n and
    degenerates at n = 0; that case is rescaled from the general form."""
    if (n + nu - j) % 2:
        return _ZERO
    if n == 0:
        return (_rescale(_CHEBYSHEV, m, n, j)
                * jacobi_varpi(m, n, j, nu, -_HALF, -_HALF))
    h = (n + nu - j) // 2
    num = (_sign(m) * Fraction(2) ** (1 - 2 * nu) * n
           * _poch(-m, nu - 1)
           * _poch(m, nu - 1)
           * _poch(-nu, h)
           * _poch(Fraction(n + nu - j + 2, 2), j - nu - 1))
    den = (_poch(_HALF, nu - 1)
           * factorial((n + nu + j) // 2))
    return num / den


@lru_cache(maxsize=200_000)
def _cheb_d_f43(m: int, nu: int, j: int) -> Fraction:
    return hyp_pfq([1, -m, m, nu + _HALF], [_HALF, nu - j + 1, j + nu + 1], 1)


def chebyshev_d(nu: int, j: int, n: int, m: int) -> Fraction:
    lead = 2 if j == 0 else 4
    num = (lead * _sign(m + n) * _poch(-n, nu - 1)
           * _poch(n, nu - 1) * (nu - _HALF))
    den = factorial(nu - j) * factorial(j + nu)
    return num / den * _cheb_d_f43(m, nu, j)


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------


def laguerre_rho(alpha: Fraction, m: int, n: int, j: int) -> Fraction:
    """Piecewise closed form, m <= n assumed; j in [0, m+n+1]."""

    def tail(idx: int) -> Fraction:
        # (alpha - 1)_(m+n+1-idx) / (m+n+1-idx)!
        k = m + n + 1 - idx
        return _poch(alpha - 1, k) / factorial(k)

    if n == m:
        if j >= m + 1:
            return -tail(j)
        if j == m:
            return (_poch(alpha, m + 1) / factorial(m + 1)
                    + _poch(alpha, m) / factorial(m))
        return tail(j)
    if j >= n + 1:
        return -tail(j)
    if j == n:
        return _poch(alpha, m) / factorial(m)
    if j >= m + 1:
        return _ZERO
    if j == m:
        return _poch(alpha, n + 1) / factorial(n + 1)
    return tail(j)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


# Interval family -> (varpi, d, how many of `spec.jacobi_parameters()` the
# terms take, whether the terms are in the Jacobi normalization rather than
# the family's own).
_TERMS = {
    Family.JACOBI: (jacobi_varpi, jacobi_d, 2, False),
    Family.SYMMETRIC_JACOBI: (sym_jacobi_varpi, sym_jacobi_d, 1, False),
    Family.GEGENBAUER: (sym_jacobi_varpi, sym_jacobi_d, 1, True),
    Family.LEGENDRE: (legendre_varpi, legendre_d, 0, False),
    Family.CHEBYSHEV: (chebyshev_varpi, chebyshev_d, 0, False),
}


def _rescale(spec: FamilySpec, m: int, n: int, j: int) -> Fraction:
    """c_m c_n / c_j for c = `spec.normalization`: the factor taking
    rho_{j,n}^m from the Jacobi normalization to the family's own."""
    c = spec.normalization
    return c(m) * c(n) / c(j)


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
        varpi, d, count, jacobi_normalized = _TERMS[f]
        params = spec.jacobi_parameters()[:count]
        total = _ZERO
        if j >= max(m + 1, n - m - 1):
            for nu in range(max(1, abs(j - n)), m + 2):
                total += varpi(m, n, j, nu, *params)
        else:
            for nu in range(1, j + 1):
                total += varpi(n, m, j, nu, *params)
            for nu in range(j + 1, n + 2):
                total += d(nu, j, n, m, *params)
        if jacobi_normalized:
            total *= _rescale(spec, m, n, j)
    return RATIONAL.make(total)


def rho_closed_vector(spec: FamilySpec, m: int, n: int) -> list:
    """All rho_{j,n}^m for j = 0..m+n+1."""
    return [rho_closed(spec, m, n, j) for j in range(m + n + 2)]


def clear_caches() -> None:
    """Empty the memo caches of `scalars.pochhammer` and of the d terms'
    hypergeometric factors.  No result depends on them; this only frees
    the memory they hold."""
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
    Legendre case.  Laguerre has no such relation.  F is the Jacobi factor
    times (c_j / c_n)^2, with (s+1)_n / (s+1)_j written as
    (s+2)_(n-1) / (s+2)_(j-1) so that it holds at s = alpha + beta = -1
    too.
    """
    f = spec.family
    if f is Family.LAGUERRE or f is Family.GENERIC_MONIC:
        raise IndexContractError(f"{f.value} has no symmetry scaling")
    if f is not Family.LEGENDRE and (j < m + 1 or n < m + 1):
        raise IndexContractError(
            f"symmetry scaling needs j, n >= m+1; got j={j}, n={n}, m={m}"
        )
    alpha, beta = spec.jacobi_parameters()
    s = alpha + beta
    c = spec.normalization
    num = ((s + (2 * n + 1)) * _poch(alpha + 1, j) * _poch(beta + 1, j)
           * (_poch(s + 2, n - 1) * c(j)) ** 2)
    den = ((s + (2 * j + 1)) * _poch(alpha + 1, n) * _poch(beta + 1, n)
           * (_poch(s + 2, j - 1) * c(n)) ** 2)
    return RATIONAL.make(_sign(n + j) * num / den)


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
    kernel for exact Jacobi parameters (alpha, beta), kept as given."""
    a, b = exact(alpha), exact(beta)
    s = a + b
    coeffs = {}
    for k in range(m + 1):
        for j in range(m - k + 1):
            total = _ZERO
            for nu in range(k, m - j + 1):
                pref = (_sign(nu) * (s + (2 * k + 1))
                        * _poch(b + (k + 1), nu - k)
                        / (_poch(s + (k + 1), nu + 1) * factorial(nu - k)))
                mid = (_poch(a + (j + nu + 1), m - nu - j)
                       * _poch(s + (m + 1), nu)
                       * _poch(s + (m + nu + 1), j)
                       / (factorial(m - nu - j) * _poch(s + (j + 1), j)))
                f = hyp_pfq(
                    [j - m + nu, a + (j + 1), s + (j + m + nu + 1)],
                    [a + (j + nu + 1), s + (2 * j + 2)],
                    1,
                )
                total += pref * mid * f
            coeffs[(k, j)] = total
    return BatemanTensor(m, alpha, beta, coeffs)


# ---------------------------------------------------------------------------
# coefficient tables and figure data
# ---------------------------------------------------------------------------


@dataclass
class RhoTable:
    """rho_{j,n}^m for fixed m on the grid j <= jmax, n <= nmax, kept as
    the int columns (nums, den) of `rho_columns`.  `values[j][n]` makes
    every cell in the family's backend on each read, so bind it once before
    a loop."""

    family: FamilySpec
    m: int
    jmax: int
    nmax: int
    columns: list

    @property
    def values(self) -> list:
        return _grid(self.columns, self.jmax + 1, self.family.backend.make)

    def to_backend(self, backend) -> "RhoTable":
        """The table whose values are the exact ones rounded to `backend`."""
        return replace(self, family=self.family.to_backend(backend))


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
    removes its content.  A row whose operands are all zero is skipped, so
    the zero bands and sparse weights cost nothing.  O(1) int operations
    per nonzero entry.
    """
    weights = {m: w for m, w in weights.items() if w}
    if nmax < 0 or any(m < 0 for m in weights):
        raise IndexContractError("degrees must be nonnegative")
    top_m = max(weights, default=0)
    top = top_m + nmax + 2
    conn = [connection_ints(spec, k) for k in range(top + 1)]
    ends, end_den = endpoint_ints(spec, top)
    image = [_ZERO] * (top + 1)
    for m, w in weights.items():
        for k, (x, y) in ((m + 1, conn[m][0]), (m, conn[m][1]),
                          (m - 1, conn[m][2])):
            if k >= 1 and x:
                image[k] += w * Fraction(x, y)
    h, h_den = _column(image)

    # row k of a new column: (l_k, l_k A_{k-1}, l_k B_k, l_k C_{k+1}) as ints
    rows = [None]
    for k in range(1, top):
        pairs = (conn[k - 1][0], conn[k][1], conn[k + 1][2])
        weight = math.lcm(*(y for _, y in pairs))
        rows.append((weight, *(x * (weight // y) for x, y in pairs)))

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
        terms = [Fraction(ad, an * den), Fraction(-bn * ad, bd * an * den),
                 Fraction(-cn * ad, cd * an * prev_den),
                 e * Fraction(ad, an * h_den * end_den)]
        g_den = math.lcm(*(t.denominator for t in terms))
        u, vb, vc, w = (t.numerator * (g_den // t.denominator) for t in terms)
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


def _column(values: list) -> tuple:
    """Exact values as one column (nums, den), den their least common
    denominator."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def _fractions(col: tuple) -> list:
    """The exact values of one column (nums, den), each a Fraction in
    lowest terms: made only where a cell leaves the engine."""
    nums, den = col
    return [Fraction(v, den) if v else _ZERO for v in nums]


def _rows(cols: list, n_rows: int):
    """Rows j < n_rows of the columns `cols`, each zero below its end, as
    Fractions: the one walk over the column layout, for every grid and
    writer."""
    padded = [_fractions((nums[:n_rows], den)) + [_ZERO] * (n_rows - len(nums))
              for nums, den in cols]
    return zip(*padded)


def _grid(cols: list, n_rows: int, make) -> list:
    """grid[j][n] = make(cols[n][j]) over the rows of `_rows`."""
    return [[make(v) for v in row] for row in _rows(cols, n_rows)]


def rho_table(spec: FamilySpec, m: int, jmax: int, nmax: int) -> RhoTable:
    """rho_{j,n}^m on the grid, filled exactly by `rho_columns`; a value is
    rounded to the spec's backend only when it is read."""
    return RhoTable(spec, m, jmax, nmax, rho_columns(spec, m, nmax))


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
    """log10 |rho| on the grid; None marks exact zeros.  Every cell is
    computed exactly by `rho_columns`, so zeros are exact and the logarithm
    is taken of the exact value."""
    return _grid(rho_columns(spec, m, nmax), jmax + 1,
                 lambda v: log10_abs(v) if v else None)


def write_rho_csv(table: RhoTable, stream, fmt: str = "csv") -> None:
    """Write a coefficient table as `j,n,value` rows.  The `csv` format
    lists the whole grid; `triplet` keeps only nonzero entries for sparse
    inspection."""
    rows = _rows(table.columns, table.jmax + 1)
    form = table.family.backend.format
    _write_jn_rows(rows, form, stream,
                   None if fmt == "triplet" else form(_ZERO))


def _write_jn_rows(rows, fmt, stream, zero=None, name: str = "value") -> None:
    """Write rows[j][n] as `j,n,<name>` rows: a nonzero cell as fmt(cell),
    tested before fmt runs, so a backend's `format` rounds it once; a zero
    cell as the text `zero`, made once by the caller, or not at all when
    `zero` is None (the triplet format)."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["j", "n", name])
    for j, row in enumerate(rows):
        for n, v in enumerate(row):
            if v:
                writer.writerow([j, n, fmt(v)])
            elif zero is not None:
                writer.writerow([j, n, zero])


def write_magnitude_csv(grid: list, stream) -> None:
    """Write figure data as `j,n,log10abs` with `-inf` for exact zeros."""
    text = ([None if v is None else repr(v) for v in row] for row in grid)
    _write_jn_rows(text, str, stream, "-inf", name="log10abs")
