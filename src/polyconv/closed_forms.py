"""Closed-form convolution coefficients for the classical families.

For each family the coefficient rho_{j,n}^m of the convolution expansion
splits into three index regimes (assuming m <= n, free by commutativity):

* j >= max(m+1, n-m-1): a single sum of ``varpi`` terms,
* m+1 <= j <= n-m-2 (possible once n >= 2m+3): exactly zero,
* 0 <= j <= m: a ``varpi`` sum with the degree roles swapped plus a sum of
  ``d`` terms.

Laguerre collapses to an explicit piecewise rational expression.  The
interval families take their varpi and d terms from one table, ``_TERMS``.
Every rescaling comes from ``FamilySpec.normalization`` (P_n = c_n J_n, J
the Jacobi polynomial): Gegenbauer sums the symmetric-Jacobi terms at
alpha = lam - 1/2 and multiplies by c_m c_n / c_j; Chebyshev has its own
simplified forms in the T normalization, whose n = 0 case takes the same
factor; and ``symmetry_factor`` is the Jacobi one times (c_j / c_n)^2.  The
symmetric-parameter displays have removable singularities at alpha = -1/2,
where the equivalent general-parameter forms are used instead.

Whole tables (``rho_table``, ``magnitude_grid``, and the convolution
matrices in ``convmat``) are not summed cell by cell: ``rho_columns`` fills
them exactly from one closed-form column by a recurrence in n, and the
closed forms remain the reference that certifies it.

Everything here is a pure function of its inputs.  The rising factorials
come from the one cached helper ``scalars.pochhammer`` (imported as
``_poch``; a negative order is a gamma quotient), and the small
hypergeometric factors of the ``d`` terms are memoized across calls.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .basis import (Family, FamilySpec, chebyshev, derivative_connection,
                    eval_polys)
from .errors import IndexContractError
from .scalars import RATIONAL, Scalar, factorial, hyp_pfq, log10_abs
from .scalars import pochhammer as _poch

_HALF = Fraction(1, 2)
_CHEBYSHEV = chebyshev()


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# general Jacobi parameters
# ---------------------------------------------------------------------------


def jacobi_varpi(m: int, n: int, j: int, nu: int, alpha: Scalar,
                 beta: Scalar) -> Scalar:
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
def _jacobi_d_f43(m: int, nu: int, j: int, alpha: Scalar,
                  beta: Scalar) -> Scalar:
    s = alpha + beta
    return hyp_pfq(
        [1, -m, beta + (nu + 1), s + (m + 1)],
        [nu - j + 1, beta + 1, s + (j + nu + 2)],
        1,
    )


def jacobi_d(nu: int, j: int, n: int, m: int, alpha: Scalar,
             beta: Scalar) -> Scalar:
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


def sym_jacobi_varpi(m: int, n: int, j: int, nu: int, alpha: Scalar) -> Scalar:
    """Symmetric-parameter varpi; zero for odd n+nu-j.  At alpha = -1/2 the
    parity display is indeterminate (0/0) and the general form is used."""
    if (n + nu - j) % 2:
        return RATIONAL.zero()
    if alpha == -_HALF:
        return jacobi_varpi(m, n, j, nu, alpha, alpha)
    h = (n + nu - j) // 2
    num = (2 * _sign(m + nu + 1)
           * _poch(alpha + nu, m + 1 - nu)
           * _poch(2 * alpha + (m + 1), nu - 1)
           * _poch(2 * alpha + (n + 1), j - nu)
           * _poch(RATIONAL.make(-nu), h)
           * _poch(alpha + (j - nu) + _HALF, h)
           * _poch(alpha + (j - nu + 1), n + nu - j))
    den = (factorial(m - nu + 1) * factorial(h)
           * _poch(2 * alpha + (j + 1), j)
           * _poch(alpha + j + Fraction(3, 2), h)
           * _poch(2 * alpha + (2 * j - 2 * nu + 1), n + nu - j))
    return num / den


@lru_cache(maxsize=200_000)
def _sym_d_f43(m: int, nu: int, j: int, alpha: Scalar) -> Scalar:
    return hyp_pfq(
        [1, -m, alpha + (nu + 1), 2 * alpha + (m + 1)],
        [nu - j + 1, alpha + 1, 2 * alpha + (j + nu + 2)],
        1,
    )


def sym_jacobi_d(nu: int, j: int, n: int, m: int, alpha: Scalar) -> Scalar:
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


def legendre_varpi(m: int, n: int, j: int, nu: int) -> Scalar:
    if (n + nu - j) % 2:
        return RATIONAL.zero()
    h = (n - j + nu) // 2
    num = (_sign(m + nu + 1) * (2 * j + 1) * factorial(m + nu - 1)
           * _poch(RATIONAL.make(-nu), h))
    den = (4 ** nu * factorial(nu - 1) * factorial(m - nu + 1)
           * factorial(h)
           * _poch(RATIONAL.make(Fraction(n + j - nu + 1, 2)), nu + 1))
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


def legendre_d(nu: int, j: int, n: int, m: int) -> Scalar:
    num = (_sign(m + nu + n + 1) * (2 * j + 1) * nu
           * Fraction(2) ** (j + m - nu)
           * factorial(n + nu - 1)
           * _poch(RATIONAL.make(Fraction(-j - m + nu + 1, 2)), j + m)
           * _poch(RATIONAL.make(Fraction(j - m + nu + 2, 2)), m))
    den = factorial(n - nu + 1) * factorial(j + m + nu)
    # twice the two gamma arguments
    gam = _sqrt_pi_over_gammas(-j + m + nu + 2, j + m + nu + 3)
    return num / den * gam


# ---------------------------------------------------------------------------
# Chebyshev (T normalization)
# ---------------------------------------------------------------------------


def chebyshev_varpi(m: int, n: int, j: int, nu: int) -> Scalar:
    """T-normalized varpi.  The simplified display carries a factor n and
    degenerates at n = 0; that case is rescaled from the general form."""
    if (n + nu - j) % 2:
        return RATIONAL.zero()
    if n == 0:
        half = RATIONAL.make(-_HALF)
        return (_rescale(_CHEBYSHEV, m, n, j)
                * jacobi_varpi(m, n, j, nu, half, half))
    h = (n + nu - j) // 2
    num = (_sign(m) * Fraction(2) ** (1 - 2 * nu) * n
           * _poch(RATIONAL.make(-m), nu - 1)
           * _poch(RATIONAL.make(m), nu - 1)
           * _poch(RATIONAL.make(-nu), h)
           * _poch(RATIONAL.make(Fraction(n + nu - j + 2, 2)), j - nu - 1))
    den = (_poch(RATIONAL.make(_HALF), nu - 1)
           * factorial((n + nu + j) // 2))
    return num / den


@lru_cache(maxsize=200_000)
def _cheb_d_f43(m: int, nu: int, j: int) -> Scalar:
    return hyp_pfq([1, -m, m, nu + _HALF], [_HALF, nu - j + 1, j + nu + 1], 1)


def chebyshev_d(nu: int, j: int, n: int, m: int) -> Scalar:
    lead = 2 if j == 0 else 4
    num = (lead * _sign(m + n) * _poch(RATIONAL.make(-n), nu - 1)
           * _poch(RATIONAL.make(n), nu - 1) * (nu - _HALF))
    den = factorial(nu - j) * factorial(j + nu)
    return num / den * _cheb_d_f43(m, nu, j)


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------


def laguerre_rho(alpha: Scalar, m: int, n: int, j: int) -> Scalar:
    """Piecewise closed form, m <= n assumed; j in [0, m+n+1]."""

    def tail(idx: int) -> Scalar:
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
        return RATIONAL.zero()
    if j == m:
        return _poch(alpha, n + 1) / factorial(n + 1)
    return tail(j)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


# Interval family -> (varpi, d, its parameters from the spec, whether the
# terms are in the Jacobi normalization rather than the family's own).
_TERMS = {
    Family.JACOBI: (jacobi_varpi, jacobi_d,
                    lambda spec: (spec.alpha, spec.beta), False),
    Family.SYMMETRIC_JACOBI: (sym_jacobi_varpi, sym_jacobi_d,
                              lambda spec: (spec.alpha,), False),
    Family.GEGENBAUER: (sym_jacobi_varpi, sym_jacobi_d,
                        lambda spec: (spec.lam - _HALF,), True),
    Family.LEGENDRE: (legendre_varpi, legendre_d, lambda spec: (), False),
    Family.CHEBYSHEV: (chebyshev_varpi, chebyshev_d, lambda spec: (), False),
}


def _rescale(spec: FamilySpec, m: int, n: int, j: int) -> Scalar:
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
    if j < 0 or j > m + n + 1:
        return RATIONAL.zero()
    if m > n:
        m, n = n, m

    f = spec.family
    if f is Family.LAGUERRE:
        return laguerre_rho(spec.alpha, m, n, j)
    if f is Family.GENERIC_MONIC:
        raise ValueError(
            "generic sequences have no closed form; use the "
            "family-agnostic formulas in polyconv.generic_conv"
        )

    if m + 1 <= j <= n - m - 2:
        return RATIONAL.zero()
    varpi, d, parameters, jacobi_normalized = _TERMS[f]
    params = parameters(spec)
    total = RATIONAL.zero()
    if j >= max(m + 1, n - m - 1):
        for nu in range(max(1, abs(j - n)), m + 2):
            total = total + varpi(m, n, j, nu, *params)
    else:
        for nu in range(1, j + 1):
            total = total + varpi(n, m, j, nu, *params)
        for nu in range(j + 1, n + 2):
            total = total + d(nu, j, n, m, *params)
    return total * _rescale(spec, m, n, j) if jacobi_normalized else total


def rho_closed_vector(spec: FamilySpec, m: int, n: int) -> list:
    """All rho_{j,n}^m for j = 0..m+n+1."""
    return [rho_closed(spec, m, n, j) for j in range(m + n + 2)]


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
    return _sign(n + j) * num / den


# ---------------------------------------------------------------------------
# tensor expansion of the difference kernel
# ---------------------------------------------------------------------------


@dataclass
class BatemanTensor:
    """Coefficients c_{m-k,j} detaching the variables of P_m(x - t):

        P_m(x-t) = sum_{k=0}^m sum_{j=0}^{m-k} c_{m-k,j}
                   * P_j(x+1) P_k(t),

    stored only on the triangle j <= m-k."""

    m: int
    alpha: Scalar
    beta: Scalar
    coeffs: dict

    def coefficient(self, k: int, j: int) -> Scalar:
        return self.coeffs.get((k, j), RATIONAL.zero())


def bateman_tensor(m: int, alpha: Scalar, beta: Scalar) -> BatemanTensor:
    """Tensor-product expansion coefficients of the shifted difference
    kernel for Jacobi parameters (alpha, beta)."""
    s = alpha + beta
    coeffs = {}
    for k in range(m + 1):
        for j in range(m - k + 1):
            total = RATIONAL.zero()
            for nu in range(k, m - j + 1):
                pref = (_sign(nu) * (s + (2 * k + 1))
                        * _poch(beta + (k + 1), nu - k)
                        / (_poch(s + (k + 1), nu + 1) * factorial(nu - k)))
                mid = (_poch(alpha + (j + nu + 1), m - nu - j)
                       * _poch(s + (m + 1), nu)
                       * _poch(s + (m + nu + 1), j)
                       / (factorial(m - nu - j) * _poch(s + (j + 1), j)))
                f = hyp_pfq(
                    [j - m + nu, alpha + (j + 1), s + (j + m + nu + 1)],
                    [alpha + (j + nu + 1), s + (2 * j + 2)],
                    1,
                )
                total = total + pref * mid * f
            coeffs[(k, j)] = total
    return BatemanTensor(m, alpha, beta, coeffs)


# ---------------------------------------------------------------------------
# coefficient tables and figure data
# ---------------------------------------------------------------------------


@dataclass
class RhoTable:
    """rho_{j,n}^m over a (j, n) grid for fixed m; values[j][n]."""

    family: FamilySpec
    m: int
    jmax: int
    nmax: int
    values: list

    def to_backend(self, backend) -> "RhoTable":
        """The table with every entry rounded to `backend`."""
        if backend == self.family.backend:
            return self
        values = [[v.to_backend(backend) for v in row] for row in self.values]
        return RhoTable(self.family.to_backend(backend), self.m, self.jmax,
                        self.nmax, values)


def rho_columns(spec: FamilySpec, m: int, nmax: int) -> list:
    """The columns rho^m_{., n} for n = 0..nmax as exact Fractions; column
    n holds j = 0..m+n+1.

    Column 0 comes from the closed form.  Each later column follows from
    the two before it through the derivative connection
    P_n = A_n P'_{n+1} + B_n P'_n + C_n P'_{n-1}, which gives for j >= 1

        A_n rho_{j,n+1} = A_{j-1} rho_{j-1,n} + (B_j - B_n) rho_{j,n}
                          + C_{j+1} rho_{j+1,n} - C_n rho_{j,n-1}
                          + E_n [A_m d_{j,m+1} + B_m d_{j,m} + C_m d_{j,m-1}]

    with E_n = A_n P_{n+1}(-a) + B_n P_n(-a) + C_n P_{n-1}(-a) and d the
    Kronecker delta; the j = 0 entry closes the column through
    sum_j rho_{j,n+1} P_j(-a) = 0, since the convolution vanishes at
    x = -2a.  O(1) exact operations per entry.
    """
    if m < 0 or nmax < 0:
        raise IndexContractError("degrees must be nonnegative")
    top = m + nmax + 2
    coeffs = [[c.as_fraction() for c in derivative_connection(spec, k)]
              for k in range(top + 1)]
    a, b, c = zip(*coeffs)
    ends = [v.as_fraction()
            for v in eval_polys(spec, top, -spec.domain_offset_a)]
    cols = [[v.as_fraction() for v in rho_closed_vector(spec, m, 0)]]
    zero = Fraction(0)
    for n in range(nmax):
        size = m + n + 3
        cur = cols[n] + [zero, zero]
        prev = cols[n - 1] + [zero, zero] if n else [zero] * size
        inv = 1 / a[n]
        nxt = [zero] * size
        for k in range(1, size):
            nxt[k] = (a[k - 1] * cur[k - 1] + (b[k] - b[n]) * cur[k]
                      + c[k + 1] * cur[k + 1] - c[n] * prev[k]) * inv
        e = a[n] * ends[n + 1] + b[n] * ends[n]
        if n:
            e += c[n] * ends[n - 1]
        for k, coeff in ((m + 1, a[m]), (m, b[m]), (m - 1, c[m])):
            if k >= 1:
                nxt[k] += e * coeff * inv
        nxt[0] = -sum(nxt[k] * ends[k] for k in range(1, size)) / ends[0]
        cols.append(nxt)
    return cols


def _entry(cols: list, j: int, n: int) -> Fraction:
    col = cols[n]
    return col[j] if j < len(col) else Fraction(0)


def rho_table(spec: FamilySpec, m: int, jmax: int, nmax: int) -> RhoTable:
    """rho_{j,n}^m on the grid, filled exactly by `rho_columns` and
    rounded to the spec's backend entry by entry."""
    cols = rho_columns(spec, m, nmax)
    make = spec.backend.make
    values = [[make(_entry(cols, j, n)) for n in range(nmax + 1)]
              for j in range(jmax + 1)]
    return RhoTable(spec, m, jmax, nmax, values)


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
        return laguerre_rho(spec.alpha, mm, nn, j) == 0
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
    cols = rho_columns(spec, m, nmax)
    grid = []
    for j in range(jmax + 1):
        row = []
        for n in range(nmax + 1):
            value = _entry(cols, j, n)
            row.append(None if value == 0
                       else log10_abs(RATIONAL.make(value)))
        grid.append(row)
    return grid


def write_rho_csv(table: RhoTable, stream, fmt: str = "csv") -> None:
    """Write a coefficient table as `j,n,value` rows.  The `csv` format
    lists the whole grid; `triplet` keeps only nonzero entries for sparse
    inspection."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["j", "n", "value"])
    for j in range(table.jmax + 1):
        for n in range(table.nmax + 1):
            value = table.values[j][n]
            if fmt == "triplet" and value == 0:
                continue
            writer.writerow([j, n, str(value)])


def write_magnitude_csv(grid: list, stream) -> None:
    """Write figure data as `j,n,log10abs` with `-inf` for exact zeros."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["j", "n", "log10abs"])
    for j, row in enumerate(grid):
        for n, v in enumerate(row):
            writer.writerow([j, n, "-inf" if v is None else repr(v)])
