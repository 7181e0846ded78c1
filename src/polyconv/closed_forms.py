"""Closed-form convolution coefficients for the classical families.

For each family the coefficient rho_{j,n}^m of the convolution expansion
splits into three index regimes (assuming m <= n, free by commutativity):

* j >= max(m+1, n-m-1): a single sum of ``varpi`` terms,
* m+1 <= j <= n-m-2 (possible once n >= 2m+3): exactly zero,
* 0 <= j <= m: a ``varpi`` sum with the degree roles swapped plus a sum of
  ``d`` terms.

Laguerre collapses to an explicit piecewise rational expression.  Gegenbauer
and Chebyshev values are normalization rescalings of the symmetric-Jacobi
case; Chebyshev additionally gets the simplified forms stated in its own
normalization.  The symmetric-parameter displays have removable
singularities at alpha = -1/2, where the equivalent general-parameter forms
are used instead.

Whole tables (``rho_table``, ``magnitude_grid``, and the convolution
matrices in ``convmat``) are not summed cell by cell: ``rho_columns`` fills
them exactly from one closed-form column by a recurrence in n, and the
closed forms remain the reference that certifies it.

Everything here is a pure function of its inputs; Pochhammer symbols and
small hypergeometric factors are memoized across calls.
"""

import csv
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .basis import Family, FamilySpec, derivative_connection, eval_polys
from .errors import IndexContractError
from .scalars import (
    RATIONAL,
    RationalBackend,
    Scalar,
    factorial,
    hyp_pfq,
    log10_abs,
)

_HALF = Fraction(1, 2)
_POCH_STRIDE = 256


@lru_cache(maxsize=500_000)
def _poch(z: Scalar, n: int) -> Scalar:
    if n == 0:
        return z.backend.one()
    if n > _POCH_STRIDE:
        # warm the cache a stride below first, so the recursion depth stays
        # near _POCH_STRIDE however cold the cache is
        _poch(z, n - _POCH_STRIDE)
    return _poch(z, n - 1) * (z + (n - 1))


def _poch_signed(z: Scalar, n: int) -> Scalar:
    """Rising factorial extended to negative order: (z)_{-t} = 1/(z-t)_t."""
    if n >= 0:
        return _poch(z, n)
    return z.backend.one() / _poch(z + n, -n)


def _sign(k: int) -> int:
    return -1 if k % 2 else 1


# ---------------------------------------------------------------------------
# general Jacobi parameters
# ---------------------------------------------------------------------------


def jacobi_varpi(m: int, n: int, j: int, nu: int, alpha: Scalar,
                 beta: Scalar) -> Scalar:
    """Inner-sum term of the j >= max(m+1, n-m-1) regime for general
    (alpha, beta)."""
    be = alpha.backend
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
        be.one(),
    )
    return num / den * f


@lru_cache(maxsize=200_000)
def _jacobi_d_f43(m: int, nu: int, j: int, alpha: Scalar,
                  beta: Scalar) -> Scalar:
    s = alpha + beta
    return hyp_pfq(
        [1, -m, beta + (nu + 1), s + (m + 1)],
        [nu - j + 1, beta + 1, s + (j + nu + 2)],
        alpha.backend.one(),
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
        ratio = alpha.backend.one() / factorial(nu)
    else:
        ratio = (s + (2 * j + 1)) / _poch(s + (j + 1), nu + 1)
    return num / den * ratio * _jacobi_d_f43(m, nu, j, alpha, beta)


# ---------------------------------------------------------------------------
# symmetric Jacobi (alpha = beta)
# ---------------------------------------------------------------------------


def sym_jacobi_varpi(m: int, n: int, j: int, nu: int, alpha: Scalar) -> Scalar:
    """Symmetric-parameter varpi; zero for odd n+nu-j.  At alpha = -1/2 the
    parity display is indeterminate (0/0) and the general form is used."""
    be = alpha.backend
    if (n + nu - j) % 2:
        return be.zero()
    if alpha == -_HALF:
        return jacobi_varpi(m, n, j, nu, alpha, alpha)
    h = (n + nu - j) // 2
    num = (2 * _sign(m + nu + 1)
           * _poch(alpha + nu, m + 1 - nu)
           * _poch(2 * alpha + (m + 1), nu - 1)
           * _poch(2 * alpha + (n + 1), j - nu)
           * _poch(be.make(-nu), h)
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
        alpha.backend.one(),
    )


def sym_jacobi_d(nu: int, j: int, n: int, m: int, alpha: Scalar) -> Scalar:
    """Symmetric-parameter d term; alpha = -1/2 reroutes through the
    general form, whose j = 0 branch takes the required limit."""
    be = alpha.backend
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


def legendre_varpi(m: int, n: int, j: int, nu: int, backend) -> Scalar:
    if (n + nu - j) % 2:
        return backend.zero()
    h = (n - j + nu) // 2
    num = (_sign(m + nu + 1) * (2 * j + 1) * factorial(m + nu - 1)
           * _poch(backend.make(-nu), h))
    den = (backend.make(4) ** nu * factorial(nu - 1) * factorial(m - nu + 1)
           * factorial(h)
           * _poch(backend.make(Fraction(n + j - nu + 1, 2)), nu + 1))
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


def legendre_d(nu: int, j: int, n: int, m: int, backend) -> Scalar:
    num = (_sign(m + nu + n + 1) * (2 * j + 1) * nu
           * backend.make(2) ** (j + m - nu)
           * factorial(n + nu - 1)
           * _poch(backend.make(Fraction(-j - m + nu + 1, 2)), j + m)
           * _poch(backend.make(Fraction(j - m + nu + 2, 2)), m))
    den = factorial(n - nu + 1) * factorial(j + m + nu)
    a2 = -j + m + nu + 2   # twice the first gamma argument
    b2 = j + m + nu + 3
    if isinstance(backend, RationalBackend):
        gam = backend.make(_sqrt_pi_over_gammas(a2, b2))
    else:
        import mpmath

        with mpmath.workprec(backend.precision):
            gam = Scalar(backend, mpmath.sqrt(mpmath.pi)
                         / (mpmath.gamma(mpmath.mpf(a2) / 2)
                            * mpmath.gamma(mpmath.mpf(b2) / 2)))
    return num / den * gam


# ---------------------------------------------------------------------------
# Chebyshev (T normalization)
# ---------------------------------------------------------------------------


def _cheb_scale(m: int, n: int, j: int, backend) -> Scalar:
    # rho_T = m! n! (1/2)_j / ((1/2)_m (1/2)_n j!) * rho_{(-1/2,-1/2)}
    half = backend.make(_HALF)
    return (factorial(m) * factorial(n) * _poch(half, j)
            / (_poch(half, m) * _poch(half, n) * factorial(j)))


def chebyshev_varpi(m: int, n: int, j: int, nu: int, backend) -> Scalar:
    """T-normalized varpi.  The simplified display carries a factor n and
    degenerates at n = 0; that case is rescaled from the general form."""
    if (n + nu - j) % 2:
        return backend.zero()
    if n == 0:
        half = backend.make(-_HALF)
        return _cheb_scale(m, n, j, backend) * jacobi_varpi(m, n, j, nu,
                                                            half, half)
    h = (n + nu - j) // 2
    num = (_sign(m) * backend.make(2) ** (1 - 2 * nu) * n
           * _poch(backend.make(-m), nu - 1)
           * _poch(backend.make(m), nu - 1)
           * _poch(backend.make(-nu), h)
           * _poch_signed(backend.make(Fraction(n + nu - j + 2, 2)),
                          j - nu - 1))
    den = (_poch(backend.make(_HALF), nu - 1)
           * factorial((n + nu + j) // 2))
    return num / den


@lru_cache(maxsize=200_000)
def _cheb_d_f43(m: int, nu: int, j: int, backend) -> Scalar:
    half = backend.make(_HALF)
    return hyp_pfq([1, -m, m, nu + half], [half, nu - j + 1, j + nu + 1],
                   backend.one())


def chebyshev_d(nu: int, j: int, n: int, m: int, backend) -> Scalar:
    half = backend.make(_HALF)
    lead = backend.make(2) ** (2 - (1 if j == 0 else 0))
    num = (lead * _sign(m + n) * _poch(backend.make(-n), nu - 1)
           * _poch(backend.make(n), nu - 1) * (nu - half))
    den = factorial(nu - j) * factorial(j + nu)
    return num / den * _cheb_d_f43(m, nu, j, backend)


# ---------------------------------------------------------------------------
# Laguerre
# ---------------------------------------------------------------------------


def laguerre_rho(alpha: Scalar, m: int, n: int, j: int) -> Scalar:
    """Piecewise closed form, m <= n assumed; j in [0, m+n+1]."""
    be = alpha.backend

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
        return be.zero()
    if j == m:
        return _poch(alpha, n + 1) / factorial(n + 1)
    return tail(j)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def _varpi(spec: FamilySpec, m: int, n: int, j: int, nu: int) -> Scalar:
    f = spec.family
    if f is Family.JACOBI:
        return jacobi_varpi(m, n, j, nu, spec.alpha, spec.beta)
    if f is Family.SYMMETRIC_JACOBI:
        return sym_jacobi_varpi(m, n, j, nu, spec.alpha)
    if f is Family.LEGENDRE:
        return legendre_varpi(m, n, j, nu, spec.backend)
    if f is Family.CHEBYSHEV:
        return chebyshev_varpi(m, n, j, nu, spec.backend)
    raise ValueError(f"no varpi form for {f.value}")


def _dterm(spec: FamilySpec, nu: int, j: int, n: int, m: int) -> Scalar:
    f = spec.family
    if f is Family.JACOBI:
        return jacobi_d(nu, j, n, m, spec.alpha, spec.beta)
    if f is Family.SYMMETRIC_JACOBI:
        return sym_jacobi_d(nu, j, n, m, spec.alpha)
    if f is Family.LEGENDRE:
        return legendre_d(nu, j, n, m, spec.backend)
    if f is Family.CHEBYSHEV:
        return chebyshev_d(nu, j, n, m, spec.backend)
    raise ValueError(f"no d form for {f.value}")


def _gegenbauer_scale(lam: Scalar, m: int, n: int, j: int) -> Scalar:
    half = lam + _HALF
    two = 2 * lam
    return (_poch(half, j) * _poch(two, m) * _poch(two, n)
            / (_poch(two, j) * _poch(half, m) * _poch(half, n)))


def rho_closed(spec: FamilySpec, m: int, n: int, j: int) -> Scalar:
    """The coefficient rho_{j,n}^m in the family's own normalization,
    from the closed forms.  Swaps (m, n) when m > n (commutativity)."""
    be = spec.backend
    if m < 0 or n < 0:
        raise IndexContractError("degrees must be nonnegative")
    if j < 0 or j > m + n + 1:
        return be.zero()
    if m > n:
        m, n = n, m

    f = spec.family
    if f is Family.LAGUERRE:
        return laguerre_rho(spec.alpha, m, n, j)
    if f is Family.GEGENBAUER:
        sym = FamilySpec(Family.SYMMETRIC_JACOBI, alpha=spec.lam - _HALF,
                         backend=be)
        return _gegenbauer_scale(spec.lam, m, n, j) * rho_closed(sym, m, n, j)
    if f is Family.GENERIC_MONIC:
        raise ValueError(
            "generic sequences have no closed form; use the "
            "family-agnostic formulas in polyconv.generic_conv"
        )

    if j >= max(m + 1, n - m - 1):
        total = be.zero()
        for nu in range(max(1, abs(j - n)), m + 2):
            total = total + _varpi(spec, m, n, j, nu)
        return total
    if m + 1 <= j <= n - m - 2:
        return be.zero()
    total = be.zero()
    for nu in range(1, j + 1):
        total = total + _varpi(spec, n, m, j, nu)
    for nu in range(j + 1, n + 2):
        total = total + _dterm(spec, nu, j, n, m)
    return total


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

    Valid for j, n >= m+1 in the Jacobi-type families and for all j, n in
    the Legendre case.  Laguerre has no such relation.
    """
    f = spec.family
    be = spec.backend
    if f is Family.LEGENDRE:
        return _sign(n + j) * be.make(Fraction(2 * n + 1, 2 * j + 1))
    if f is Family.LAGUERRE or f is Family.GENERIC_MONIC:
        raise IndexContractError(f"{f.value} has no symmetry scaling")
    if j < m + 1 or n < m + 1:
        raise IndexContractError(
            f"symmetry scaling needs j, n >= m+1; got j={j}, n={n}, m={m}"
        )
    if f is Family.JACOBI:
        alpha, beta = spec.alpha, spec.beta
        s = alpha + beta
        num = ((s + (2 * n + 1)) * _poch(alpha + 1, j) * _poch(beta + 1, j)
               * _poch(s + 1, n) ** 2)
        den = ((s + (2 * j + 1)) * _poch(alpha + 1, n) * _poch(beta + 1, n)
               * _poch(s + 1, j) ** 2)
        return _sign(n + j) * num / den

    if f is Family.CHEBYSHEV:
        # T-normalized limit of the symmetric relation at alpha = -1/2
        return _sign(n + j) * be.make(Fraction(j, n))

    alpha, _ = spec.jacobi_parameters()
    num = ((2 * alpha + (2 * n + 1)) * _poch(2 * alpha + 1, n) ** 2
           * _poch(alpha + 1, j) ** 2)
    den = ((2 * alpha + (2 * j + 1)) * _poch(2 * alpha + 1, j) ** 2
           * _poch(alpha + 1, n) ** 2)
    base = _sign(n + j) * num / den
    if f is Family.SYMMETRIC_JACOBI:
        return base
    # Gegenbauer: conjugating by the normalization in
    # rho_geg = s_j / (s_m s_n) * rho_sym contributes an extra (s_n/s_j)^2
    s_j = _poch(spec.lam + _HALF, j) / _poch(2 * spec.lam, j)
    s_n = _poch(spec.lam + _HALF, n) / _poch(2 * spec.lam, n)
    return base * (s_n / s_j) ** 2


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
        return self.coeffs.get((k, j), self.alpha.backend.zero())


def bateman_tensor(m: int, alpha: Scalar, beta: Scalar) -> BatemanTensor:
    """Tensor-product expansion coefficients of the shifted difference
    kernel for Jacobi parameters (alpha, beta)."""
    be = alpha.backend
    s = alpha + beta
    coeffs = {}
    for k in range(m + 1):
        for j in range(m - k + 1):
            total = be.zero()
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
                    be.one(),
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
    x = -2a.  O(1) exact operations per entry.  Float specs are evaluated
    exactly at their binary parameters; a non-dyadic parameter such as 1/3
    rounded to a float spec makes every entry a huge rational, so pass the
    rational spec instead and round the result with `RhoTable.to_backend`
    or `ConvMatrix.to_backend`, as the CLI does.
    """
    if m < 0 or nmax < 0:
        raise IndexContractError("degrees must be nonnegative")
    exact = spec.to_backend(RATIONAL)
    top = m + nmax + 2
    coeffs = [[c.as_fraction() for c in derivative_connection(exact, k)]
              for k in range(top + 1)]
    a, b, c = zip(*coeffs)
    ends = [v.as_fraction()
            for v in eval_polys(exact, top, -exact.domain_offset_a)]
    cols = [[v.as_fraction() for v in rho_closed_vector(exact, m, 0)]]
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
        exact = spec if isinstance(spec.backend, RationalBackend) \
            else spec.to_backend(RATIONAL)
        mm, nn = (m, n) if m <= n else (n, m)
        return laguerre_rho(exact.alpha, mm, nn, j) == 0
    if spec.family is Family.LEGENDRE and (n > j + m + 1 or m > j + n + 1):
        # full symmetry in (j, n, m): support is the tilted band where no
        # index exceeds the sum of the others plus one
        return True
    band = zero_region(spec, m, n)
    return band is not None and band[0] <= j <= band[1]


def magnitude_grid(spec: FamilySpec, m: int, jmax: int, nmax: int) -> list:
    """log10 |rho| on the grid; None marks exact zeros.  Every cell is
    computed exactly by `rho_columns` whatever the spec's backend, so zeros
    are exact and the logarithm is taken of the exact value."""
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
