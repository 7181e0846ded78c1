import random
from fractions import Fraction
from operator import mul

import pytest

from polyconv import basis, engine
from polyconv.basis import Family
from polyconv.generic_conv import column_ints, deriv_ints
from polyconv.scalars import (RATIONAL, factorial, hyp_pfq_ints, over_rising,
                              pochhammer, sign, times)
from polyconv.scalars import pochhammer_ints as rising


def column_values(col):
    """The exact values of one engine column (nums, den), as Fractions."""
    return list(engine.cells(col, len(col[0])))


def acceptance_families():
    return [
        basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        basis.jacobi(0, 0),
        basis.symmetric_jacobi(Fraction(5, 2)),
        basis.gegenbauer(Fraction(3, 2)),
        basis.legendre(),
        basis.chebyshev(),
        basis.laguerre(0),
        basis.laguerre(1),
        basis.laguerre(Fraction(5, 2)),
    ]


def reference_families():
    """The families the int formulas are checked on against their Fraction
    references: the acceptance nine, then p != q (Gegenbauer -1/3), the
    edges alpha = -1/2 and alpha + beta = -1, Laguerre alpha in (-1, 0),
    and four seeded random rational Jacobi rows."""
    rng = random.Random(17)
    dens = [rng.randint(2, 12) for _ in range(8)]
    params = [Fraction(rng.randint(1 - d, 5 * d), d) for d in dens]
    return acceptance_families() + [
        basis.gegenbauer(Fraction(-1, 3)),
        basis.jacobi(Fraction(-1, 2), Fraction(1, 3)),
        basis.jacobi(Fraction(-1, 4), Fraction(-3, 4)),
        basis.laguerre(Fraction(-5, 7)),
    ] + [basis.jacobi(*params[i:i + 2]) for i in range(0, 8, 2)]


def ref_normalization(spec, n):
    """c_n = (p)_n / (q)_n in Fractions, the reference for the int form."""
    _, _, p, q = spec._jacobi_row
    return Fraction(1) if p == q else pochhammer(p, n) / pochhammer(q, n)


@pytest.fixture(scope="session")
def families():
    return acceptance_families()


# The paper's connection coefficients gamma, kept as references: no
# package path reads them.  The tests check the closed form against its
# b-bridge, which reads the package's b and derivative tables.

def connection_gamma(spec, n, k, p, q):
    """gamma_{n,k}^(p,q): d^p P_{n+p} = sum_k gamma_{n,k}^(p,q) d^q P_{k+q},
    0 <= k <= n.  For an interval family, with s = alpha + beta,
    c_{n+p} / c_{k+q} times the terminating 3F2 at unit argument

        (alpha+k+p+1)_(n-k) (s+n+p+1)_p (s+n+2p+1)_k
        / (2^(p-q) (n-k)! (s+k+q+1)_q (s+k+2q+1)_k)
        * 3F2(k-n, alpha+k+q+1, s+k+n+2p+1; alpha+k+p+1, s+2k+2q+2; 1);

    for Laguerre (-1)^(p+q) (p-q)_(n-k) / (n-k)!."""
    f = spec.family
    if f is Family.LAGUERRE:
        value = times((sign(p + q), factorial(n - k)), rising(p - q, 1, n - k))
    elif f is Family.GENERIC_MONIC:
        value = (factorial(n + p), factorial(n + q)) if n == k else (0, 1)
    else:
        d, a, b, _, _ = spec._row_ints
        s = a + b
        value = times(
            (2 ** max(q - p, 0), 2 ** max(p - q, 0) * factorial(n - k)),
            rising(a + (k + p + 1) * d, d, n - k),
            rising(s + (n + p + 1) * d, d, p),
            rising(s + (n + 2 * p + 1) * d, d, k),
            over_rising(s + (k + q + 1) * d, d, q),
            over_rising(s + (k + 2 * q + 1) * d, d, k),
            hyp_pfq_ints([(k - n, 1), (a + (k + q + 1) * d, d),
                          (s + (k + n + 2 * p + 1) * d, d)],
                         [(a + (k + p + 1) * d, d),
                          (s + (2 * k + 2 * q + 2) * d, d)], (1, 1)),
            spec._normalization_ints(n + p),
            spec._normalization_ints(k + q)[::-1])
    return RATIONAL.make(Fraction(*value))


def gamma_from_b(data, n, k, r, s):
    """gamma_{n-r,k}^(r,s) from the b coefficients and the endpoint
    derivatives of P_n,

        sum_{sigma=0}^{n-(r+k)} b_{sigma+k+s, k+s} / (sigma+k+s)!
                                * d^{r+k+sigma} P_n |_{x=-a},

    by the family-agnostic route's integer kernel
    (`generic_conv.deriv_ints`, `generic_conv.column_ints`)."""
    weights, den = deriv_ints(data, n, r + k, n)
    column, col_den = column_ints(data, k + s, k + s, n - r + s)
    return RATIONAL.make(Fraction(sum(map(mul, column, weights)),
                                  col_den * den))
