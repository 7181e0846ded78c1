import random
from fractions import Fraction

import pytest

from polyconv import basis
from polyconv.scalars import pochhammer


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
