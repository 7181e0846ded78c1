"""Certification of the column recurrence against the closed forms.

`closed_forms.rho_columns` fills whole tables from the derivative
connection P_n = A_n P'_{n+1} + B_n P'_n + C_n P'_{n-1}; every entry must
equal `rho_closed` exactly, including the cells with m > n.
"""

import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polyconv import basis, closed_forms as cf, convmat
from polyconv.scalars import FloatBackend

from conftest import acceptance_families


def edge_families():
    return [
        basis.jacobi(Fraction(-1, 2), Fraction(-1, 2)),
        basis.jacobi(Fraction(1, 3), Fraction(-2, 3)),   # alpha + beta = -1/3
        basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),  # alpha + beta = -1
        basis.jacobi(Fraction(-1, 2), Fraction(1, 2)),
        basis.gegenbauer(Fraction(-1, 4)),
        basis.laguerre(Fraction(-1, 2)),
    ]


def assert_matches_closed_forms(spec, m, nmax):
    cols = cf.rho_columns(spec, m, nmax)
    assert len(cols) == nmax + 1
    for n, col in enumerate(cols):
        assert col == cf.rho_closed_vector(spec, m, n), (spec.label(), m, n)


class TestAgainstClosedForms:
    def test_acceptance_families(self):
        for spec in acceptance_families():
            for m in range(9):
                assert_matches_closed_forms(spec, m, 20)

    def test_parameter_edges(self):
        for spec in edge_families():
            for m in range(9):
                assert_matches_closed_forms(spec, m, 20)

    def test_derivative_connection_identity(self):
        # P_n = A_n P'_{n+1} + B_n P'_n + C_n P'_{n-1}, checked on the
        # monomial coefficients of the exact oracle expansion
        from polyconv.oracle import to_monomial

        def deriv(coeffs):
            return [k * c for k, c in enumerate(coeffs)][1:]

        for spec in acceptance_families() + edge_families():
            for n in range(8):
                a, b, c = basis.derivative_connection(spec, n)
                rhs = [0] * (n + 2)
                for weight, k in ((a, n + 1), (b, n), (c, n - 1)):
                    if k < 0:
                        continue
                    for i, v in enumerate(deriv(to_monomial(spec, k).coeffs)):
                        rhs[i] += weight.as_fraction() * v
                lhs = to_monomial(spec, n).coeffs
                assert rhs[:len(lhs)] == lhs and not any(rhs[len(lhs):]), \
                    (spec.label(), n)

    def test_eval_polys_matches_oracle(self):
        from polyconv.oracle import to_monomial

        x = Fraction(-2, 7)
        for spec in acceptance_families() + edge_families():
            values = basis.eval_polys(spec, 9, x)
            assert values == [to_monomial(spec, n).evaluate(x)
                              for n in range(10)], spec.label()


def _parameter():
    ordinary = st.fractions(min_value=Fraction(-11, 12), max_value=6,
                            max_denominator=12)
    return st.one_of(ordinary, st.just(Fraction(-1, 2)))


@st.composite
def jacobi_parameters(draw):
    alpha = draw(_parameter())
    if draw(st.booleans()) and -1 < -1 - alpha < 0:
        beta = -1 - alpha
    else:
        beta = draw(_parameter())
    return alpha, beta


@settings(max_examples=25, deadline=None)
@given(jacobi_parameters(), st.integers(0, 4), st.integers(0, 6))
def test_random_jacobi_parameters(params, m, nmax):
    alpha, beta = params
    assert_matches_closed_forms(basis.jacobi(alpha, beta), m, nmax)


@settings(max_examples=15, deadline=None)
@given(_parameter(), st.integers(0, 4), st.integers(0, 6))
def test_random_laguerre_and_gegenbauer(alpha, m, nmax):
    assert_matches_closed_forms(basis.laguerre(alpha), m, nmax)
    lam = alpha + Fraction(1, 2)
    if lam > Fraction(-1, 2) and lam != 0:
        assert_matches_closed_forms(basis.gegenbauer(lam), m, nmax)


class TestTables:
    def test_rho_table_equals_closed_forms(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        table = cf.rho_table(spec, 4, 14, 9)
        for j in range(15):
            for n in range(10):
                assert table.values[j][n] == cf.rho_closed(spec, 4, n, j)

    def test_float_spec_table_rounds_the_exact_table(self):
        fb = FloatBackend(256)
        exact = basis.jacobi(Fraction(1, 3), Fraction(1, 5))
        table = cf.rho_table(exact.to_backend(fb), 15, 66, 66)
        want = cf.rho_table(exact, 15, 66, 66)
        assert [[(v.as_fraction(), v.backend) for v in row]
                for row in table.values] == \
            [[(fb.make(v).as_fraction(), fb) for v in row]
             for row in want.values]

    def test_float_matrix_agrees_with_rational(self):
        random.seed(41)
        fb = FloatBackend(256)
        tol = Fraction(1, 10 ** 60)
        for spec in acceptance_families():
            coeffs = [Fraction(random.randint(-9, 9), random.randint(1, 7))
                      for _ in range(6)]
            exact = convmat.build_matrix(convmat.SeriesCoeffs(spec, coeffs), 9)
            rounded = convmat.build_matrix(
                convmat.SeriesCoeffs(spec.to_backend(fb), coeffs), 9)
            for row_r, row_f in zip(exact.entries, rounded.entries):
                for r, f in zip(row_r, row_f):
                    r, f = r.as_fraction(), f.as_fraction()
                    if r == 0:
                        # exact cancellation between rounded coefficients
                        assert abs(f) < Fraction(1, 10 ** 55), spec.label()
                    else:
                        assert abs(f - r) / abs(r) < tol, spec.label()

