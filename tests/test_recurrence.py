"""Certification of the column recurrence against the closed forms.

`closed_forms.rho_columns` fills whole tables from the derivative
connection P_n = A_n P'_{n+1} + B_n P'_n + C_n P'_{n-1}; every entry must
equal `rho_closed` exactly, including the cells with m > n.  The closed
forms and the family-agnostic route must in turn equal the oracle at
random parameters, and the endpoint values P_k(-a) the recurrence closes
its columns with must equal the endpoint derivatives of order 0.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from polyconv import basis, closed_forms as cf, convmat, generic_conv
from polyconv.oracle import oracle_rho
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


def assert_canonical(cols, top_m):
    """Column n is (nums, den): m + n + 2 int numerators over one positive
    int denominator with no common factor, and zero below its end."""
    for n, (nums, den) in enumerate(cols):
        assert type(den) is int and den > 0
        assert [type(v) for v in nums] == [int] * (top_m + n + 2)
        assert math.gcd(den, *nums) == 1, n
    rows = list(cf._rows(cols, top_m + len(cols) + 3))
    for n in range(len(cols)):
        assert all(row[n] == 0 for row in rows[top_m + n + 2:]), n


def assert_matches_closed_forms(spec, m, nmax):
    cols = cf.rho_columns(spec, m, nmax)
    assert len(cols) == nmax + 1
    assert_canonical(cols, m)
    for n, col in enumerate(cols):
        assert cf._fractions(col) == cf.rho_closed_vector(spec, m, n), \
            (spec.label(), m, n)


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
                a, b, c = (Fraction(*pair)
                           for pair in basis.connection_ints(spec, n))
                rhs = [0] * (n + 2)
                for weight, k in ((a, n + 1), (b, n), (c, n - 1)):
                    if k < 0:
                        continue
                    for i, v in enumerate(deriv(to_monomial(spec, k).coeffs)):
                        rhs[i] += weight * v
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


def assert_certified(spec, top=4):
    """rho_closed = generic route = oracle at every j, for m <= n <= top."""
    data = basis.GenericBasisData.from_family(spec, 2 * top + 1)
    for m in range(top + 1):
        for n in range(m, top + 1):
            truth = oracle_rho(spec, m, n)
            assert len(truth) == m + n + 2
            assert cf.rho_closed_vector(spec, m, n) == truth, \
                (spec.label(), m, n)
            assert generic_conv.rho_vector(data, m, n) == truth, \
                (spec.label(), m, n)


@settings(max_examples=10, deadline=None)
@given(jacobi_parameters())
def test_random_jacobi_certified_by_the_oracle(params):
    assert_certified(basis.jacobi(*params))


@settings(max_examples=5, deadline=None)
@given(_parameter())
def test_random_one_parameter_families_certified_by_the_oracle(alpha):
    assert_certified(basis.symmetric_jacobi(alpha))
    assert_certified(basis.laguerre(alpha))
    if alpha != Fraction(-1, 2):
        assert_certified(basis.gegenbauer(alpha + Fraction(1, 2)))


class TestIntegerColumns:
    def test_weighted_columns_are_canonical(self):
        rng = random.Random(13)
        for spec in acceptance_families() + edge_families():
            weights = {m: Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                       for m in range(7)}
            cols = cf.series_columns(spec, weights, 30)
            assert_canonical(cols, max(m for m, w in weights.items() if w))
            # one weighted run is the weighted sum of the single-weight runs
            singles = {m: [cf._fractions(col) for col in
                           cf.rho_columns(spec, m, 30)] for m in weights}
            for n, col in enumerate(cols):
                want = [sum((w * singles[m][n][j] for m, w in weights.items()
                             if j < len(singles[m][n])), Fraction(0))
                        for j in range(len(col[0]))]
                assert cf._fractions(col) == want, (spec.label(), n)

    def test_sparse_weights_are_the_sum_of_single_weights(self):
        # two far-apart weights, as a sparse series of high degree gives:
        # the rows between them are never visited, yet every cell, zero
        # band and endpoint closure included, is the weighted sum of the
        # single-weight columns
        rng = random.Random(19)
        families = acceptance_families() + [
            basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),  # alpha+beta=-1
        ]
        for spec in families:
            for lo, hi in ((2, 90), (84, 90)):
                weights = {lo: Fraction(rng.randint(1, 99), rng.randint(1, 99)),
                           hi: Fraction(-rng.randint(1, 99), rng.randint(1, 99))}
                cols = cf.series_columns(spec, weights, 6)
                assert_canonical(cols, hi)
                singles = {m: cf.rho_columns(spec, m, 6) for m in weights}
                for n, col in enumerate(cols):
                    size = len(col[0])
                    want = [weights[lo] * a + weights[hi] * b for a, b in zip(
                        cf._cells(singles[lo][n], size),
                        cf._cells(singles[hi][n], size))]
                    assert cf._fractions(col) == want, (spec.label(), lo, n)

    def test_set_up_tracks_the_rows_visited(self, monkeypatch):
        # connection data is made once per row a column can reach, so a
        # single weight at degree 400 or 4000 against nmax = 4 needs O(nmax)
        # rows of it, not one per row below the top (405 when all were made)
        calls = []

        def counted(spec, k):
            calls.append(k)
            return basis.connection_ints(spec, k)

        monkeypatch.setattr(cf, "connection_ints", counted)
        for spec in (basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                     basis.legendre(), basis.laguerre(Fraction(5, 2))):
            for m in (400, 4000):
                calls.clear()
                cols = cf.series_columns(spec, {m: Fraction(3, 7)}, 4)
                assert len(cols) == 5
                assert len(calls) == len(set(calls)) <= 4 * (4 + 2), \
                    (spec.label(), m, sorted(calls))

    def test_connection_and_endpoint_ints_in_lowest_terms(self):
        # the values themselves are certified by the oracle and by the
        # endpoint derivatives; here, that the ints carry no common factor
        for spec in acceptance_families() + edge_families():
            for n in range(12):
                for num, den in basis.connection_ints(spec, n):
                    assert den > 0 and math.gcd(num, den) == 1
            nums, den = basis.endpoint_ints(spec, 30)
            assert den > 0 and math.gcd(den, *nums) == 1, spec.label()


class TestEndpointValues:
    def test_equal_endpoint_derivatives_and_recurrence(self):
        for spec in acceptance_families() + edge_families():
            nums, den = basis.endpoint_ints(spec, 40)
            assert all(type(v) is int for v in nums + [den])
            values = [Fraction(v, den) for v in nums]
            assert values == [basis.endpoint_derivative(spec, k, 0)
                              for k in range(41)], spec.label()
            assert values == basis.eval_polys(
                spec, 40, -spec.domain_offset_a), spec.label()


class TestTables:
    def test_rho_table_equals_closed_forms(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        entries = convmat.rho_table(spec, 4, 14, 9).entries
        for j in range(15):
            for n in range(10):
                assert entries[j][n] == cf.rho_closed(spec, 4, n, j)

    def test_float_spec_table_rounds_the_exact_table(self):
        fb = FloatBackend(256)
        exact = basis.jacobi(Fraction(1, 3), Fraction(1, 5))
        table = convmat.rho_table(exact.to_backend(fb), 15, 66, 66)
        want = convmat.rho_table(exact, 15, 66, 66)
        assert [[(v.as_fraction(), v.backend) for v in row]
                for row in table.entries] == \
            [[(fb.make(v).as_fraction(), fb) for v in row]
             for row in want.entries]

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

