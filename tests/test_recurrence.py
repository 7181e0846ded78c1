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

import pytest
from hypothesis import example, given, settings, strategies as st

from polyconv import basis, closed_forms as cf, convmat, generic_conv
from polyconv.errors import IndexOutOfRangeError
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
        # far-apart weights, as a sparse series of high degree gives: the
        # rows between them are never visited, yet every cell, zero band
        # and endpoint closure included, is the weighted sum of the
        # single-weight columns, whether the weights' runs of rows are
        # apart, overlap or meet, two or three of them
        rng = random.Random(19)
        families = acceptance_families() + [
            basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),  # alpha+beta=-1
        ]
        for spec in families:
            for degrees in ((2, 90), (84, 90), (2, 300, 700), (2, 16, 30)):
                weights = {m: Fraction(rng.randint(-99, 99) or 1,
                                       rng.randint(1, 99)) for m in degrees}
                cols = cf.series_columns(spec, weights, 6)
                assert_canonical(cols, max(degrees))
                singles = {m: cf.rho_columns(spec, m, 6) for m in weights}
                for n, col in enumerate(cols):
                    size = len(col[0])
                    want = [sum(w * v for w, v in zip(weights.values(), row))
                            for row in cf._rows([singles[m][n]
                                                 for m in weights], size)]
                    assert cf._fractions(col) == want, (spec.label(), degrees,
                                                        n)

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

    def test_endpoint_values_track_the_rows_visited(self, monkeypatch):
        # the values P_k(-a) are made only on the runs of rows a column can
        # reach: a single weight at degree 400 or 4000 against nmax = 4
        # asks for O(nmax) endpoint values in one call, not one per row
        # below the top, and they are the values of the full run
        calls = []

        def recorded(spec, runs, n):
            calls.append((spec, list(runs), n))
            return basis.endpoint_runs(spec, runs, n)

        monkeypatch.setattr(cf, "endpoint_runs", recorded)
        for spec in (basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                     basis.gegenbauer(Fraction(3, 2)),
                     basis.chebyshev(),
                     basis.laguerre(Fraction(5, 2))):
            for m in (400, 4000):
                calls.clear()
                cols = cf.series_columns(spec, {m: Fraction(3, 7)}, 4)
                assert len(cols) == 5
                assert len(calls) == 1, (spec.label(), m)
                _, runs, n = calls[0]
                assert n == m + 4 + 2
                assert sum(hi - lo for lo, hi in runs) <= 4 * (4 + 2), \
                    (spec.label(), m, runs)
                assert_endpoint_runs(spec, runs, n)

    def test_connection_and_endpoint_ints_in_lowest_terms(self):
        # the values themselves are certified by the oracle and by the
        # endpoint derivatives; here, that the ints carry no common factor
        for spec in acceptance_families() + edge_families():
            for n in range(12):
                for num, den in basis.connection_ints(spec, n):
                    assert den > 0 and math.gcd(num, den) == 1
            nums, den = basis.endpoint_runs(spec, [(0, 31)], 30)
            assert den > 0 and math.gcd(den, *nums) == 1, spec.label()


def assert_endpoint_runs(spec, runs, n):
    """`endpoint_runs` equals its one run 0..n on its runs and is zero off
    them, over the same denominator."""
    nums, den = basis.endpoint_runs(spec, runs, n)
    full, full_den = basis.endpoint_runs(spec, [(0, n + 1)], n)
    assert den == full_den and len(nums) == n + 1, spec.label()
    on = {k for lo, hi in runs for k in range(lo, hi)}
    assert nums == [v if k in on else 0 for k, v in enumerate(full)], \
        (spec.label(), runs)


@settings(max_examples=20, deadline=None)
@given(jacobi_parameters(), st.lists(st.integers(0, 60), min_size=0,
                                     max_size=6, unique=True))
def test_random_endpoint_runs(params, cuts):
    cuts = sorted(cuts + [61])
    runs = list(zip(cuts[:-1:2], cuts[1::2]))
    alpha, beta = params
    assert_endpoint_runs(basis.jacobi(alpha, beta), runs, 60)
    assert_endpoint_runs(basis.laguerre(alpha), runs, 60)
    lam = alpha + Fraction(1, 2)
    if lam > Fraction(-1, 2) and lam != 0:
        assert_endpoint_runs(basis.gegenbauer(lam), runs, 60)


@settings(max_examples=25, deadline=None)
@given(jacobi_parameters(), st.integers(0, 40))
@example((Fraction(-1, 2), Fraction(-1, 2)), 40)  # alpha = -1/2: Q = 2
@example((Fraction(-1, 3), Fraction(-2, 3)), 40)  # alpha + beta = -1
def test_random_endpoint_values(params, n):
    # every value P_k(-a) read from the family constant (sigma, c) equals
    # the three-term recurrence at x = -a, for Jacobi (c = beta + 1),
    # Laguerre (c = alpha + 1) and Gegenbauer (p != q: c = 2 lam)
    alpha, beta = params
    specs = [basis.jacobi(alpha, beta), basis.laguerre(alpha)]
    lam = alpha + Fraction(1, 2)
    if lam > Fraction(-1, 2) and lam != 0:
        specs.append(basis.gegenbauer(lam))
    for spec in specs:
        nums, den = basis.endpoint_runs(spec, [(0, n + 1)], n)
        assert [Fraction(v, den) for v in nums] == basis.eval_polys(
            spec, n, -spec.domain_offset_a), (spec.label(), n)


class TestEndpointValues:
    def test_runs_equal_the_full_run(self):
        # the values at visited rows and their denominator, that of the
        # top value, for runs at the bottom, in the middle and at the top,
        # and for none
        for spec in acceptance_families() + edge_families():
            for runs in ([(0, 7), (40, 52), (95, 101)], [(0, 101)],
                         [(3, 4)], []):
                assert_endpoint_runs(spec, runs, 100)

    def test_equal_endpoint_derivatives_and_recurrence(self):
        for spec in acceptance_families() + edge_families():
            nums, den = basis.endpoint_runs(spec, [(0, 41)], 40)
            assert all(type(v) is int for v in nums + [den])
            values = [Fraction(v, den) for v in nums]
            assert values == [basis.endpoint_derivative(spec, k, 0)
                              for k in range(41)], spec.label()
            assert values == basis.eval_polys(
                spec, 40, -spec.domain_offset_a), spec.label()

    def test_integer_c_has_denominator_one(self):
        # P_n(-a) = +-(c)_n / n! is an integer when c is: Legendre and
        # Chebyshev (c = 1), beta = 2 (c = 3), Laguerre(1) (c = 2)
        for spec in (basis.legendre(), basis.chebyshev(),
                     basis.jacobi(Fraction(5, 2), 2), basis.laguerre(1)):
            for n in (0, 1, 57, 1000):
                assert basis._endpoint_den(spec, n) == 1, (spec.label(), n)

    def test_closed_form_denominator_at_depth(self):
        # the degree of the CI product P_3 x P_8000, whose unreduced
        # product route has about 8,000 factors
        for spec in (basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                     basis.chebyshev()):
            assert basis._endpoint_den(spec, 8005) == \
                product_route_den(spec, 8005), spec.label()


    def test_large_prime_denominator(self):
        # Q a 39-digit prime, alone and times 12: trial division stops at
        # n, since a prime l > n has v_l(n!) = 0
        big = 2 ** 127 - 1
        for q in (big, 12 * big):
            for spec in (basis.jacobi(0, Fraction(1, q)),
                         basis.laguerre(Fraction(1, q)),
                         basis.gegenbauer(Fraction(1, q))):
                for n in (0, 1, 5, 40, 300):
                    assert basis._endpoint_den(spec, n) == \
                        product_route_den(spec, n), (spec.label(), n)

    def test_generic_sequence(self):
        # P_0 = 1 and P_k(-a) = 0 for k >= 1; the engine then stops at
        # the missing derivative connection
        spec = basis.generic_monic()
        assert basis.endpoint_runs(spec, [(0, 6)], 5) == \
            ([1, 0, 0, 0, 0, 0], 1)
        with pytest.raises(ValueError, match="derivative connection"):
            cf.series_columns(spec, {2: 1}, 3)

    def test_negative_degree_rejected(self):
        for spec in (basis.legendre(), basis.laguerre(0),
                     basis.generic_monic()):
            for runs in ([], [(0, 1)]):
                with pytest.raises(IndexOutOfRangeError,
                                   match="degree must be nonnegative"):
                    basis.endpoint_runs(spec, runs, -1)


def product_route_den(spec, n):
    """The denominator of P_n(-a) in lowest terms, from the product of
    rising factorials of `endpoint_derivative`, reduced by one gcd."""
    return basis.endpoint_derivative(spec, n, 0).as_fraction().denominator


@settings(max_examples=30, deadline=None)
@given(jacobi_parameters(), st.integers(0, 1000))
@example((Fraction(-1, 2), Fraction(-1, 2)), 1000)  # c = 1/2: Q = 2
@example((Fraction(1, 3), Fraction(-7, 9)), 999)    # c = 2/9: Q = 9
@example((Fraction(-1, 12), Fraction(-11, 12)), 1000)  # Q = 12, a + b = -1
@example((Fraction(3), Fraction(2)), 997)           # integer c: den 1
def test_closed_form_endpoint_denominator(params, n):
    # `_endpoint_den` = Q^n prod_{l | Q} l^(v_l(n!)) against the product
    # route, for Jacobi (c = beta + 1), Laguerre (c = alpha + 1) and
    # Gegenbauer (p != q: c = 2 lam)
    alpha, beta = params
    specs = [basis.jacobi(alpha, beta), basis.laguerre(alpha)]
    lam = alpha + Fraction(1, 2)
    if lam > Fraction(-1, 2) and lam != 0:
        specs.append(basis.gegenbauer(lam))
    for spec in specs:
        assert basis._endpoint_den(spec, n) == product_route_den(spec, n), \
            (spec.label(), n)


class ForbiddenFraction(Fraction):
    """Stands in for a module's `Fraction` name and raises when made; an
    isinstance test against it still works."""

    def __new__(cls, *args, **kwargs):
        raise AssertionError("the engine made a Fraction")


def test_engine_makes_no_fraction(monkeypatch):
    # every per-column and per-call step of `series_columns` is int
    # arithmetic: dense weights (a degree-15 series), sparse weights far
    # apart, and the one-term series of `rho_columns`, over the acceptance
    # and edge families.  The first, unguarded run makes each spec's
    # cached parameter rows, which are the family's, not the engine's
    jacobi = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
    dense = {k: Fraction(2 * k - 15, k + 2) for k in range(16)}
    sparse = {2: Fraction(1, 3), 300: Fraction(-2, 5), 700: Fraction(7, 11)}
    cases = [(jacobi, dense, 20), (jacobi, sparse, 6)] + [
        (spec, weights, nmax)
        for spec in acceptance_families() + edge_families()
        for weights, nmax in ((dense, 8), (sparse, 3), ({4: 1}, 10))]
    want = [cf.series_columns(*case) for case in cases]
    want_rho = cf.rho_columns(jacobi, 15, 30)
    monkeypatch.setattr(cf, "Fraction", ForbiddenFraction)
    monkeypatch.setattr(basis, "Fraction", ForbiddenFraction)
    assert [cf.series_columns(*case) for case in cases] == want
    assert cf.rho_columns(jacobi, 15, 30) == want_rho


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

