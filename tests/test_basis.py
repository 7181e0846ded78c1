import math
from fractions import Fraction

import pytest

from polyconv import basis, oracle
from polyconv.basis import Family, GenericBasisData
from polyconv.errors import IndexOutOfRangeError, MissingDataError
from polyconv.scalars import RATIONAL, FloatBackend, pochhammer


def all_families():
    return [
        basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        basis.jacobi(0, 0),
        basis.symmetric_jacobi(Fraction(5, 2)),
        basis.symmetric_jacobi(Fraction(-1, 2)),
        basis.gegenbauer(Fraction(3, 2)),
        basis.gegenbauer(Fraction(-1, 3)),
        basis.legendre(),
        basis.chebyshev(),
        basis.laguerre(0),
        basis.laguerre(1),
        basis.laguerre(Fraction(5, 2)),
        basis.generic_monic(),
    ]


def mono_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * Fraction(x) + c
    return acc


def mono_deriv(coeffs, p):
    out = list(coeffs)
    for _ in range(p):
        out = [k * c for k, c in enumerate(out)][1:] or [Fraction(0)]
    return out


class TestFamilySpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            basis.jacobi(-2, 0)
        with pytest.raises(ValueError):
            basis.jacobi(0, "-1")
        with pytest.raises(ValueError):
            basis.gegenbauer("-3/4")
        with pytest.raises(ValueError):
            basis.gegenbauer(0)
        with pytest.raises(ValueError):
            basis.laguerre("-1")

    def test_redirects(self):
        assert basis.symmetric_jacobi(0).family is Family.LEGENDRE
        assert basis.gegenbauer(Fraction(1, 2)).family is Family.LEGENDRE

    def test_domain_offsets(self):
        assert basis.legendre().domain_offset_a == 1
        assert basis.laguerre(0).domain_offset_a == 0

    def test_zero_region_constant(self):
        assert basis.jacobi(0, 0).zero_region_q == 1
        assert basis.chebyshev().zero_region_q == 1
        assert basis.laguerre(1).zero_region_q == 0
        assert basis.generic_monic().zero_region_q is None

    def test_config_roundtrip(self):
        for spec in all_families():
            again = basis.spec_from_config(spec.to_config())
            assert again == spec

    def test_config_has_string_parameters(self):
        cfg = basis.jacobi(Fraction(5, 2), Fraction(3, 2)).to_config()
        assert cfg == {"family": "jacobi", "alpha": "5/2", "beta": "3/2"}


    def test_float_spec_parameters_stay_exact(self):
        fb = FloatBackend(256)
        spec = basis.jacobi(Fraction(1, 3), Fraction(1, 5), backend=fb)
        assert spec.alpha.as_fraction() == Fraction(1, 3)
        assert spec.beta.as_fraction() == Fraction(1, 5)
        assert spec.backend == fb
        assert spec.to_backend(RATIONAL) == \
            basis.jacobi(Fraction(1, 3), Fraction(1, 5))


class TestEvalPoly:
    def test_degree_zero_is_one(self):
        for spec in all_families():
            assert basis.eval_poly(spec, 0, Fraction(2, 7)) == 1

    def test_matches_monomial_recurrence(self):
        for spec in all_families():
            for n in range(0, 11):
                coeffs = oracle.to_monomial(spec, n).coeffs
                for x in [Fraction(1, 3), Fraction(-7, 5), 2]:
                    assert basis.eval_poly(spec, n, x) == mono_eval(coeffs, x)

    def test_jacobi_value_at_left_endpoint(self):
        alpha, beta = Fraction(5, 2), Fraction(3, 2)
        spec = basis.jacobi(alpha, beta)
        for n in range(9):
            want = (-1) ** n * pochhammer(RATIONAL.make(beta + 1), n) \
                / math.factorial(n)
            assert basis.eval_poly(spec, n, -1) == want

    def test_legendre_value(self):
        assert basis.eval_poly(basis.legendre(), 2, 0) == Fraction(-1, 2)

    def test_jacobi_reflection(self):
        a, b = Fraction(5, 2), Fraction(3, 2)
        ab = basis.jacobi(a, b)
        ba = basis.jacobi(b, a)
        for n in range(8):
            for x in [Fraction(1, 4), Fraction(-2, 3), 1]:
                assert basis.eval_poly(ab, n, -x) == \
                    (-1) ** n * basis.eval_poly(ba, n, x)

    def test_jacobi_derivative_identity(self):
        # d^p/dx^p P_n^(a,b) = (a+b+n+1)_p / 2^p P_(n-p)^(a+p, b+p)
        a, b = Fraction(5, 2), Fraction(3, 2)
        spec = basis.jacobi(a, b)
        xs = [Fraction(k, 10) for k in range(-9, 10, 2)] + [2, -3]
        for n in range(11):
            mono = oracle.to_monomial(spec, n).coeffs
            for p in range(0, min(n, 3) + 1):
                shifted = basis.jacobi(a + p, b + p)
                scale = pochhammer(RATIONAL.make(a + b + n + 1), p) \
                    / Fraction(2 ** p)
                dmono = mono_deriv(mono, p)
                for x in xs:
                    assert mono_eval(dmono, x) == \
                        scale * basis.eval_poly(shifted, n - p, x)

    def test_laguerre_parameter_shift(self):
        # L_n^(a) = sum_k (a-b)_(n-k)/(n-k)! L_k^(b)
        for a, b in [(Fraction(1), Fraction(0)),
                     (Fraction(5, 2), Fraction(1, 2))]:
            la, lb = basis.laguerre(a), basis.laguerre(b)
            for n in range(9):
                for x in [Fraction(1, 3), Fraction(7, 2)]:
                    want = basis.eval_poly(la, n, x)
                    got = RATIONAL.zero()
                    for k in range(n + 1):
                        got = got + (pochhammer(RATIONAL.make(a - b), n - k)
                                     / math.factorial(n - k)
                                     * basis.eval_poly(lb, k, x))
                    assert got == want


class TestEndpointDerivative:
    def test_against_monomial_derivatives(self):
        for spec in all_families():
            a = spec.domain_offset_a.as_fraction()
            for n in range(9):
                mono = oracle.to_monomial(spec, n).coeffs
                for p in range(n + 3):
                    want = mono_eval(mono_deriv(mono, p), -a)
                    assert basis.endpoint_derivative(spec, n, p) == want

    def test_order_above_degree_vanishes(self):
        for spec in all_families():
            assert basis.endpoint_derivative(spec, 4, 5) == 0

    def test_laguerre_first_derivative(self):
        # L_3^(0) differentiates to -3 at the origin
        assert basis.endpoint_derivative(basis.laguerre(0), 3, 1) == -3


class TestMonomialExpansion:
    def test_degree_zero(self):
        for spec in all_families():
            assert basis.monomial_expansion_b(spec, 0, 0) == 1

    def test_legendre_linear(self):
        leg = basis.legendre()
        assert basis.monomial_expansion_b(leg, 1, 0) == 1
        assert basis.monomial_expansion_b(leg, 1, 1) == 1

    def test_laguerre_leading(self):
        lag = basis.laguerre(Fraction(5, 2))
        for n in range(9):
            assert basis.monomial_expansion_b(lag, n, n) == \
                (-1) ** n * math.factorial(n)

    def test_round_trip(self):
        # (x+a)^n reproduced through the family basis at rational points
        xs = [Fraction(k, 7) for k in range(-9, 10, 2)]
        for spec in all_families():
            a = spec.domain_offset_a.as_fraction()
            for n in range(0, 13, 3):
                bs = [basis.monomial_expansion_b(spec, n, k)
                      for k in range(n + 1)]
                for x in xs:
                    want = (x + a) ** n
                    got = RATIONAL.zero()
                    for k in range(n + 1):
                        got = got + bs[k] * basis.eval_poly(spec, k, x)
                    assert got == want

    def test_index_bounds(self):
        with pytest.raises(IndexOutOfRangeError):
            basis.monomial_expansion_b(basis.legendre(), 2, 3)


class TestConnectionGamma:
    def test_self_connection_is_identity(self):
        for spec in all_families():
            for p in range(3):
                for n in range(5):
                    for k in range(n + 1):
                        want = 1 if k == n else 0
                        assert basis.connection_gamma(spec, n, k, p, p) == want

    def test_laguerre_closed_form(self):
        lag = basis.laguerre(Fraction(5, 2))
        for n in range(6):
            for k in range(n + 1):
                for p in range(3):
                    for q in range(3):
                        want = (-1) ** (p + q) \
                            * pochhammer(RATIONAL.make(p - q), n - k) \
                            / math.factorial(n - k)
                        assert basis.connection_gamma(lag, n, k, p, q) == want

    def test_symmetric_parity_zeros(self):
        sym = basis.symmetric_jacobi(Fraction(5, 2))
        for n in range(6):
            for k in range(n + 1):
                if (n - k) % 2:
                    assert basis.connection_gamma(sym, n, k, 1, 2) == 0

    def test_definition_pointwise(self):
        # d^p P_(n+p) = sum_k gamma_{n,k}^(p,q) d^q P_(k+q)
        xs = [Fraction(1, 3), Fraction(-3, 7), Fraction(9, 4)]
        for spec in all_families():
            for n in range(5):
                for p in range(3):
                    for q in range(3):
                        gammas = [basis.connection_gamma(spec, n, k, p, q)
                                  for k in range(n + 1)]
                        lhs_mono = mono_deriv(
                            oracle.to_monomial(spec, n + p).coeffs, p)
                        for x in xs:
                            rhs = RATIONAL.zero()
                            for k in range(n + 1):
                                dq = mono_deriv(
                                    oracle.to_monomial(spec, k + q).coeffs, q)
                                rhs = rhs + gammas[k] * mono_eval(dq, x)
                            assert mono_eval(lhs_mono, x) == rhs

    def test_jacobi_reflection_of_coefficients(self):
        # gamma(alpha, beta) = (-1)^(n+k) gamma(beta, alpha)
        ab = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        ba = basis.jacobi(Fraction(3, 2), Fraction(5, 2))
        for n in range(9):
            for k in range(n + 1):
                for p, q in [(0, 0), (1, 0), (2, 1)]:
                    assert basis.connection_gamma(ab, n, k, p, q) == \
                        (-1) ** (n + k) * basis.connection_gamma(ba, n, k, p, q)


class TestGenericBasisData:
    def test_gamma_from_b_matches_closed_forms(self):
        for spec in [basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                     basis.laguerre(1), basis.chebyshev()]:
            data = GenericBasisData.from_family(spec, 10)
            for n in range(7):
                for r in range(min(n, 2) + 1):
                    for k in range(n - r + 1):
                        for s in range(3):
                            want = basis.connection_gamma(spec, n - r, k, r, s)
                            got = basis.gamma_from_b(data, n, k, r, s)
                            assert got == want

    def test_laguerre_example(self):
        data = GenericBasisData.from_family(basis.laguerre(1), 8)
        assert basis.gamma_from_b(data, 4, 1, 2, 1) == -1

    def test_missing_data_reported(self):
        data = GenericBasisData.from_family(basis.legendre(), 4)
        with pytest.raises(MissingDataError):
            data.b(5, 2)
        with pytest.raises(MissingDataError):
            basis.gamma_from_b(data, 4, 0, 0, 3)

    def test_negative_index_is_out_of_range_not_missing(self):
        # a negative index is a caller's error whatever the table holds;
        # an in-range key the table lacks is missing data
        data = GenericBasisData.from_family(basis.legendre(), 4)
        for call in [lambda: basis.gamma_from_b(data, 3, 0, -1, 0),
                     lambda: basis.gamma_from_b(data, 3, 0, 0, -1),
                     lambda: data.b(-1, 0), lambda: data.b(2, -1),
                     lambda: data.b(-1, -1),
                     lambda: data.deriv(-1, 0), lambda: data.deriv(3, -1),
                     lambda: data.deriv(-1, -1)]:
            with pytest.raises(IndexOutOfRangeError):
                call()
        with pytest.raises(MissingDataError, match=r"\(5, 0\)"):
            data.b(5, 0)
        with pytest.raises(MissingDataError, match=r"\(5, 0\)"):
            data.deriv(5, 0)
        assert data.deriv(3, 4) == 0

    def test_leading_b_must_not_vanish(self):
        with pytest.raises(MissingDataError):
            GenericBasisData(RATIONAL.one(), 1,
                             {(0, 0): RATIONAL.one(),
                              (1, 0): RATIONAL.one(),
                              (1, 1): RATIONAL.zero()},
                             {(0, 0): RATIONAL.one()})
