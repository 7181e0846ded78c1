import math
from fractions import Fraction

import mpmath
import pytest

from polyconv import basis, generic_conv, oracle
from polyconv.basis import GenericBasisData
from polyconv.errors import IndexContractError, MissingDataError
from polyconv.generic_conv import RhoRequest, request


DEGREE = 5


def data_for(spec, max_degree=2 * DEGREE + 1):
    return GenericBasisData.from_family(spec, max_degree)


class TestAgreement:
    @pytest.mark.parametrize("make", [
        lambda: basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        lambda: basis.symmetric_jacobi(Fraction(5, 2)),
        lambda: basis.gegenbauer(Fraction(3, 2)),
        lambda: basis.legendre(),
        lambda: basis.chebyshev(),
        lambda: basis.laguerre(0),
        lambda: basis.laguerre(Fraction(5, 2)),
        lambda: basis.generic_monic(),
    ])
    def test_three_routes_match_oracle(self, make):
        spec = make()
        data = data_for(spec)
        for m in range(DEGREE + 1):
            for n in range(m, DEGREE + 1):
                truth = oracle.oracle_rho(spec, m, n)
                for j in range(m + n + 2):
                    req = request(data, m, n, j)
                    assert generic_conv.rho_taylor(data, req) == truth[j]
                    if j >= m + 1:
                        assert generic_conv.rho_highj(data, req) == truth[j]
                    else:
                        assert generic_conv.rho_lowj(data, req) == truth[j]

    def test_vector_assembly_and_commutativity(self):
        spec = basis.legendre()
        data = data_for(spec)
        for m in range(DEGREE + 1):
            for n in range(DEGREE + 1):
                assert generic_conv.rho_vector(data, m, n) == \
                    generic_conv.rho_vector(data, n, m)

    def test_exact_degree(self):
        for make in [basis.legendre, lambda: basis.laguerre(1)]:
            spec = make()
            data = data_for(spec)
            for m in range(DEGREE + 1):
                for n in range(DEGREE + 1):
                    vec = generic_conv.rho_vector(data, m, n)
                    assert vec[m + n + 1] != 0

    def test_int_tables_match_fraction_tables(self):
        data = GenericBasisData.from_family(basis.generic_monic(), 7)
        ints = GenericBasisData(
            data.domain_offset_a, data.max_degree,
            {key: int(v) for key, v in data.b_coeffs.items()},
            {key: int(v) for key, v in data.endpoint_derivs.items()},
        )
        for m in range(4):
            for n in range(m, 4):
                assert generic_conv.rho_vector(ints, m, n) == \
                    generic_conv.rho_vector(data, m, n)


class TestKnownValues:
    def test_legendre_constant_times_linear(self):
        data = data_for(basis.legendre())
        vec = generic_conv.rho_vector(data, 0, 1)
        assert [v.as_fraction() for v in vec] == \
            [Fraction(-1, 3), 0, Fraction(1, 3)]

    def test_legendre_constant_pair(self):
        data = data_for(basis.legendre())
        assert generic_conv.rho_taylor(data, request(data, 0, 0, 0)) == 1
        assert generic_conv.rho_taylor(data, request(data, 0, 0, 1)) == 1

    def test_laguerre_two_term_sparsity(self):
        data = data_for(basis.laguerre(0))
        vec = generic_conv.rho_vector(data, 2, 3)
        assert [v.as_fraction() for v in vec] == [0, 0, 0, 0, 0, 1, -1]

    def test_laguerre_alpha_one_low_index(self):
        data = data_for(basis.laguerre(1))
        assert generic_conv.rho_lowj(data, request(data, 2, 4, 2)) == 1

    def test_legendre_zero_region_entry(self):
        # n >= 2m+3 puts m+1 <= j <= n-m-2 in the guaranteed-zero band
        data = data_for(basis.legendre())
        assert generic_conv.rho_highj(data, request(data, 1, 5, 2)) == 0

    def test_shifted_monomials_collapse_to_beta_function(self):
        # with P_n = (x+1)^n the convolution is a single basis element:
        # rho_{m+n+1} = m! n! / (m+n+1)!
        data = data_for(basis.generic_monic())
        for m in range(4):
            for n in range(4):
                vec = generic_conv.rho_vector(data, m, n)
                want = Fraction(math.factorial(m) * math.factorial(n),
                                math.factorial(m + n + 1))
                assert vec[m + n + 1].as_fraction() == want
                assert all(v == 0 for v in vec[:m + n + 1])


class TestContracts:
    def test_branch_misuse_raises(self):
        data = data_for(basis.legendre())
        with pytest.raises(IndexContractError):
            generic_conv.rho_highj(data, request(data, 2, 3, 1))
        with pytest.raises(IndexContractError):
            generic_conv.rho_lowj(data, request(data, 2, 3, 4))

    def test_out_of_range_index_rejected(self):
        with pytest.raises(IndexContractError):
            RhoRequest(2, 3, 7)

    def test_truncated_data_reported(self):
        data = data_for(basis.legendre(), max_degree=4)
        with pytest.raises(MissingDataError):
            generic_conv.rho_taylor(data, request(data, 2, 3, 0))


def _mp_eval(coeffs, x):
    acc = mpmath.mpf(0)
    for c in reversed(coeffs):
        acc = acc * x + mpmath.mpf(c.numerator) / c.denominator
    return acc


class TestDefinitionLevel:
    def test_series_matches_quadrature(self):
        # sum_j rho_j P_j(x+a) equals the numerically integrated convolution
        with mpmath.workdps(40):
            for spec, pairs in [(basis.legendre(), [(1, 2), (2, 3)]),
                                (basis.laguerre(Fraction(1, 2)),
                                 [(1, 2), (2, 2)])]:
                data = data_for(spec)
                af = mpmath.mpf(int(spec.domain_offset_a.as_fraction()))
                for m, n in pairs:
                    vec = generic_conv.rho_vector(data, m, n)
                    pm = oracle.to_monomial(spec, m).coeffs
                    pn = oracle.to_monomial(spec, n).coeffs
                    basis_polys = [oracle.to_monomial(spec, j).coeffs
                                   for j in range(m + n + 2)]
                    for k in range(10):
                        x = -2 * af + (k + 1) * mpmath.mpf("0.19")
                        lhs = mpmath.quad(
                            lambda t: _mp_eval(pm, x - t) * _mp_eval(pn, t),
                            [-af, x + af])
                        rhs = mpmath.mpf(0)
                        for j, v in enumerate(vec):
                            vf = v.as_fraction()
                            rhs += (mpmath.mpf(vf.numerator) / vf.denominator
                                    * _mp_eval(basis_polys[j], x + af))
                        assert abs(lhs - rhs) < mpmath.mpf("1e-25") \
                            * max(1, abs(rhs))
