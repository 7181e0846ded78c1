import csv
import io
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from polyconv import basis, closed_forms as cf, convmat, generic_conv, oracle
from polyconv.basis import Family, GenericBasisData
from polyconv.errors import IndexContractError
from polyconv.scalars import (RATIONAL, FloatBackend, factorial, hyp_pfq,
                              log10_abs, pochhammer)
from conftest import ref_normalization, reference_families


DEGREE = 5


class TestOracleEquivalence:
    def test_all_families_small(self, families):
        for spec in families:
            for m in range(DEGREE + 1):
                for n in range(m, DEGREE + 1):
                    truth = oracle.oracle_rho(spec, m, n)
                    for j in range(m + n + 2):
                        assert cf.rho_closed(spec, m, n, j) == truth[j], \
                            (spec.label(), m, n, j)

    def test_symmetric_jacobi_at_minus_half(self):
        # the paper's symmetric varpi display is 0/0 here; the package's,
        # after the duplication formula, has no pole
        spec = basis.symmetric_jacobi(Fraction(-1, 2))
        for m in range(5):
            for n in range(m, 5):
                truth = oracle.oracle_rho(spec, m, n)
                for j in range(m + n + 2):
                    assert cf.rho_closed(spec, m, n, j) == truth[j]

    def test_parameter_sum_minus_one_line(self):
        # alpha + beta = -1 makes the j = 0 second-sum term 0/0; the
        # implementation takes the limit, so the whole line stays exact
        for ab in [(Fraction(-1, 4), Fraction(-3, 4)),
                   (Fraction(-3, 5), Fraction(-2, 5))]:
            spec = basis.jacobi(*ab)
            for m in range(4):
                for n in range(m, 5):
                    truth = oracle.oracle_rho(spec, m, n)
                    for j in range(m + n + 2):
                        assert cf.rho_closed(spec, m, n, j) == truth[j]

    def test_commutativity_swap(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        for j in range(10):
            assert cf.rho_closed(spec, 5, 2, j) == cf.rho_closed(spec, 2, 5, j)

    def test_out_of_range_j_is_zero(self):
        spec = basis.legendre()
        assert cf.rho_closed(spec, 2, 3, 7) == 0
        assert cf.rho_closed(spec, 2, 3, -1) == 0

    def test_generic_needs_framework(self):
        with pytest.raises(ValueError):
            cf.rho_closed(basis.generic_monic(), 1, 1, 0)


class TestInnerTerms:
    def test_varpi_sum_matches_oracle_row(self):
        # (m, n, j) = (1, 5, 7): single regime, compare the full sum, term
        # by term and by ratios
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        want = oracle.oracle_rho(spec, 1, 5)[7]
        total = Fraction(0)
        for nu in range(max(1, abs(7 - 5)), 3):
            total += ref_jacobi_varpi(1, 5, 7, nu, spec.alpha, spec.beta)
        assert total == want
        row = spec._row_ints[:3]
        assert Fraction(*cf._jacobi_varpi_sum(1, 5, 7, 2, 2, row)) == want

    def test_varpi_symmetric_parity_zero(self):
        alpha = Fraction(5, 2)
        # odd n + nu - j vanishes
        assert ref_sym_varpi(2, 5, 4, 2, alpha) == 0
        assert ref_sym_varpi(2, 5, 4, 3, alpha) != 0
        # so the ratio sum steps over the odd terms
        assert list(cf._parity_range(1, 3, 5 - 4)) == [1, 3]

    def test_varpi_branch_matches_generic_highj(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        data = GenericBasisData.from_family(spec, 13)
        row = spec._row_ints[:3]
        for m, n in [(2, 5), (1, 4), (3, 3)]:
            for j in range(max(m + 1, n - m - 1), m + n + 2):
                total = cf._jacobi_varpi_sum(m, n, j, max(1, abs(j - n)),
                                             m + 1, row)
                req = generic_conv.request(data, m, n, j)
                assert Fraction(*total) == generic_conv.rho_highj(data, req)

    def test_d_term_with_constant_first_factor(self):
        # m = 0 terminates the 4F3 at its first term
        d, a, b = basis.jacobi(Fraction(5, 2), Fraction(3, 2))._row_ints[:3]
        assert cf._jacobi_d_f43(0, 1, 0, d, a, b) == (1, 1)
        assert ref_jacobi_d_f43(0, 1, 0, Fraction(5, 2), Fraction(3, 2)) == 1

    def test_legendre_d_reduces_rationally(self):
        v = ref_legendre_d(2, 0, 1, 0)
        assert v == Fraction(2, 3)
        v = ref_legendre_d(1, 0, 1, 0)
        assert v == -1
        # the same two terms through the Jacobi d sum at Legendre's row
        row = basis.legendre()._row_ints[:3]
        assert Fraction(*cf._jacobi_d_sum(0, 1, 0, row)) == Fraction(2, 3) - 1


class TestLaguerre:
    def test_piecewise_values(self):
        alpha = RATIONAL.make(Fraction(5, 2))
        spec = basis.laguerre(Fraction(5, 2))
        # j = n with n >= m+1 gives (alpha)_m / m!
        for m in range(4):
            for n in range(m + 1, 8):
                want = pochhammer(alpha, m) / cf.factorial(m)
                assert cf.rho_closed(spec, m, n, n) == want
        # interior zero band
        for m in range(3):
            for n in range(m + 2, 9):
                for j in range(m + 1, n):
                    assert cf.rho_closed(spec, m, n, j) == 0
        # j = m gives (alpha)_(n+1) / (n+1)!
        for m in range(3):
            for n in range(m + 1, 7):
                want = pochhammer(alpha, n + 1) / cf.factorial(n + 1)
                assert cf.rho_closed(spec, m, n, m) == want

    def test_equal_degrees_merge(self):
        alpha = RATIONAL.make(Fraction(5, 2))
        spec = basis.laguerre(Fraction(5, 2))
        for m in range(5):
            want = (pochhammer(alpha, m + 1) / cf.factorial(m + 1)
                    + pochhammer(alpha, m) / cf.factorial(m))
            assert cf.rho_closed(spec, m, m, m) == want

    def test_alpha_zero_two_term_sparsity(self):
        spec = basis.laguerre(0)
        for m in range(8):
            for n in range(8):
                vec = cf.rho_closed_vector(spec, m, n)
                nonzero = {j: v for j, v in enumerate(vec) if v != 0}
                assert nonzero == {m + n: spec.backend.one(),
                                   m + n + 1: -spec.backend.one()}

    def test_alpha_one_three_term_sparsity(self):
        spec = basis.laguerre(1)
        one = spec.backend.one()
        for m in range(8):
            for n in range(8):
                vec = cf.rho_closed_vector(spec, m, n)
                nonzero = {j: v for j, v in enumerate(vec) if v != 0}
                if m == n:
                    assert nonzero == {m: 2 * one, 2 * m + 1: -one}
                else:
                    assert nonzero == {m: one, n: one, m + n + 1: -one}


class TestZeroRegion:
    def test_jacobi_example(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        assert cf.zero_region(spec, 2, 9) == (3, 5)

    def test_laguerre_general_band(self):
        # the family-agnostic guarantee (q = 0); the Laguerre-specific
        # closed form zeroes the wider band [m+1, n-1] on top of it
        spec = basis.laguerre(Fraction(5, 2))
        assert cf.zero_region(spec, 2, 6) == (3, 3)
        for j in range(3, 6):
            assert cf.rho_closed(spec, 2, 6, j) == 0

    def test_below_threshold_empty(self):
        assert cf.zero_region(basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                              2, 6) is None

    def test_transposed_orientation(self):
        spec = basis.legendre()
        assert cf.zero_region(spec, 9, 2) == (3, 5)

    def test_band_is_exactly_zero(self, families):
        for spec in families:
            q = spec.zero_region_q
            for m in range(3):
                for n in range(2 * m + q + 2, 2 * m + q + 8):
                    lo, hi = cf.zero_region(spec, m, n)
                    for j in range(lo, hi + 1):
                        assert cf.rho_closed(spec, m, n, j) == 0


class TestSymmetryFactor:
    @pytest.mark.parametrize("spec", [
        basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        basis.gegenbauer(Fraction(3, 2)),
        basis.gegenbauer(Fraction(-1, 4)),
        basis.chebyshev(),
        basis.symmetric_jacobi(Fraction(1, 3)),
        basis.symmetric_jacobi(Fraction(-1, 2)),
        basis.jacobi(Fraction(-1, 2), Fraction(1, 2)),
        basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),
        basis.jacobi(Fraction(-1, 2), Fraction(-1, 2)),
    ], ids=["jacobi", "gegenbauer", "gegenbauer_negative", "chebyshev",
            "symmetric_jacobi", "symmetric_jacobi_half_edge",
            "jacobi_half_edge", "jacobi_sum_minus_one", "jacobi_both_half"])
    def test_jacobi_relation(self, spec):
        # one formula for every interval family, alpha + beta = -1 included
        for m in range(4):
            for j in range(m + 1, 10):
                for n in range(m + 1, 10):
                    factor = cf.symmetry_factor(spec, m, n, j)
                    assert cf.rho_closed(spec, m, j, n) == \
                        factor * cf.rho_closed(spec, m, n, j), (m, n, j)

    def test_legendre_relation_everywhere(self):
        # a fact of Legendre's row, so jacobi(0, 0) has it too
        for spec in (basis.legendre(), basis.jacobi(0, 0)):
            for m in range(4):
                for j in range(0, 9):
                    for n in range(0, 9):
                        factor = cf.symmetry_factor(spec, m, n, j)
                        assert cf.rho_closed(spec, m, j, n) == \
                            factor * cf.rho_closed(spec, m, n, j), \
                            (spec.label(), m, n, j)

    def test_legendre_diagonal_factor(self):
        spec = basis.legendre()
        for n in range(6):
            assert cf.symmetry_factor(spec, 2, n, n) == 1

    def test_validity_window_enforced(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        with pytest.raises(IndexContractError):
            cf.symmetry_factor(spec, 2, 1, 5)
        with pytest.raises(IndexContractError):
            cf.symmetry_factor(basis.laguerre(0), 1, 3, 4)


class TestNormalizationScalings:
    # P_n = c_n J_n with c = spec.normalization and J the Jacobi polynomial,
    # so rho_{j,n}^m = c_m c_n / c_j * rho_{j,n}^m in Jacobi's normalization
    def test_gegenbauer_matches_scaled_symmetric(self):
        lam = Fraction(3, 2)
        geg = basis.gegenbauer(lam)
        sym = basis.symmetric_jacobi(lam - Fraction(1, 2))
        c = geg.normalization
        for m in range(4):
            for n in range(4):
                for j in range(m + n + 2):
                    assert cf.rho_closed(geg, m, n, j) == \
                        c(m) * c(n) / c(j) * cf.rho_closed(sym, m, n, j)

    def test_chebyshev_matches_scaled_symmetric(self):
        cheb = basis.chebyshev()
        sym = basis.symmetric_jacobi(Fraction(-1, 2))
        c = cheb.normalization
        for m in range(4):
            for n in range(4):
                for j in range(m + n + 2):
                    assert cf.rho_closed(cheb, m, n, j) == \
                        c(m) * c(n) / c(j) * cf.rho_closed(sym, m, n, j)

    def test_chebyshev_matches_its_t_displays(self):
        # the paper's T-normalized displays, summed term by term, against
        # rho_closed, which sums at Chebyshev's Jacobi row and rescales
        cheb = basis.chebyshev()
        for m in range(7):
            for n in range(m, 10):
                for j in range(m + n + 2):
                    if m + 1 <= j <= n - m - 2:
                        continue
                    want = sum(want for _, _, want in
                               sums_and_references(cheb, m, n, j))
                    assert cf.rho_closed(cheb, m, n, j) == want, (m, n, j)


class TestBatemanTensor:
    def test_constant_kernel(self):
        t = cf.bateman_tensor(0, RATIONAL.make(Fraction(5, 2)),
                              RATIONAL.make(Fraction(3, 2)))
        assert t.coefficient(0, 0) == 1
        assert t.coeffs.keys() == {(0, 0)}

    def test_triangle_support(self):
        t = cf.bateman_tensor(4, RATIONAL.make(Fraction(5, 2)),
                              RATIONAL.make(Fraction(3, 2)))
        assert all(j <= 4 - k for (k, j) in t.coeffs)

    def test_kernel_reconstruction(self):
        random.seed(5)
        alpha, beta = Fraction(5, 2), Fraction(3, 2)
        spec = basis.jacobi(alpha, beta)
        for m in range(5):
            tensor = cf.bateman_tensor(m, RATIONAL.make(alpha),
                                       RATIONAL.make(beta))
            for _ in range(5):
                x = Fraction(random.randint(-9, 9), random.randint(1, 8))
                t = Fraction(random.randint(-9, 9), random.randint(1, 8))
                want = basis.eval_poly(spec, m, x - t)
                got = RATIONAL.zero()
                for k in range(m + 1):
                    for j in range(m - k + 1):
                        got = got + (tensor.coefficient(k, j)
                                     * basis.eval_poly(spec, j, x + 1)
                                     * basis.eval_poly(spec, k, t))
                assert got == want


class TestStructuralZeros:
    def test_sound_against_oracle(self, families):
        for spec in families:
            for m in range(5):
                for n in range(5):
                    mm, nn = (m, n) if m <= n else (n, m)
                    truth = oracle.oracle_rho(spec, mm, nn)
                    for j in range(m + n + 4):
                        if cf.structural_zero(spec, m, n, j):
                            value = truth[j] if j < len(truth) else 0
                            assert value == 0

    def test_covers_the_three_regions(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        m = 4
        for n in range(0, 20):
            for j in range(0, 30):
                in_a = j > m + n + 1
                in_b = m + 1 <= j <= n - m - 2
                in_c = n + 1 <= j <= m - n - 2
                if in_a or in_b or in_c:
                    assert cf.structural_zero(spec, m, n, j)

    def test_legendre_row_band(self):
        # the tilted band is a fact of Legendre's row: jacobi(0, 0) has it
        for m in range(5):
            for n in range(12):
                for j in range(m + n + 4):
                    assert cf.structural_zero(basis.jacobi(0, 0), m, n, j) \
                        == cf.structural_zero(basis.legendre(), m, n, j)

    def test_laguerre_sparse_patterns_classified(self):
        spec = basis.laguerre(1)
        for n in range(0, 9):
            for j in range(0, 20):
                expected_nonzero = j in {3, n, 3 + n + 1} if n != 3 \
                    else j in {3, 7}
                assert cf.structural_zero(spec, 3, n, j) == (not expected_nonzero)


class TestTablesAndGrids:
    def test_magnitude_grid_marks_zeros_as_none(self):
        spec = basis.legendre()
        grid = cf.magnitude_grid(spec, 3, 10, 10)
        for j in range(11):
            for n in range(11):
                if cf.structural_zero(spec, 3, n, j):
                    assert grid[j][n] is None
                else:
                    truth = cf.rho_closed(spec, 3, n, j)
                    if truth == 0:
                        assert grid[j][n] is None
                    else:
                        assert grid[j][n] is not None

    def test_rho_table_and_csv(self):
        spec = basis.laguerre(0)
        table = convmat.rho_table(spec, 2, 6, 3)
        buf = io.StringIO()
        convmat.write_rho_csv(table, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "j,n,value"
        assert len(lines) == 1 + 7 * 4
        # column n = 3 carries +1 at j = 5 and -1 at j = 6
        rows = {tuple(ln.split(",")[:2]): ln.split(",")[2] for ln in lines[1:]}
        assert rows[("5", "3")] == "1"
        assert rows[("6", "3")] == "-1"
        assert rows[("4", "3")] == "0"

    def test_rho_triplet_keeps_nonzeros_only(self):
        spec = basis.laguerre(0)
        table = convmat.rho_table(spec, 2, 6, 3)
        buf = io.StringIO()
        convmat.write_rho_csv(table, buf, fmt="triplet")
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "j,n,value"
        assert len(lines) == 1 + 2 * 4  # two nonzeros per column

    def test_magnitude_csv_sentinel(self):
        spec = basis.laguerre(0)
        grid = cf.magnitude_grid(spec, 1, 4, 2)
        buf = io.StringIO()
        cf.write_magnitude_csv(grid, buf)
        text = buf.getvalue()
        assert text.splitlines()[0] == "j,n,log10abs"
        assert "-inf" in text


class TestFloatBackend:
    def test_closed_forms_track_rational_values(self, families):
        fb = FloatBackend(256)
        for spec in families[:4]:
            specf = spec.to_backend(fb)
            for m in range(3):
                for n in range(m, 4):
                    for j in range(m + n + 2):
                        r = cf.rho_closed(spec, m, n, j).as_fraction()
                        f = cf.rho_closed(specf, m, n, j).as_fraction()
                        if r == 0:
                            assert abs(f) < Fraction(1, 10 ** 55)
                        else:
                            assert abs(f - r) / abs(r) < Fraction(1, 10 ** 60)


class TestPochhammer:
    def test_orders_past_the_recursion_limit(self):
        # a cell's rising factorials must not cost one stack frame per
        # order: these orders lie far beyond the default recursion limit
        # (the scalars.pochhammer wrapper's own order-3000 case is in
        # tests/test_scalars.py)
        cf.clear_caches()
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        value = cf.rho_closed(spec, 3, 500, 503)
        assert value != 0
        cf.clear_caches()
        assert cf.rho_closed(basis.jacobi(Fraction(1, 2), Fraction(1, 3)),
                             1, 1100, 1102) != 0

    @pytest.mark.parametrize("make", [
        lambda: basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        lambda: basis.symmetric_jacobi(Fraction(1, 3)),
        lambda: basis.gegenbauer(Fraction(3, 2)),
        lambda: basis.legendre(),
        lambda: basis.chebyshev(),
        lambda: basis.jacobi(Fraction(-1, 2), Fraction(1, 2)),
    ], ids=["jacobi", "symmetric_jacobi", "gegenbauer", "legendre",
            "chebyshev", "jacobi_half_edge"])
    def test_cold_cache_degree_2000(self, make):
        # degrees in the thousands work from cold caches, and the two
        # cells that the symmetry scaling links agree
        spec = make()
        cf.clear_caches()
        value = cf.rho_closed(spec, 1, 2002, 2000)
        assert value != 0
        assert value == (cf.symmetry_factor(spec, 1, 2000, 2002)
                         * cf.rho_closed(spec, 1, 2000, 2002))


# Term-by-term Fraction references for the closed forms' ratio sums: each
# display as printed, one term per nu, its rising factorials from the
# cached `pochhammer` and its pFq from `hyp_pfq`, summed in Fractions.

_HALF = Fraction(1, 2)
_poch = pochhammer


def _sign(k):
    return -1 if k % 2 else 1


def ref_jacobi_varpi(m, n, j, nu, alpha, beta):
    s = alpha + beta
    num = (2 * _sign(m + nu - 1)
           * _poch(alpha + (j - nu + 1), n - j + nu)
           * _poch(s + (n + 1), j - nu)
           * _poch(beta + nu, m - nu + 1)
           * _poch(s + (m + 1), nu - 1))
    den = (_poch(s + (j + 1), j) * factorial(m + 1 - nu)
           * factorial(n - j + nu))
    f = hyp_pfq([j - n - nu, alpha + (j + 1), s + (n + j - nu + 1)],
                [alpha + (j - nu + 1), s + (2 * j + 2)], 1)
    return num / den * f


def ref_jacobi_d_f43(m, nu, j, alpha, beta):
    s = alpha + beta
    return hyp_pfq([1, -m, beta + (nu + 1), s + (m + 1)],
                   [nu - j + 1, beta + 1, s + (j + nu + 2)], 1)


def ref_jacobi_d(nu, j, n, m, alpha, beta):
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
    return num / den * ratio * ref_jacobi_d_f43(m, nu, j, alpha, beta)


def ref_sym_varpi(m, n, j, nu, alpha):
    if (n + nu - j) % 2:
        return Fraction(0)
    if alpha == -_HALF:
        return ref_jacobi_varpi(m, n, j, nu, alpha, alpha)
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


def ref_sym_d_f43(m, nu, j, alpha):
    return hyp_pfq([1, -m, alpha + (nu + 1), 2 * alpha + (m + 1)],
                   [nu - j + 1, alpha + 1, 2 * alpha + (j + nu + 2)], 1)


def ref_sym_d(nu, j, n, m, alpha):
    if alpha == -_HALF:
        return ref_jacobi_d(nu, j, n, m, alpha, alpha)
    num = (2 * _sign(m + n + 1 + nu) * (2 * alpha + (2 * j + 1))
           * (alpha + nu)
           * _poch(alpha + (j + 1), m - j)
           * _poch(alpha + 1, n)
           * _poch(2 * alpha + (n + 1), nu - 1))
    den = (factorial(m) * factorial(n + 1 - nu) * factorial(nu - j)
           * _poch(2 * alpha + (j + 1), nu + 1))
    return num / den * ref_sym_d_f43(m, nu, j, alpha)


def ref_legendre_varpi(m, n, j, nu):
    if (n + nu - j) % 2:
        return Fraction(0)
    h = (n - j + nu) // 2
    num = (_sign(m + nu + 1) * (2 * j + 1) * factorial(m + nu - 1)
           * _poch(-nu, h))
    den = (4 ** nu * factorial(nu - 1) * factorial(m - nu + 1)
           * factorial(h) * _poch(Fraction(n + j - nu + 1, 2), nu + 1))
    return num / den


def ref_sqrt_pi_over_gammas(a2, b2):
    if a2 % 2 == 1:
        t, other = (a2 - 1) // 2, b2 // 2
    else:
        t, other = (b2 - 1) // 2, a2 // 2
    return Fraction(4 ** t * factorial(t),
                    factorial(2 * t) * factorial(other - 1))


def ref_legendre_d(nu, j, n, m):
    num = (_sign(m + nu + n + 1) * (2 * j + 1) * nu
           * Fraction(2) ** (j + m - nu)
           * factorial(n + nu - 1)
           * _poch(Fraction(-j - m + nu + 1, 2), j + m)
           * _poch(Fraction(j - m + nu + 2, 2), m))
    den = factorial(n - nu + 1) * factorial(j + m + nu)
    gam = ref_sqrt_pi_over_gammas(-j + m + nu + 2, j + m + nu + 3)
    return num / den * gam


def ref_chebyshev_varpi(m, n, j, nu):
    if (n + nu - j) % 2:
        return Fraction(0)
    if n == 0:
        c = basis.chebyshev().normalization
        return (c(m) * c(n) / c(j)
                * ref_jacobi_varpi(m, n, j, nu, -_HALF, -_HALF))
    h = (n + nu - j) // 2
    num = (_sign(m) * Fraction(2) ** (1 - 2 * nu) * n
           * _poch(-m, nu - 1) * _poch(m, nu - 1) * _poch(-nu, h)
           * _poch(Fraction(n + nu - j + 2, 2), j - nu - 1))
    den = _poch(_HALF, nu - 1) * factorial((n + nu + j) // 2)
    return num / den


def ref_chebyshev_d_f43(m, nu, j):
    return hyp_pfq([1, -m, m, nu + _HALF], [_HALF, nu - j + 1, j + nu + 1], 1)


def ref_chebyshev_d(nu, j, n, m):
    lead = 2 if j == 0 else 4
    num = (lead * _sign(m + n) * _poch(-n, nu - 1)
           * _poch(n, nu - 1) * (nu - _HALF))
    den = factorial(nu - j) * factorial(j + nu)
    return num / den * ref_chebyshev_d_f43(m, nu, j)


# family -> (varpi term, d term, how many Jacobi parameters they take,
# whether they are in the family's own normalization rather than Jacobi's)
REF_TERMS = {
    Family.JACOBI: (ref_jacobi_varpi, ref_jacobi_d, 2, False),
    Family.SYMMETRIC_JACOBI: (ref_sym_varpi, ref_sym_d, 1, False),
    Family.GEGENBAUER: (ref_sym_varpi, ref_sym_d, 1, False),
    Family.LEGENDRE: (ref_legendre_varpi, ref_legendre_d, 0, True),
    Family.CHEBYSHEV: (ref_chebyshev_varpi, ref_chebyshev_d, 0, True),
}


def sums_and_references(spec, m, n, j):
    """(name, the package's sum as a Fraction, the term-by-term sum) for
    every sum rho_{j,n}^m (m <= n, j outside the zero band) is made of.
    The package's sums are those `rho_closed` takes at the spec's Jacobi
    row (the symmetric varpi display where alpha = beta), times
    c_m c_n / c_j where the references are in the family's own
    normalization (Chebyshev's T displays)."""
    varpi, d_term, count, own = REF_TERMS[spec.family]
    params = spec.jacobi_parameters()[:count]
    d, a, b, _, _ = spec._row_ints
    row = d, a, b
    varpi_sum = cf._sym_varpi_sum if a == b else cf._jacobi_varpi_sum
    c = spec.normalization
    scale = c(m) * c(n) / c(j) if own else 1
    if j >= max(m + 1, n - m - 1):
        lo = max(1, abs(j - n))
        return [("varpi", scale * Fraction(*varpi_sum(m, n, j, lo, m + 1,
                                                     row)),
                 sum(varpi(m, n, j, nu, *params) for nu in range(lo, m + 2)))]
    return [("swapped varpi", scale * Fraction(*varpi_sum(n, m, j, 1, j, row)),
             sum(varpi(n, m, j, nu, *params) for nu in range(1, j + 1))),
            ("d", scale * Fraction(*cf._jacobi_d_sum(m, n, j, row)),
             sum(d_term(nu, j, n, m, *params) for nu in range(j + 1, n + 2)))]


def _random_interval_families(draws, seed):
    """Seeded random rational parameters for every interval family, and
    for each draw the edges alpha = -1/2 and alpha + beta = -1 beside it."""
    rng = random.Random(seed)
    out = []
    for _ in range(draws):
        alpha = Fraction(rng.randint(-11, 60), rng.randint(1, 12))
        beta = Fraction(rng.randint(-11, 60), rng.randint(1, 12))
        out += [basis.jacobi(alpha, beta), basis.symmetric_jacobi(alpha),
                basis.jacobi(-_HALF, beta)]
        if alpha != 0:  # lam = 1/2 is Legendre
            out.append(basis.gegenbauer(alpha + _HALF))
        if alpha < 0:
            out.append(basis.jacobi(alpha, -1 - alpha))
    return out


RATIO_FAMILIES = [
    basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
    basis.jacobi(0, 0),
    basis.jacobi(1, 2),
    basis.symmetric_jacobi(Fraction(5, 2)),
    basis.symmetric_jacobi(1),
    basis.gegenbauer(Fraction(3, 2)),
    basis.gegenbauer(1),
    basis.legendre(),
    basis.chebyshev(),
    # alpha = -1/2: the paper's symmetric varpi display is 0/0; the
    # package's symmetric one has no pole
    basis.symmetric_jacobi(Fraction(-1, 2)),
    basis.jacobi(Fraction(-1, 2), Fraction(1, 2)),
    basis.jacobi(Fraction(-1, 2), Fraction(-1, 2)),
    basis.gegenbauer(Fraction(-1, 4)),
    # alpha + beta = -1: the j = 0 d terms take their limit
    basis.jacobi(Fraction(-1, 4), Fraction(-3, 4)),
    basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),
] + _random_interval_families(4, seed=2016)


class TestRatioSumsAgainstReference:
    """Every varpi and d sum, in both regimes, against its display summed
    term by term: m <= n <= 8, every j outside the zero band.  The grid
    takes in the limits: Chebyshev's n = 0 cell, the symmetric displays
    at alpha = -1/2, and the j = 0 d sums at alpha + beta = -1."""

    TOP = 8

    @pytest.mark.parametrize("spec", RATIO_FAMILIES, ids=lambda s: s.label())
    def test_every_sum_matches(self, spec):
        for m in range(self.TOP + 1):
            for n in range(m, self.TOP + 1):
                for j in range(m + n + 2):
                    if m + 1 <= j <= n - m - 2:
                        continue
                    for name, got, want in sums_and_references(spec, m, n,
                                                                j):
                        assert got == want, (name, m, n, j)

    def test_restart_at_a_vanishing_ratio(self):
        # term(nu) = nu - 2 on nu = 0..5: the ratio (nu-1)/(nu-2) out of
        # the zero term divides by zero, so the sum restarts there from a
        # direct term; a run from a zero term is zero throughout
        def term(nu):
            return nu - 2, 1

        def ratio(nu):
            return nu - 1, nu - 2

        assert Fraction(*cf._ratio_sum(range(6), term, ratio)) == 3
        assert Fraction(*cf._ratio_sum(range(2, 6), term, ratio)) == 6
        assert cf._ratio_sum(range(3, 3), term, ratio) == (0, 1)
        # with a factor: sum (nu - 2) / (nu + 1)
        got = cf._ratio_sum(range(6), term, ratio, lambda nu: (1, nu + 1))
        assert Fraction(*got) == sum(Fraction(nu - 2, nu + 1)
                                     for nu in range(6))


class TestPoleFreeSymmetricDisplay:
    """The package's symmetric varpi display, the paper's with the
    duplication formula applied, equals the paper's term by term; at
    alpha = -1/2, where the paper's is 0/0, the reference takes the
    general display's term."""

    @settings(max_examples=80, deadline=None)
    @given(st.one_of(st.fractions(min_value=Fraction(-11, 12), max_value=6,
                                  max_denominator=12),
                     st.just(-_HALF)),
           st.integers(0, 10), st.integers(0, 14), st.integers(0, 40))
    @example(-_HALF, 4, 7, 3)
    @example(-_HALF, 4, 7, 11)
    def test_terms_match_the_paper_display(self, alpha, m, n, k):
        m, n = min(m, n), max(m, n)
        j = k % (m + n + 2)
        row = alpha.denominator, alpha.numerator, alpha.numerator
        if j >= max(m + 1, n - m - 1):
            degrees, nus = (m, n), range(max(1, abs(j - n)), m + 2)
        else:  # the swapped varpi sum of j <= m, or the zero band
            degrees, nus = (n, m), range(1, j + 1 if j <= m else 1)
        for nu in nus:
            got = cf._sym_varpi_sum(*degrees, j, nu, nu, row)
            assert Fraction(*got) == ref_sym_varpi(*degrees, j, nu, alpha), \
                (m, n, j, nu)


class TestOneDSum4F3:
    """Every d sum reads the one Jacobi 4F3: the symmetric 4F3 is it at
    beta = alpha, Legendre's at alpha = beta = 0, Chebyshev's at
    alpha = beta = -1/2."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(st.fractions(min_value=Fraction(-11, 12), max_value=6,
                                  max_denominator=12),
                     st.just(-_HALF)),
           st.integers(0, 15), st.integers(0, 19), st.integers(1, 40))
    def test_specializations_match_their_references(self, alpha, m, j, k):
        nu = j + k
        d, a = alpha.denominator, alpha.numerator
        assert Fraction(*cf._jacobi_d_f43(m, nu, j, d, a, a)) == \
            ref_sym_d_f43(m, nu, j, alpha)
        assert Fraction(*cf._jacobi_d_f43(m, nu, j, 2, -1, -1)) == \
            ref_chebyshev_d_f43(m, nu, j)

    def test_d_sums_fill_only_the_jacobi_cache(self):
        for spec in (basis.symmetric_jacobi(Fraction(5, 2)),
                     basis.gegenbauer(Fraction(3, 2)), basis.legendre(),
                     basis.chebyshev()):
            cf.clear_caches()
            for j in range(4):
                cf.rho_closed(spec, 3, 6, j)
            assert cf._jacobi_d_f43.cache_info().currsize > 0, spec.label()
            assert cf._sym_d_f43.cache_info().currsize == 0
            assert cf._cheb_d_f43.cache_info().currsize == 0

    def test_legendre_shares_the_cache_of_jacobi_0_0(self):
        cf.clear_caches()
        for j in range(4):
            cf.rho_closed(basis.jacobi(0, 0), 3, 6, j)
        filled = cf._jacobi_d_f43.cache_info()
        for j in range(4):
            cf.rho_closed(basis.legendre(), 3, 6, j)
        info = cf._jacobi_d_f43.cache_info()
        assert info.currsize == filled.currsize
        assert info.misses == filled.misses
        assert info.hits > filled.hits


_JACOBI = basis.jacobi(Fraction(5, 2), Fraction(3, 2))


@pytest.mark.parametrize("call", [
    lambda: cf.zero_region(_JACOBI, -1, 5),
    lambda: cf.zero_region(basis.laguerre(Fraction(1, 3)), -2, 5),
    lambda: cf.structural_zero(_JACOBI, -1, 5, 2),
    lambda: cf.structural_zero(basis.legendre(), -1, 5, 2),
    lambda: cf.structural_zero(basis.laguerre(Fraction(1, 3)), -1, 5, 2),
    lambda: cf.symmetry_factor(_JACOBI, -1, 2, 3),
    lambda: cf.symmetry_factor(basis.legendre(), 1, -2, 3),
    lambda: cf.bateman_tensor(-1, 0, 0),
], ids=["zero_region", "zero_region_laguerre", "structural_zero",
        "structural_zero_legendre", "structural_zero_laguerre",
        "symmetry_factor", "symmetry_factor_legendre", "bateman_tensor"])
def test_index_helpers_reject_negative_degrees(call):
    # the degree contract of rho_closed, not a band, a factor or an
    # empty tensor read off a negative degree
    with pytest.raises(IndexContractError, match="degrees must be nonneg"):
        call()


class TestDepthAgainstEngine:
    """rho_closed, hypergeometric sums by term ratios, against rho_columns,
    the recurrence in n: two independent routes, on sampled low-j (j <= m)
    and high-j cells at n = 300."""

    @pytest.mark.parametrize("spec", [
        basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        basis.symmetric_jacobi(Fraction(5, 2)),
        basis.gegenbauer(Fraction(3, 2)),
        basis.legendre(),
        basis.chebyshev(),
        basis.symmetric_jacobi(Fraction(-1, 2)),
        basis.jacobi(Fraction(-1, 4), Fraction(-3, 4)),
    ], ids=lambda s: s.label())
    def test_sampled_cells_at_n_300(self, spec):
        m, n = 6, 300
        column = cf._fractions(cf.rho_columns(spec, m, n)[n])
        rng = random.Random(300)
        low = [0, 1, m] + rng.sample(range(2, m), 2)
        high = ([n - m - 1, n, m + n + 1]
                + rng.sample(range(n - m, m + n + 1), 3))
        for j in low + high:
            assert cf.rho_closed(spec, m, n, j).as_fraction() == column[j], j


# Fraction references for the Laguerre pieces, the symmetry factors and the
# Bateman tensor, as first written: cached `pochhammer`, `hyp_pfq` and
# Fraction arithmetic.

def ref_laguerre_rho(alpha, m, n, j):
    def tail(idx):
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
        return Fraction(0)
    if j == m:
        return _poch(alpha, n + 1) / factorial(n + 1)
    return tail(j)


def ref_symmetry_factor(spec, m, n, j):
    alpha, beta = spec.jacobi_parameters()
    s = alpha + beta
    c = lambda k: ref_normalization(spec, k)  # noqa: E731
    num = ((s + (2 * n + 1)) * _poch(alpha + 1, j) * _poch(beta + 1, j)
           * (_poch(s + 2, n - 1) * c(j)) ** 2)
    den = ((s + (2 * j + 1)) * _poch(alpha + 1, n) * _poch(beta + 1, n)
           * (_poch(s + 2, j - 1) * c(n)) ** 2)
    return _sign(n + j) * num / den


def ref_bateman_tensor(m, a, b):
    s = a + b
    coeffs = {}
    for k in range(m + 1):
        for j in range(m - k + 1):
            total = Fraction(0)
            for nu in range(k, m - j + 1):
                pref = (_sign(nu) * (s + (2 * k + 1))
                        * _poch(b + (k + 1), nu - k)
                        / (_poch(s + (k + 1), nu + 1) * factorial(nu - k)))
                mid = (_poch(a + (j + nu + 1), m - nu - j)
                       * _poch(s + (m + 1), nu)
                       * _poch(s + (m + nu + 1), j)
                       / (factorial(m - nu - j) * _poch(s + (j + 1), j)))
                f = hyp_pfq([j - m + nu, a + (j + 1), s + (j + m + nu + 1)],
                            [a + (j + nu + 1), s + (2 * j + 2)], 1)
                total += pref * mid * f
            coeffs[(k, j)] = total
    return coeffs


def rebuilds_kernel(tensor):
    """Whether sum_{k,j} c_{m-k,j} P_j(x+1) P_k(t) == P_m(x-t) exactly, P
    the Jacobi polynomials of the tensor's (alpha, beta), on an
    (m+1) x (m+1) grid of (x, t): both sides have degree at most m in x
    and in t, so agreeing there they agree everywhere."""
    spec = basis.jacobi(tensor.alpha, tensor.beta)
    m = tensor.m

    def values(x):
        return [basis.eval_poly(spec, k, x).as_fraction()
                for k in range(m + 1)]

    for x in range(m + 1):
        at_x = values(x + 1)
        for t in (Fraction(2 * i + 1, 3) for i in range(m + 1)):
            at_t = values(t)
            got = sum(c * at_x[j] * at_t[k]
                      for (k, j), c in tensor.coeffs.items())
            if got != basis.eval_poly(spec, m, x - t).as_fraction():
                return False
    return True


REFERENCE_FAMILIES = reference_families()
LAGUERRE_ALPHAS = [s._exact[0] for s in REFERENCE_FAMILIES
                   if s.family is Family.LAGUERRE]
INTERVAL_FAMILIES = [s for s in REFERENCE_FAMILIES
                     if s.family is not Family.LAGUERRE]


class TestFormulasAgainstFractionReference:
    """The int Laguerre pieces, symmetry factors and Bateman tensor equal
    their Fraction references exactly, on the acceptance families, p != q,
    both parameter edges, Laguerre alpha < 0 and random rows."""

    @pytest.mark.parametrize("alpha", LAGUERRE_ALPHAS, ids=str)
    def test_laguerre_rho(self, alpha):
        for m in range(13):
            for n in range(m, 13):
                for j in range(m + n + 2):
                    got = cf.laguerre_rho(alpha, m, n, j)
                    assert type(got) is Fraction
                    assert got == ref_laguerre_rho(alpha, m, n, j), (m, n, j)

    @pytest.mark.parametrize("spec", INTERVAL_FAMILIES,
                             ids=lambda s: s.label())
    def test_symmetry_factor(self, spec):
        legendre = spec._jacobi_row == (0, 0, 1, 1)  # jacobi(0, 0) too
        for m in range(5):
            low = 0 if legendre else m + 1
            for n in range(low, 13):
                for j in range(low, 13):
                    got = cf.symmetry_factor(spec, m, n, j)
                    assert got == ref_symmetry_factor(spec, m, n, j), \
                        (m, n, j)

    @pytest.mark.parametrize("spec", INTERVAL_FAMILIES,
                             ids=lambda s: s.label())
    def test_bateman_tensor(self, spec):
        alpha, beta = spec.jacobi_parameters()
        for m in range(7):
            tensor = cf.bateman_tensor(m, RATIONAL.make(alpha), beta)
            got = tensor.coeffs
            assert all(type(v) is Fraction for v in got.values())
            if alpha + beta == -1:
                # the display's k = 0 terms are 0/0 there; the package
                # takes their limit, and its tensor rebuilds the kernel
                with pytest.raises(ZeroDivisionError):
                    ref_bateman_tensor(m, alpha, beta)
                assert rebuilds_kernel(tensor), m
                continue
            assert got == ref_bateman_tensor(m, alpha, beta), m


# The figure grid and the table writers as first written: every cell a
# Fraction from `_rows`, its magnitude through `log10_abs`, and one
# `csv.writer` row per cell or per dense matrix row.

def ref_magnitude_grid(spec, m, jmax, nmax):
    return [[log10_abs(v) if v else None for v in row]
            for row in cf._rows(cf.rho_columns(spec, m, nmax), jmax + 1)]


def ref_write_jn_rows(rows, fmt, stream, zero=None, name="value"):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["j", "n", name])
    for j, row in enumerate(rows):
        for n, v in enumerate(row):
            if v:
                writer.writerow([j, n, fmt(v)])
            elif zero is not None:
                writer.writerow([j, n, zero])


def ref_write_rho_csv(table, stream, fmt="csv"):
    form = table.family.backend.format
    ref_write_jn_rows(cf._rows(table.columns, table.n_rows), form, stream,
                      None if fmt == "triplet" else form(Fraction(0)))


def ref_write_matrix_dense_csv(matrix, stream):
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow([matrix.n_rows, matrix.n_cols])
    fmt = matrix.family.backend.format
    zero = fmt(Fraction(0))
    for row in cf._rows(matrix.columns, matrix.n_rows):
        writer.writerow([fmt(v) if v else zero for v in row])


def ref_write_magnitude_csv(grid, stream):
    text = ([None if v is None else repr(v) for v in row] for row in grid)
    ref_write_jn_rows(text, str, stream, "-inf", name="log10abs")


def written(write, *args, **kwargs):
    stream = io.StringIO()
    write(*args, stream, **kwargs)
    return stream.getvalue()


class TestFigureAndWritersAgainstReference:
    """`magnitude_grid`, read off the int columns, equals its Fraction
    reference float for float (equal reprs), and the joined-row writers
    equal their `csv.writer` references byte for byte, on the acceptance
    families, p != q, both parameter edges, Laguerre alpha < 0 and random
    rows."""

    # (m, jmax, nmax): jmax cutting columns short of their end m + n + 1,
    # and running past every column's end
    SHAPES = [(0, 3, 10), (3, 5, 12), (3, 20, 12), (6, 30, 9)]

    @pytest.mark.parametrize("spec", REFERENCE_FAMILIES,
                             ids=lambda s: s.label())
    def test_magnitude_grid(self, spec):
        for m, jmax, nmax in self.SHAPES:
            got = cf.magnitude_grid(spec, m, jmax, nmax)
            assert [len(row) for row in got] == [nmax + 1] * (jmax + 1)
            assert repr(got) == repr(ref_magnitude_grid(spec, m, jmax, nmax)), \
                (m, jmax, nmax)

    @pytest.mark.parametrize("spec", REFERENCE_FAMILIES,
                             ids=lambda s: s.label())
    def test_writers(self, spec):
        grid = cf.magnitude_grid(spec, 3, 20, 12)
        assert written(cf.write_magnitude_csv, grid) == \
            written(ref_write_magnitude_csv, grid)
        for backend in (RATIONAL, FloatBackend(53), FloatBackend(128),
                        FloatBackend(256)):
            table = convmat.rho_table(spec, 3, 12, 9).to_backend(backend)
            f = convmat.SeriesCoeffs(spec.to_backend(backend),
                                     [Fraction(1, 3), -2, 0, Fraction(5, 7)])
            matrix = convmat.build_matrix(f, 8)
            for fmt in ("csv", "triplet"):
                for t in (table, matrix):
                    assert written(convmat.write_rho_csv, t, fmt=fmt) == \
                        written(ref_write_rho_csv, t, fmt=fmt), (backend, fmt)
            for t in (table, matrix):
                assert written(convmat.write_matrix_dense_csv, t) == \
                    written(ref_write_matrix_dense_csv, t), backend

    def test_unit_magnitude_prints_zero(self):
        # Laguerre(0), m = 2: rho_{5,3} = 1 and rho_{6,3} = -1, so
        # log10 |rho| = 0.0 there, a float that tests false but is no
        # exact zero
        grid = cf.magnitude_grid(basis.laguerre(0), 2, 6, 3)
        assert (grid[5][3], grid[6][3], grid[4][3]) == (0.0, 0.0, None)
        lines = written(cf.write_magnitude_csv, grid).splitlines()
        assert {"5,3,0.0", "6,3,0.0", "4,3,-inf"} <= set(lines)
