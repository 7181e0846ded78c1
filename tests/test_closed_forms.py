import io
import random
from fractions import Fraction

import pytest

from polyconv import basis, closed_forms as cf, generic_conv, oracle
from polyconv.basis import GenericBasisData
from polyconv.errors import IndexContractError
from polyconv.scalars import RATIONAL, FloatBackend, pochhammer


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
        # the rerouted removable-singularity case
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
        # (m, n, j) = (1, 5, 7): single regime, compare the full sum
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        want = oracle.oracle_rho(spec, 1, 5)[7]
        total = RATIONAL.zero()
        for nu in range(max(1, abs(7 - 5)), 3):
            total = total + cf.jacobi_varpi(1, 5, 7, nu, spec.alpha, spec.beta)
        assert total == want

    def test_varpi_symmetric_parity_zero(self):
        alpha = RATIONAL.make(Fraction(5, 2))
        # odd n + nu - j vanishes
        assert cf.sym_jacobi_varpi(2, 5, 4, 2, alpha) == 0
        assert cf.sym_jacobi_varpi(2, 5, 4, 3, alpha) != 0

    def test_varpi_branch_matches_generic_highj(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        data = GenericBasisData.from_family(spec, 13)
        for m, n in [(2, 5), (1, 4), (3, 3)]:
            for j in range(max(m + 1, n - m - 1), m + n + 2):
                total = RATIONAL.zero()
                for nu in range(max(1, abs(j - n)), m + 2):
                    total = total + cf.jacobi_varpi(m, n, j, nu, spec.alpha,
                                                    spec.beta)
                req = generic_conv.request(data, m, n, j)
                assert total == generic_conv.rho_highj(data, req)

    def test_d_term_with_constant_first_factor(self):
        # m = 0 terminates the 4F3 at its first term
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        assert cf._jacobi_d_f43(0, 1, 0, spec.alpha, spec.beta) == 1

    def test_legendre_d_reduces_rationally(self):
        v = cf.legendre_d(2, 0, 1, 0)
        assert v.as_fraction() == Fraction(2, 3)
        v = cf.legendre_d(1, 0, 1, 0)
        assert v.as_fraction() == -1


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
        spec = basis.legendre()
        for m in range(4):
            for j in range(0, 9):
                for n in range(0, 9):
                    factor = cf.symmetry_factor(spec, m, n, j)
                    assert cf.rho_closed(spec, m, j, n) == \
                        factor * cf.rho_closed(spec, m, n, j)

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
        table = cf.rho_table(spec, 2, 6, 3)
        buf = io.StringIO()
        cf.write_rho_csv(table, buf)
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
        table = cf.rho_table(spec, 2, 6, 3)
        buf = io.StringIO()
        cf.write_rho_csv(table, buf, fmt="triplet")
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
    def test_cold_cache_large_order(self):
        # a cold cache must not cost one stack frame per order: these
        # orders lie far beyond the default recursion limit
        cf._poch.cache_clear()
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        value = cf.rho_closed(spec, 3, 500, 503)
        assert value != 0
        cf._poch.cache_clear()
        assert cf.rho_closed(basis.jacobi(Fraction(1, 2), Fraction(1, 3)),
                             1, 1100, 1102) != 0
        cf._poch.cache_clear()
        z = RATIONAL.make(Fraction(1, 3))
        assert cf._poch(z, 3000) == cf._poch(z, 2999) * (z + 2999)

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
        # degrees in the thousands work from a cold cache, and the two
        # cells that the symmetry scaling links agree
        spec = make()
        cf._poch.cache_clear()
        value = cf.rho_closed(spec, 1, 2002, 2000)
        assert value != 0
        assert value == (cf.symmetry_factor(spec, 1, 2000, 2002)
                         * cf.rho_closed(spec, 1, 2000, 2002))
