import io
import random
import time
from fractions import Fraction

import pytest

from polyconv import (basis, clear_caches, closed_forms as cf, convmat,
                      generic_conv, oracle)
from polyconv.convmat import SeriesCoeffs, build_matrix, convolve_series
from polyconv.errors import FamilyMismatchError, IndexContractError
from polyconv.scalars import RATIONAL, FloatBackend

from conftest import acceptance_families, reference_families


def unit_series(spec, degree, length=None):
    length = degree + 1 if length is None else length
    coeffs = [0] * length
    coeffs[degree] = 1
    return SeriesCoeffs(spec, coeffs)


class TestShapes:
    def test_matrix_shape(self):
        spec = basis.legendre()
        f = SeriesCoeffs(spec, [1] * 16)  # degree M = 15
        mat = build_matrix(f, 51)         # N = 50
        assert mat.n_rows == 67
        assert mat.n_cols == 51

    def test_convolution_length(self):
        # degrees M = 1 and N = 2 produce M + N + 2 coefficients
        spec = basis.laguerre(0)
        c = convolve_series(SeriesCoeffs(spec, [1, 2]), SeriesCoeffs(spec, [3, 0, 1]))
        assert len(c.coeffs) == 5


class TestKnownColumns:
    def test_legendre_constant_factor(self):
        spec = basis.legendre()
        mat = build_matrix(unit_series(spec, 0), 3)
        col1 = [mat.entries[j][1] for j in range(mat.n_rows)]
        assert [c.as_fraction() for c in col1] == \
            [Fraction(-1, 3), 0, Fraction(1, 3), 0]

    def test_laguerre_identity_like_columns(self):
        spec = basis.laguerre(0)
        mat = build_matrix(unit_series(spec, 0), 4)
        for n in range(4):
            col = [mat.entries[j][n] for j in range(mat.n_rows)]
            nz = {j: v.as_fraction() for j, v in enumerate(col) if v != 0}
            assert nz == {n: 1, n + 1: -1}

    def test_laguerre_unit_times_unit(self):
        spec = basis.laguerre(0)
        c = convolve_series(unit_series(spec, 2), unit_series(spec, 3))
        nz = {k: v.as_fraction() for k, v in enumerate(c.coeffs) if v != 0}
        assert nz == {5: 1, 6: -1}

    def test_trivial_constant_pair(self):
        spec = basis.legendre()
        c = convolve_series(unit_series(spec, 0), unit_series(spec, 0))
        assert [v.as_fraction() for v in c.coeffs] == [1, 1]


class TestAlgebraicProperties:
    def test_bilinearity(self):
        random.seed(17)
        spec = basis.jacobi(Fraction(1, 2), Fraction(1, 2))

        def rand_series(deg):
            return SeriesCoeffs(spec, [
                Fraction(random.randint(-9, 9), random.randint(1, 5))
                for _ in range(deg + 1)])

        f1, f2, g = rand_series(3), rand_series(3), rand_series(4)
        lhs = convolve_series(
            SeriesCoeffs(spec, [a + b for a, b in zip(f1.coeffs, f2.coeffs)]), g)
        c1 = convolve_series(f1, g)
        c2 = convolve_series(f2, g)
        assert lhs.coeffs == [a + b for a, b in zip(c1.coeffs, c2.coeffs)]

    def test_commutativity(self):
        random.seed(19)
        spec = basis.chebyshev()
        f = SeriesCoeffs(spec, [Fraction(k, 3) for k in (1, -2, 5)])
        g = SeriesCoeffs(spec, [Fraction(k, 7) for k in (2, 0, 0, 3)])
        assert convolve_series(f, g).coeffs == convolve_series(g, f).coeffs

    def test_matrix_route_equals_direct(self):
        # on a float family both routes round the exact R b once
        for backend in (RATIONAL, FloatBackend(64)):
            random.seed(29)
            spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2), backend)
            f = SeriesCoeffs(spec, [Fraction(random.randint(-5, 5), 2)
                                    for _ in range(4)])
            g = SeriesCoeffs(spec, [Fraction(random.randint(-5, 5), 3)
                                    for _ in range(5)])
            mat = build_matrix(f, len(g.coeffs))
            assert mat.matvec(g).coeffs == convolve_series(f, g).coeffs, \
                backend

    def test_family_mismatch_rejected(self):
        f = SeriesCoeffs(basis.legendre(), [1])
        g = SeriesCoeffs(basis.chebyshev(), [1])
        with pytest.raises(FamilyMismatchError):
            convolve_series(f, g)
        mat = build_matrix(f, 2)
        with pytest.raises(FamilyMismatchError):
            mat.matvec(g)

    def test_family_mismatch_names_each_backend(self):
        # FamilySpec equality includes the output backend; label() does not
        spec = basis.jacobi(1, 1)
        fb = FloatBackend(128)
        f = SeriesCoeffs(spec, [1, 2])
        g = SeriesCoeffs(spec.to_backend(fb), [1])
        with pytest.raises(FamilyMismatchError) as info:
            convolve_series(f, g)
        assert str(info.value) == ("cannot convolve jacobi(1,1) at rational "
                                   "with jacobi(1,1) at float:128")
        mat = build_matrix(f, 2).to_backend(fb)
        with pytest.raises(FamilyMismatchError) as info:
            mat.matvec(f)
        assert str(info.value) == ("matrix basis jacobi(1,1) at float:128 "
                                   "does not match series basis jacobi(1,1) "
                                   "at rational")

    def test_pointwise_against_exact_integration(self):
        # series route vs termwise symbolic convolution, exact equality
        random.seed(31)
        spec = basis.jacobi(Fraction(1, 2), Fraction(1, 2))
        a = spec.domain_offset_a.as_fraction()
        f = SeriesCoeffs(spec, [Fraction(random.randint(-9, 9), 2)
                                for _ in range(4)])
        g = SeriesCoeffs(spec, [Fraction(random.randint(-9, 9), 4)
                                for _ in range(5)])
        c = convolve_series(f, g)
        xs = [Fraction(k, 11) - 1 for k in range(-9, 10, 2)]
        for x in xs:
            direct = Fraction(0)
            for m, am in enumerate(f.coeffs):
                for n, bn in enumerate(g.coeffs):
                    h = oracle.convolve_exact(spec, m, n)
                    direct += am.as_fraction() * bn.as_fraction() \
                        * h.evaluate(x)
            series = Fraction(0)
            for k, ck in enumerate(c.coeffs):
                series += ck.as_fraction() \
                    * basis.eval_poly(spec, k, x + a).as_fraction()
            assert series == direct

    def test_column_degree_bound(self):
        # entries vanish for j > M + n + 1
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        f = SeriesCoeffs(spec, [1, Fraction(1, 2), Fraction(-2, 3)])  # M = 2
        mat = build_matrix(f, 4)
        for n in range(4):
            for j in range(2 + n + 2, mat.n_rows):
                assert mat.entries[j][n] == 0

    def test_zero_band_columns(self):
        # with f = single P_m, columns n >= 2m+3 carry the guaranteed band
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        m = 1
        mat = build_matrix(unit_series(spec, m), 10)
        for n in range(2 * m + 3, 10):
            for j in range(m + 1, n - m - 1):
                assert mat.entries[j][n] == 0


# ---------------------------------------------------------------------------
# certificate: the closed forms, one vector per term pair
# ---------------------------------------------------------------------------


def closed_convolution(f, g):
    """sum_{m,n} a_m b_n rho^m_{., n} from `rho_closed_vector`, exact."""
    out = [Fraction(0)] * (f.degree + g.degree + 2)
    for m, am in enumerate(f.coeffs):
        for n, bn in enumerate(g.coeffs):
            if am != 0 and bn != 0:
                scale = am.as_fraction() * bn.as_fraction()
                for j, v in enumerate(cf.rho_closed_vector(f.family, m, n)):
                    out[j] += scale * v.as_fraction()
    return out


def closed_matrix(f, n_cols):
    """R[j][n] = sum_m a_m rho^m_{j,n} from `rho_closed_vector`, exact."""
    rows = f.degree + n_cols + 1
    out = [[Fraction(0)] * n_cols for _ in range(rows)]
    for m, am in enumerate(f.coeffs):
        if am == 0:
            continue
        for n in range(n_cols):
            for j, v in enumerate(cf.rho_closed_vector(f.family, m, n)):
                out[j][n] += am.as_fraction() * v.as_fraction()
    return out


def certificate_families():
    return acceptance_families() + [
        basis.jacobi(Fraction(-1, 2), Fraction(-1, 2)),
        basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),  # alpha + beta = -1
        basis.gegenbauer(Fraction(-1, 4)),
        basis.laguerre(Fraction(-1, 2)),
    ]


def series_shapes():
    """(f, g) coefficient lists: f longer, shorter and as long as g; sparse
    with interior and trailing zeros; a degree-0 factor."""
    rng = random.Random(43)

    def dense(degree):
        return [Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 7))
                for _ in range(degree + 1)]

    return [
        (dense(5), dense(2)),
        (dense(1), dense(4)),
        (dense(3), dense(3)),
        ([0, Fraction(2, 3), 0, 0, Fraction(-5, 2)],
         [Fraction(1, 4), 0, 0, 3, 0, 0]),
        ([Fraction(1, 4), 0, 0, 3, 0, 0],
         [0, Fraction(2, 3), 0, 0, Fraction(-5, 2)]),
        ([Fraction(7, 3)], dense(4)),
        (dense(2), [Fraction(-1, 5)]),
    ]


def as_fractions(values):
    return [v.as_fraction() for v in values]


class TestTableIsTheMatrixOfPm:
    """The coefficient table of fixed m is the matrix of convolution by the
    one-term series P_m: `rho_table` is `build_matrix` of that series cut
    or padded to rows j <= jmax, and its matvec is the product by P_m on
    those rows.  jmax runs below, at and above the last row m + nmax + 1
    of the matrix."""

    @pytest.mark.parametrize("spec", reference_families(),
                             ids=lambda s: s.label())
    def test_rho_table_is_the_matrix_of_p_m(self, spec):
        rng = random.Random(23)
        for m, nmax in ((0, 6), (3, 5), (7, 4)):
            end = m + nmax + 1
            p_m = unit_series(spec, m)
            matrix = build_matrix(p_m, nmax + 1)
            rows = [as_fractions(row) for row in matrix.entries]
            g = SeriesCoeffs(spec, [Fraction(rng.randint(-9, 9),
                                             rng.randint(1, 9))
                                    for _ in range(nmax + 1)])
            product = as_fractions(convolve_series(p_m, g).coeffs)
            for jmax in (0, end - 2, end, end + 3):
                table = convmat.rho_table(spec, m, jmax, nmax)
                assert (table.n_rows, table.n_cols) == (jmax + 1, nmax + 1)
                assert table.columns == [(nums[:jmax + 1], den)
                                         for nums, den in matrix.columns]
                padding = [[0] * (nmax + 1)] * (jmax - end)
                assert [as_fractions(row) for row in table.entries] == \
                    (rows + padding)[:jmax + 1], (m, jmax)
                assert as_fractions(table.matvec(g).coeffs) == \
                    (product + [0] * (jmax - end))[:jmax + 1], (m, jmax)

    def test_negative_jmax_is_rejected(self):
        with pytest.raises(IndexContractError):
            convmat.rho_table(basis.legendre(), 2, -2, 3)
        # the figure grid too, not as an empty grid
        with pytest.raises(IndexContractError, match="jmax"):
            cf.magnitude_grid(basis.legendre(), 2, -2, 3)


class TestAgainstClosedForms:
    def test_convolve_series(self):
        for spec in certificate_families():
            for f, g in series_shapes():
                f, g = SeriesCoeffs(spec, f), SeriesCoeffs(spec, g)
                assert as_fractions(convolve_series(f, g).coeffs) == \
                    closed_convolution(f, g), (spec.label(), f.coeffs)

    def test_build_matrix(self):
        for spec in certificate_families():
            for f, _ in series_shapes():
                f = SeriesCoeffs(spec, f)
                got = [as_fractions(row) for row in build_matrix(f, 4).entries]
                assert got == closed_matrix(f, 4), (spec.label(), f.coeffs)

    def test_all_zero_series(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        zero = SeriesCoeffs(spec, [0, 0, 0])
        g = SeriesCoeffs(spec, [1, 2, 0, 3])
        for c in (convolve_series(zero, g), convolve_series(g, zero)):
            assert as_fractions(c.coeffs) == [0] * 7
            assert all(v.backend == RATIONAL for v in c.coeffs)
        mat = build_matrix(zero, 3)
        assert (mat.n_rows, mat.n_cols) == (6, 3)
        assert all(v == 0 for row in mat.entries for v in row)

    def test_zero_coefficients_share_one_scalar(self):
        # a sparse product is mostly zeros: they are one zero of the
        # series' backend, not a Scalar each, which is safe as a Scalar is
        # immutable
        for backend in (RATIONAL, FloatBackend(128)):
            spec = basis.jacobi(Fraction(5, 2),
                                Fraction(3, 2)).to_backend(backend)
            c = convolve_series(unit_series(spec, 3), unit_series(spec, 60))
            zeros = [v for v in c.coeffs if not v]
            assert len(zeros) > 40 and len({id(v) for v in zeros}) == 1
            assert zeros[0].backend == backend
            assert zeros[0].as_fraction() == 0

    def test_weights_skip_every_zero(self):
        # the shared zero by identity, any other zero by its value, at the
        # rational and a float backend
        for backend in (RATIONAL, FloatBackend(128)):
            spec = basis.legendre(backend)
            series = SeriesCoeffs(spec, [0, cf._ZERO, Fraction(1, 3), "0",
                                         cf._ZERO, Fraction(0), -2, cf._ZERO])
            weights = convmat._weights(series)
            assert list(weights) == [2, 6] and weights[6] == -2
        assert convmat._weights(SeriesCoeffs(spec, [1, 2])) == {0: 1, 1: 2}

    def test_empty_weights(self):
        spec = basis.legendre()
        for weights in ({}, {3: Fraction(0)}):
            cols = cf.series_columns(spec, weights, 2)
            assert [cf._fractions(col) for col in cols] == \
                [[0] * 2, [0] * 3, [0] * 4]

    def test_float_series_is_the_exact_result_rounded_once(self):
        fb = FloatBackend(128)
        for exact_spec in (basis.jacobi(Fraction(1, 3), Fraction(1, 5)),
                           basis.chebyshev(), basis.laguerre(Fraction(1, 3))):
            spec = exact_spec.to_backend(fb)
            f = SeriesCoeffs(spec, [Fraction(1, 3), 0, Fraction(-2, 7), 5])
            g = SeriesCoeffs(spec, [Fraction(5, 11), Fraction(1, 9)])
            # the rational twin at the float spec's binary parameters
            twin = spec.to_backend(RATIONAL)
            want = closed_convolution(SeriesCoeffs(twin, f.coeffs),
                                      SeriesCoeffs(twin, g.coeffs))
            got = convolve_series(f, g).coeffs
            assert [(v.as_fraction(), v.backend) for v in got] == \
                [(fb.make(v).as_fraction(), fb) for v in want], spec.label()


class TestIntegerApply:
    """`_combine` sums int numerators over one denominator; it must equal
    the same sum taken in Fractions, and round once at a float family."""

    @staticmethod
    def reference(cols, weights, size):
        out = [Fraction(0)] * size
        for n, w in weights.items():
            for j, v in enumerate(cf._fractions(cols[n])):
                out[j] += w * v
        return out

    def test_matvec_and_convolve_equal_fraction_sums(self):
        rng = random.Random(71)

        def dense(spec, degree):
            return SeriesCoeffs(spec, [Fraction(rng.randint(-99, 99),
                                                rng.randint(1, 99))
                                       for _ in range(degree + 1)])

        for spec in certificate_families():
            f, g = dense(spec, 9), dense(spec, 12)
            mat = build_matrix(f, 13)
            weights = convmat._weights(g)
            want = self.reference(mat.columns, weights, mat.n_rows)
            assert as_fractions(mat.matvec(g).coeffs) == want, spec.label()
            cols = cf.series_columns(spec, weights, f.degree)
            want = self.reference(cols, convmat._weights(f), 9 + 12 + 2)
            assert as_fractions(convolve_series(f, g).coeffs) == want, \
                spec.label()

    def test_float_matvec_rounds_once(self):
        fb = FloatBackend(128)
        rng = random.Random(72)
        spec = basis.jacobi(Fraction(1, 3), Fraction(1, 5))
        coeffs = [Fraction(rng.randint(-99, 99), rng.randint(1, 99))
                  for _ in range(16)]
        b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(9)]
        exact = build_matrix(SeriesCoeffs(spec, coeffs), 9)
        got = exact.to_backend(fb).matvec(
            SeriesCoeffs(spec.to_backend(fb), b)).coeffs
        # b's entries round to 128 bits first: compare with the rational
        # product of the rounded b, rounded once
        rounded_b = SeriesCoeffs(spec.to_backend(fb), b)
        want = self.reference(exact.columns, convmat._weights(rounded_b),
                              exact.n_rows)
        assert [(v.as_fraction(), v.backend) for v in got] == \
            [(fb.make(v).as_fraction(), fb) for v in want]


class TestExactBoundary:
    """A sparse product of high degree, as the benchmark's `deep` pairs are,
    made once per output: every coefficient, the zero band's included,
    against the family-agnostic route, and the same on a repeated call."""

    @staticmethod
    def deep_pair(spec, rng):
        a, b1, b2 = (Fraction(rng.choice((-1, 1)) * rng.randint(1, 99),
                              rng.randint(1, 99)) for _ in range(3))
        g = [0] * 67
        g[60], g[66] = b1, b2
        return (SeriesCoeffs(spec, [0, 0, 0, 0, a]), SeriesCoeffs(spec, g),
                (a, b1, b2))

    def test_sparse_product_against_the_generic_route(self):
        rng = random.Random(91)
        for spec in (basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                     basis.chebyshev(), basis.laguerre(Fraction(5, 2))):
            f, g, (a, b1, b2) = self.deep_pair(spec, rng)
            data = basis.GenericBasisData.from_family(spec, 71)
            low, high = (as_fractions(generic_conv.rho_vector(data, 4, n))
                         for n in (60, 66))
            low += [Fraction(0)] * (len(high) - len(low))
            want = [a * (b1 * u + b2 * v) for u, v in zip(low, high)]
            got = convolve_series(f, g).coeffs
            assert [v.value for v in got] == want, spec.label()
            assert sum(1 for v in want if v == 0) > 40
            assert all(type(v.value) is Fraction and v.backend == RATIONAL
                       for v in got)

    def test_repeated_call_gives_the_same_result(self):
        rng = random.Random(92)
        spec = basis.legendre()
        f, g, _ = self.deep_pair(spec, rng)
        first = as_fractions(convolve_series(f, g).coeffs)
        other, _, _ = self.deep_pair(basis.laguerre(1), rng)
        convolve_series(other, other)
        assert as_fractions(convolve_series(f, g).coeffs) == first
        assert as_fractions(convolve_series(g, f).coeffs) == first


class TestHighDegree:
    def test_degree_2000_factor(self):
        # dense degree-3 f, sparse degree-2000 g; the spot cells have
        # j >= M + 2, so every term pair is in its zero band or in the
        # single-sum regime, where the closed form is cheap
        for spec in (basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                     basis.legendre(), basis.chebyshev(),
                     basis.laguerre(Fraction(1, 3))):
            f = SeriesCoeffs(spec, [Fraction(1, 2), -2, Fraction(3, 7), 5])
            g = [0] * 2001
            g[0], g[1000], g[2000] = 1, Fraction(-3, 5), Fraction(2, 9)
            g = SeriesCoeffs(spec, g)
            c = convolve_series(f, g)
            assert len(c.coeffs) == 2005
            for j in (5, 998, 1003, 1999, 2004):
                want = Fraction(0)
                for m, am in enumerate(f.coeffs):
                    for n, bn in enumerate(g.coeffs):
                        if bn == 0:
                            continue
                        lo, hi = min(m, n), max(m, n)
                        assert j >= max(lo + 1, hi - lo - 1) \
                            or j <= hi - lo - 2
                        want += (am.as_fraction() * bn.as_fraction()
                                 * cf.rho_closed(spec, m, n, j).as_fraction())
                assert c.coeffs[j] == want, (spec.label(), j)

    def test_degree_300_matrix_route(self):
        # R of a dense M = 15 series against degree 300 is built and
        # applied, equals the direct product, and stays within 10 s (about
        # 1 s on one 2.1 GHz Xeon core)
        rng = random.Random(300)
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        f = SeriesCoeffs(spec, [Fraction(rng.randint(-99, 99) or 1,
                                         rng.randint(1, 99))
                                for _ in range(16)])
        g = SeriesCoeffs(spec, [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                for _ in range(301)])
        start = time.perf_counter()
        mat = build_matrix(f, 301)
        got = mat.matvec(g).coeffs
        elapsed = time.perf_counter() - start
        assert (mat.n_rows, mat.n_cols) == (317, 301)
        assert got == convolve_series(f, g).coeffs
        assert elapsed < 10, elapsed


class TestCaches:
    def test_cold_and_warm_caches_agree(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        f = SeriesCoeffs(spec, [Fraction(1, 2), 0, 3, Fraction(-1, 7)])
        g = SeriesCoeffs(spec, [2, Fraction(5, 3), 0, 0, 1])

        def values():
            return (as_fractions(convolve_series(f, g).coeffs),
                    [as_fractions(row) for row in build_matrix(f, 5).entries],
                    cf.rho_closed(spec, 2, 5, 1).as_fraction())

        clear_caches()
        cold = values()
        assert values() == cold
        clear_caches()
        caches = (cf._poch, cf._jacobi_d_f43, cf._sym_d_f43, cf._cheb_d_f43)
        assert all(c.cache_info().currsize == 0 for c in caches)
        assert values() == cold

    def test_engine_fills_no_cache(self):
        specs = [basis.chebyshev(), basis.gegenbauer(Fraction(3, 2)),
                 basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                 basis.laguerre(Fraction(5, 2)), basis.legendre()]
        clear_caches()
        for spec in specs:
            convmat.rho_table(spec, 4, 12, 9)
            cf.magnitude_grid(spec, 4, 12, 9)
            f = SeriesCoeffs(spec, [Fraction(1, 2), 0, 3, Fraction(-1, 7)])
            g = SeriesCoeffs(spec, [2, Fraction(5, 3), 0, 0, 1])
            build_matrix(f, 5)
            convolve_series(f, g)
            convolve_series(g, f)
        caches = (cf._poch, cf._jacobi_d_f43, cf._sym_d_f43, cf._cheb_d_f43)
        assert [c.cache_info().currsize for c in caches] == [0, 0, 0, 0]


class TestExports:
    def test_dense_csv_header_and_shape(self):
        spec = basis.laguerre(0)
        mat = build_matrix(unit_series(spec, 1), 3)
        buf = io.StringIO()
        convmat.write_matrix_dense_csv(mat, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "5,3"
        assert len(lines) == 6
        assert all(len(ln.split(",")) == 3 for ln in lines[1:])

    def test_triplet_csv_lists_nonzeros_only(self):
        spec = basis.laguerre(0)
        mat = build_matrix(unit_series(spec, 0), 3)
        buf = io.StringIO()
        convmat.write_rho_csv(mat, buf, fmt="triplet")
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "j,n,value"
        assert len(lines) == 1 + 2 * 3
