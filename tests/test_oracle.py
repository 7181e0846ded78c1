import ast
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest

from polyconv import basis, oracle
from polyconv.oracle import MonomialPoly


class TestMonomialPoly:
    def test_canonical_form_drops_trailing_zeros(self):
        p = MonomialPoly([Fraction(1), Fraction(0), Fraction(0)])
        assert p.degree == 0

    def test_recenter_preserves_values(self):
        random.seed(11)
        coeffs = [Fraction(random.randint(-9, 9), random.randint(1, 5))
                  for _ in range(7)]
        p = MonomialPoly(coeffs, shift=Fraction(2))
        q = p.recenter(Fraction(-1, 2))
        for x in [Fraction(1, 3), Fraction(-5, 4), 3]:
            assert p.evaluate(x) == q.evaluate(x)


class TestToMonomial:
    def test_degree_zero(self):
        for spec in [basis.legendre(), basis.laguerre(0), basis.chebyshev()]:
            assert oracle.to_monomial(spec, 0).coeffs == [Fraction(1)]

    def test_legendre_quadratic(self):
        assert oracle.to_monomial(basis.legendre(), 2).coeffs == \
            [Fraction(-1, 2), Fraction(0), Fraction(3, 2)]

    def test_laguerre_linear(self):
        assert oracle.to_monomial(basis.laguerre(0), 1).coeffs == \
            [Fraction(1), Fraction(-1)]

    def test_gegenbauer_quadratic(self):
        # C_2^(3/2) = (15 x^2 - 3) / 2
        assert oracle.to_monomial(basis.gegenbauer(Fraction(3, 2)), 2).coeffs \
            == [Fraction(-3, 2), Fraction(0), Fraction(15, 2)]

    def test_float_spec_is_exact(self):
        # a float spec only rounds output; its parameters stay exact
        from polyconv.scalars import FloatBackend
        spec = basis.jacobi(Fraction(1, 3), Fraction(1, 5),
                            backend=FloatBackend(64))
        assert oracle.to_monomial(spec, 3).coeffs == oracle.to_monomial(
            basis.jacobi(Fraction(1, 3), Fraction(1, 5)), 3).coeffs


class TestConvolveExact:
    def test_constant_pair(self):
        h = oracle.convolve_exact(basis.legendre(), 0, 0)
        # integral of 1 from -1 to x+1 is x+2
        assert h.shift == 2
        assert h.coeffs == [Fraction(0), Fraction(1)]

    def test_hand_integrated_linear(self):
        # integral of t from -1 to x+1 = ((x+1)^2 - 1)/2
        h = oracle.convolve_exact(basis.legendre(), 0, 1)
        for x in [Fraction(-3, 2), Fraction(0), Fraction(1, 2)]:
            assert h.evaluate(x) == ((x + 1) ** 2 - 1) / 2

    def test_exact_degree(self):
        for spec in [basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
                     basis.laguerre(Fraction(5, 2)), basis.chebyshev()]:
            for m in range(5):
                for n in range(5):
                    assert oracle.convolve_exact(spec, m, n).degree == m + n + 1


class TestProjection:
    def test_basis_polynomial_round_trip(self):
        leg = basis.legendre()
        p3 = oracle.to_monomial(leg, 3)
        shifted = p3.recenter(0)  # interpret as P_3(x) in powers of x
        coeffs = oracle.project_to_family(MonomialPoly(p3.coeffs), leg, 0)
        assert [c.as_fraction() for c in coeffs] == \
            [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]
        assert shifted.coeffs == p3.coeffs

    def test_shifted_linear(self):
        # x + 2 expanded over P_j(x+1) is (1, 1)
        poly = MonomialPoly([Fraction(2), Fraction(1)])
        coeffs = oracle.project_to_family(poly, basis.legendre(), 1)
        assert [c.as_fraction() for c in coeffs] == [Fraction(1), Fraction(1)]

    def test_random_round_trip(self):
        random.seed(23)
        for spec in [basis.legendre(), basis.jacobi(Fraction(1, 2), Fraction(1, 2)),
                     basis.laguerre(1)]:
            a = spec.domain_offset_a.as_fraction()
            for _ in range(5):
                coeffs = [Fraction(random.randint(-20, 20), random.randint(1, 9))
                          for _ in range(7)]
                poly = MonomialPoly(coeffs)
                proj = oracle.project_to_family(poly, spec, a)
                # recombine
                total = MonomialPoly([])
                acc = [Fraction(0)] * 7
                for j, c in enumerate(proj):
                    pj = oracle.to_monomial(spec, j).recenter(0)
                    for k, v in enumerate(pj.coeffs):
                        acc[k] += c.as_fraction() * v
                recombined = MonomialPoly(acc, shift=Fraction(a))
                for x in [Fraction(2, 3), Fraction(-1, 4)]:
                    assert recombined.evaluate(x) == poly.evaluate(x)

    def test_round_trip_with_fractional_shifts(self):
        # the poly's own shift and the target shift are both non-integer, so
        # the shift folded into the recurrence is too
        random.seed(29)
        for spec in [basis.legendre(),
                     basis.jacobi(Fraction(1, 2), Fraction(-1, 3)),
                     basis.gegenbauer(Fraction(-1, 3)),
                     basis.laguerre(Fraction(-2, 7)), basis.generic_monic()]:
            for poly_shift, target in [(Fraction(-1, 3), Fraction(5, 2)),
                                       (Fraction(7, 4), Fraction(-2, 9))]:
                coeffs = [Fraction(random.randint(-20, 20), random.randint(1, 9))
                          for _ in range(6)]
                poly = MonomialPoly(coeffs, shift=poly_shift)
                proj = oracle.project_to_family(poly, spec, target)
                assert len(proj) == len(poly.coeffs)
                basis_polys = [oracle.to_monomial(spec, j)
                               for j in range(len(proj))]
                for x in [Fraction(2, 3), Fraction(-1, 4), Fraction(11, 5)]:
                    recombined = sum(c.as_fraction() * pj.evaluate(x + target)
                                     for c, pj in zip(proj, basis_polys))
                    assert recombined == poly.evaluate(x)


class TestOracleRho:
    def test_laguerre_zero_pair(self):
        got = [c.as_fraction() for c in oracle.oracle_rho(basis.laguerre(0), 1, 1)]
        assert got == [0, 0, 1, -1]

    def test_legendre_hand_value(self):
        got = [c.as_fraction() for c in oracle.oracle_rho(basis.legendre(), 0, 1)]
        assert got == [Fraction(-1, 3), 0, Fraction(1, 3)]

    def test_jacobi_zero_band(self):
        got = oracle.oracle_rho(basis.jacobi(Fraction(5, 2), Fraction(3, 2)), 2, 9)
        assert all(got[j] == 0 for j in range(3, 6))
        assert got[6] != 0

    def test_commutativity(self):
        for spec in [basis.legendre(), basis.laguerre(Fraction(5, 2))]:
            for m in range(4):
                for n in range(4):
                    lhs = oracle.oracle_rho(spec, m, n)
                    rhs = oracle.oracle_rho(spec, n, m)
                    assert lhs == rhs

    def test_bilinearity(self):
        # convolving against (P_1 + 2 P_3) equals the coefficient sums
        spec = basis.legendre()
        a = spec.domain_offset_a.as_fraction()
        p1 = oracle.to_monomial(spec, 1).coeffs
        p3 = oracle.to_monomial(spec, 3).coeffs
        mix = [Fraction(0)] * 4
        for k, v in enumerate(p1):
            mix[k] += v
        for k, v in enumerate(p3):
            mix[k] += 2 * v
        # integrate mix against P_2 by monomial algebra through the oracle
        # machinery: project the exact convolution of each piece
        rho1 = oracle.oracle_rho(spec, 1, 2)
        rho3 = oracle.oracle_rho(spec, 3, 2)
        combined = [a1.as_fraction() + 2 * a3.as_fraction()
                    for a1, a3 in zip(rho1 + [spec.backend.zero()] * 2,
                                      rho3)]
        # direct: convolve the mixed polynomial with P_2 symbolically
        from polyconv.oracle import convolve_exact, project_to_family
        h1 = convolve_exact(spec, 1, 2)
        h3 = convolve_exact(spec, 3, 2)
        acc = [Fraction(0)] * 8
        for k, v in enumerate(h1.recenter(a).coeffs):
            acc[k] += v
        for k, v in enumerate(h3.recenter(a).coeffs):
            acc[k] += 2 * v
        direct = project_to_family(MonomialPoly(acc, Fraction(a)), spec, a)
        direct = [c.as_fraction() for c in direct]
        direct += [Fraction(0)] * (len(combined) - len(direct))
        assert combined == direct

    @pytest.mark.parametrize("call", [
        lambda: oracle.oracle_rho(basis.legendre(), -1, 3),
        lambda: oracle.convolve_exact(basis.jacobi(Fraction(1, 2), 2), 2, -1),
        lambda: oracle.to_monomial(basis.laguerre(0), -1),
    ])
    def test_negative_degree_rejected(self, call):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            call()


class TestOracleTable:
    @pytest.mark.parametrize("spec", [
        basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),
        basis.gegenbauer(Fraction(3, 2)),
        basis.chebyshev(),
        basis.laguerre(Fraction(5, 2)),
        basis.generic_monic(),
    ], ids=lambda s: s.label())
    def test_every_pair_equals_oracle_rho(self, spec):
        table = oracle.oracle_table(spec, 5)
        assert sorted(table) == [(m, n) for m in range(6)
                                 for n in range(m, 6)]
        for (m, n), rho in table.items():
            assert rho == oracle.oracle_rho(spec, m, n), (m, n)
            assert [type(v) for v in rho] == [type(rho[0])] * (m + n + 2)

    def test_one_recurrence_run_per_family(self, monkeypatch):
        runs = []
        family_polys = oracle._family_polys

        def counted(*args):
            runs.append(args[1:])
            return family_polys(*args)

        monkeypatch.setattr(oracle, "_family_polys", counted)
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        oracle.oracle_table(spec, 6)
        assert runs == [(13, spec.domain_offset_a.as_fraction())]

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError, match="degree must be nonnegative"):
            oracle.oracle_table(basis.legendre(), -1)


def _random_families(seed):
    """Families with seeded random rational parameters, weighted to the
    edges: alpha = -1/2, alpha + beta = -1, Laguerre alpha in (-1, 0)."""
    rng = random.Random(seed)

    def ratio(lo, hi):  # a rational in (lo, hi) with a small denominator
        q = rng.randint(2, 9)
        return Fraction(rng.randint(lo * q + 1, hi * q - 1), q)

    alpha = ratio(-1, 0)
    return [
        basis.jacobi(Fraction(-1, 2), ratio(-1, 4)),
        basis.jacobi(alpha, -1 - alpha),
        basis.jacobi(ratio(-1, 4), ratio(-1, 4)),
        basis.gegenbauer(ratio(0, 3) - Fraction(1, 2)),
        basis.laguerre(ratio(-1, 0)),
    ]


def _mp_family(spec, n, x):
    """P_n(x) from mpmath's own special functions, not from polyconv."""
    alpha, beta, lam = (None if v is None
                        else mpmath.mpf(v.numerator) / v.denominator
                        for v in spec._exact)
    if spec.family is basis.Family.LAGUERRE:
        return mpmath.laguerre(n, alpha, x)
    if spec.family is basis.Family.GEGENBAUER:
        return mpmath.gegenbauer(n, lam, x)
    if spec.family is basis.Family.LEGENDRE:  # gegenbauer(1/2)
        return mpmath.legendre(n, x)
    if spec.family is basis.Family.CHEBYSHEV:  # gegenbauer(0)
        return mpmath.chebyt(n, x)
    return mpmath.jacobi(n, alpha, beta, x)


class TestAgainstQuadrature:
    @pytest.mark.parametrize("seed", [3, 17])
    def test_series_matches_quadrature(self, seed):
        # sum_j oracle_rho[j] P_j(x+a) against the integral of P_m(x-t)
        # P_n(t) dt from -a to x+a, numerically integrated at 40 digits
        with mpmath.workdps(40):
            for spec in _random_families(seed):
                a = mpmath.mpf(int(spec.domain_offset_a.as_fraction()))
                for m in range(5):
                    for n in range(5):
                        rho = [c.as_fraction()
                               for c in oracle.oracle_rho(spec, m, n)]
                        for x in [mpmath.mpf("-0.37"), mpmath.mpf("1.3")]:
                            lhs = mpmath.quad(
                                lambda t: (_mp_family(spec, m, x - t)
                                           * _mp_family(spec, n, t)),
                                [-a, x + a], method="gauss-legendre")
                            rhs = mpmath.fsum(
                                mpmath.mpf(r.numerator) / r.denominator
                                * _mp_family(spec, j, x + a)
                                for j, r in enumerate(rho) if r)
                            assert abs(lhs - rhs) < mpmath.mpf("1e-30") \
                                * max(1, abs(rhs)), (spec.label(), m, n, x)


class TestIndependence:
    def test_package_imports_are_the_spec_and_exact_rationals(self):
        # the oracle certifies the closed forms and the generic route, so it
        # reads nothing of them (nor of basis beyond the spec it is given)
        tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names |= {a.name for a in node.names
                          if a.name.split(".")[0] == "polyconv"}
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or node.module.split(".")[0] == "polyconv"):
                module = (node.module or "").removeprefix("polyconv.")
                names |= {f"{module}.{a.name}".lstrip(".")
                          for a in node.names}
        assert names == {"basis.Family", "basis.FamilySpec",
                         "scalars.RATIONAL", "scalars.exact"}
