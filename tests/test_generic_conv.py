import math
import random
from fractions import Fraction

import mpmath
import pytest

from polyconv import basis, generic_conv, oracle
from polyconv.basis import GenericBasisData
from polyconv.errors import IndexContractError, MissingDataError
from polyconv.generic_conv import RhoRequest, request
from polyconv.scalars import RATIONAL, Scalar

from conftest import gamma_from_b


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


# Term-by-term Fraction references for the integer kernel: one Fraction
# operation per term, each table entry read where the printed formula
# reads it.


def ref_gamma_from_b(data, n, k, r, s):
    total = Fraction(0)
    for sigma in range(n - r - k + 1):
        total += (data.b(sigma + k + s, k + s) / math.factorial(sigma + k + s)
                  * data.deriv(n, r + k + sigma))
    return total


def ref_taylor(data, m, n, j):
    total = Fraction(0)
    for p in range(j, m + n + 2):
        inner = 0
        for nu in range(max(1, p - m), min(p, n + 1) + 1):
            inner += data.deriv(m, p - nu) * data.deriv(n, nu - 1)
        total += data.b(p, j) / math.factorial(p) * inner
    return total


def ref_highj(data, m, n, j):
    total = Fraction(0)
    for nu in range(max(1, j - n), m + 2):
        total += (ref_gamma_from_b(data, n, 0, j - nu, j)
                  * data.deriv(m, nu - 1))
    return total


def ref_lowj(data, m, n, j):
    total = Fraction(0)
    for nu in range(1, j + 1):
        total += ref_gamma_from_b(data, m, 0, j - nu, j) * data.deriv(n, nu - 1)
    for nu in range(j + 1, n + 2):
        inner = 0
        for p in range(m + 1):
            inner += (data.b(p + nu, j) / math.factorial(p + nu)
                      * data.deriv(m, p))
        total += data.deriv(n, nu - 1) * inner
    return total


def ref_vector(data, m, n):
    if m > n:
        m, n = n, m
    return [ref_lowj(data, m, n, j) if j <= m else ref_highj(data, m, n, j)
            for j in range(m + n + 2)]


def _routes(m, n, j):
    """(name, kernel call, reference call) for every route at (m, n, j)."""
    req = RhoRequest(m, n, j)
    out = [("rho_taylor", lambda d: generic_conv.rho_taylor(d, req),
            lambda d: ref_taylor(d, m, n, j))]
    if j <= m:
        out.append(("rho_lowj", lambda d: generic_conv.rho_lowj(d, req),
                    lambda d: ref_lowj(d, m, n, j)))
    else:
        out.append(("rho_highj", lambda d: generic_conv.rho_highj(d, req),
                    lambda d: ref_highj(d, m, n, j)))
    if j == 0:
        out.append(("rho_vector", lambda d: generic_conv.rho_vector(d, m, n),
                    lambda d: ref_vector(d, m, n)))
    return out


def _gamma_routes(n, top):
    """(name, kernel call, reference call) of gamma_from_b for every
    (k, r, s) whose column stays within degree `top`."""
    out = []
    for r in range(n + 1):
        for k in range(n - r + 1):
            for s in range(top - n + r + 1):
                out.append((
                    f"gamma_from_b{(n, k, r, s)}",
                    lambda d, k=k, r=r, s=s: gamma_from_b(d, n, k, r, s),
                    lambda d, k=k, r=r, s=s: ref_gamma_from_b(d, n, k, r, s)))
    return out


def _all_routes(top):
    """Every route and argument the kernel serves, m and n up to top // 2
    (both orders), so that m + n + 1 <= top + 1."""
    out = []
    half = top // 2
    for m in range(half + 1):
        for n in range(half + 1):
            for j in range(m + n + 2):
                out.extend(_routes(m, n, j))
    for n in range(half + 1):
        out.extend(_gamma_routes(n, top))
    return out


def _as_values(result):
    if isinstance(result, list):
        return [v.as_fraction() for v in result]
    return result.as_fraction()


def _with_entries(data, convert, b_table=dict, d_table=dict):
    """A copy of `data` with every table entry passed through `convert`,
    held in tables of type `b_table` and `d_table`."""
    return GenericBasisData(
        data.domain_offset_a, data.max_degree,
        b_table({key: convert(v) for key, v in data.b_coeffs.items()}),
        d_table({key: convert(v) for key, v in data.endpoint_derivs.items()}),
        data.backend)


def _random_jacobi_params(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        alpha = Fraction(rng.randint(-11, 40), rng.randint(1, 12))
        beta = Fraction(rng.randint(-11, 40), rng.randint(1, 12))
        if alpha > -1 and beta > -1:
            out.append((alpha, beta))
    return out


KERNEL_FAMILIES = (
    [basis.jacobi(a, b) for a, b in _random_jacobi_params(4, 2026)]
    + [basis.jacobi(Fraction(-1, 2), Fraction(5, 3)),
       basis.jacobi(Fraction(-1, 2), Fraction(-1, 2)),
       basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),
       basis.jacobi(Fraction(-1, 5), Fraction(-4, 5)),
       basis.gegenbauer(Fraction(-1, 3)),
       basis.laguerre(Fraction(-1, 2)), basis.laguerre(Fraction(-5, 7)),
       basis.laguerre(Fraction(-1, 9)), basis.generic_monic()]
)


class _Recording(dict):
    """A table that records the keys read from it, like the lazy tables of
    the benchmark's gate."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()
        self.log = []   # every read, in order

    def __getitem__(self, key):
        self.read.add(key)
        self.log.append(key)
        return super().__getitem__(key)

    def take(self) -> set:
        read, self.read = self.read, set()
        return read


class TestKernelAgainstReference:
    """The integer kernel against the term-by-term Fraction loops: equal
    values on every route, the same table keys read, and the same entry
    named when the table stops short."""

    TOP = 9

    @pytest.mark.parametrize("spec", KERNEL_FAMILIES, ids=lambda s: s.label())
    def test_values_match_reference(self, spec):
        data = GenericBasisData.from_family(spec, self.TOP)
        for name, kernel, reference in _all_routes(self.TOP):
            assert _as_values(kernel(data)) == reference(data), name

    @pytest.mark.parametrize("convert", [
        int, Fraction, RATIONAL.make,
        lambda v: RATIONAL.make(v) if v.denominator % 2 else v,
    ], ids=["int", "Fraction", "Scalar", "mixed"])
    def test_entry_types_give_equal_values(self, convert):
        if convert is int:
            spec = basis.generic_monic()   # the family whose tables are ints
        else:
            spec = basis.jacobi(Fraction(-1, 2), Fraction(1, 3))
        data = _with_entries(GenericBasisData.from_family(spec, 7), convert)
        for name, kernel, reference in _all_routes(7):
            got = kernel(data)
            assert _as_values(got) == reference(data), name
            results = got if isinstance(got, list) else [got]
            assert all(type(v) is Scalar for v in results)

    @pytest.mark.parametrize("spec", [
        basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        basis.laguerre(Fraction(-1, 2)), basis.generic_monic(),
    ], ids=lambda s: s.label())
    def test_reads_the_reference_keys(self, spec):
        data = _with_entries(GenericBasisData.from_family(spec, 9), Fraction,
                             _Recording, _Recording)
        for name, kernel, reference in _all_routes(9):
            kernel(data)
            got = data.b_coeffs.take(), data.endpoint_derivs.take()
            reference(data)
            want = data.b_coeffs.take(), data.endpoint_derivs.take()
            assert got == want, name

    @pytest.mark.parametrize("spec", [
        basis.legendre(), basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)),
        basis.laguerre(Fraction(-1, 2)),
    ], ids=lambda s: s.label())
    def test_truncated_table_names_the_reference_key(self, spec):
        # the table has every derivative row and stops short in b
        top = 5
        data = GenericBasisData.from_family(spec, top)
        raised = 0
        for name, kernel, reference in _all_routes(2 * top):
            try:
                reference(data)
            except MissingDataError as exc:
                want = str(exc)
            else:
                want = None
            if want is None:
                kernel(data)
                continue
            with pytest.raises(MissingDataError) as exc:
                kernel(data)
            assert str(exc.value) == want, name
            raised += 1
        assert raised > 100

    def test_missing_derivative_row_reported(self):
        data = GenericBasisData.from_family(basis.legendre(), 9)
        for p in range(4):
            del data.endpoint_derivs[(3, p)]
        for name, kernel, reference in _routes(2, 3, 0) + _routes(2, 3, 5) \
                + _gamma_routes(3, 9):
            with pytest.raises(MissingDataError, match="endpoint derivative"):
                reference(data)
            with pytest.raises(MissingDataError,
                               match=r"endpoint derivative \(3, \d\)"):
                kernel(data)


def _table_keys(max_degree):
    """The derivative keys and then the b keys `generic_table` reads, in
    its order: rows n = 0..D, then columns j ascending, q ascending."""
    top = 2 * max_degree + 1
    derivs = [(n, p) for n in range(max_degree + 1) for p in range(n + 1)]
    bs = [(q, j) for j in range(top + 1) for q in range(max(j, 1), top + 1)]
    return derivs, bs


class TestGenericTable:
    """`generic_table` serves every pair from one pass over the table:
    the per-pair vectors, each entry read once, and the first missing
    entry named in its reading order."""

    DEGREE = 4

    @pytest.mark.parametrize("spec", KERNEL_FAMILIES, ids=lambda s: s.label())
    def test_equals_the_per_pair_vectors(self, spec):
        data = GenericBasisData.from_family(spec, 2 * self.DEGREE + 1)
        table = generic_conv.generic_table(data, self.DEGREE)
        pairs = [(m, n) for m in range(self.DEGREE + 1)
                 for n in range(m, self.DEGREE + 1)]
        assert list(table) == pairs
        for (m, n), vector in table.items():
            assert vector == generic_conv.rho_vector(data, m, n), (m, n)
            assert _as_values(vector) == ref_vector(data, m, n), (m, n)
            assert all(type(v) is Scalar for v in vector)

    def test_matches_the_oracle_table(self):
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        data = GenericBasisData.from_family(spec, 2 * self.DEGREE + 1)
        assert (generic_conv.generic_table(data, self.DEGREE)
                == oracle.oracle_table(spec, self.DEGREE))

    @pytest.mark.parametrize("convert", [
        int, Fraction, RATIONAL.make,
        lambda v: RATIONAL.make(v) if v.denominator % 2 else v,
    ], ids=["int", "Fraction", "Scalar", "mixed"])
    def test_entry_types_give_equal_values(self, convert):
        if convert is int:
            spec = basis.generic_monic()   # the family whose tables are ints
        else:
            spec = basis.jacobi(Fraction(-1, 2), Fraction(1, 3))
        data = _with_entries(GenericBasisData.from_family(spec, 9), convert)
        for (m, n), vector in generic_conv.generic_table(data, 4).items():
            assert _as_values(vector) == ref_vector(data, m, n), (m, n)
            assert all(type(v) is Scalar for v in vector)

    @pytest.mark.parametrize("spec", [
        basis.jacobi(Fraction(5, 2), Fraction(3, 2)),
        basis.laguerre(Fraction(-1, 2)), basis.generic_monic(),
    ], ids=lambda s: s.label())
    def test_reads_each_entry_once_in_order(self, spec):
        data = _with_entries(GenericBasisData.from_family(spec, 11), Fraction,
                             _Recording, _Recording)
        generic_conv.generic_table(data, self.DEGREE)
        derivs, bs = _table_keys(self.DEGREE)
        assert data.endpoint_derivs.log == derivs
        assert data.b_coeffs.log == bs

    def test_one_pair_reads_each_entry_once(self):
        data = _with_entries(GenericBasisData.from_family(basis.legendre(), 9),
                             Fraction, _Recording, _Recording)
        for m, n in [(3, 3), (4, 2), (0, 0)]:
            derivs, bs = data.endpoint_derivs.log, data.b_coeffs.log
            del derivs[:], bs[:]
            generic_conv.rho_vector(data, m, n)
            lo, hi = sorted((m, n))
            rows = sorted({lo, hi})
            assert derivs == [(k, p) for k in rows for p in range(k + 1)]
            assert bs == [(q, j) for j in range(lo + hi + 2)
                          for q in range(max(j, 1), lo + hi + 2)]

    @pytest.mark.parametrize("stored", range(9))
    def test_truncated_table_names_the_first_missing_entry(self, stored):
        data = GenericBasisData.from_family(
            basis.jacobi(Fraction(-1, 3), Fraction(-2, 3)), stored)
        derivs, bs = _table_keys(self.DEGREE)
        missing = ([("endpoint derivative", k) for k in derivs
                    if k not in data.endpoint_derivs]
                   + [("b-coefficient", k) for k in bs
                      if k not in data.b_coeffs])
        what, key = missing[0]
        with pytest.raises(MissingDataError) as exc:
            generic_conv.generic_table(data, self.DEGREE)
        assert str(exc.value) == f"missing {what} {key}"

    def test_degree_zero_and_negative(self):
        data = GenericBasisData.from_family(basis.legendre(), 1)
        assert generic_conv.generic_table(data, 0) == {
            (0, 0): generic_conv.rho_vector(data, 0, 0)}
        with pytest.raises(IndexContractError, match="nonnegative"):
            generic_conv.generic_table(data, -1)
        # one pair as the table: not zeros or []
        for m, n in ((-1, 3), (3, -1), (-2, -1), (-1, -1)):
            with pytest.raises(IndexContractError, match="nonnegative"):
                generic_conv.rho_vector(data, m, n)


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
