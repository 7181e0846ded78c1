"""Family-agnostic convolution coefficients.

Given only a sequence's monomial-expansion b-coefficients and its endpoint
derivatives (a :class:`~polyconv.basis.GenericBasisData`), the coefficients
rho_{j,n}^m of

    integral_{-a}^{x+a} P_m(x-t) P_n(t) dt = sum_j rho_{j,n}^m P_j(x+a)

come in three equivalent shapes:

* ``rho_taylor``  - the universal all-j double sum (Taylor route),
* ``rho_highj``   - a single gamma-weighted sum, valid for j >= m+1,
* ``rho_lowj``    - a two-part sum, valid for 0 <= j <= m.

``rho_vector`` assembles the whole coefficient vector from the piecewise
pair, exploiting the commutativity rho_{j,n}^m = rho_{j,m}^n to assume
m <= n, and ``generic_table`` assembles it for every pair up to a degree
at once, keyed as ``oracle.oracle_table`` is.  All functions are pure;
empty summation ranges contribute exactly zero.

Each shape is a sum of terms b_{q,j}/q! d^a P_m d^b P_n at x = -a with
a + b = q-1; they differ in the ranges of q, a and b they run over, and
the terms one leaves out and another keeps are zero.  So every function
here is built from one integer kernel: `deriv_ints` puts a derivative
row over one denominator, `row_products` makes the inner sums over
a + b = q-1 from two rows, and `column_ints` puts the column b_{q,j}/q!
over one denominator, to be dotted with them.  Each table entry is read
through `data.b` or `data.deriv`, and nothing is kept between calls.
Each cell route reads exactly the table entries its printed formula
reads, each once.
``generic_table`` reads each row and column once for all its pairs, and
``rho_vector`` is its one-pair case; every route returns one Scalar per
coefficient, made over the Fractions of the kernel, which
``table_fractions`` returns as they are.  A :class:`RhoRequest` names one
cell; it is an immutable, hashable record, its indices checked when it is
made.
"""

import math
from fractions import Fraction
from operator import mul

from .basis import GenericBasisData
from .errors import IndexContractError
from .scalars import RATIONAL, Scalar, _FrozenRecord, over_lcm


class RhoRequest(_FrozenRecord):
    """One coefficient request: degrees m, n and output index j.
    Immutable and hashable."""

    _fields = ("m", "n", "j")

    def __init__(self, m: int, n: int, j: int):
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "j", j)
        if m < 0 or n < 0:
            raise IndexContractError("degrees must be nonnegative")
        if not 0 <= j <= m + n + 1:
            raise IndexContractError(
                f"j must lie in [0, m+n+1], got j={j} for (m, n)=({m}, {n})"
            )


def request(data: GenericBasisData, m: int, n: int, j: int) -> RhoRequest:
    """The RhoRequest for (m, n, j) against `data`."""
    return RhoRequest(m, n, j)


def deriv_ints(data: GenericBasisData, n: int, lo: int, hi: int) -> tuple:
    """(nums, den) with d^p P_n |_{x=-a} = nums[p - lo] / den for
    p = lo..hi."""
    return over_lcm([data.deriv(n, p) for p in range(lo, hi + 1)])


def row_products(row_m: tuple, row_n: tuple, m_lo: int, n_lo: int,
                 t_lo: int, t_hi: int) -> tuple:
    """(sums, den) with

        sum_{a+b=t} d^a P_m * d^b P_n |_{x=-a} = sums[t - t_lo] / den

    for t = t_lo..t_hi, from the `deriv_ints` rows of P_m from order m_lo
    and of P_n from order n_lo.  Terms with a < m_lo or b < n_lo are left
    out, so a caller sets the bounds where those terms have no partner."""
    (dm, den_m), (dn, den_n) = row_m, row_n
    m, n = m_lo + len(dm) - 1, n_lo + len(dn) - 1
    sums = []
    for t in range(t_lo, t_hi + 1):
        a_lo, a_hi = max(m_lo, t - n), min(m, t - n_lo)
        sums.append(sum(dm[a - m_lo] * dn[t - a - n_lo]
                        for a in range(a_lo, a_hi + 1)))
    return sums, den_m * den_n


def column_ints(data: GenericBasisData, j: int, lo: int, hi: int) -> tuple:
    """(nums, den) with b_{q,j}/q! = nums[q - lo] / den for q = lo..hi:
    the column over one denominator, each entry weighted by hi!/q!.

    Reads b_{lo,j}, ..., b_{hi,j} in that order, so a table that stops
    short names the first entry of the column it lacks."""
    column, b_den = over_lcm([data.b(q, j) for q in range(lo, hi + 1)])
    f = 1
    for q in range(hi, lo - 1, -1):  # f = hi!/q!
        column[q - lo] *= f
        f *= q
    return column, b_den * math.factorial(hi)


def _cell(data: GenericBasisData, req: RhoRequest, m_lo: int, n_lo: int,
          q_lo: int, q_hi: int) -> Scalar:
    """sum_{q=q_lo}^{q_hi} b_{q,j}/q! sum_{a+b=q-1} d^a P_m d^b P_n at
    x = -a, the shape every formula of this module reduces to."""
    sums, den = row_products(deriv_ints(data, req.m, m_lo, req.m),
                             deriv_ints(data, req.n, n_lo, req.n),
                             m_lo, n_lo, q_lo - 1, q_hi - 1)
    column, col_den = column_ints(data, req.j, q_lo, q_hi)
    return RATIONAL.make(Fraction(sum(map(mul, column, sums)),
                                  col_den * den))


def rho_taylor(data: GenericBasisData, req: RhoRequest) -> Scalar:
    """Universal formula, any j:

        rho_j = sum_{p=j}^{m+n+1} b_{p,j}/p!
                sum_{nu=1}^{p} d^{p-nu} P_m * d^{nu-1} P_n   (at x = -a).

    With a = p-nu and b = nu-1 the inner sum runs over a + b = p-1; it
    reads d^a P_m for a >= j-n-1 and d^b P_n for b >= j-m-1, the only
    orders with a partner."""
    m, n, j = req.m, req.n, req.j
    return _cell(data, req, max(0, j - n - 1), max(0, j - m - 1),
                 j, m + n + 1)


def rho_highj(data: GenericBasisData, req: RhoRequest) -> Scalar:
    """Single-sum formula for j >= m+1:

        rho_j = sum_{nu=max(1, j-n)}^{m+1} gamma_{n-j+nu,0}^{(j-nu, j)}
                                           * d^{nu-1} P_m |_{x=-a}.

    Each gamma is the sum of b_{q,j}/q! d^{q-nu} P_n over q = j..n+nu
    (the b-bridge), so the double sum runs over the terms of `rho_taylor`
    and reads the same entries: at j >= m+1 the two are one computation."""
    if req.j <= req.m:
        raise IndexContractError(
            f"rho_highj needs j >= m+1, got j={req.j}, m={req.m}")
    return rho_taylor(data, req)


def rho_lowj(data: GenericBasisData, req: RhoRequest) -> Scalar:
    """Two-part formula for 0 <= j <= m:

        rho_j = sum_{nu=1}^{j} gamma_{m-j+nu,0}^{(j-nu, j)} d^{nu-1} P_n
              + sum_{nu=j+1}^{n+1} d^{nu-1} P_n
                    sum_{p=0}^{m} b_{p+nu,j}/(p+nu)! d^p P_m.

    Both parts are terms b_{q,j}/q! d^a P_m d^b P_n with a + b = q-1,
    over q = j..m+j in the first, empty at j = 0, and q = j+1..m+n+1 in
    the second, empty for j > n.  So b_{0,0} is never read, and for j > n
    the column runs on to q = m+j, where the terms past m+n+1 are zero."""
    m, n, j = req.m, req.n, req.j
    if j > m:
        raise IndexContractError(f"rho_lowj needs j <= m, got j={j}, m={m}")
    return _cell(data, req, 0, 0, max(j, 1), m + max(j, n + 1))


def _vectors(data: GenericBasisData, pairs: list, top: int) -> dict:
    """{(m, n): rho vector of Fractions} for the pairs m <= n with
    m + n + 1 <= top.

    Each derivative row d^p P_k, p = 0..k, of a degree k in the pairs is
    read once, in ascending k, and put over one denominator; then each
    column b_{q,j}/q!, q = max(j, 1)..top, in ascending j, by
    `column_ints`.  Each pair makes its inner sums over a + b = q-1 once,
    and each rho_j is one dot product of the column's first entries with
    them: the cells of `rho_lowj` (j <= m) and `rho_highj` (j > m), which
    share those sums, one Fraction each."""
    rows = {k: deriv_ints(data, k, 0, k)
            for k in sorted({k for pair in pairs for k in pair})}
    columns = [column_ints(data, j, max(j, 1), top) for j in range(top + 1)]
    table = {}
    for m, n in pairs:
        sums, den = row_products(rows[m], rows[n], 0, 0, 0, m + n)
        vector = []
        for j in range(m + n + 2):
            column, col_den = columns[j]
            total = sum(map(mul, column, sums[max(j, 1) - 1:]))
            vector.append(Fraction(total, col_den * den))
        table[(m, n)] = vector
    return table


def rho_vector(data: GenericBasisData, m: int, n: int) -> list:
    """All rho_{j,n}^m for j = 0..m+n+1: `generic_table`'s kernel for
    the one pair, reading the rows of P_m and P_n and the columns
    b_{q,j}, q = max(j, 1)..m+n+1.

    Swaps (m, n) when m > n, which is free by commutativity of the
    convolution.
    """
    if m < 0 or n < 0:
        raise IndexContractError("degrees must be nonnegative")
    if m > n:
        m, n = n, m
    vector = _vectors(data, [(m, n)], m + n + 1)[(m, n)]
    return [RATIONAL.make(v) for v in vector]


def generic_table(data: GenericBasisData, max_degree: int) -> dict:
    """`rho_vector(data, m, n)` for every pair 0 <= m <= n <= max_degree,
    keyed (m, n) as `oracle.oracle_table` is: `table_fractions` with each
    value a Scalar."""
    return {pair: [RATIONAL.make(v) for v in rho]
            for pair, rho in table_fractions(data, max_degree).items()}


def table_fractions(data: GenericBasisData, max_degree: int) -> dict:
    """`generic_table` as Fractions, from one pass: each entry
    of the derivative rows up to max_degree and of the columns up to
    q = 2 max_degree + 1 is read once for all pairs.  A table that stops
    short raises MissingDataError naming the first entry it lacks, rows
    first, then the columns in ascending j and q."""
    if max_degree < 0:
        raise IndexContractError("degree must be nonnegative")
    pairs = [(m, n) for m in range(max_degree + 1)
             for n in range(m, max_degree + 1)]
    return _vectors(data, pairs, 2 * max_degree + 1)
