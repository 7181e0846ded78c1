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
m <= n.  All functions are pure; empty summation ranges contribute exactly
zero.

Each shape is a sum of terms b_{q,j}/q! d^a P_m d^b P_n at x = -a with
a + b = q-1; they differ in the ranges of q, a and b they run over, and
the terms one leaves out and another keeps are zero.  So every function
here is one call of the integer kernel in `basis`: `deriv_products` makes
the inner sums over a + b = q-1 from the derivative rows, and
`column_sum` dots them with the column b_{q,j}/q!.  Each route reads
exactly the table entries its printed formula reads, each once, and
returns one Scalar per coefficient.  A :class:`RhoRequest` names one
cell; it is an immutable, hashable record, its indices checked when it is
made.
"""

from .basis import GenericBasisData, column_sum, deriv_products
from .errors import IndexContractError
from .scalars import RATIONAL, Scalar, _FrozenRecord


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


def _cell(data: GenericBasisData, req: RhoRequest, m_lo: int, n_lo: int,
          q_lo: int, q_hi: int) -> Scalar:
    """sum_{q=q_lo}^{q_hi} b_{q,j}/q! sum_{a+b=q-1} d^a P_m d^b P_n at
    x = -a, the shape every formula of this module reduces to."""
    sums, den = deriv_products(data, req.m, req.n, m_lo, n_lo,
                               q_lo - 1, q_hi - 1)
    return RATIONAL.make(column_sum(data, req.j, q_lo, q_hi, sums, den))


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

    Each gamma is `gamma_from_b`'s sum of b_{q,j}/q! d^{q-nu} P_n over
    q = j..n+nu, so the double sum runs over the terms of `rho_taylor`
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


def rho_vector(data: GenericBasisData, m: int, n: int) -> list:
    """All rho_{j,n}^m for j = 0..m+n+1: the cells of `rho_lowj` (j <= m)
    and `rho_highj` (j > m), which share the inner sums over a + b = q-1.
    Those are made once, then each j is one column sum.

    Swaps (m, n) when m > n, which is free by commutativity of the
    convolution.
    """
    if m > n:
        m, n = n, m
    sums, den = deriv_products(data, m, n, 0, 0, 0, m + n)
    out = []
    for j in range(m + n + 2):
        lo = max(j, 1)
        out.append(RATIONAL.make(
            column_sum(data, j, lo, m + n + 1, sums[lo - 1:], den)))
    return out
