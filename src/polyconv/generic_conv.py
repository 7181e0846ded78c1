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
"""

from dataclasses import dataclass

from .basis import GenericBasisData, gamma_from_b
from .errors import IndexContractError
from .scalars import RATIONAL, Scalar, factorial


@dataclass(frozen=True)
class RhoRequest:
    """One coefficient request: degrees m, n and output index j."""

    m: int
    n: int
    j: int

    def __post_init__(self):
        if self.m < 0 or self.n < 0:
            raise IndexContractError("degrees must be nonnegative")
        if not 0 <= self.j <= self.m + self.n + 1:
            raise IndexContractError(
                f"j must lie in [0, m+n+1], got j={self.j} for "
                f"(m, n)=({self.m}, {self.n})"
            )


def request(data: GenericBasisData, m: int, n: int, j: int) -> RhoRequest:
    """The RhoRequest for (m, n, j) against `data`."""
    return RhoRequest(m, n, j)


def rho_taylor(data: GenericBasisData, req: RhoRequest) -> Scalar:
    """Universal formula, any j:

        rho_j = sum_{p=j}^{m+n+1} b_{p,j}/p!
                sum_{nu=1}^{p} d^{p-nu} P_m * d^{nu-1} P_n   (at x = -a).
    """
    m, n, j = req.m, req.n, req.j
    total = 0
    for p in range(j, m + n + 2):
        inner = 0
        for nu in range(max(1, p - m), min(p, n + 1) + 1):
            # d^{p-nu} P_m vanishes for p-nu > m, d^{nu-1} P_n for nu-1 > n
            inner += data.deriv(m, p - nu) * data.deriv(n, nu - 1)
        total += data.b(p, j) / factorial(p) * inner
    return RATIONAL.make(total)


def rho_highj(data: GenericBasisData, req: RhoRequest) -> Scalar:
    """Single-sum formula for j >= m+1:

        rho_j = sum_{nu=max(1, j-n)}^{m+1} gamma_{n-j+nu,0}^{(j-nu, j)}
                                           * d^{nu-1} P_m |_{x=-a}.
    """
    m, n, j = req.m, req.n, req.j
    if j <= m:
        raise IndexContractError(f"rho_highj needs j >= m+1, got j={j}, m={m}")
    total = 0
    for nu in range(max(1, j - n), m + 2):
        gamma = gamma_from_b(data, n, 0, j - nu, j).as_fraction()
        total += gamma * data.deriv(m, nu - 1)
    return RATIONAL.make(total)


def rho_lowj(data: GenericBasisData, req: RhoRequest) -> Scalar:
    """Two-part formula for 0 <= j <= m:

        rho_j = sum_{nu=1}^{j} gamma_{m-j+nu,0}^{(j-nu, j)} d^{nu-1} P_n
              + sum_{nu=j+1}^{n+1} d^{nu-1} P_n
                    sum_{p=0}^{m} b_{p+nu,j}/(p+nu)! d^p P_m.
    """
    m, n, j = req.m, req.n, req.j
    if j > m:
        raise IndexContractError(f"rho_lowj needs j <= m, got j={j}, m={m}")
    total = 0
    for nu in range(1, j + 1):
        gamma = gamma_from_b(data, m, 0, j - nu, j).as_fraction()
        total += gamma * data.deriv(n, nu - 1)
    for nu in range(j + 1, n + 2):
        inner = 0
        for p in range(m + 1):
            inner += (data.b(p + nu, j) / factorial(p + nu)
                      * data.deriv(m, p))
        total += data.deriv(n, nu - 1) * inner
    return RATIONAL.make(total)


def rho_vector(data: GenericBasisData, m: int, n: int) -> list:
    """All rho_{j,n}^m for j = 0..m+n+1, via the piecewise formulas.

    Swaps (m, n) when m > n, which is free by commutativity of the
    convolution.
    """
    if m > n:
        m, n = n, m
    out = []
    for j in range(m + n + 2):
        req = request(data, m, n, j)
        out.append(rho_lowj(data, req) if j <= m else rho_highj(data, req))
    return out
