"""Formula-free ground truth for the convolution coefficients.

The convolution integral of two basis polynomials is computed here purely
by monomial algebra in exact rationals: expand the product, antidifferentiate
in the inner variable, evaluate the limits, and re-project onto the family
basis by descending-degree elimination.  Nothing in this module touches the
connection coefficients, rising factorials, hypergeometric sums, or any of
the closed forms it certifies, so a shared bug cannot cancel.

Each family's three-term recurrence (P_1 and the step coefficients) is
written out once, in ``_recurrence``.  One loop runs it, once per call:
``project_to_family`` takes every basis polynomial it eliminates from one run.

Only ring operations on rationals are used; there is no tolerance anywhere.
This is desk-scale machinery (O((m+n)^3) per pair with big rationals).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .basis import Family, FamilySpec
from .scalars import RATIONAL, exact

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class MonomialPoly:
    """A polynomial sum_k coeffs[k] * (x + shift)^k with exact rational
    coefficients, kept in canonical form (no trailing zeros)."""

    coeffs: list
    shift: Fraction = field(default_factory=Fraction)

    def __post_init__(self):
        self.coeffs = [Fraction(c) for c in self.coeffs]
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs.pop()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coefficient(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else _ZERO

    def evaluate(self, x) -> Fraction:
        u = Fraction(x) + self.shift
        acc = _ZERO
        for c in reversed(self.coeffs):
            acc = acc * u + c
        return acc

    def recenter(self, new_shift) -> "MonomialPoly":
        """Re-express in powers of (x + new_shift) by binomial expansion."""
        new_shift = Fraction(new_shift)
        delta = self.shift - new_shift  # (x+shift) = (x+new_shift) + delta
        if delta == 0:
            return MonomialPoly(list(self.coeffs), new_shift)
        out = [_ZERO] * (len(self.coeffs) or 1)
        for k, c in enumerate(self.coeffs):
            if c == 0:
                continue
            # c * ((x+new_shift) + delta)^k
            binom = Fraction(1)
            power = delta ** k
            for low in range(k + 1):
                out[low] += c * binom * power
                binom = binom * (k - low) / (low + 1)
                if low < k:
                    power /= delta
        return MonomialPoly(out, new_shift)


def _recurrence(spec: FamilySpec):
    """The family's three-term recurrence, written out here: P_1's
    coefficients, and step(k) = (ax, b, c) with
    P_k = (ax * x + b) P_{k-1} - c P_{k-2} for k >= 2."""
    alpha, beta, lam = spec._exact
    f = spec.family
    if f is Family.GENERIC_MONIC:  # P_k = (x + 1) P_{k-1}
        return [_ONE, _ONE], lambda k: (1, 1, 0)
    if f is Family.LAGUERRE:
        return [1 + alpha, -_ONE], lambda k: (
            Fraction(-1, k), (2 * k - 1 + alpha) / k, (k - 1 + alpha) / k)
    if f is Family.LEGENDRE:
        return [_ZERO, _ONE], lambda k: (
            Fraction(2 * k - 1, k), 0, Fraction(k - 1, k))
    if f is Family.CHEBYSHEV:
        return [_ZERO, _ONE], lambda k: (2, 0, 1)
    if f is Family.GEGENBAUER:
        return [_ZERO, 2 * lam], lambda k: (
            2 * (k + lam - 1) / k, 0, (k + 2 * lam - 2) / k)
    if f is Family.SYMMETRIC_JACOBI:
        beta = alpha
    s = alpha + beta

    def step(k):
        c1 = 2 * k * (k + s) * (2 * k + s - 2)
        return ((2 * k + s - 1) * (2 * k + s) * (2 * k + s - 2) / c1,
                (2 * k + s - 1) * (alpha - beta) * s / c1,
                2 * (k + alpha - 1) * (k + beta - 1) * (2 * k + s) / c1)

    return [(alpha + 1) - (s + 2) / 2, (s + 2) / 2], step


def _family_polys(spec: FamilySpec, n: int) -> list:
    """Monomial coefficient lists of P_0, ..., P_n from one run of the
    family's recurrence; P_k has k+1 entries."""
    p1, step = _recurrence(spec)
    polys = [[_ONE], p1]
    for k in range(2, n + 1):
        ax, b, c = step(k)
        out = [_ZERO] * (k + 1)
        for i, v in enumerate(polys[-1]):
            out[i + 1] += ax * v
            out[i] += b * v
        for i, v in enumerate(polys[-2]):
            out[i] -= c * v
        polys.append(out)
    return polys[:n + 1]


def to_monomial(spec: FamilySpec, n: int) -> MonomialPoly:
    """Exact monomial coefficients of the degree-n family polynomial, the
    last of one `_family_polys` run."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    return MonomialPoly(_family_polys(spec, n)[n])


def convolve_exact(spec: FamilySpec, m: int, n: int) -> MonomialPoly:
    """The integral of P_m(x-t) P_n(t) dt from -a to x+a, evaluated
    symbolically; returned in powers of (x + 2a)."""
    a = spec.domain_offset_a.as_fraction()
    polys = _family_polys(spec, max(m, n))
    pm, pn = polys[m], polys[n]

    # P_m(x - t) as polynomials in x, one per power of t
    in_x = [[_ZERO] * (m + 1) for _ in range(m + 1)]
    for i, c in enumerate(pm):
        binom = Fraction(1)
        for k in range(i + 1):  # (x-t)^i term: C(i,k) x^(i-k) (-t)^k
            sign = -binom if k % 2 else binom
            in_x[k][i - k] += c * sign
            binom = binom * (i - k) / (k + 1)

    # multiply by P_n(t), then antidifferentiate in t
    prod = [[_ZERO] * (m + 1) for _ in range(m + n + 1)]
    for k in range(m + 1):
        row = in_x[k]
        for l, q in enumerate(pn):
            if q == 0:
                continue
            for i, c in enumerate(row):
                prod[k + l][i] += q * c
    anti = [[_ZERO] * (m + 1)] + [
        [c / (r + 1) for c in row] for r, row in enumerate(prod)
    ]

    # evaluate at t = x+a and t = -a; cross terms x^i (x+a)^k overshoot the
    # final degree m+n+1 before cancellation, so size for the worst case
    result = [_ZERO] * (2 * m + n + 3)
    shift_pow = [Fraction(1)]  # (x+a)^r coefficients in x
    for r, row in enumerate(anti):
        if r > 0:
            nxt = [_ZERO] * (r + 1)
            for k, c in enumerate(shift_pow):
                nxt[k + 1] += c
                nxt[k] += c * a
            shift_pow = nxt
        lower = (-a) ** r
        for i, c in enumerate(row):
            if c == 0:
                continue
            for k, s in enumerate(shift_pow):
                result[i + k] += c * s
            result[i] -= c * lower

    return MonomialPoly(result).recenter(2 * a)


def project_to_family(poly: MonomialPoly, spec: FamilySpec, shift) -> list:
    """Coefficients c_j with poly = sum_j c_j P_j(x + shift), found by
    repeatedly eliminating the highest remaining degree; exact."""
    shift = exact(shift)
    residual = poly.recenter(shift).coeffs[:]
    out = [_ZERO] * len(residual)
    polys = _family_polys(spec, len(residual) - 1)
    for j in range(len(residual) - 1, -1, -1):
        c = residual[j]
        if c == 0:
            continue
        pj = polys[j]
        ratio = c / pj[j]
        out[j] = ratio
        for k, v in enumerate(pj):
            residual[k] -= ratio * v
    assert all(v == 0 for v in residual)
    return [RATIONAL.make(v) for v in out]


def oracle_rho(spec: FamilySpec, m: int, n: int) -> list:
    """All convolution coefficients rho_j for the (m, n) pair, as a vector
    of length m+n+2 in the family basis shifted by a."""
    a = spec.domain_offset_a
    h = convolve_exact(spec, m, n)
    rho = project_to_family(h, spec, a)
    rho = rho + [RATIONAL.zero()] * (m + n + 2 - len(rho))
    return rho[: m + n + 2]
