"""Formula-free ground truth for the convolution coefficients.

The convolution integral of two basis polynomials is computed here purely
by monomial algebra in exact rationals: expand the product, antidifferentiate
in the inner variable, evaluate the limits, and re-project onto the family
basis by descending-degree elimination.  Nothing in this module touches the
connection coefficients, rising factorials, hypergeometric sums, or any of
the closed forms it certifies, so a shared bug cannot cancel.

Only ring operations on rationals are used; there is no tolerance anywhere.
This is desk-scale machinery (O((m+n)^3) per pair with big rationals).
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .basis import Family, FamilySpec
from .scalars import RATIONAL, exact

_ZERO = Fraction(0)


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


def _add_scaled(target: list, poly_coeffs, scale: Fraction) -> None:
    for k, c in enumerate(poly_coeffs):
        target[k] += scale * c


def to_monomial(spec: FamilySpec, n: int) -> MonomialPoly:
    """Exact monomial coefficients of the degree-n family polynomial,
    obtained from the three-term recurrence on coefficient arrays."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    f = spec.family

    if f is Family.GENERIC_MONIC:
        return MonomialPoly(_binomial_row(Fraction(1), n))

    prev = [Fraction(1)]
    if n == 0:
        return MonomialPoly(prev)

    if f is Family.LAGUERRE:
        alpha = spec._exact[0]
        cur = [1 + alpha, Fraction(-1)]
        for k in range(2, n + 1):
            nxt = _recurrence_step(cur, prev,
                                   ax=Fraction(-1, k),
                                   b=Fraction(2 * k - 1, k) + alpha / k,
                                   c=Fraction(k - 1, k) + alpha / k)
            prev, cur = cur, nxt
        return MonomialPoly(cur)

    if f is Family.LEGENDRE:
        cur = [Fraction(0), Fraction(1)]
        for k in range(2, n + 1):
            nxt = _recurrence_step(cur, prev, ax=Fraction(2 * k - 1, k),
                                   b=_ZERO, c=Fraction(k - 1, k))
            prev, cur = cur, nxt
        return MonomialPoly(cur)

    if f is Family.CHEBYSHEV:
        cur = [Fraction(0), Fraction(1)]
        for _ in range(2, n + 1):
            nxt = _recurrence_step(cur, prev, ax=Fraction(2), b=_ZERO,
                                   c=Fraction(1))
            prev, cur = cur, nxt
        return MonomialPoly(cur)

    if f is Family.GEGENBAUER:
        lam = spec._exact[2]
        cur = [Fraction(0), 2 * lam]
        for k in range(2, n + 1):
            nxt = _recurrence_step(cur, prev,
                                   ax=Fraction(2) * (k + lam - 1) / k,
                                   b=_ZERO, c=(k + 2 * lam - 2) / Fraction(k))
            prev, cur = cur, nxt
        return MonomialPoly(cur)

    alpha, beta = spec.jacobi_parameters()
    s = alpha + beta
    cur = [(alpha + 1) - (s + 2) / 2, (s + 2) / 2]
    for k in range(2, n + 1):
        c1 = 2 * k * (k + s) * (2 * k + s - 2)
        nxt = _recurrence_step(
            cur, prev,
            ax=(2 * k + s - 1) * (2 * k + s) * (2 * k + s - 2) / Fraction(c1),
            b=(2 * k + s - 1) * (alpha - beta) * (alpha + beta) / Fraction(c1),
            c=2 * (k + alpha - 1) * (k + beta - 1) * (2 * k + s) / Fraction(c1),
        )
        prev, cur = cur, nxt
    return MonomialPoly(cur)


def _recurrence_step(cur, prev, ax: Fraction, b: Fraction, c: Fraction):
    """Next coefficient array for P_next = (ax * x + b) P_cur - c P_prev."""
    out = [_ZERO] * (len(cur) + 1)
    for k, v in enumerate(cur):
        out[k + 1] += ax * v
        out[k] += b * v
    for k, v in enumerate(prev):
        out[k] -= c * v
    return out


def _binomial_row(base: Fraction, n: int):
    """Coefficients of (x + base)^n in plain powers of x."""
    coeffs = [_ZERO] * (n + 1)
    binom = Fraction(1)
    for k in range(n, -1, -1):
        coeffs[k] = binom * base ** (n - k)
        binom = binom * k / (n - k + 1)
    return coeffs


def convolve_exact(spec: FamilySpec, m: int, n: int) -> MonomialPoly:
    """The integral of P_m(x-t) P_n(t) dt from -a to x+a, evaluated
    symbolically; returned in powers of (x + 2a)."""
    a = spec.domain_offset_a.as_fraction()
    pm = to_monomial(spec, m).coeffs
    pn = to_monomial(spec, n).coeffs

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
            _add_scaled(prod[k + l], row, q)
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
    basis_cache = {}
    for j in range(len(residual) - 1, -1, -1):
        c = residual[j]
        if c == 0:
            continue
        if j not in basis_cache:
            basis_cache[j] = to_monomial(spec, j).coeffs
        pj = basis_cache[j]
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
