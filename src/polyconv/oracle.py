"""Formula-free ground truth for the convolution coefficients.

The convolution integral of two basis polynomials is computed here purely
by monomial algebra in exact rationals: expand the product, antidifferentiate
in the inner variable, evaluate the limits, and re-project onto the family
basis by descending-degree elimination.  Nothing in this module touches the
connection coefficients, rising factorials, hypergeometric sums, or any of
the closed forms it certifies, so a shared bug cannot cancel.

Each family's three-term recurrence (P_1 and the step coefficients) is
written out once, in ``_recurrence``.  One loop, ``_family_polys``, runs it
for the shifted polynomials P_k(y - delta), the shift folded into the step's
constant term, as int numerators over one denominator per polynomial.  Each
function runs it once per call, in the coordinates it works in:
``convolve_exact`` in s = t + a and y = x + 2a, where the limits are 0 and
y, and ``project_to_family`` in the powers its input is written in.  Those
are the same polynomials, P_k(y - a): ``oracle_rho`` runs the recurrence
once for its pair and ``oracle_table`` once for every pair of a family up
to a maximum degree, in ints throughout.  ``oracle_table`` wraps each value
of ``table_fractions``, the same table as Fractions, in a Scalar.  Nothing
is cached between calls.

Only ring operations on rationals are used; there is no tolerance anywhere.
The sums run over ints, and a Fraction is made once per coefficient that
leaves.  This is desk-scale machinery: O((m+n)^3) int operations per pair.
``MonomialPoly`` writes out its own equality and repr, so the module reads
nothing of ``scalars`` but exact rationals and their lcm.
"""

import math
from fractions import Fraction

from .basis import Family, FamilySpec
from .scalars import RATIONAL, exact, over_lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


class MonomialPoly:
    """A polynomial sum_k coeffs[k] * (x + shift)^k with exact rational
    coefficients, kept in canonical form (no trailing zeros).  Equal to a
    MonomialPoly of the same coefficients and shift; unhashable."""

    def __init__(self, coeffs: list, shift: Fraction = _ZERO):
        self.coeffs = [Fraction(c) for c in coeffs]
        self.shift = shift
        while self.coeffs and self.coeffs[-1] == 0:
            self.coeffs.pop()

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.coeffs, self.shift) == (other.coeffs, other.shift)

    def __repr__(self):
        return f"MonomialPoly(coeffs={self.coeffs!r}, shift={self.shift!r})"

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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


def _family_polys(spec: FamilySpec, n: int, delta=0) -> list:
    """P_0(y - delta), ..., P_n(y - delta) in powers of y from one run of
    the family's recurrence, each as (int numerators, one positive
    denominator) in lowest terms; P_k has k+1 numerators.  The shift is
    folded into the recurrence: P_k(y - delta) = (ax y + b - ax delta)
    P_{k-1}(y - delta) - c P_{k-2}(y - delta)."""
    p1, step = _recurrence(spec)
    delta = Fraction(delta)
    polys = [([1], 1), over_lcm([p1[0] - p1[1] * delta, p1[1]])]
    for k in range(2, n + 1):
        ax, b, c = step(k)
        (ax, b, c), e = over_lcm([ax, b - ax * delta, c])
        (n1, d1), (n2, d2) = polys[-1], polys[-2]
        den = math.lcm(d1, d2)
        u1, u2 = den // d1, c * (den // d2)
        out = [0] * (k + 1)
        for i, v in enumerate(n1):
            v *= u1
            out[i + 1] += ax * v
            out[i] += b * v
        for i, v in enumerate(n2):
            out[i] -= u2 * v
        den *= e
        g = math.gcd(den, *out)
        polys.append(([v // g for v in out], den // g))
    return polys[:n + 1]


def to_monomial(spec: FamilySpec, n: int) -> MonomialPoly:
    """Exact monomial coefficients of the degree-n family polynomial, the
    last of one `_family_polys` run."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    nums, den = _family_polys(spec, n)[n]
    return MonomialPoly([Fraction(v, den) for v in nums])


def _convolve_ints(polys: list, m: int, n: int) -> tuple:
    """The integral of Q_m(y-s) Q_n(s) ds from 0 to y in powers of y, as
    (int numerators, one denominator), Q_k = polys[k] a `_family_polys`
    run.  The sums run over ints, over the denominators of Q_m and Q_n
    times lcm(1, ..., m+n+1) for the antiderivative."""
    (qm, dm), (qn, dn) = polys[m], polys[n]

    # Q_m(y - s) as polynomials in y, one per power of s
    in_y = [[0] * (m + 1 - k) for k in range(m + 1)]
    for i, c in enumerate(qm):
        for k in range(i + 1):  # (y-s)^i term: C(i,k) y^(i-k) (-s)^k
            in_y[k][i - k] += (-1) ** k * math.comb(i, k) * c

    # multiply by Q_n(s); s^r has y powers up to m - (r - n) at most
    prod = [[0] * (m + 1 - max(0, r - n)) for r in range(m + n + 1)]
    for k, row in enumerate(in_y):
        for l, q in enumerate(qn):
            if q == 0:
                continue
            out = prod[k + l]
            for i, c in enumerate(row):
                out[i] += q * c

    # antidifferentiate s^r to s^(r+1) / (r+1) over lcm(1..m+n+1), and
    # evaluate at s = y
    lcm = math.lcm(*range(1, m + n + 2))
    result = [0] * (m + n + 2)
    for r, row in enumerate(prod):
        weight = lcm // (r + 1)
        for i, c in enumerate(row):
            result[i + r + 1] += weight * c
    return result, dm * dn * lcm


def convolve_exact(spec: FamilySpec, m: int, n: int) -> MonomialPoly:
    """The integral of P_m(x-t) P_n(t) dt from -a to x+a, evaluated
    symbolically; returned in powers of (x + 2a).

    With s = t + a and y = x + 2a it is the integral of Q_m(y-s) Q_n(s) ds
    from 0 to y, Q_k(y) = P_k(y - a): the lower limit contributes nothing.
    """
    if m < 0 or n < 0:
        raise ValueError("degree must be nonnegative")
    a = spec.domain_offset_a.as_fraction()
    nums, den = _convolve_ints(_family_polys(spec, max(m, n), a), m, n)
    return MonomialPoly([Fraction(v, den) for v in nums], 2 * a)


def _project_ints(residual: list, den: int, polys: list) -> list:
    """Coefficients c_j, as Fractions, with sum_k residual[k] / den v^k =
    sum_j c_j polys[j](v), polys a `_family_polys` run in the same powers
    of v: the highest remaining degree eliminated at each step, over ints,
    the residual's content divided out once per step.  `residual` is
    consumed."""
    out = [_ZERO] * len(residual)
    for j in range(len(residual) - 1, -1, -1):
        c = residual[j]
        if c == 0:
            continue
        pj, dj = polys[j]
        lead = pj[j]
        out[j] = Fraction(c * dj, den * lead)
        # residual - out[j] P_j, scaled by lead / gcd(c, lead)
        g = math.gcd(c, lead)
        c, lead = c // g, lead // g
        for k, v in enumerate(pj):  # entries above j are already zero
            residual[k] = residual[k] * lead - c * v
        den *= lead
        g = math.gcd(den, *residual[:j])
        residual[:j] = [v // g for v in residual[:j]]
        den //= g
    assert not any(residual)
    return out


def project_to_family(poly: MonomialPoly, spec: FamilySpec, shift) -> list:
    """Coefficients c_j with poly = sum_j c_j P_j(x + shift), found by
    repeatedly eliminating the highest remaining degree; exact.

    The elimination runs in poly's own powers of v = x + poly.shift, against
    P_j(v - delta) with delta = poly.shift - shift."""
    delta = exact(poly.shift) - exact(shift)
    residual, den = over_lcm(poly.coeffs)
    polys = _family_polys(spec, len(residual) - 1, delta)
    return [RATIONAL.make(v) for v in _project_ints(residual, den, polys)]


def _padded(rho: list, m: int, n: int) -> list:
    """The coefficients rho_j as Fractions for j = 0..m+n+1."""
    return (rho + [_ZERO] * (m + n + 2 - len(rho)))[: m + n + 2]


def oracle_rho(spec: FamilySpec, m: int, n: int) -> list:
    """All convolution coefficients rho_j for the (m, n) pair, as a vector
    of length m+n+2 in the family basis shifted by a: `oracle_table`'s
    route for one pair, one run of the family recurrence to degree m+n+1."""
    if m < 0 or n < 0:
        raise ValueError("degree must be nonnegative")
    polys = _family_polys(spec, m + n + 1, spec.domain_offset_a.as_fraction())
    rho = _project_ints(*_convolve_ints(polys, m, n), polys)
    return [RATIONAL.make(v) for v in _padded(rho, m, n)]


def oracle_table(spec: FamilySpec, max_degree: int) -> dict:
    """`oracle_rho(spec, m, n)` for every pair 0 <= m <= n <= max_degree,
    keyed (m, n): `table_fractions` with each value a Scalar."""
    return {pair: [RATIONAL.make(v) for v in rho]
            for pair, rho in table_fractions(spec, max_degree).items()}


def table_fractions(spec: FamilySpec, max_degree: int) -> dict:
    """`oracle_table` as Fractions, from one run of the family recurrence.

    `convolve_exact` integrates against Q_k(y) = P_k(y - a), and the
    re-projection of its output, in powers of y = x + 2a onto P_j(x + a),
    runs against P_j(y - delta) with delta = 2a - a = a: the same
    polynomials, so P_0(y - a), ..., P_(2 max_degree + 1)(y - a) serve
    every pair, and the convolution goes to the projection as ints."""
    if max_degree < 0:
        raise ValueError("degree must be nonnegative")
    a = spec.domain_offset_a.as_fraction()
    polys = _family_polys(spec, 2 * max_degree + 1, a)
    table = {}
    for m in range(max_degree + 1):
        for n in range(m, max_degree + 1):
            rho = _project_ints(*_convolve_ints(polys, m, n), polys)
            table[(m, n)] = _padded(rho, m, n)
    return table
