"""Classical orthogonal polynomial families and their connection data.

Each family is described by a :class:`FamilySpec`.  The module evaluates
polynomials by their three-term recurrences, gives closed forms for
derivatives at the left endpoint of the domain, and produces the two
connection-coefficient tables everything else is built from:

* ``monomial_expansion_b``: coefficients b_{n,k} of the shifted monomial
  (x+a)^n in the family basis,
* ``connection_gamma``: coefficients linking the p-th derivatives of the
  sequence to the q-th derivatives of shifted-degree members.

Normalizations are the standard ones: Jacobi P_n^(a,b) with
P_n^(a,b)(1) = (a+1)_n / n!, Gegenbauer C_n^(lam) = (2 lam)_n /
(lam+1/2)_n * P_n^(lam-1/2, lam-1/2), Chebyshev stored through
P_n^(-1/2,-1/2) = (1/2)_n / n! * T_n with all outputs in the T_n
normalization, and Laguerre L_n^(alpha) with L_n^(alpha)(0) =
(1+alpha)_n / n!.

Note: the Chebyshev family here is sometimes labelled "second kind" in
parts of the literature this follows, but the parameters used
(alpha = beta = -1/2) and the symbol T_n are those of the first kind; the
formulas, not the label, are authoritative here.
"""

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction

from .errors import IndexOutOfRangeError, MissingDataError
from .scalars import RATIONAL, Scalar, factorial, hyp_pfq, pochhammer


class Family(Enum):
    JACOBI = "jacobi"
    SYMMETRIC_JACOBI = "symmetric_jacobi"
    GEGENBAUER = "gegenbauer"
    LEGENDRE = "legendre"
    CHEBYSHEV = "chebyshev"
    LAGUERRE = "laguerre"
    GENERIC_MONIC = "generic_monic"


_INTERVAL_FAMILIES = (
    Family.JACOBI,
    Family.SYMMETRIC_JACOBI,
    Family.GEGENBAUER,
    Family.LEGENDRE,
    Family.CHEBYSHEV,
)


@dataclass(frozen=True)
class FamilySpec:
    """A polynomial family with its exact parameters and the backend its
    tables and series are rounded to on output."""

    family: Family
    alpha: Scalar | None = None
    beta: Scalar | None = None
    lam: Scalar | None = None
    backend: object = field(default=RATIONAL)

    def __post_init__(self):
        f = self.family
        if f is Family.JACOBI:
            if self.alpha is None or self.beta is None:
                raise ValueError("Jacobi needs alpha and beta")
            if not (self.alpha > -1 and self.beta > -1):
                raise ValueError("Jacobi needs alpha > -1 and beta > -1")
        elif f is Family.SYMMETRIC_JACOBI:
            if self.alpha is None:
                raise ValueError("symmetric Jacobi needs alpha")
            if not self.alpha > -1:
                raise ValueError("symmetric Jacobi needs alpha > -1")
            if self.alpha == 0:
                raise ValueError(
                    "symmetric Jacobi with alpha = 0 is Legendre; use the "
                    "symmetric_jacobi() factory, which redirects"
                )
        elif f is Family.GEGENBAUER:
            if self.lam is None:
                raise ValueError("Gegenbauer needs lambda")
            if not self.lam > Fraction(-1, 2):
                raise ValueError("Gegenbauer needs lambda > -1/2")
            if self.lam == 0:
                raise ValueError("Gegenbauer lambda must be nonzero")
            if self.lam == Fraction(1, 2):
                raise ValueError(
                    "Gegenbauer with lambda = 1/2 is Legendre; use the "
                    "gegenbauer() factory, which redirects"
                )
        elif f is Family.LAGUERRE:
            if self.alpha is None:
                raise ValueError("Laguerre needs alpha")
            if not self.alpha > -1:
                raise ValueError("Laguerre needs alpha > -1")

    # -- derived constants -------------------------------------------------

    @property
    def domain_offset_a(self) -> Scalar:
        """Offset a of the shifted argument: 1 for interval families, 0 for
        Laguerre."""
        if self.family is Family.LAGUERRE:
            return RATIONAL.zero()
        return RATIONAL.one()

    @property
    def zero_region_q(self) -> int | None:
        """Family constant of the guaranteed zero band (1 for Jacobi-type,
        0 for Laguerre)."""
        if self.family in _INTERVAL_FAMILIES:
            return 1
        if self.family is Family.LAGUERRE:
            return 0
        return None

    def jacobi_parameters(self) -> tuple[Scalar, Scalar]:
        """The (alpha, beta) of the underlying Jacobi normalization."""
        f = self.family
        if f is Family.JACOBI:
            return self.alpha, self.beta
        if f is Family.SYMMETRIC_JACOBI:
            return self.alpha, self.alpha
        if f is Family.GEGENBAUER:
            a = self.lam - Fraction(1, 2)
            return a, a
        if f is Family.LEGENDRE:
            z = RATIONAL.zero()
            return z, z
        if f is Family.CHEBYSHEV:
            h = RATIONAL.make(Fraction(-1, 2))
            return h, h
        raise ValueError(f"{f.value} has no Jacobi parameters")

    def normalization(self, n: int) -> Scalar:
        """c_n with FamilyPoly_n = c_n * P_n^(alpha_J, beta_J)."""
        f = self.family
        if f is Family.GEGENBAUER:
            half = self.lam + Fraction(1, 2)
            return pochhammer(2 * self.lam, n) / pochhammer(half, n)
        if f is Family.CHEBYSHEV:
            return factorial(n) / pochhammer(Fraction(1, 2), n)
        return RATIONAL.one()

    def to_backend(self, backend) -> "FamilySpec":
        """The same family with output rounded to `backend`."""
        return replace(self, backend=backend)

    # -- serialization -----------------------------------------------------

    def to_config(self) -> dict:
        """Small record format with rational parameters as strings."""
        out = {"family": self.family.value}
        for name in ("alpha", "beta", "lam"):
            v = getattr(self, name)
            if v is not None:
                key = "lambda" if name == "lam" else name
                out[key] = str(v.as_fraction())
        return out

    def label(self) -> str:
        params = ",".join(
            str(v.as_fraction())
            for v in (self.alpha, self.beta, self.lam) if v is not None
        )
        return f"{self.family.value}({params})" if params else self.family.value


def spec_from_config(config: dict) -> FamilySpec:
    """Inverse of FamilySpec.to_config; applies the factory redirects."""
    kind = config["family"].lower()

    def need(key):
        value = config.get(key)
        if value is None:
            raise ValueError(f"family {kind!r} requires parameter {key!r}")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"family {kind!r}: parameter {key!r} is not a "
                             f"rational number: {value!r}") from None

    if kind == "jacobi":
        return jacobi(need("alpha"), need("beta"))
    if kind == "symmetric_jacobi":
        return symmetric_jacobi(need("alpha"))
    if kind == "gegenbauer":
        return gegenbauer(need("lambda"))
    if kind == "legendre":
        return legendre()
    if kind == "chebyshev":
        return chebyshev()
    if kind == "laguerre":
        return laguerre(need("alpha"))
    if kind == "generic_monic":
        return generic_monic()
    raise ValueError(f"unknown family {config['family']!r}")


# The factories keep the parameters exact whatever `backend` says.


def jacobi(alpha, beta, backend=RATIONAL) -> FamilySpec:
    return FamilySpec(Family.JACOBI, RATIONAL.make(alpha), RATIONAL.make(beta),
                      backend=backend)


def symmetric_jacobi(alpha, backend=RATIONAL) -> FamilySpec:
    alpha = RATIONAL.make(alpha)
    if alpha == 0:
        return legendre(backend=backend)
    return FamilySpec(Family.SYMMETRIC_JACOBI, alpha, backend=backend)


def gegenbauer(lam, backend=RATIONAL) -> FamilySpec:
    lam = RATIONAL.make(lam)
    if lam == Fraction(1, 2):
        return legendre(backend=backend)
    return FamilySpec(Family.GEGENBAUER, lam=lam, backend=backend)


def legendre(backend=RATIONAL) -> FamilySpec:
    return FamilySpec(Family.LEGENDRE, backend=backend)


def chebyshev(backend=RATIONAL) -> FamilySpec:
    return FamilySpec(Family.CHEBYSHEV, backend=backend)


def laguerre(alpha, backend=RATIONAL) -> FamilySpec:
    return FamilySpec(Family.LAGUERRE, RATIONAL.make(alpha), backend=backend)


def generic_monic(backend=RATIONAL) -> FamilySpec:
    """The shifted monomial sequence (x+1)^n; the escape hatch for the
    family-agnostic machinery."""
    return FamilySpec(Family.GENERIC_MONIC, backend=backend)


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def eval_polys(spec: FamilySpec, n: int, x) -> list:
    """Values [P_0(x), ..., P_n(x)] of the family's polynomials (three-term
    recurrences, exact)."""
    if n < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    x = RATIONAL.make(x)
    f = spec.family

    if f is Family.GENERIC_MONIC:
        return [(x + 1) ** k for k in range(n + 1)]

    if f is Family.LAGUERRE:
        alpha = spec.alpha
        first = 1 + alpha - x

        def step(k, p, p_prev):
            return ((2 * k - 1 + alpha - x) * p
                    - (k - 1 + alpha) * p_prev) / k
    elif f is Family.LEGENDRE:
        first = x

        def step(k, p, p_prev):
            return ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
    elif f is Family.CHEBYSHEV:
        first = x

        def step(k, p, p_prev):
            return 2 * x * p - p_prev
    elif f is Family.GEGENBAUER:
        lam = spec.lam
        first = 2 * lam * x

        def step(k, p, p_prev):
            return (2 * x * (k + lam - 1) * p
                    - (k + 2 * lam - 2) * p_prev) / k
    else:
        alpha, beta = spec.jacobi_parameters()
        s = alpha + beta
        first = (alpha + 1) + (alpha + beta + 2) * (x - 1) / 2

        def step(k, p, p_prev):
            c1 = 2 * k * (k + s) * (2 * k + s - 2)
            c2 = (2 * k + s - 1) * ((2 * k + s) * (2 * k + s - 2) * x
                                    + (alpha - beta) * (alpha + beta))
            c3 = 2 * (k + alpha - 1) * (k + beta - 1) * (2 * k + s)
            return (c2 * p - c3 * p_prev) / c1

    values = [RATIONAL.one(), first]
    for k in range(2, n + 1):
        values.append(step(k, values[-1], values[-2]))
    return values[:n + 1]


def eval_poly(spec: FamilySpec, n: int, x) -> Scalar:
    """Value of the family's degree-n polynomial at x."""
    return eval_polys(spec, n, x)[n]


# ---------------------------------------------------------------------------
# endpoint derivatives
# ---------------------------------------------------------------------------


def _jacobi_endpoint_derivative(n: int, p: int, alpha: Scalar,
                                beta: Scalar) -> Scalar:
    # d^p/dx^p P_n^(alpha,beta) at x = -1:
    #   2^-p (-1)^(n+p) (p+beta+1)_(n-p) (n+alpha+beta+1)_p / (n-p)!
    sign = -1 if (n + p) % 2 else 1
    num = pochhammer(beta + p + 1, n - p) * pochhammer(alpha + beta + n + 1, p)
    return sign * num / (2 ** p * factorial(n - p))


def endpoint_derivative(spec: FamilySpec, n: int, p: int) -> Scalar:
    """d^p/dx^p of the degree-n family polynomial at x = -a (the lower end
    of the convolution domain); 0 when p > n."""
    if n < 0 or p < 0:
        raise IndexOutOfRangeError("degree and order must be nonnegative")
    if p > n:
        return RATIONAL.zero()
    f = spec.family
    if f is Family.LAGUERRE:
        sign = -1 if p % 2 else 1
        return sign * pochhammer(spec.alpha + p + 1, n - p) / factorial(n - p)
    if f is Family.GENERIC_MONIC:
        if p < n:
            return RATIONAL.zero()
        return RATIONAL.make(factorial(n))
    alpha, beta = spec.jacobi_parameters()
    return spec.normalization(n) * _jacobi_endpoint_derivative(n, p, alpha, beta)


def _normalization_ratio(spec: FamilySpec, n: int) -> Scalar:
    """c_{n+1} / c_n for c = `spec.normalization`, in O(1) where each
    `normalization` call takes O(n)."""
    if spec.family is Family.GEGENBAUER:
        return (2 * spec.lam + n) / (spec.lam + Fraction(2 * n + 1, 2))
    if spec.family is Family.CHEBYSHEV:
        return RATIONAL.make(Fraction(2 * n + 2, 2 * n + 1))
    return RATIONAL.one()


def derivative_connection(spec: FamilySpec, n: int) -> tuple:
    """(A_n, B_n, C_n) with P_n = A_n P'_{n+1} + B_n P'_n + C_n P'_{n-1}
    in the family's own normalization (DLMF 18.9).

    B_0, C_0 and C_1 multiply P'_0 = 0 or P'_{-1} and are set to 0; for
    C_1 this also avoids the 0/0 of the Jacobi display at alpha+beta = -1.
    """
    if n < 0:
        raise IndexOutOfRangeError("degree must be nonnegative")
    f = spec.family
    if f is Family.LAGUERRE:
        return -RATIONAL.one(), RATIONAL.one(), RATIONAL.zero()
    if f is Family.GENERIC_MONIC:
        raise ValueError("generic sequences have no derivative connection")
    alpha, beta = spec.jacobi_parameters()
    s = alpha + beta
    if n == 0:
        a, b, c = 2 / (s + 2), RATIONAL.zero(), RATIONAL.zero()
    else:
        a = 2 * (n + s + 1) / ((2 * n + s + 1) * (2 * n + s + 2))
        b = 2 * (alpha - beta) / ((2 * n + s) * (2 * n + s + 2))
        c = RATIONAL.zero() if n == 1 else (-2 * (n + alpha) * (n + beta)
                                      / ((n + s) * (2 * n + s)
                                         * (2 * n + s + 1)))
    # P_n = c_n J_n, so A and C pick up normalization ratios
    a = a / _normalization_ratio(spec, n)
    if c != 0:
        c = c * _normalization_ratio(spec, n - 1)
    return a, b, c


# ---------------------------------------------------------------------------
# monomial expansion coefficients b_{n,k}
# ---------------------------------------------------------------------------


def _jacobi_b(n: int, k: int, alpha: Scalar, beta: Scalar) -> Scalar:
    # (x+1)^n = sum_k b_{n,k} P_k^(alpha,beta)(x) with
    #   b_{n,k} = 2^n n! (beta+1)_n (alpha+beta+2k+1) Gamma(alpha+beta+k+1)
    #             / ((beta+1)_k Gamma(alpha+beta+n+k+2) (n-k)!).
    # At k = 0 the prefactor and the leading gamma merge so the formula
    # stays finite when alpha + beta + 1 = 0.
    s = alpha + beta
    common = 2 ** n * factorial(n) * pochhammer(beta + 1, n)
    if k == 0:
        # (s+1) Gamma(s+1) / Gamma(s+n+2) = Gamma(s+2) / Gamma(s+n+2)
        return common * pochhammer(s + 2 + n, -n) / factorial(n)
    ratio = pochhammer(s + k + n + 2, -(n + 1))
    return (common * (s + 2 * k + 1) * ratio
            / (pochhammer(beta + 1, k) * factorial(n - k)))


def monomial_expansion_b(spec: FamilySpec, n: int, k: int) -> Scalar:
    """b_{n,k} with (x+a)^n = sum_k b_{n,k} P_k(x) in the family basis."""
    if n < 0 or k < 0 or k > n:
        raise IndexOutOfRangeError(f"b-coefficient index out of range: n={n}, k={k}")
    f = spec.family
    if f is Family.LAGUERRE:
        # x^n = sum_k b_{n,k} L_k^(alpha), b_{n,k} = (-n)_k (k+alpha+1)_(n-k)
        return (pochhammer(-n, k)
                * pochhammer(spec.alpha + k + 1, n - k))
    if f is Family.GENERIC_MONIC:
        return RATIONAL.one() if n == k else RATIONAL.zero()
    alpha, beta = spec.jacobi_parameters()
    return _jacobi_b(n, k, alpha, beta) / spec.normalization(k)


# ---------------------------------------------------------------------------
# connection coefficients between derivative sequences
# ---------------------------------------------------------------------------


def _jacobi_connection_gamma(n: int, k: int, p: int, q: int, alpha: Scalar,
                             beta: Scalar) -> Scalar:
    # gamma_{n,k}^(p,q): d^p/dx^p P_{n+p} = sum_k gamma d^q/dx^q P_{k+q},
    # a terminating 3F2 at unit argument.  Pole-free for alpha, beta > -1.
    s = alpha + beta
    num = (pochhammer(alpha + k + p + 1, n - k)
           * pochhammer(s + n + p + 1, p)
           * pochhammer(s + n + 2 * p + 1, k))
    den = (Fraction(2) ** (p - q) * factorial(n - k)
           * pochhammer(s + k + q + 1, q)
           * pochhammer(s + k + 2 * q + 1, k))
    f = hyp_pfq(
        [k - n, alpha + k + q + 1, s + k + n + 2 * p + 1],
        [alpha + k + p + 1, s + 2 * k + 2 * q + 2],
        1,
    )
    return num / den * f


def _symmetric_connection_gamma(n: int, k: int, p: int, q: int,
                                alpha: Scalar) -> Scalar:
    # Parity form for alpha = beta: zero for odd n-k, otherwise a pure
    # product of gamma quotients.  alpha = -1/2 has removable singularities
    # here, so that case is routed through the general Jacobi form.
    if (n - k) % 2:
        return RATIONAL.zero()
    if alpha == Fraction(-1, 2):
        return _jacobi_connection_gamma(n, k, p, q, alpha, alpha)
    h = (n - k) // 2
    if k + q == 0:
        # (alpha+1/2) Gamma(2 alpha+1) merges to Gamma(2 alpha+2)/2
        pref = RATIONAL.make(Fraction(1, 2))
        # Gamma(2 alpha+2) / Gamma(2 alpha+n+p+1)
        r1 = pochhammer(2 * alpha + n + p + 1, 1 - n - p)
    else:
        pref = alpha + k + q + Fraction(1, 2)
        r1 = pochhammer(2 * alpha + n + p + 1, k + q - n - p)
    r2 = pochhammer(alpha + k + q + 1, n + p - k - q)
    half = RATIONAL.make(Fraction(1, 2))
    top3 = alpha + p + half * (k + n + 1)
    r3 = pochhammer(top3 + (1 + q - p), p - q - 1)
    return (pochhammer(p - q, h) * pref * r1 * r2 * r3
            * Fraction(2) ** (p - q) / factorial(h))


def connection_gamma(spec: FamilySpec, n: int, k: int, p: int,
                     q: int) -> Scalar:
    """gamma_{n,k}^(p,q) linking d^p P_{n+p} to the d^q P_{k+q} basis."""
    if k < 0 or k > n:
        raise IndexOutOfRangeError(f"connection index out of range: n={n}, k={k}")
    if p < 0 or q < 0:
        raise IndexOutOfRangeError("derivative orders must be nonnegative")
    f = spec.family
    if f is Family.LAGUERRE:
        sign = -1 if (p + q) % 2 else 1
        return sign * pochhammer(p - q, n - k) / factorial(n - k)
    if f is Family.GENERIC_MONIC:
        if n != k:
            return RATIONAL.zero()
        return RATIONAL.make(Fraction(factorial(n + p), factorial(n + q)))
    alpha, beta = spec.jacobi_parameters()
    if f is Family.JACOBI:
        core = _jacobi_connection_gamma(n, k, p, q, alpha, beta)
    else:
        core = _symmetric_connection_gamma(n, k, p, q, alpha)
    scale = spec.normalization(n + p) / spec.normalization(k + q)
    return core * scale


# ---------------------------------------------------------------------------
# generic basis data and the b -> gamma bridge
# ---------------------------------------------------------------------------


@dataclass
class GenericBasisData:
    """User-suppliable connection data for an arbitrary degree-graded
    polynomial sequence: monomial-expansion b-coefficients and derivatives
    at x = -a up to ``max_degree``.  ``backend`` records the output backend
    of the family the data came from; the data and every coefficient
    computed from them are exact."""

    domain_offset_a: Scalar
    max_degree: int
    b_coeffs: dict
    endpoint_derivs: dict
    backend: object = RATIONAL

    def __post_init__(self):
        for n in range(self.max_degree + 1):
            lead = self.b_coeffs.get((n, n))
            if lead is None or lead == 0:
                raise MissingDataError(
                    f"b_coeffs must carry a nonzero leading entry (n,n) for "
                    f"n = {n}"
                )

    @classmethod
    def from_family(cls, spec: FamilySpec, max_degree: int) -> "GenericBasisData":
        b = {}
        d = {}
        for n in range(max_degree + 1):
            for k in range(n + 1):
                b[(n, k)] = monomial_expansion_b(spec, n, k)
                d[(n, k)] = endpoint_derivative(spec, n, k)
        return cls(spec.domain_offset_a, max_degree, b, d, spec.backend)

    def b(self, n: int, k: int) -> Scalar:
        try:
            return self.b_coeffs[(n, k)]
        except KeyError:
            raise MissingDataError(f"missing b-coefficient ({n}, {k})") from None

    def deriv(self, n: int, p: int) -> Scalar:
        if p > n:
            return RATIONAL.zero()
        try:
            return self.endpoint_derivs[(n, p)]
        except KeyError:
            raise MissingDataError(
                f"missing endpoint derivative ({n}, {p})"
            ) from None


def gamma_from_b(data: GenericBasisData, n: int, k: int, r: int,
                 s: int) -> Scalar:
    """gamma_{n-r,k}^(r,s) assembled from b-coefficients and endpoint
    derivatives of P_n:

        sum_{sigma=0}^{n-(r+k)} b_{sigma+k+s, k+s} / (sigma+k+s)!
                                * d^{r+k+sigma} P_n |_{x=-a}
    """
    if n < r:
        raise IndexOutOfRangeError(f"need n >= r, got n={n}, r={r}")
    if k < 0 or k > n - r:
        raise IndexOutOfRangeError(f"need 0 <= k <= n-r, got k={k}")
    total = RATIONAL.zero()
    for sigma in range(n - r - k + 1):
        total = total + (data.b(sigma + k + s, k + s)
                         / factorial(sigma + k + s)
                         * data.deriv(n, r + k + sigma))
    return total
