import math
import random
from fractions import Fraction

import pytest

from polyconv import basis, closed_forms
from polyconv.errors import (
    DenominatorPoleError,
    GammaPoleError,
    NonTerminatingSeriesError,
)
from polyconv.scalars import (RATIONAL, FloatBackend, hyp_pfq, log10_abs,
                              log10_abs_ints, pochhammer)


def frac(s):
    return RATIONAL.make(s)


def _nearest(v, bits):
    """v rounded to `bits` significant bits, to nearest with ties to even,
    in integers."""
    if v == 0:
        return v
    a = abs(v)
    e = a.numerator.bit_length() - a.denominator.bit_length()
    if a < Fraction(2) ** e:
        e -= 1
    scale = Fraction(2) ** (bits - 1 - e)  # a * scale in [2^(bits-1), 2^bits)
    y = a * scale
    q, r = divmod(y.numerator, y.denominator)
    if 2 * r > y.denominator or (2 * r == y.denominator and q % 2):
        q += 1
    return (q if v > 0 else -q) / scale


class TestScalar:
    def test_decimal_strings_parse_exactly(self):
        assert frac("2.5") == Fraction(5, 2)
        assert frac("5/2") == Fraction(5, 2)
        assert frac("-0.125") == Fraction(-1, 8)

    def test_exact_ring_roundtrip(self):
        random.seed(1)
        for _ in range(200):
            a = frac(Fraction(random.randint(-999, 999), random.randint(1, 999)))
            b = frac(Fraction(random.randint(-999, 999), random.randint(1, 999)))
            assert (a + b) - b == a
            if b != 0:
                assert (a / b) * b == a

    def test_mixed_backend_arithmetic_is_exact(self):
        # a rounded value is a dyadic rational; arithmetic on it is exact
        # and its result is rational whatever the operands' backends
        f = FloatBackend(64)
        third = f.make(Fraction(1, 3))
        for got in (frac(1) + f.make(1), f.make(1) * frac(2)):
            assert got == 2 and got.backend == RATIONAL
        assert (third * 3).as_fraction() == 3 * third.as_fraction()
        assert (third * 3).backend == RATIONAL
        assert third != Fraction(1, 3)
        assert f.make(Fraction(3, 8)) == frac("3/8")
        assert hash(f.make(Fraction(3, 8))) == hash(frac("3/8"))

    def test_int_and_fraction_coercion(self):
        assert frac("1/3") + 1 == Fraction(4, 3)
        assert 2 * frac("1/3") == Fraction(2, 3)
        assert frac("1/3") + Fraction(1, 6) == Fraction(1, 2)

    def test_float_backend_rounds_to_declared_precision(self):
        f = FloatBackend(64)
        third = f.make(Fraction(1, 3))
        err = abs(third.as_fraction() - Fraction(1, 3))
        assert err < Fraction(1, 2 ** 63)
        assert err > 0

    @pytest.mark.parametrize("bits", [53, 64, 128, 256])
    def test_float_backend_rounds_once_to_nearest(self, bits):
        # numerators longer than the precision, where rounding the
        # numerator before the division would round twice; at 53 bits the
        # reference is CPython's int true division, elsewhere _nearest
        rng = random.Random(bits)
        f = FloatBackend(bits)
        values = [Fraction(19506442873120733, 3),
                  Fraction(2 ** bits + 1, 4), Fraction(-(2 ** bits + 3), 2)]
        for _ in range(300):
            num = rng.getrandbits(rng.randint(bits + 1, 4 * bits)) | 1
            den = rng.randint(1, 2 ** rng.randint(1, 2 * bits))
            values.append(Fraction(rng.choice((-1, 1)) * num, den))
        for v in values:
            want = _nearest(v, bits)
            if bits == 53:
                assert want == Fraction(float(v)), v
            assert f.make(v).as_fraction() == want, v
            assert _nearest(Fraction(f.format(v)), bits) == want, v

    def test_float_precision_floor(self):
        with pytest.raises(ValueError):
            FloatBackend(32)

    def test_float_to_rational_is_exact(self):
        f = FloatBackend(64)
        x = f.make(Fraction(3, 8))  # dyadic, no rounding
        assert x.as_fraction() == Fraction(3, 8)
        assert x.to_backend(RATIONAL) == Fraction(3, 8)

    def test_immutability_and_hash(self):
        x = frac("5/2")
        with pytest.raises(AttributeError):
            x.value = 1
        assert hash(frac("5/2")) == hash(x)

    def test_rational_make_wraps_a_fraction_as_it_is(self):
        x = Fraction(-7, 3)
        assert RATIONAL.make(x).value is x
        assert RATIONAL.make(x).backend == RATIONAL

    def test_rational_make_reads_other_inputs_through_exact(self):
        class Tagged(Fraction):
            pass

        f = FloatBackend(64)
        rational = RATIONAL.make(Fraction(5, 4))
        rounded = f.make(Fraction(1, 3))
        cases = [(4, Fraction(4)), ("-6/8", Fraction(-3, 4)),
                 (rational, Fraction(5, 4)),
                 (rounded, rounded.as_fraction()),
                 (Tagged(2, 6), Fraction(1, 3))]
        for value, want in cases:
            got = RATIONAL.make(value)
            assert type(got.value) is Fraction, value
            assert got.value == want and got.backend == RATIONAL, value
        assert RATIONAL.make(rational) is rational
        with pytest.raises(TypeError):
            RATIONAL.make(0.5)

    def test_float_make_still_rounds_a_fraction(self):
        f = FloatBackend(53)
        x = Fraction(1, 3)
        got = f.make(x)
        assert got.value is not x
        assert got.value == Fraction(1 / 3) and got.backend == f
        assert f.make(got) is got


class TestPochhammer:
    def test_empty_product(self):
        for z in ["0", "1", "-7/3", "5/2"]:
            assert pochhammer(frac(z), 0) == 1

    def test_matches_factorial(self):
        for n in range(10):
            assert pochhammer(frac(1), n) == math.factorial(n)

    def test_half_integer_example(self):
        assert pochhammer(frac("5/2"), 3) == Fraction(315, 8)

    def test_splitting_identity(self):
        random.seed(3)
        samples = [Fraction(random.randint(-12, 12), random.randint(1, 7))
                   for _ in range(12)]
        for z in samples:
            for m in (0, 1, 3, 5):
                for n in (0, 2, 4):
                    lhs = pochhammer(frac(z), m + n)
                    rhs = pochhammer(frac(z), m) * pochhammer(frac(z) + m, n)
                    assert lhs == rhs

    def test_negative_order_inverts(self):
        # (z)_{-t} (z-t)_t = 1 wherever (z-t)_t does not vanish
        random.seed(4)
        for _ in range(40):
            z = frac(Fraction(random.randint(-30, 30), random.randint(2, 9)))
            t = random.randint(0, 12)
            if pochhammer(z - t, t) == 0:
                with pytest.raises(GammaPoleError):
                    pochhammer(z, -t)
            else:
                assert pochhammer(z, -t) * pochhammer(z - t, t) == 1

    def test_negative_order_pole(self):
        # (3)_{-4} = 1/(-1)_4 and (-1)_4 = 0
        with pytest.raises(GammaPoleError):
            pochhammer(frac(3), -4)

    def test_result_does_not_depend_on_cache_state(self):
        z = frac("1/3")
        want = Fraction(1)
        for k in range(3000):
            want *= Fraction(1, 3) + k
        pochhammer.cache_clear()
        assert pochhammer(z, 3000) == want
        assert pochhammer(z, 3000) == want
        # one step of the recurrence at an order far past the default
        # recursion limit, from a cold cache
        pochhammer.cache_clear()
        assert pochhammer(z, 3000) == pochhammer(z, 2999) * (z + 2999)

    def test_closed_forms_share_the_helper(self):
        assert closed_forms._poch is pochhammer

    def test_cache_stays_bounded_at_degree_1000(self):
        # each call keeps its own (z, n) keys, not every prefix (z)_k, k < n
        spec = basis.jacobi(Fraction(5, 2), Fraction(3, 2))
        ks = range(0, 1001, 50)
        closed_forms.clear_caches()
        for k in ks:
            basis.monomial_expansion_b(spec, 1000, k)
            basis.endpoint_derivative(spec, 1000, k)
        assert pochhammer.cache_info().currsize <= 4 * 2 * len(ks)

    def test_cache_is_capped(self):
        # many distinct keys evict the oldest instead of growing without end
        closed_forms.clear_caches()
        for k in range(10_000):
            pochhammer(Fraction(k, 7), 10)
        assert pochhammer.cache_info().currsize <= 8192

    def test_sign_flip_identity(self):
        # (z)_n = (-1)^n (-z-n+1)_n
        for z in [Fraction(-3), Fraction(-1, 2), Fraction(0), Fraction(1, 2),
                  Fraction(5, 2)]:
            for n in range(13):
                lhs = pochhammer(frac(z), n)
                rhs = (-1) ** n * pochhammer(frac(-z - n + 1), n)
                assert lhs == rhs


def half_gamma(two_z):
    """Exact Gamma(two_z/2) as (rational, power of sqrt(pi)); None at poles."""
    if two_z % 2 == 0:
        z = two_z // 2
        if z <= 0:
            return None
        return Fraction(math.factorial(z - 1)), 0
    t2 = two_z  # odd; Gamma(t + 1/2) with t = (two_z - 1) // 2
    t = (t2 - 1) // 2
    if t >= 0:
        return Fraction(math.factorial(2 * t), 4 ** t * math.factorial(t)), 1
    # climb up from negative half-integers: Gamma(z) = Gamma(z+1)/z
    up = half_gamma(two_z + 2)
    return up[0] / Fraction(two_z, 2), up[1]


def whipple_closed_form(m, j, nu):
    """3F2(-m, m+1, nu+1; nu-j+1, nu+j+2; 1) via the classical gamma
    product for 3F2(a, 1-a, c; d, 2c-d+1; 1) with a = -m, c = nu+1,
    d = nu-j+1.  Arguments are tracked as doubled integers."""
    # pi Gamma(d) Gamma(2c-d+1)
    # / (2^(2c-1) Gamma((a+d)/2) Gamma((a+2c-d+1)/2) Gamma((1-a+d)/2)
    #            Gamma(c+1-(a+d)/2))
    nums = [half_gamma(2 * (nu - j + 1)), half_gamma(2 * (nu + j + 2))]
    dens = [half_gamma(-m + nu - j + 1),
            half_gamma(-m + nu + j + 2),
            half_gamma(m + nu - j + 2),
            half_gamma(nu + j + m + 3)]
    if any(d is None for d in dens):
        return Fraction(0)  # denominator gamma pole kills the product
    num = Fraction(1)
    pi_power = 2  # the explicit pi
    for r, p in nums:
        num *= r
        pi_power += p
    den = Fraction(1)
    for r, p in dens:
        den *= r
        pi_power -= p
    assert pi_power == 0, "pi powers must cancel exactly"
    return num / den / Fraction(2) ** (2 * nu + 1)


class TestHypPfq:
    def test_zero_numerator_parameter(self):
        assert hyp_pfq([0, frac("7/3")], [frac("1/5")], frac(1)) == 1

    def test_2f1_with_minus_one(self):
        # 2F1(-1, b; c; x) = 1 - b x / c
        for b, c, x in [("3/2", "5/2", "1/3"), ("2", "7", "-4/5"),
                        ("-5/3", "1/2", "2")]:
            got = hyp_pfq([-1, frac(b)], [frac(c)], frac(x))
            want = 1 - frac(b) * frac(x) / frac(c)
            assert got == want

    def test_termination_uses_smallest_index(self):
        # both -2 and -5 appear; (a)_k kills terms past k = 2
        got = hyp_pfq([-2, -5], [frac(3)], frac(1))
        want = 1 + Fraction((-2) * (-5), 3) + \
            Fraction((-2) * (-1) * (-5) * (-4), 3 * 4 * 2)
        assert got == want

    def test_non_terminating_rejected(self):
        with pytest.raises(NonTerminatingSeriesError):
            hyp_pfq([frac("1/2"), frac(2)], [frac(3)], frac(1))

    def test_denominator_pole_detected(self):
        with pytest.raises(DenominatorPoleError):
            hyp_pfq([-3, frac(1)], [frac(-1)], frac(1))

    def test_denominator_pole_past_termination_is_fine(self):
        # pole would appear at k = 2 but the series stops at k = 1
        assert hyp_pfq([-1, frac(1)], [frac(-2)], frac(1)) == Fraction(3, 2)

    def test_pfqspec_interface(self):
        # any parameter sequences will do, tuples included;
        # 2F1(-2, 3/2; 1/2; 1) = (1/2 - 3/2)_2 / (1/2)_2 = 0 (Chu-Vandermonde)
        assert hyp_pfq((frac(-2), frac("3/2")), (frac("1/2"),), frac(1)) == 0

    def test_backends_agree_within_conditioning(self):
        # parameters made in a float backend are their exact binary values
        # (here halves, so unrounded) and the sum never rounds: the two
        # sums agree exactly, whatever the conditioning
        random.seed(9)
        fb = FloatBackend(256)
        for _ in range(60):
            m = random.randint(0, 9)
            a = Fraction(random.randint(1, 12), 2)
            b = Fraction(random.randint(1, 12), 2)
            c = Fraction(random.randint(1, 12), 2)
            nums = [-m, a, b]
            dens = [c, a + c]
            exact = hyp_pfq(nums, dens, frac(1))
            approx = hyp_pfq([fb.make(Fraction(v)) for v in nums],
                             [fb.make(Fraction(v)) for v in dens],
                             fb.one())
            assert approx == exact

    def test_whipple_sum(self):
        # termwise summation against the independent gamma product
        for nu_ in range(0, 5):
            for j in range(0, nu_ + 1):
                for m in range(0, 5):
                    lhs = hyp_pfq([-m, m + 1, nu_ + 1],
                                  [nu_ - j + 1, j + nu_ + 2],
                                  frac(1))
                    rhs = whipple_closed_form(m, j, nu_)
                    assert lhs == rhs, (m, j, nu_)

    def test_matches_termwise_reference(self):
        # seeded parameter sets with negative rationals and arguments other
        # than 1, up to t = 600 terms
        rng = random.Random(37)

        def ratio():
            return Fraction(rng.randint(-60, 60), rng.randint(1, 12))

        for t in [0, 1, 2, 3, 9, 40, 150, 600, 600]:
            for _ in range(4):
                nums = [-t] + [ratio() for _ in range(rng.randint(0, 3))]
                dens = [b for b in (ratio() for _ in range(rng.randint(0, 3)))
                        if not (b.denominator == 1 and -t < b <= 0)]
                x = rng.choice([Fraction(-1), Fraction(2), Fraction(-5, 2),
                                Fraction(3, 7), ratio() or Fraction(1, 3)])
                rng.shuffle(nums)
                assert hyp_pfq(nums, dens, x) == _pfq_termwise(nums, dens, x)

    def test_poles_and_non_termination_still_raised(self):
        rng = random.Random(41)
        for _ in range(20):
            t = rng.randint(1, 600)
            # odd over even is never an integer, so the series ends at t
            nums = [-t, Fraction(2 * rng.randint(-60, 60) + 1,
                                 2 * rng.randint(1, 6))]
            with pytest.raises(DenominatorPoleError):
                hyp_pfq(nums, [Fraction(7, 3), -rng.randint(0, t - 1)],
                        Fraction(-2, 3))
            # a positive integer and an odd multiple of 1/2: no end
            nums = [rng.randint(1, 50),
                    Fraction(2 * rng.randint(-50, 50) + 1, 2)]
            with pytest.raises(NonTerminatingSeriesError):
                hyp_pfq(nums, [Fraction(-1, 2)], Fraction(3, 5))


def _pfq_termwise(nums, dens, x):
    """sum_k prod (a)_k / prod (b)_k x^k / k!, term by term in Fractions,
    up to the first numerator parameter that is a nonpositive integer."""
    t = int(min(-a for a in nums if a.denominator == 1 and a <= 0))
    term = total = Fraction(1)
    for k in range(t):
        for a in nums:
            term *= a + k
        for b in dens:
            term /= b + k
        term *= x / (k + 1)
        total += term
    return total


class TestChuVandermonde:
    def test_identity_exact(self):
        # (alpha+beta+2)_n / n! = sum_k (alpha+1)_k/k! (beta+1)_(n-k)/(n-k)!
        params = [Fraction(0), Fraction(1), Fraction(5, 2), Fraction(-1, 2)]
        for a in params:
            for b in params:
                for n in range(17):
                    lhs = pochhammer(frac(a + b + 2), n) / math.factorial(n)
                    rhs = RATIONAL.zero()
                    for k in range(n + 1):
                        rhs = rhs + (pochhammer(frac(a + 1), k)
                                     / math.factorial(k)
                                     * pochhammer(frac(b + 1), n - k)
                                     / math.factorial(n - k))
                    assert lhs == rhs


def test_log10_abs_error_bound():
    # the bound its docstring states, against mpmath at 60 digits, on
    # seeded fractions with terms below and far past 2^1024
    import mpmath

    rng = random.Random(1024)
    with mpmath.workdps(60):
        for i in range(400):
            top = 3000 if i % 2 else 300
            v = Fraction(rng.randint(1, 10 ** rng.randint(1, top)),
                         rng.randint(1, 10 ** rng.randint(1, top)))
            n, d = v.numerator, v.denominator
            got = log10_abs(-v if i % 3 else v)
            err = abs(mpmath.mpf(got) - mpmath.log10(n) + mpmath.log10(d))
            bound = (2.0 ** -51 * (math.log10(n) + math.log10(d))
                     + math.ulp(got) / 2)
            assert err <= bound, v


def test_log10_abs_ints_matches_the_fraction_route():
    # pairs not in lowest terms, negative numerators, and terms below and
    # far past 2^1024: the same float, bit for bit, as `log10_abs` of the
    # Fraction and as log10 N - log10 D of its lowest terms
    rng = random.Random(1025)
    pairs = [(7, 7), (-5, 5), (2 ** 1100, 2 ** 1100 * 3),
             (-(10 ** 400) * 6, 10 ** 400 * 4)]
    for i in range(300):
        top = 3000 if i % 2 else 300
        g = rng.randint(1, 10 ** rng.randint(0, 400))
        num = rng.randint(1, 10 ** rng.randint(1, top)) * g
        pairs.append((-num if i % 3 else num,
                      rng.randint(1, 10 ** rng.randint(1, top)) * g))
    for num, den in pairs:
        v = abs(Fraction(num, den))
        want = math.log10(v.numerator) - math.log10(v.denominator)
        got = log10_abs_ints(num, den)
        assert got.hex() == want.hex() == log10_abs(Fraction(num, den)).hex()
