import math
import operator
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_fourier.errors import PrecisionExhausted, PreconditionError, PrimeMismatch
from padic_fourier.padic import (
    LowerBound,
    PadicScalar,
    SExponent,
    binomial,
    binomial_row_tracked,
    comb_int,
    comb_tracked,
    gen_binomial,
    gen_binomial_approximants,
    gen_binomial_profile,
    gen_binomial_valuation_bound,
    gen_binomial_valuation_floor,
    is_prime,
    log_floor,
    vp_factorial,
    vp_int,
    _block_poly,
    _legendre,
    _unit_product,
)

PRIMES = [2, 3, 5]


def vp(n, p):
    return vp_int(n, p)


class TestScalarBasics:
    def test_add_example(self):
        a = PadicScalar.from_int(3, 2, 2)
        b = PadicScalar.from_int(3, 7, 2)
        assert (a + b).is_zero()  # 9 ≡ 0 mod 9

    def test_additive_identity(self):
        x = PadicScalar.from_int(3, 14, 5)
        z = PadicScalar.zero(3, 9)
        assert (x + z) == x
        assert (x + z).abs_bound == 5

    def test_mul_valuations_add(self):
        x = PadicScalar(5, 1, 2, 3)
        y = PadicScalar(5, -1, 3, 3)
        out = x * y
        assert out.shift == 0 and out.unit == 6 and out.prec == 3

    def test_zero_canonical_form(self):
        z = PadicScalar.from_int(7, 0, 4)
        assert z.unit == 0 and z.prec == 0 and z.shift == 4

    def test_normalization_strips_p(self):
        x = PadicScalar(3, 0, 18, 4)
        assert x.shift == 2 and x.unit == 2 and x.prec == 2

    def test_valuation_examples(self):
        assert PadicScalar.from_int(3, 18, 4).valuation() == 2
        assert PadicScalar.zero(3, 5).valuation() == LowerBound(5)
        assert PadicScalar.from_int(2, 12, 5).valuation() == 2

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatch):
            PadicScalar.from_int(3, 1, 3) + PadicScalar.from_int(5, 1, 3)

    def test_nonprime_rejected(self):
        with pytest.raises(PreconditionError):
            PadicScalar.from_int(6, 1, 3)

    def test_from_fraction(self):
        x = PadicScalar.from_fraction(3, Fraction(1, 3), 4)
        assert x.shift == -1 and x.unit == 1
        y = PadicScalar.from_fraction(5, Fraction(7, 3), 4)
        assert (y * PadicScalar.from_int(5, 3, 4)).residue(4) == 7

    def test_truncate_and_residue(self):
        x = PadicScalar.from_int(3, 25, 6)
        assert x.residue(2) == 7
        t = x.truncate(2)
        assert t.abs_bound == 2
        with pytest.raises(PrecisionExhausted):
            t.residue(3)

    def test_equality_is_precision_relative(self):
        a = PadicScalar.from_int(3, 5, 2)
        b = PadicScalar.from_int(3, 5 + 9, 4)
        assert a == b  # agree mod 3^2
        c = PadicScalar.from_int(3, 6, 4)
        assert a != c

    def test_str_canonical_form(self):
        assert str(PadicScalar(3, 2, 2, 3)) == "3^2 * 2 + O(3^5)"
        assert str(PadicScalar.zero(3, 4)) == "0 + O(3^4)"

    def test_json_round_trip(self):
        x = PadicScalar(3, -1, 7, 5)
        assert PadicScalar.from_json(x.to_json()) == x


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        for n in range(-3, 10**5):
            assert is_prime(n) == (n > 1 and all(n % f for f in range(2, math.isqrt(n) + 1)))

    @pytest.mark.parametrize("n", [3215031751, 3825123056546413051, 318665857834031151167461])
    def test_strong_pseudoprimes_are_composite(self, n):
        # strong pseudoprimes to every prime base up to 7, 23 and 37
        assert not is_prime(n)

    @pytest.mark.parametrize("n", [2**61 - 1, 10**9 + 7, 2**31 - 1])
    def test_large_primes_are_prime(self, n):
        assert is_prime(n)

    def test_no_answer_past_the_bound(self):
        # a strong pseudoprime to the 13 bases, which would pass as prime
        with pytest.raises(PreconditionError):
            is_prime(3317044064679887385961981)
        assert not is_prime(2 * 3317044064679887385961981)  # a base divides it


def _vp_one_division_at_a_time(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


@settings(max_examples=300)
@given(
    p=st.sampled_from([2, 3, 5, 7, 101]),
    unit=st.integers(-10**6, 10**6).filter(bool),
    v=st.integers(0, 300),
)
@example(p=2, unit=1, v=0)
@example(p=3, unit=-9, v=63)
@example(p=5, unit=1, v=8)
def test_vp_int_matches_one_division_at_a_time(p, unit, v):
    n = unit * p**v
    assert vp_int(n, p) == _vp_one_division_at_a_time(n, p)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.one_of(st.integers(-5, 3000), st.integers(0, 2**70)),
)
@example(2, 0)
@example(3, 2)
@example(3, 3)
@example(2, 2**64 - 1)
def test_log_floor_brackets_n_between_powers(p, n):
    e = log_floor(n, p)
    if n < p:
        assert e == 0
    else:
        assert p**e <= n < p ** (e + 1)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.one_of(st.integers(0, 3000), st.integers(0, 2**66)),
)
@example(2, 2**64)
@example(3, 1)
@example(5, 0)
def test_newton_level_count_matches_the_first_power_past_the_cut(p, terms):
    # cli mucan's budget counts Newton levels 1..g, g the least with
    # p^(g+1) >= the term count; it once searched for it power by power
    cut = min(terms, 1 << 64)
    assert log_floor(cut - 1, p) == next(g for g in range(65) if p ** (g + 1) >= cut)


@pytest.mark.parametrize("p", [1, -1, 0, -2])
def test_vp_int_refuses_p_below_2(p):
    # p = 1 or -1 divides every integer, so the strip would never end
    with pytest.raises(PreconditionError, match=f"p = {p} is not prime"):
        vp_int(12, p)


@pytest.mark.parametrize("p", [1, -1, 0])
def test_exponent_with_p_below_2_is_refused(p):
    with pytest.raises(PreconditionError):
        SExponent(p, 1, 1)


def test_large_valuation_scalar_builds_fast():
    start = time.monotonic()
    x = PadicScalar(2, 0, 2**100000, 100001)
    assert time.monotonic() - start < 0.1
    assert (x.shift, x.unit, x.prec) == (100000, 1, 1)


def test_deep_exponent_reduces_fast():
    start = time.monotonic()
    q = SExponent(3, 2 * 3**40000, 30000)
    assert time.monotonic() - start < 0.1
    assert (q.num, q.logden) == (2 * 3**10000, 0)


scalar_st = st.builds(
    PadicScalar,
    st.sampled_from(PRIMES),
    st.integers(-3, 3),
    st.integers(0, 3**6),
    st.integers(1, 6),
)


@st.composite
def equality_operands(draw):
    """(a, b): a scalar and a scalar of mixed shift and precision 0-12 (a
    truncated zero at precision 0), an int, or a scalar over another
    prime; b is often a's value moved by a multiple of a power of p."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def scalar(q=p):
        prec = draw(st.integers(0, 12))
        unit = draw(st.integers(-(q**12), q**12))
        return PadicScalar(q, draw(st.integers(-6, 6)), unit, prec)

    a = scalar()
    kind = draw(st.sampled_from(["scalar", "near", "int", "near int", "prime"]))
    k, r = draw(st.integers(0, 16)), draw(st.integers(-(p**3), p**3))
    if kind == "scalar":
        b = scalar()
    elif kind == "near":  # a's digits on a's grid, moved by r p^(shift + k)
        b = PadicScalar(p, a.shift, a.unit + r * p**k, draw(st.integers(0, 12)))
    elif kind == "int":
        b = draw(st.integers(-(p**14), p**14))
    elif kind == "near int":
        b = a.unit * p ** max(a.shift, 0) + r * p**k
    else:
        b = scalar(draw(st.sampled_from([q for q in (2, 3, 5, 7) if q != p])))
    return a, b


@settings(max_examples=600, deadline=None)
@given(equality_operands())
@example((PadicScalar(3, -2, 9, 3), 1))  # negative shift against an int
@example((PadicScalar(2, 5, 0, 0), 64))  # a truncated zero
@example((PadicScalar(2, 0, 1, 3), PadicScalar(3, 0, 1, 3)))  # prime mismatch
def test_equality_is_a_zero_difference(ab):
    # == compares on a common grid without building a - b; it must agree
    # with the difference scalar, and != with its negation
    a, b = ab
    if isinstance(b, PadicScalar) and b.p != a.p:
        assert (a == b) is False and (b == a) is False and (a != b) is True
        with pytest.raises(PrimeMismatch):
            a - b
        return
    want = (a - b).is_zero()
    assert (a == b) is want and (b == a) is want
    assert (a != b) is (not want) and (b != a) is (not want)


def same_prime(a, b, c):
    return a.p == b.p == c.p


class TestRingAxioms:
    @settings(max_examples=120, deadline=None)
    @given(scalar_st, scalar_st, scalar_st)
    def test_add_associative(self, a, b, c):
        if not same_prime(a, b, c):
            return
        assert (a + b) + c == a + (b + c)

    @settings(max_examples=120, deadline=None)
    @given(scalar_st, scalar_st, scalar_st)
    def test_mul_distributes(self, a, b, c):
        if not same_prime(a, b, c):
            return
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=60, deadline=None)
    @given(scalar_st, scalar_st)
    def test_mul_commutative(self, a, b):
        if a.p != b.p:
            return
        assert a * b == b * a


class TestBinomial:
    def test_integer_example(self):
        x = PadicScalar.from_int(3, 5, 10)
        assert binomial(x, 2) == PadicScalar.from_int(3, 10, 9)

    def test_n_zero(self):
        x = PadicScalar(5, -2, 3, 4)  # non-integral is fine for n=0? no: requires integral
        y = PadicScalar.from_int(5, 99, 4)
        assert binomial(y, 0) == PadicScalar.one(5, 4)

    def test_minus_one(self):
        # (-1 choose n) = (-1)^n, by the falling-factorial product
        x = PadicScalar.from_int(3, -1, 4)
        out = binomial(x, 3)
        assert out.residue(3) == 26
        assert out.abs_bound == 4 - 1  # v_3(3!) = 1

    def test_contract_precision(self):
        x = PadicScalar.from_int(2, 9, 10)
        out = binomial(x, 6)  # v_2(6!) = 4
        assert out.abs_bound == 6
        assert out.residue(6) == math.comb(9, 6) % 64

    def test_precision_exhausted(self):
        x = PadicScalar.from_int(2, 9, 4)
        with pytest.raises(PrecisionExhausted):
            binomial(x, 6)

    def test_non_integral_rejected(self):
        with pytest.raises(PreconditionError):
            binomial(PadicScalar(3, -1, 1, 4), 2)

    def test_matches_comb_on_random_integers(self):
        import random

        rng = random.Random(7)
        for _ in range(50):
            p = rng.choice(PRIMES)
            a = rng.randrange(0, 200)
            n = rng.randrange(0, 12)
            x = PadicScalar.from_int(p, a, 30)
            expect = math.comb(a, n) % p ** (30 - vp_factorial_ref(n, p))
            assert binomial(x, n).residue(30 - vp_factorial_ref(n, p)) == expect

    def test_comb_int_negative(self):
        assert comb_int(-1, 3) == -1
        assert comb_int(-2, 2) == 3
        assert comb_int(4, 6) == 0

    def test_comb_int_matches_the_product_loop(self):
        def product_loop(a, n):
            # a(a-1)...(a-n+1), which n! always divides
            num = den = 1
            for j in range(n):
                num, den = num * (a - j), den * (j + 1)
            return num // den

        for a in range(-60, 200):
            for n in range(80):
                assert comb_int(a, n) == product_loop(a, n), (a, n)
        with pytest.raises(ValueError):
            comb_int(5, -1)


def vp_factorial_ref(n, p):
    s = 0
    q = n
    while q:
        q //= p
        s += q
    return s


class TestDworkCongruence:
    @pytest.mark.parametrize("p", PRIMES)
    def test_scaled_binomials_congruent(self, p):
        # C(p·g, p·b) - C(g, b) lies in p·g·Z_p
        for g in range(1, 41):
            for b in range(1, g + 1):
                diff = math.comb(p * g, p * b) - math.comb(g, b)
                if diff:
                    assert vp(diff, p) >= 1 + vp(g, p)


class TestGenBinomial:
    def test_q_zero(self):
        x = PadicScalar.from_fraction(3, Fraction(2, 9), 20)
        assert gen_binomial(x, 0, 5) == PadicScalar.one(3, 5)

    def test_x_equals_q(self):
        # (q choose q) = 1 at every scaling level
        x = PadicScalar.from_fraction(3, Fraction(1, 3), 40)
        assert gen_binomial(x, Fraction(1, 3), 8) == PadicScalar.one(3, 8)

    def test_integral_pair_congruent_to_classical(self):
        # the limit agrees with the classical value mod p^(1 + v(x));
        # beyond that level the approximants genuinely move
        x = PadicScalar.from_int(5, 7, 60)
        out = gen_binomial(x, 3, 6)
        assert (out - 35).val_floor() >= 1

    def test_limit_beats_classical_value(self):
        # at p=2, (2 choose 1) under the limit is 6 mod 8, not 2
        x = PadicScalar.from_int(2, 2, 60)
        out = gen_binomial(x, 1, 5)
        assert out.residue(3) == 6

    def test_stabilization_oracle(self):
        # independent oracle: raw approximants with exact integer comb
        p = 3
        x = Fraction(1, 3)
        q = Fraction(4, 3)
        vals = []
        for n in range(1, 9):
            g = int(x * p**n)
            k = int(q * p**n)
            vals.append(math.comb(g, k) % p**6)
        assert len(set(vals[3:])) == 1  # stabilized mod 3^6
        xs = PadicScalar.from_fraction(p, x, 80)
        assert gen_binomial(xs, q, 6).residue(6) == vals[-1]

    def test_increments_strictly_increase(self):
        p = 2
        x = PadicScalar.from_fraction(p, Fraction(3, 2), 60)
        apx = gen_binomial_approximants(x, Fraction(1, 2), range(1, 7))
        gaps = []
        for (_, a), (_, b) in zip(apx, apx[1:]):
            d = b - a
            assert not d.is_zero() or d.abs_bound >= 12
            if not d.is_zero():
                gaps.append(d.valuation())
        assert gaps == sorted(gaps) and len(set(gaps)) == len(gaps)

    def test_valuation_bound_examples(self):
        s = PadicScalar(3, 2, 1, 5)
        assert gen_binomial_valuation_bound(s, SExponent(3, 1, 0)) == 4
        s2 = PadicScalar(3, 0, 1, 5)
        assert gen_binomial_valuation_bound(s2, SExponent(3, 1, 0)) == 0
        s3 = PadicScalar(2, 5, 1, 5)  # v(s)=5 and q of valuation 1
        assert gen_binomial_valuation_bound(s3, SExponent(2, 2, 0)) == 4

    def test_valuation_floor_holds(self):
        import random

        rng = random.Random(11)
        for _ in range(30):
            p = rng.choice([2, 3])
            vs = rng.randrange(1, 4)
            u = rng.randrange(1, p**4)
            if u % p == 0:
                u += 1
            s = PadicScalar(p, vs, u, 24)
            q = SExponent(p, rng.choice([1, 2, p + 1]), rng.randrange(1, 3))
            floor = gen_binomial_valuation_floor(s, q)
            assert floor > 0
            out = gen_binomial(s, q, floor + 3)
            assert out.val_floor() >= floor
            if p == 2:
                assert gen_binomial_valuation_bound(s, q) == floor

    def test_scaled_bound_overstates_at_odd_p(self):
        # sharpness of the floor: s = p^2, q = 1 has valuation exactly 2,
        # below the (p-1)-scaled constant
        s = PadicScalar.from_int(3, 9, 30)
        out = gen_binomial(s, 1, 8)
        assert out.valuation() == 2
        assert gen_binomial_valuation_bound(s, SExponent(3, 1, 0)) == 4
        assert gen_binomial_valuation_floor(s, SExponent(3, 1, 0)) == 2

    def test_profile_matches_single_calls(self):
        p = 2
        x = PadicScalar.from_fraction(p, Fraction(3, 4), 60)
        prof = gen_binomial_profile(x, 2, 2, 5)
        for j, val in prof.items():
            q = SExponent(p, j, 2) if j else 0
            assert val == gen_binomial(x, Fraction(j, 4), 5)

    @pytest.mark.parametrize("x, logden, q_max", [
        (Fraction(1, 3), 1, 2),
        (Fraction(7), 2, 1),
        (Fraction(5, 9), 2, Fraction(4, 3)),
    ])
    def test_profile_at_prec_16_matches_single_calls_quickly(self, x, logden, q_max):
        # a falling-factorial walk at the shared level takes ~3^16 steps here
        p = 3
        x = PadicScalar.from_fraction(p, x, 18)
        start = time.monotonic()
        prof = gen_binomial_profile(x, logden, q_max, 16)
        assert time.monotonic() - start < 2
        assert sorted(prof) == list(range(int(q_max * p**logden) + 1))
        for j, val in prof.items():
            single = gen_binomial(x, Fraction(j, p**logden), 16)
            assert (val.shift, val.unit, val.prec) == (single.shift, single.unit, single.prec)

    def test_precision_exhausted_raised(self):
        x = PadicScalar.from_int(2, 3, 2)
        with pytest.raises(PrecisionExhausted):
            gen_binomial(x, Fraction(1, 2), 10)


class TestSExponent:
    def test_normalization(self):
        q = SExponent(3, 6, 1)
        assert q.num == 2 and q.logden == 0
        q2 = SExponent(3, 0, 5)
        assert q2.logden == 0

    def test_total_order_matches_rationals(self):
        qs = [SExponent(2, n, l) for n in range(0, 8) for l in range(0, 3)]
        fr = sorted(q.as_fraction() for q in qs)
        assert sorted(q.as_fraction() for q in sorted(qs, key=lambda q: q.as_fraction())) == fr

    @pytest.mark.parametrize("other", [SExponent(2, 1, 0), SExponent(3, 1, 1), 0.7, Fraction(1, 3)])
    @pytest.mark.parametrize("op", [operator.lt, operator.le, operator.gt, operator.ge])
    def test_exponents_have_no_order_of_their_own(self, op, other):
        # an order would compare across primes and with floats: callers
        # sort by as_fraction
        with pytest.raises(TypeError):
            op(SExponent(2, 1, 1), other)

    def test_add(self):
        a = SExponent(2, 1, 1) + SExponent(2, 1, 2)
        assert a == SExponent(2, 3, 2)

    def test_vp(self):
        assert SExponent(3, 1, 2).vp() == -2
        assert SExponent(3, 9, 0).vp() == 2
        assert SExponent(3, 0, 0).vp() is None

    def test_bad_denominator(self):
        with pytest.raises(PreconditionError):
            SExponent.from_fraction(3, Fraction(1, 2))

    def test_json(self):
        q = SExponent(5, 7, 2)
        assert SExponent.from_json(5, q.to_json()) == q


def walk_comb(p, X, M, K, work):
    """Oracle: C(x, K) for x ≡ X mod p^M by the falling-factorial walk, as
    comb_tracked returns it.  Each factor x - j counts for valuation
    min(v(X - j), M); the unit is known mod p^rel, rel = min(work, M - maxfv),
    maxfv being the largest factor valuation met."""
    if M <= 0:
        raise PrecisionExhausted("argument has no known digits")
    mod = p ** max(work, 1)
    val, unit, maxfv = 0, 1, 0
    for j in range(K):
        f = X - j
        fv = M if f == 0 else min(vp_int(f, p), M)
        fu = 1 if f == 0 else f // p**fv
        kv = vp_int(j + 1, p)
        maxfv = max(maxfv, fv)
        val += fv - kv
        unit = unit * fu * pow((j + 1) // p**kv, -1, mod) % mod
    rel = max(min(max(work, 1), M - maxfv), 0)
    return PadicScalar(p, val, unit % p**rel, rel)


def triple(s):
    return s.shift, s.unit, s.prec


@st.composite
def comb_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    M = draw(st.integers(1, {2: 13, 3: 8, 5: 5, 7: 4}[p]))
    X = draw(st.integers(0, p**M - 1))
    K = draw(st.integers(0, min(p**M - 1, 3000)))
    if draw(st.booleans()):
        K = min(K, X)  # no zero factor: a unit part is computed
    return p, X, M, K, draw(st.integers(0, 13))


class TestCombTrackedOracle:
    @settings(max_examples=300, deadline=None)
    @given(comb_case())
    @example((3, 5, 4, 10, 6))  # X < K: a zero factor
    @example((2, 0, 5, 3, 4))  # X = 0
    @example((7, 0, 3, 0, 2))  # X = 0, K = 0
    @example((5, 17, 3, 0, 4))  # K = 0
    @example((3, 700, 7, 243, 5))  # K = p^k
    @example((2, 4000, 12, 1024, 9))  # K = p^k
    @example((2, 3000, 12, 600, 9))  # p = 2, blocks 3 <= k < w
    @example((2, 1000, 12, 200, 2))  # p = 2, blocks k >= max(w, 3): Wilson sign +1
    @example((3, 700, 7, 300, 2))  # blocks k >= w: Wilson sign -1
    @example((5, 3000, 5, 1000, 1))  # blocks k >= w = 1
    @example((2, 255, 8, 255, 13))  # work > M
    @example((2, 59, 8, 7, 10))  # w = 5: F_2 keeps ceil(5/2) = 3 terms, not 2
    def test_matches_walk(self, case):
        assert triple(comb_tracked(*case)) == triple(walk_comb(*case))

    def test_no_digits_raises(self):
        with pytest.raises(PrecisionExhausted):
            comb_tracked(3, 5, 0, 2, 4)

    @pytest.mark.parametrize("p, prec", [(3, 16), (5, 12)])
    def test_high_precision_agrees_with_walk_at_prec_6(self, p, prec):
        x = PadicScalar.from_fraction(p, Fraction(1, p), prec + 2)
        q = SExponent(p, 1, 2)
        n = 6  # the level gen_binomial picks for x = 1/p at target 6
        walked = walk_comb(p, x.unit * p ** (x.shift + n), x.abs_bound + n, p ** (n - 2), 8)
        assert triple(gen_binomial(x, q, 6)) == triple(walked.truncate(6))
        assert triple(gen_binomial(x, q, prec).truncate(6)) == triple(walked.truncate(6))


def legendre_loop(p, X, M, n):
    """Oracle: the Legendre count level by level up to M, each level taking
    X mod p^t afresh, as comb_tracked once did."""
    val, maxfv = -vp_factorial(n, p), 0
    while maxfv < M and X % p ** (maxfv + 1) < n:
        maxfv += 1
        val += 1 + (n - 1 - X % p**maxfv) // p**maxfv
    return val, maxfv


@st.composite
def legendre_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    M = draw(st.integers(1, 60))
    X = draw(st.one_of(st.integers(0, p**M - 1), st.integers(0, min(p**M - 1, 300))))
    return p, X, M, draw(st.one_of(st.integers(0, 400), st.integers(0, 10**6)))


@settings(max_examples=500, deadline=None)
@given(legendre_case())
@example((2, 5, 3000, 10))  # X < n: levels past log_p X close in one step
@example((2, 0, 5, 1))  # X = 0
@example((3, 8, 2, 9))  # X = p^M - 1 < n
@example((5, 7, 4, 0))  # n = 0
@example((7, 48, 2, 49))  # n - 1 - X = 0
def test_legendre_matches_the_level_loop(case):
    assert _legendre(*case) == legendre_loop(*case)


def test_binomial_below_the_point_is_not_a_walk_over_levels():
    # X = 5 < n = 10 at M = 3000: the loop once took all 3000 levels, each
    # with a fresh 2^t (22 ms); the closed count takes a few
    x = PadicScalar.from_int(2, 5, 3000)
    t0 = time.perf_counter()
    for _ in range(20):
        assert binomial(x, 10) == PadicScalar.zero(2, 2992)
    assert time.perf_counter() - t0 < 0.1


def plain_unit_product(p, lo, hi, w):
    """Oracle: the unit parts of lo, ..., hi - 1, multiplied one by one mod p^w."""
    mod, out = p**w, 1
    for m in range(lo, hi):
        out = out * (m // p ** vp_int(m, p)) % mod
    return out


def greedy_unit_product_oracle(p, lo, hi, w):
    """Oracle: the unit product by the greedy block cover, which starts each
    level at lo itself.  From an end ≡ 1 mod p it meets blocks of every size
    p, p², ... on every level, so it is slow but shares no end rule with
    ``_unit_product``."""
    mod = p**w
    out = 1
    while lo < hi:
        a = lo
        while a < hi:
            k = 0
            while a % p ** (k + 1) == 0 and a + p ** (k + 1) <= hi:
                k += 1
            if k >= w:
                out = out if p == 2 and k >= 3 else -out
            elif k:
                r, y = 0, a % mod
                for c in reversed(_block_poly(p, w, k)):
                    r = (r * y + c) % mod
                out = out * r % mod
            elif a % p:
                out = out * a % mod
            a += p**k
        lo, hi = -(-lo // p), -(-hi // p)
    return out % mod


@st.composite
def unit_product_case(draw, top_exp, span, max_w):
    """(p, lo, hi, w) with 1 <= lo <= hi <= lo + span.  Each end is drawn at
    random or next to a multiple of p^e, e <= top_exp: ≡ 0, 1 or p - 1 mod p.
    Small w makes blocks with k >= w (the Wilson sign) common."""
    p = draw(st.sampled_from([2, 3, 5, 7]))

    def near_power(m):
        e = draw(st.integers(0, top_exp))
        return m - m % p**e + draw(st.sampled_from([0, 1, -1]))

    lo = draw(st.integers(1, p**top_exp))
    lo = max(1, near_power(lo) if draw(st.booleans()) else lo)
    hi = lo + draw(st.integers(0, min(span, p**top_exp)))
    hi = max(lo, near_power(hi) if draw(st.booleans()) else hi)
    return p, lo, hi, draw(st.one_of(st.integers(1, 3), st.integers(1, max_w)))


class TestUnitProduct:
    @settings(max_examples=400, deadline=None)
    @given(unit_product_case(top_exp=12, span=3000, max_w=20))
    @example((2, 1, 1, 5))  # lo == hi
    @example((3, 28, 28, 2))  # lo == hi ≡ 1 mod p
    @example((2, 1, 2**10 + 1, 2))  # p = 2, blocks k >= w = 2 and k >= 3: signs -1, +1
    @example((2, 2**9 + 1, 2**11 + 1, 3))  # p = 2, k >= 3 = w, both ends ≡ 1
    @example((3, 1, 3**6 + 1, 2))  # p = 3, Wilson sign -1
    @example((7, 7**4 - 1, 2 * 7**4 + 1, 1))  # ends ≡ p - 1 and ≡ 1, w = 1
    @example((5, 5**5, 2 * 5**5, 9))  # ends at multiples of a high power of p
    def test_matches_plain_product(self, case):
        assert _unit_product(*case) == plain_unit_product(*case)

    @settings(max_examples=300, deadline=None)
    @given(unit_product_case(top_exp=12, span=7**12, max_w=60))
    @example((2, 1, 2**12 + 1, 60))  # the den side [1, n + 1) at n = p^12
    @example((3, 3**12 - 3**7 + 1, 3**12 + 1, 40))  # the num side [X - n + 1, X + 1)
    @example((2, 2**11 + 1, 2**12 + 1, 3))  # p = 2, blocks k >= 3 = w
    @example((7, 1, 7**12 + 1, 1))  # every block k >= w = 1
    def test_matches_greedy_cover(self, case):
        assert _unit_product(*case) == greedy_unit_product_oracle(*case)


@st.composite
def row_case(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    M = draw(st.integers(1, {2: 12, 3: 8, 5: 5, 7: 4}[p]))
    X = draw(st.integers(-(p ** (M + 2)), p ** (M + 2)))
    return p, X, M, draw(st.integers(0, 60)), draw(st.integers(0, 14)), draw(st.integers(-40, 40))


class TestBinomialRow:
    @settings(max_examples=200, deadline=None)
    @given(row_case())
    @example((2, 5, 3, 12, 4, 1))  # a zero factor at j = X, then a lift past it
    @example((3, -7, 2, 20, 6, -3))  # a negative representative
    @example((5, 0, 1, 0, 0, 9))  # one entry, work < 1
    def test_entries_are_certified_for_every_lift(self, case):
        """Entry n is C(X, n) mod p^work, and it is C(x, n) for every
        x = X + t p^M mod p^min(work, M - v_p(n!))."""
        p, X, M, n_max, work, t = case
        row = list(binomial_row_tracked(p, X, M, n_max, work))
        assert len(row) == n_max + 1
        for n, r in enumerate(row):
            assert r == comb_int(X, n) % p ** max(work, 1)
            k = min(max(work, 1), M - vp_factorial(n, p))
            if k > 0:
                assert (r - comb_int(X + t * p**M, n)) % p**k == 0

    def test_no_digits_raises(self):
        with pytest.raises(PrecisionExhausted):
            list(binomial_row_tracked(3, 5, 0, 2, 4))
