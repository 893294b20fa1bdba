import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from padic_fourier import _series, iwasawa
from padic_fourier.cli import main
from padic_fourier.errors import (
    InternalConsistencyError,
    ParseError,
    PrecisionExhausted,
    PreconditionError,
    PrimeMismatch,
    UncertifiedTailError,
)
from padic_fourier.iwasawa import (
    BivariateSeries,
    IwasawaElt,
    MahlerFn,
    ball_ideal_equal_generators,
    ball_ideal_failures,
    ball_ideal_middle_generators,
    dirac,
    integrate,
    intersection_vs_middle_scan,
    mahler_coeffs_by_differences,
    mahler_coeffs_from_samples,
    middle_ideal_contains,
    middle_ideal_valuation,
    ptadic_power_generators,
)
from padic_fourier.padic import (
    LowerBound, PadicScalar, _point, binomial_row_tracked, comb_int, vp_factorial, vp_int,
)


class TestDiracAndConvolution:
    def test_dirac_zero_is_unit(self):
        assert dirac(0, 8, 6, p=3) == IwasawaElt.one(3, 6, 8)

    def test_dirac_one(self):
        d1 = dirac(1, 8, 6, p=3)
        assert d1 == IwasawaElt(3, 6, 8, [1, 1])

    def test_dirac_two(self):
        assert dirac(2, 8, 6, p=3) == IwasawaElt(3, 6, 8, [1, 2, 1])

    def test_delta_one_squared_is_delta_two(self):
        d1 = dirac(1, 8, 6, p=3)
        assert d1 * d1 == dirac(2, 8, 6, p=3)

    def test_unit_law(self):
        mu = IwasawaElt(5, 4, 6, [2, 0, 3])
        assert mu * IwasawaElt.one(5, 4, 6) == mu

    def test_monomial_product(self):
        T = IwasawaElt.monomial(2, 1, 5, 8)
        assert T * T == IwasawaElt.monomial(2, 2, 5, 8)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_character_law_random(self, p):
        rng = random.Random(p)
        for _ in range(20):
            a = rng.randrange(0, p**5)
            b = rng.randrange(0, p**5)
            lhs = dirac(a, 10, 6, p=p) * dirac(b, 10, 6, p=p)
            assert lhs == dirac(a + b, 10, 6, p=p)

    def test_dirac_from_scalar_matches_int(self):
        a = PadicScalar.from_int(3, 14, 12)
        assert dirac(a, 6, 4, p=3) == dirac(14, 6, 4, p=3)

    def test_dirac_precision_exhausted(self):
        a = PadicScalar.from_int(2, 3, 3)
        with pytest.raises(PrecisionExhausted):
            dirac(a, 16, 3, p=2)

    def test_negative_exponents_are_refused(self):
        # a negative index used to wrap round to T^(degree - 1)
        with pytest.raises(PreconditionError):
            IwasawaElt.monomial(2, -1, 8, 8)
        with pytest.raises(PreconditionError):
            MahlerFn.basis(2, -1, 8)


class TestMahler:
    def test_constant_function(self):
        f = mahler_coeffs_from_samples(3, [1] * 9)
        assert f.coeffs == {0: 1}

    def test_identity_function(self):
        f = mahler_coeffs_from_samples(3, list(range(9)))
        assert f.coeffs == {1: 1}

    def test_indicator_matches_difference_oracle(self):
        samples = [1, 0, 0, 1, 0, 0, 1, 0, 0]
        f = mahler_coeffs_from_samples(3, samples)
        oracle = mahler_coeffs_by_differences(3, samples, f.prec)
        assert [f.coeffs.get(n, 0) for n in range(9)] == oracle

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_round_trip_on_samples(self, p):
        rng = random.Random(17 * p)
        for M in (1, 2):
            n = p**M
            samples = [rng.randrange(0, p ** (M + 1)) for _ in range(n)]
            f = mahler_coeffs_from_samples(p, samples)
            got = [f.eval(a).residue(M + 1) for a in range(n)]
            assert got == [s % p ** (M + 1) for s in samples]
            oracle = mahler_coeffs_by_differences(p, samples, M + 1)
            assert [f.coeffs.get(i, 0) for i in range(n)] == oracle

    def test_sample_count_must_be_prime_power(self):
        with pytest.raises(PreconditionError):
            mahler_coeffs_from_samples(3, [1, 2, 3, 4])

    @pytest.mark.parametrize("prec", [0, -3])
    def test_precision_below_1_is_refused(self, prec):
        # as IwasawaElt and UnifFn refuse it; prec -3 made the modulus 2**-3,
        # a float, and the coefficient was dropped
        with pytest.raises(PreconditionError):
            MahlerFn.basis(2, 3, prec)

    def test_periodic_eval_reduces_argument(self):
        samples = [1, 0, 0, 1, 0, 0, 1, 0, 0]
        f = mahler_coeffs_from_samples(3, samples)
        assert f.eval(6).residue(1) == 1
        assert f.eval(7).residue(1) == 0
        big = PadicScalar.from_int(3, 9 * 47 + 3, 8)
        assert f.eval(big).residue(3) == 1  # ≡ 3 mod 9, in 3Z_3

    def test_finite_difference_shifts_basis(self):
        f = MahlerFn.basis(3, 3, 6)
        assert f.finite_difference(2) == MahlerFn.basis(3, 1, 6)
        assert f.finite_difference(0) == f

    def test_finite_difference_annihilates(self):
        f = MahlerFn.basis(3, 1, 6)
        out = f.finite_difference(2)
        assert out.coeffs == {}

    def test_finite_difference_periodic_matches_sample_differences(self):
        samples = [3, 1, 4, 1, 5, 9, 2, 6, 5]
        f = mahler_coeffs_from_samples(3, samples)
        df = f.finite_difference(1)
        expect = [(samples[(i + 1) % 9] - samples[i]) % 27 for i in range(9)]
        got = [df.eval(i).residue(df.prec) for i in range(9)]
        assert got == [e % 3**df.prec for e in expect]

    def test_eval_constant_and_identity(self):
        one = MahlerFn.from_coeffs(2, [1], 6)
        assert one.eval(PadicScalar.from_int(2, 37, 10)) == PadicScalar.from_int(2, 1, 6)
        ident = MahlerFn.basis(3, 1, 6)
        assert ident.eval(PadicScalar.from_int(3, 5, 10)).residue(6) == 5


class TestIntegration:
    def test_orthogonality_small(self):
        p, N = 3, 8
        for i in range(6):
            f = MahlerFn.basis(p, i, N)
            for j in range(6):
                val = integrate(f, IwasawaElt.monomial(p, j, N, 8))
                assert val == PadicScalar.from_int(p, 1 if i == j else 0, N)

    def test_dirac_integration_evaluates(self):
        samples = [1, 0, 0, 1, 0, 0, 1, 0, 0]
        f = mahler_coeffs_from_samples(3, samples)
        for a in (0, 4, 6, 8):
            val = integrate(f, dirac(a, 12, f.prec, p=3))
            assert val == f.eval(a)

    def test_uncertified_tail_raises(self):
        # a unit coefficient stored beyond the measure's degree bound pairs
        # with an unknown measure digit: nothing is certified
        f = MahlerFn(3, 2, {5: 1}, 6, exact_tail=False)
        mu = IwasawaElt(3, 2, 4, [1, 1, 1, 1])  # unknown tail
        with pytest.raises(UncertifiedTailError):
            integrate(f, mu)

    def test_periodic_vs_truncated_measure_loses_precision(self):
        samples = [1, 0, 0, 1, 0, 0, 1, 0, 0]
        f = mahler_coeffs_from_samples(3, samples)  # period 9, prec 3
        mu = IwasawaElt(3, 3, 30, [1] * 30)  # nonzero digits beyond the period
        val = integrate(f, mu)
        assert val.abs_bound == 1  # only the first unknown-coefficient floor survives


class TestBallMeasure:
    def test_dirac_ball_location(self):
        p = 3
        for c in (0, 1, 5, 8):
            mu = dirac(c, 12, 6, p=p)
            for h in (0, 1, 2):
                for a in range(p**h):
                    expect = 1 if c % p**h == a else 0
                    assert mu.ball_measure(a, h) == PadicScalar.from_int(p, expect, 6)

    def test_T_ball_values(self):
        T = IwasawaElt.monomial(3, 1, 6, 8)
        assert T.ball_measure(1, 1) == PadicScalar.from_int(3, 1, 6)
        assert T.ball_measure(0, 1) == PadicScalar.from_int(3, -1, 6)
        assert T.ball_measure(2, 1) == PadicScalar.from_int(3, 0, 6)
        assert T.ball_measure(0, 0) == PadicScalar.from_int(3, 0, 6)

    @pytest.mark.parametrize("p", [3, 5])
    def test_tpower_ball_valuation_grid(self, p):
        # v(T^(p^(h+l)) on any ball of radius p^-h) >= l + 1
        for h in range(0, 3):
            for l in range(0, 3):
                m = p ** (h + l)
                mu = IwasawaElt.monomial(p, m, l + 3, m + 1)
                for a in range(p**h):
                    val = mu.ball_measure(a, h)
                    assert val.val_floor() >= l + 1

    def test_truncated_tail_certificate(self):
        # an unknown tail converts degree into p-adic precision
        mu = IwasawaElt(3, 8, 28, [0, 1], exact_tail=False)
        val = mu.ball_measure(1, 1)
        # degree 28 >= 3^(1+2) certifies l+1 = 3 digits
        assert val.abs_bound == 3
        with pytest.raises(UncertifiedTailError):
            IwasawaElt(3, 8, 4, [0, 1], exact_tail=False).ball_measure(0, 2)


class TestWValuation:
    def test_examples(self):
        p = 3
        assert IwasawaElt(p, 6, 8, [0, 0, 0, 9]).w_valuation() == 5
        assert IwasawaElt(p, 6, 8, [1, 3]).w_valuation() == 0
        assert IwasawaElt(p, 4, 6, []).w_valuation() == LowerBound(4)

    def test_zero_box_marker_uses_degree(self):
        assert IwasawaElt(3, 9, 4, []).w_valuation() == LowerBound(4)

    def test_multiplicative_on_resolved(self):
        rng = random.Random(5)
        for _ in range(40):
            p = rng.choice([2, 3])
            d, N = 10, 9
            a = IwasawaElt(p, N, d, [rng.randrange(p**N) for _ in range(3)])
            b = IwasawaElt(p, N, d, [rng.randrange(p**N) for _ in range(3)])
            wa, wb = a.w_valuation(), b.w_valuation()
            if isinstance(wa, LowerBound) or isinstance(wb, LowerBound):
                continue
            wab = (a * b).w_valuation()
            if isinstance(wab, LowerBound):
                assert wab.bound >= wa + wb
            else:
                assert wab == wa + wb

    def test_ultrametric_on_sums(self):
        rng = random.Random(6)
        for _ in range(40):
            p = rng.choice([2, 3])
            a = IwasawaElt(p, 8, 8, [rng.randrange(p**8) for _ in range(4)])
            b = IwasawaElt(p, 8, 8, [rng.randrange(p**8) for _ in range(4)])
            wa, wb = a.w_valuation(), b.w_valuation()
            if isinstance(wa, LowerBound) or isinstance(wb, LowerBound):
                continue
            w = (a + b).w_valuation()
            lo = w.bound if isinstance(w, LowerBound) else w
            assert lo >= min(wa, wb)


class TestPTadicSandwich:
    @pytest.mark.parametrize("p", [2, 3])
    def test_generators_have_w_at_least_n(self, p):
        for n in range(1, 7):
            for i in range(n + 1):
                mu = IwasawaElt.monomial(p, n - i, n + 2, n + 2, coeff=p**i)
                w = mu.w_valuation()
                assert (w.bound if isinstance(w, LowerBound) else w) >= n

    @pytest.mark.parametrize("p", [2, 3])
    def test_w_at_least_n_decomposes_termwise(self, p):
        # every stored term a_m T^m with v(a_m) + m >= n factors through
        # a generator p^i T^j with i + j = n
        rng = random.Random(p * 13)
        for n in range(1, 7):
            for _ in range(10):
                coeffs = [rng.randrange(p**8) * p ** max(0, n - m) for m in range(6)]
                mu = IwasawaElt(p, 8, 8, coeffs)
                w = mu.w_valuation()
                lo = w.bound if isinstance(w, LowerBound) else w
                assert lo >= n
                for m, c in enumerate(mu.coeffs):
                    if c:
                        v = vp_int(c, p)
                        j = min(m, n)
                        i = n - j
                        assert v >= i and m >= j  # divisible by p^i T^j


class TestNaturalIdeals:
    def test_tpower_membership(self):
        p = 3
        for h in range(0, 3):
            for l in range(0, 2):
                m = p ** (h + l)
                mu = IwasawaElt.monomial(p, m, l + 4, m + 1)
                ok, _ = mu.natural_ideal_membership(h, l + 1)
                assert ok

    def test_total_mass_zero(self):
        p = 3
        mu = dirac(1, 8, 6, p=p) - dirac(0, 8, 6, p=p)
        for l in range(0, 6):
            ok, _ = mu.natural_ideal_membership(0, l)
            assert ok

    def test_p_times_unit(self):
        p = 3
        mu = IwasawaElt.one(p, 6, 9) * p
        for h in range(0, 2):
            ok, _ = mu.natural_ideal_membership(h, 1)
            assert ok

    def test_non_member_witness(self):
        p = 3
        mu = dirac(4, 9, 6, p=p)
        ok, witness = mu.natural_ideal_membership(1, 1)
        assert not ok and witness == 1  # mass 1 on 1 + 3Z_3

    @pytest.mark.parametrize("p,N", [(2, 1), (3, 1), (2, 2)])
    def test_power_generators_in_all_ball_ideals(self, p, N):
        prec = N + 3
        degree = p ** (N + 1) + 1
        for i, m in ptadic_power_generators(p, N):
            mu = IwasawaElt.monomial(p, m, prec, degree, coeff=p**i)
            for h in range(N + 2):
                l = N + 1 - h
                ok, _ = mu.natural_ideal_membership(h, l)
                assert ok, (i, m, h, l)

    @pytest.mark.parametrize("p,N", [(2, 1), (3, 1), (2, 2)])
    def test_equal_list_generators(self, p, N):
        prec = N + 4
        degree = p ** (N + 1) + 1
        for i, m in ball_ideal_equal_generators(p, N):
            mu = IwasawaElt.monomial(p, m, prec, degree, coeff=p**i)
            for h in range(N + 2):
                l = N + 1 - h
                ok, _ = mu.natural_ideal_membership(h, l)
                assert ok, (i, m, h, l)

    @pytest.mark.parametrize("p,N", [(2, 1), (3, 1), (2, 2)])
    def test_middle_generators_one_digit_deeper(self, p, N):
        # the deepened intersection runs over h + l = N
        prec = N + 4
        degree = p ** (N + 1) + 1
        for i, m in ball_ideal_middle_generators(p, N):
            mu = IwasawaElt.monomial(p, m, prec, degree, coeff=p**i)
            for h in range(N + 1):
                l = N - h
                ok, _ = mu.natural_ideal_membership(h, l + 1)
                assert ok, (i, m, h, l)

    def test_deepened_index_is_sharp(self):
        # T^(p^N) fails the ball ideal one radius finer, which pins the
        # h + l = N indexing of the deepened intersection
        mu = IwasawaElt.monomial(3, 3, 6, 10)
        ok, _ = mu.natural_ideal_membership(1, 2)
        assert not ok

    def test_scan_small_full(self):
        checked, escapees, missed = intersection_vs_middle_scan(2, 1, None)
        assert checked == 8**3 and escapees == 0 and missed == 0

    def test_middle_ideal_contains(self):
        p, N = 2, 1
        assert middle_ideal_contains(p, N, [4, 0, 0])
        assert middle_ideal_contains(p, N, [0, 2, 1])
        assert not middle_ideal_contains(p, N, [2, 0, 0])
        assert not middle_ideal_contains(p, N, [0, 1, 0])


class TestCoproduct:
    def test_T_image(self):
        T = IwasawaElt.monomial(3, 1, 6, 6)
        expect = BivariateSeries(3, 6, 6, {(1, 0): 1, (0, 1): 1, (1, 1): 1})
        assert T.coproduct() == expect

    def test_unit_image(self):
        one = IwasawaElt.one(3, 6, 6)
        assert one.coproduct() == BivariateSeries(3, 6, 6, {(0, 0): 1})

    def test_dirac_is_grouplike(self):
        for p, a in [(2, 3), (3, 5), (3, 10)]:
            mu = dirac(a, 7, 5, p=p)
            assert mu.coproduct() == BivariateSeries.tensor(mu, mu)

    def test_grouplike_expansion_oracle(self):
        # (1 + T1 + T2 + T1 T2)^a expanded directly over the integers
        p, a, d, N = 3, 4, 5, 6
        mu = dirac(a, d, N, p=p)
        cs = {}
        for i in range(d):
            for j in range(d):
                cs[(i, j)] = math.comb(a, i) * math.comb(a, j)
        assert mu.coproduct() == BivariateSeries(p, N, d, cs)


def coproduct_oracle(coeffs, mod, d):
    """(i, j) -> Σ a_n · n!/((n-i)! (n-j)! (i+j-n)!) over max(i, j) <= n <= i+j,
    for i + j < d, mod ``mod``: T^n maps to (T1 + T2 + T1 T2)^n, whose
    term T1^i T2^j takes n - j factors T1, n - i factors T2 and i + j - n
    factors T1 T2.  Nonzero residues only, keyed like ``BivariateSeries``."""
    f = math.factorial
    out = {}
    for i, j in itertools.product(range(d), repeat=2):
        if i + j < d:
            c = sum(
                a * f(n) // (f(n - i) * f(n - j) * f(i + j - n))
                for n, a in enumerate(coeffs) if max(i, j) <= n <= i + j
            ) % mod
            if c:
                out[(i, j)] = c
    return out


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]), st.integers(1, 4), st.integers(1, 12),
    st.lists(st.integers(-(10**4), 10**4), max_size=14), st.booleans(), st.integers(0, 4),
)
@example(2, 3, 1, [5, 1], False, 0)  # d = 1: the constant term alone
@example(3, 2, 1, [4], True, 3)  # d = 1 grown through an exact tail
def test_coproduct_matches_the_multinomial_expansion(p, prec, d, coeffs, exact, grow):
    """A non-exact tail is cut to a smaller degree, an exact one grown; a
    tail stays exact only if every coefficient cut from it is zero."""
    mu = IwasawaElt(p, prec, d, coeffs, exact_tail=exact)
    assert mu.exact_tail == (exact and not any(c % p**prec for c in coeffs[d:]))
    out = d + grow if mu.exact_tail else max(d - grow, 1)
    delta = mu.coproduct(degree=out)
    assert (delta.p, delta.prec, delta.degree) == (p, prec, out)
    assert delta.coeffs == coproduct_oracle(mu.coeffs, p**prec, out)


class TestCoproductBox:
    def test_a_larger_degree_needs_an_exact_tail(self):
        with pytest.raises(PrecisionExhausted):
            IwasawaElt(7, 4, 3, [1, 5, 10]).coproduct(degree=8)

    def test_an_exact_tail_grows_with_zeros(self):
        delta = IwasawaElt(7, 4, 3, [1, 5, 10], exact_tail=True).coproduct(degree=8)
        assert delta.degree == 8
        assert delta == IwasawaElt(7, 4, 8, [1, 5, 10], exact_tail=True).coproduct()
        assert delta != dirac(5, 8, 4, p=7).coproduct()

    def test_a_cut_exact_tail_is_no_longer_exact(self):
        mu = dirac(5, 8, 4, p=7)
        assert mu.resize(degree=6).exact_tail  # C(5, n) = 0 from n = 6 on
        cut = mu.resize(degree=3)
        assert not cut.exact_tail
        with pytest.raises(PrecisionExhausted):
            cut.coproduct(degree=8)


class TestBivariateBox:
    @pytest.mark.parametrize("p, prec, degree", [(4, 2, 3), (2, 0, 3), (2, 2, 0)])
    def test_a_bad_box_is_refused(self, p, prec, degree):
        with pytest.raises(PreconditionError):
            BivariateSeries(p, prec, degree, {(0, 0): 1})

    def test_a_product_across_primes_is_refused(self):
        with pytest.raises(PrimeMismatch):
            BivariateSeries(2, 3, 3, {(1, 0): 1}) * BivariateSeries(3, 3, 3, {(1, 0): 1})

    def test_series_over_different_primes_are_unequal(self):
        cs = {(1, 0): 1, (0, 1): 2}
        assert (BivariateSeries(2, 3, 3, cs) == BivariateSeries(3, 3, 3, cs)) is False

    @pytest.mark.parametrize("key", [(-1, 1), (1, -1), (-2, -1)])
    def test_a_negative_exponent_is_refused(self, key):
        # the key (i+j)·d + i would mislabel it: (T1^-1·T2)^2 came out as T1·T2^-2
        with pytest.raises(PreconditionError):
            BivariateSeries(2, 3, 3, {key: 1})


class TestExactTailCut:
    """A tail stays exact only if every coefficient cut from it is zero."""

    def test_constructor_drops_exactness_over_a_nonzero_cut(self):
        mu = IwasawaElt(7, 4, 3, [1, 5, 10, 10, 5, 1], exact_tail=True)
        assert mu.coeffs == (1, 5, 10) and not mu.exact_tail
        with pytest.raises(PrecisionExhausted):
            mu.resize(degree=6)

    def test_constructor_keeps_exactness_over_zero_residues(self):
        mu = IwasawaElt(7, 4, 3, [1, 5, 10, 0, 7**4, -(7**5)], exact_tail=True)
        assert mu.exact_tail
        assert mu.resize(degree=6).coeffs == (1, 5, 10, 0, 0, 0)

    def test_resize_follows_the_same_rule(self):
        mu = IwasawaElt(7, 4, 6, [1, 5, 10, 10, 5, 1], exact_tail=True)
        assert mu.exact_tail
        assert not mu.resize(degree=3).exact_tail
        assert mu.resize(degree=8).exact_tail
        assert IwasawaElt(7, 4, 6, [1, 5, 7**2], exact_tail=True).resize(prec=2, degree=2).exact_tail

    def test_from_json_refuses_an_exact_tail_over_a_nonzero_cut(self):
        doc = {"p": 7, "prec": 4, "degree": 3, "coeffs": [1, 5, 10, 10, 5, 1], "exact_tail": True}
        with pytest.raises(ParseError):
            IwasawaElt.from_json(doc)
        assert not IwasawaElt.from_json({**doc, "exact_tail": False}).exact_tail
        assert IwasawaElt.from_json({**doc, "coeffs": [1, 5, 10, 0, 7**4]}).exact_tail


class TestJsonAndStr:
    def test_round_trip(self):
        mu = IwasawaElt(3, 4, 5, [1, 0, 7], exact_tail=True)
        assert IwasawaElt.from_json(mu.to_json()) == mu

    def test_pretty(self):
        mu = IwasawaElt(3, 4, 5, [1, 2])
        assert str(mu) == "1 + 2·T + O(3^4, T^5)"


# ---------------------------------------------------------------------------
# Oracles for the ball-value fold, the Mahler solve and integer Dirac masses
# ---------------------------------------------------------------------------


def tpower_ball_oracle(m, a, ph):
    """T^m(a + p^h Z_p) = Σ_{i ≡ a mod p^h, 0 <= i <= m} (-1)^(m-i) C(m, i)."""
    return sum((-1) ** (m - i) * comb_int(m, i) for i in range(a, m + 1, ph))


def ball_oracle(mu, a, h):
    """One ball value by the signed binomial sum, certified like ball_measure."""
    out_prec = min(mu.prec, mu.ball_tail_floor(h))
    if out_prec <= 0:
        raise UncertifiedTailError("uncertified")
    total = sum(c * tpower_ball_oracle(m, a, mu.p**h) for m, c in enumerate(mu.coeffs))
    return PadicScalar(mu.p, 0, total % mu.p**mu.prec, mu.prec).truncate(out_prec)


def membership_oracle(mu, h, l):
    """natural_ideal_membership as a per-ball loop over the oracle."""
    witness, min_val = None, math.inf
    for a in range(mu.p**h):
        val = ball_oracle(mu, a, h)
        if val.is_zero():
            if val.abs_bound < l:
                raise UncertifiedTailError("uncertified")
            cand = val.abs_bound
        else:
            if val.shift < l:
                return False, a
            cand = val.shift
        if cand < min_val:
            min_val, witness = cand, a
    return True, witness


@st.composite
def zp_measures(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    prec = draw(st.integers(1, 5))
    degree = draw(st.integers(1, 40))
    if draw(st.booleans()):  # dense: every coefficient drawn
        coeffs = draw(
            st.lists(st.integers(0, p**prec - 1), min_size=degree, max_size=degree)
        )
    else:  # sparse: a few monomials, possibly high ones
        terms = draw(
            st.dictionaries(st.integers(0, degree - 1), st.integers(1, p**prec), max_size=3)
        )
        coeffs = [terms.get(m, 0) for m in range(degree)]
    return IwasawaElt(p, prec, degree, coeffs, exact_tail=draw(st.booleans()))


def radius(mu, h):
    """The drawn radius exponent h, lowered until every ball can be listed."""
    while h > 0 and mu.p**h > 400:
        h -= 1
    return h


@settings(max_examples=200, deadline=None)
@given(zp_measures(), st.integers(0, 6))
@example(IwasawaElt(2, 4, 3, [1, 2, 3]), 0)  # h = 0: the total mass
@example(IwasawaElt(3, 5, 4, [0, 0, 0, 1], exact_tail=True), 3)  # p^h > degree
@example(IwasawaElt(2, 3, 16, [0] * 15 + [1]), 2)  # lone top monomial, inexact tail
def test_ball_measure_matches_binomial_oracle(mu, h):
    h = radius(mu, h)
    for a in range(mu.p**h):
        try:
            want = ball_oracle(mu, a, h).to_json()
        except UncertifiedTailError:
            with pytest.raises(UncertifiedTailError):
                mu.ball_measure(a, h)
            continue
        assert mu.ball_measure(a, h).to_json() == want, (a, h)


@settings(max_examples=200, deadline=None)
@given(zp_measures(), st.integers(0, 6), st.integers(0, 6))
@example(IwasawaElt(2, 8, 256, [(7 * n + 3) % 256 for n in range(256)]), 8, 1)
@example(IwasawaElt(3, 4, 10, [0, 0, 0, 0, 0, 0, 0, 0, 0, 9], exact_tail=True), 4, 2)
def test_natural_ideal_membership_matches_per_ball_oracle(mu, h, l):
    h = radius(mu, h)
    try:
        want = membership_oracle(mu, h, l)
    except UncertifiedTailError:
        with pytest.raises(UncertifiedTailError):
            mu.natural_ideal_membership(h, l)
        return
    assert mu.natural_ideal_membership(h, l) == want


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(2, 0), (2, 3), (2, 6), (3, 2), (3, 4), (5, 1), (5, 3)]),
    st.randoms(use_true_random=False),
    st.one_of(st.none(), st.integers(1, 9)),
)
def test_mahler_from_samples_matches_difference_oracle(pM, rnd, prec):
    p, M = pM
    values = [rnd.randrange(-(10**6), 10**6) for _ in range(p**M)]
    f = mahler_coeffs_from_samples(p, values, prec=prec)
    assert f.prec == (M + 1 if prec is None else min(prec, M + 1))
    assert f.period == p**M and not f.exact_tail
    got = [f.coeffs.get(n, 0) for n in range(p**M)]
    assert got == mahler_coeffs_by_differences(p, values, f.prec)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.one_of(st.just(0), st.integers(-60, 60), st.integers(-(10**9), 10**9)),
    st.integers(1, 60),
    st.integers(1, 8),
)
def test_dirac_int_matches_comb_int(p, a, degree, prec):
    mu = dirac(a, degree, prec, p=p)
    assert mu.coeffs == tuple(comb_int(a, n) % p**prec for n in range(degree))
    assert mu.exact_tail == (0 <= a < degree)


@pytest.mark.parametrize("p, m", [(2, 1), (2, 17), (3, 9), (5, 12)])
def test_mahler_oracle_matches_explicit_binomial_sum(p, m):
    rng = random.Random(m)
    values = [rng.randrange(-(10**6), 10**6) for _ in range(m)]
    want = [
        sum((-1) ** (n - i) * comb_int(n, i) * values[i] for i in range(n + 1)) % p**6
        for n in range(m)
    ]
    assert mahler_coeffs_by_differences(p, values, 6) == want


def exact_binomial_sum_oracle(p, values, prec):
    """Oracle: c_n = Σ_i (-1)^(n-i) C(n, i) f(i) over exact integers, reduced
    mod p^prec once per n; its sums grow to about len(values) bits."""
    mod = p**prec
    out = []
    for n in range(len(values)):
        acc, c = 0, 1
        for i in range(n + 1):
            acc += (-1) ** (n - i) * c * values[i]
            c = c * (n - i) // (i + 1)  # C(n, i + 1)
        out.append(acc % mod)
    return out


@settings(max_examples=20, deadline=None)
@given(
    st.sampled_from([(3, 5), (2, 8), (2, 0), (7, 1)]),
    st.integers(0, 12),
    st.randoms(use_true_random=False),
)
@example((2, 8), 12, random.Random(0))
@example((3, 5), 0, random.Random(1))  # mod p^0: every coefficient is 0
def test_modular_binomial_rows_match_exact_binomial_sums(pM, prec, rnd):
    # 243 and 256 samples, signed and far wider than p^prec
    p, M = pM
    values = [
        rnd.choice([rnd.randrange(-(10**60), 10**60), rnd.randrange(-2, 2)])
        for _ in range(p**M)
    ]
    assert mahler_coeffs_by_differences(p, values, prec) == exact_binomial_sum_oracle(
        p, values, prec
    )


def test_ball_values_folded_once_per_radius():
    mu = IwasawaElt(3, 5, 30, [(4 * n + 1) % 243 for n in range(30)])
    first = [mu.ball_measure(a, 2).to_json() for a in range(9)]
    assert mu._ball_values(2)[0] is mu._ball_values(2)[0]
    assert mu._ball_values(1)[0] is not mu._ball_values(2)[0]
    fresh = IwasawaElt(3, 5, 30, mu.coeffs)
    assert first == [fresh.ball_measure(a, 2).to_json() for a in range(9)]
    assert mu.natural_ideal_membership(2, 0) == fresh.natural_ideal_membership(2, 0)
    with pytest.raises(UncertifiedTailError):  # an uncertified radius stays an error
        mu.ball_measure(0, 4)
    with pytest.raises(UncertifiedTailError):
        mu.ball_measure(0, 4)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(0, 4),
    st.integers(1, 4),
    st.integers(0, 3),
    st.randoms(use_true_random=False),
)
@example(2, 4, 4, 3, random.Random(0))  # a list past the cut at every multiple of p^h
@example(7, 4, 1, 0, random.Random(1))  # 2401 balls, cut at T^2401
def test_ball_fold_cut_at_k_p_h_drops_nothing(p, h, k, extra, rnd):
    # (S - 1)^(p^h) ≡ 0 mod p in Z[S]/(S^(p^h) - 1): mod p^k the terms from
    # T^(k·p^h) on add nothing, and T^m takes values in p^min(k, ⌊m/p^h⌋)
    while p**h * (k + extra) > 3000:
        extra, k = (extra - 1, k) if extra else (0, k - 1)
    r, mod = p**h, p**k
    cs = [rnd.randrange(mod) for _ in range(r * (k + extra) + rnd.randrange(r))]
    assert _series.ball_residues(cs[: k * r], r, mod) == _series.ball_residues(cs, r, mod)
    for m in rnd.sample(range(len(cs) + 1), min(8, len(cs) + 1)):
        floor = p ** min(k, m // r)
        assert all(x % floor == 0 for x in _series.ball_residues([0] * m + [1], r, mod)), m


@pytest.mark.parametrize("h", [0, 1, 3])
def test_ball_values_fold_at_most_prec_p_h_coefficients(monkeypatch, h):
    # a measure of 2^14 coefficients: the fold is handed T^0..T^(prec·2^h - 1)
    # alone, and its values are those of the whole list
    p, prec = 2, 5
    coeffs = [(5 * n + 3) % 2**prec for n in range(2**14)]
    seen = []
    fold = _series.ball_residues

    def spy(cs, r, mod):
        seen.append(len(cs))
        return fold(cs, r, mod)

    monkeypatch.setattr(_series, "ball_residues", spy)
    mu = IwasawaElt(p, prec, 2**14, coeffs)
    vals, _ = mu._ball_values(h)
    assert seen and max(seen) <= prec * p**h
    assert vals == fold(coeffs, p**h, p**prec)
    assert mu.natural_ideal_membership(h, 0)[0] and len(seen) == 1  # the cached fold


# ---------------------------------------------------------------------------
# Oracles for the packed passes: the list Horner fold and the list iterated
# differences, checked past the slots' reduction period
# ---------------------------------------------------------------------------


def horner_fold_oracle(coeffs, r, mod):
    """Σ_m c_m (S-1)^m in (Z/mod)[S]/(S^n - 1), n = min(r, len(coeffs)), by
    Horner from the top nonzero coefficient, one cyclic difference pass
    over a list per coefficient."""
    n = min(r, len(coeffs))
    top = max((m for m, c in enumerate(coeffs) if c), default=-1)
    out = [0] * n
    for m in range(top, -1, -1):
        out = [(out[a - 1] - out[a]) % mod for a in range(n)]
        out[0] = (out[0] + coeffs[m]) % mod
    return out


def differences_oracle(values, mod):
    """[(Δ^n f)(0) mod ``mod``] by differencing a list until it is empty."""
    vals = [v % mod for v in values]
    out = []
    while vals:
        out.append(vals[0])
        vals = [(vals[i + 1] - vals[i]) % mod for i in range(len(vals) - 1)]
    return out


@st.composite
def slot_moduli(draw):
    """(p, mod = p^prec) with bits(mod) small, or at 60-66 or 120-130 bits,
    where the slots of a packed pass change width."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    lo, hi = draw(st.sampled_from([(1, 20), (60, 66), (120, 130)]))
    precs = [k for k in range(1, 200) if lo <= (p**k - 1).bit_length() <= hi]
    return p, p ** draw(st.sampled_from(precs))


def coefficient_list(rnd, kind, n, mod):
    """n coefficients: dense residues, a few signed huge terms, one top term
    alone, or zeros."""
    if kind == "dense":
        return [rnd.randrange(mod) for _ in range(n)]
    out = [0] * n
    if kind == "single" and n:
        out[-1] = rnd.randrange(1, mod)
    if kind == "sparse" and n:
        for _ in range(rnd.randrange(1, 4)):
            out[rnd.randrange(n)] = rnd.choice([-1, 1]) * rnd.randrange(10**80)
    return out


@settings(max_examples=40, deadline=None)
@given(
    slot_moduli(),
    st.integers(0, 700),
    st.integers(0, 6),
    st.sampled_from(["dense", "sparse", "single", "zero"]),
    st.randoms(use_true_random=False),
)
@example((2, 2**8), 700, 6, "dense", random.Random(0))  # ~11 reduction periods
@example((3, 3**40), 700, 6, "dense", random.Random(1))  # 64 bits: 16-byte slots, one block
@example((7, 7**22), 300, 3, "sparse", random.Random(2))
@example((2, 2**5), 0, 0, "zero", random.Random(3))  # no coefficient at all
# either side of the cost rule's switch at d = 512: one block at n = 128,
# halves over four levels at n = 256
@example((2, 2**8), 512, 7, "dense", random.Random(4))
@example((2, 2**8), 512, 8, "dense", random.Random(5))
@example((2, 2**8), 4096, 12, "dense", random.Random(6))  # halves: seven levels
@example((3, 3**6), 700, 6, "dense", random.Random(7))  # halves: 22 blocks, the last short
@example((3, 3**6), 700, 6, "single", random.Random(8))  # halves: c·T^699 alone
@example((2, 2**62), 2048, 11, "dense", random.Random(9))  # halves: 16- and 17-byte slots
@example((7, 7**22), 2401, 4, "sparse", random.Random(10))  # halves: huge signed terms
@example((2, 2**8), 4096, 12, "zero", random.Random(11))
@example((5, 5**4), 1, 2, "single", random.Random(12))  # one coefficient
@example((2, 2**8), 4096, 0, "dense", random.Random(13))  # h = 0: one ball
def test_packed_ball_fold_matches_the_list_fold(pmod, degree, h, kind, rnd):
    p, mod = pmod
    while p**h > 4096:
        h -= 1
    coeffs = coefficient_list(rnd, kind, degree, mod)
    want = horner_fold_oracle(coeffs, p**h, mod)
    assert _series.ball_residues(coeffs, p**h, mod) == want


def test_ball_fold_by_halves_takes_log_d_reductions(monkeypatch):
    # a work count, not a timer: one block would reduce its 4096 slots once
    # per period of 54 steps, 75 times; the halves reduce the sum once per
    # level and the power once per squaring, 7 + 6 times
    reduce, seen = _series._reduce, []

    def spy(x, n, w, half, mod):
        seen.append(n)
        return reduce(x, n, w, half, mod)

    monkeypatch.setattr(_series, "_reduce", spy)
    rnd = random.Random(0)
    for h in (10, 12):
        seen.clear()
        _series.ball_residues([rnd.randrange(256) for _ in range(2**h)], 2**h, 256)
        assert len(seen) == 2 * (h - 5) - 1, (h, seen)


@settings(max_examples=40, deadline=None)
@given(
    slot_moduli(),
    st.sampled_from([1, 2, 9, 64, 243, 256]),
    st.sampled_from(["dense", "sparse", "zero"]),
    st.randoms(use_true_random=False),
)
@example((2, 2**62), 256, "dense", random.Random(0))
@example((3, 3**80), 243, "dense", random.Random(1))
def test_packed_differences_match_the_list_differences(pmod, m, kind, rnd):
    _, mod = pmod
    values = [v % mod for v in coefficient_list(rnd, kind, m, mod)]
    assert _series.differences_at_zero(values, mod) == differences_oracle(values, mod)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([(3, 5), (2, 8)]),
    st.one_of(st.none(), st.integers(1, 12)),
    st.randoms(use_true_random=False),
)
def test_mahler_solve_on_signed_huge_samples(pM, prec, rnd):
    # 243 and 256 samples: past the reduction period of the packed passes
    p, M = pM
    values = [
        rnd.choice([rnd.randrange(-(10**60), 10**60), rnd.randrange(-2, 2)])
        for _ in range(p**M)
    ]
    f = mahler_coeffs_from_samples(p, values, prec=prec)
    got = [f.coeffs.get(n, 0) for n in range(p**M)]
    assert got == differences_oracle(values, p**f.prec)


def sums_oracle(values, mod):
    """[Σ_k C(n, k) values[k] mod ``mod``] by summing neighbours in a list
    until it is empty: the sign-1 pass of ``differences_at_zero``."""
    vals = [v % mod for v in values]
    out = []
    while vals:
        out.append(vals[0])
        vals = [(vals[i + 1] + vals[i]) % mod for i in range(len(vals) - 1)]
    return out


@settings(max_examples=40, deadline=None)
@given(
    slot_moduli(),
    st.sampled_from([1, 2, 9, 64, 243, 256]),
    st.sampled_from(["dense", "sparse", "zero"]),
    st.randoms(use_true_random=False),
)
@example((2, 2**62), 256, "dense", random.Random(0))
@example((3, 3**80), 243, "dense", random.Random(1))
def test_packed_sums_match_the_list_sums_and_undo_the_differences(pmod, m, kind, rnd):
    _, mod = pmod
    values = [v % mod for v in coefficient_list(rnd, kind, m, mod)]
    sums = _series.differences_at_zero(values, mod, sign=1)
    assert sums == sums_oracle(values, mod)
    assert _series.differences_at_zero(sums, mod) == values


def values_by_binomial_rows(f):
    """values_on_period one point at a time: f(a) = Σ_n c_n C(a, n) mod p^N
    from a falling-factorial row per point, O(period²) steps in all."""
    p, prec = f.p, f.prec
    rows = (enumerate(binomial_row_tracked(p, a, prec, a, prec)) for a in range(f.period))
    return [sum(f.coeffs.get(n, 0) * b for n, b in row) % p**prec for row in rows]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 0), (2, 4), (2, 8), (3, 3), (3, 5), (5, 2), (7, 1)]),
    st.integers(1, 90),
    st.booleans(),
    st.randoms(use_true_random=False),
)
@example((2, 8), 12, True, random.Random(0))
def test_values_on_period_match_the_binomial_rows_and_round_trip(pM, prec, from_samples, rnd):
    p, M = pM
    m = p**M
    if from_samples:  # samples -> coefficients -> samples, mod p^min(prec, M + 1)
        values = [rnd.randrange(-(10**30), 10**30) for _ in range(m)]
        f = mahler_coeffs_from_samples(p, values, prec=prec)
        assert f.values_on_period() == [v % p**f.prec for v in values]
    else:  # coefficients -> samples -> coefficients, at any width
        f = MahlerFn(p, prec, {n: rnd.randrange(p**prec) for n in range(m)}, m, period=m)
        got = f.values_on_period()
        assert _series.differences_at_zero(got, p**prec) == [f.coeffs.get(n, 0) for n in range(m)]
    assert f.values_on_period() == values_by_binomial_rows(f)


def test_values_on_period_is_one_pass():
    # a row per point took 1.1-1.4 s at 1024 samples; the packed pass 12 ms
    f = mahler_coeffs_from_samples(2, [(n * n + 3) % 4096 for n in range(1024)], prec=12)
    start = time.monotonic()
    vals = f.values_on_period()
    assert time.monotonic() - start < 0.5
    assert vals == [(n * n + 3) % 2**f.prec for n in range(1024)]


def cyclic_difference_loop(f, k):
    """finite_difference on a periodic function: k cyclic passes on
    unreduced integers, then the Mahler solve."""
    vals = f.values_on_period()
    m = len(vals)
    for _ in range(k):
        vals = [(vals[(i + 1) % m] - vals[i]) for i in range(m)]
    return mahler_coeffs_from_samples(f.p, vals, prec=f.prec)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(2, 3), (3, 2), (5, 1), (2, 5)]),
    st.integers(1, 300),
    st.integers(1, 9),
    st.randoms(use_true_random=False),
)
def test_periodic_finite_difference_matches_unreduced_loop(pM, k, prec, rnd):
    p, M = pM
    f = mahler_coeffs_from_samples(p, [rnd.randrange(-999, 999) for _ in range(p**M)], prec)
    assert f.finite_difference(k).to_json() == cyclic_difference_loop(f, k).to_json()


def test_periodic_finite_difference_is_linear_in_k():
    # unreduced passes grow by a bit each: k = 10^5 took 3 s, now 0.14 s
    f = mahler_coeffs_from_samples(2, list(range(32)), prec=6)
    assert f.finite_difference(1500).to_json() == cyclic_difference_loop(f, 1500).to_json()
    start = time.monotonic()
    f.finite_difference(100000)
    assert time.monotonic() - start < 1.0


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(-(10**30), 10**30),
    st.integers(0, 12),
    st.integers(0, 12),
)
def test_single_build_equals_build_then_truncate(p, total, prec, cut):
    # integrate, ball_measure and MahlerFn.eval build their result once at
    # the certified precision; so did the truncated build they replace
    cut = min(cut, prec)
    want = PadicScalar(p, 0, total, prec).truncate(cut)
    assert PadicScalar(p, 0, total, cut).to_json() == want.to_json()


@settings(max_examples=100, deadline=None)
@given(zp_measures(), st.randoms(use_true_random=False), st.booleans())
def test_integrate_and_eval_match_build_then_truncate(mu, rnd, periodic):
    p = mu.p
    if periodic:
        f = mahler_coeffs_from_samples(p, [rnd.randrange(p**9) for _ in range(p**2)])
    else:
        cs = {n: rnd.randrange(-(p**9), p**9) for n in rnd.sample(range(12), 3)}
        f = MahlerFn(p, rnd.randrange(1, 9), cs, 12, exact_tail=rnd.random() < 0.5)
    try:
        got = integrate(f, mu)
    except UncertifiedTailError:
        got = None
    if got is not None:
        total = sum(c * mu.coeffs[n] for n, c in f.coeffs.items() if n < mu.degree)
        want = PadicScalar(p, 0, total, min(f.prec, mu.prec)).truncate(got.abs_bound)
        assert got.to_json() == want.to_json()
    x = rnd.randrange(-(10**6), 10**6)
    got = f.eval(x)
    if f.period is None:
        total = sum(c * comb_int(x, n) for n, c in f.coeffs.items())
    else:
        total = sum(c * comb_int(x % f.period, n) for n, c in f.coeffs.items())
    want = PadicScalar(p, 0, total, f.prec).truncate(got.abs_bound)
    assert got.to_json() == want.to_json()


def eval_by_rows(f, x):
    """Oracle: f(x) as the binomial row of x summed against the Mahler
    coefficients, with no measure and no pairing.  A period reduces x to an
    exact integer, whose row stops at min(x, tail_cert - 1); a finite sum
    reads the tracked row of x to its top index, each C(x, n) costing
    v_p(n!) digits of x; the empty function is 0 wherever x has a digit."""
    p = f.p
    x = _point(p, x, f.prec + vp_factorial(f.tail_cert, p) + 1)
    if x.shift < 0:
        raise PreconditionError("Mahler evaluation needs an integral point")
    if f.period is not None:
        if x.abs_bound < vp_int(f.period, p):
            raise PrecisionExhausted("argument known below the period")
        a = x.integer_rep() % f.period
        row = binomial_row_tracked(p, a, f.prec, min(a, f.tail_cert - 1), f.prec)
        return PadicScalar(p, 0, sum(f.coeffs.get(n, 0) * b for n, b in enumerate(row)), f.prec)
    top = max(f.coeffs, default=0)
    out_prec = min(f.prec, x.abs_bound - vp_factorial(top, p)) if f.coeffs else f.prec
    if out_prec < 1:
        raise PrecisionExhausted("argument precision exhausted by binomials")
    row = binomial_row_tracked(p, x.integer_rep(), x.abs_bound, top, f.prec)
    return PadicScalar(p, 0, sum(f.coeffs.get(n, 0) * b for n, b in enumerate(row)), out_prec)


@st.composite
def mahler_fns(draw, p):
    """A periodic, basis, plain-tail, finite or empty Mahler function at p."""
    prec = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["periodic", "basis", "plain", "finite", "empty"]))
    if kind == "periodic":
        m = p ** draw(st.integers(0, 3))
        return mahler_coeffs_from_samples(p, draw(st.lists(
            st.integers(0, p**9), min_size=m, max_size=m)), prec=prec)
    if kind == "basis":
        return MahlerFn.basis(p, draw(st.integers(0, 20)), prec)
    tail_cert = draw(st.integers(1, 20))
    cs = {} if kind == "empty" else draw(st.dictionaries(
        st.integers(0, tail_cert - 1), st.integers(-(p**9), p**9), min_size=1, max_size=4))
    return MahlerFn(p, prec, cs, tail_cert, exact_tail=kind == "finite" or
                    (kind == "empty" and draw(st.booleans())))


@st.composite
def mahler_points(draw, p):
    """An int, a Fraction (p-integral or not) or a scalar, of few digits or
    none, at p or now and then at another prime."""
    kind = draw(st.sampled_from(["int", "fraction", "scalar", "scalar", "scalar", "foreign"]))
    if kind == "int":
        return draw(st.integers(-(10**6), 10**6))
    if kind == "fraction":
        return Fraction(draw(st.integers(-500, 500)), draw(st.integers(1, 60)))
    q = 7 if kind == "foreign" else p
    return PadicScalar(q, draw(st.integers(-1, 4)), draw(st.integers(0, q**12)), draw(st.integers(0, 12)))


@st.composite
def mahler_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return draw(mahler_fns(p)), draw(mahler_points(p))


@settings(max_examples=400, deadline=None)
@given(mahler_cases())
@example((MahlerFn(3, 6, {}, 4), PadicScalar(3, 0, 1, 2)))  # empty, x known mod 3^2 only
@example((MahlerFn(2, 5, {}, 3, exact_tail=True), PadicScalar(2, 1, 1, 1)))
@example((MahlerFn(3, 6, {}, 4), PadicScalar(3, 0, 0, 0)))  # x has no known digit
@example((MahlerFn.basis(3, 4, 6), PadicScalar(3, 0, 0, 0)))
@example((MahlerFn.basis(2, 5, 6), PadicScalar(2, 0, 5, 4)))  # v_2(5!) = 3 of x's 4 digits go
def test_mahler_eval_is_the_pairing_with_the_dirac_mass(case):
    """MahlerFn.eval, ∫ f dδ_x, gives the row-and-sum value and precision,
    or its error class, at ints, Fractions and scalars."""
    f, x = case
    try:
        want = eval_by_rows(f, x)
    except Exception as e:
        with pytest.raises(type(e)):
            f.eval(x)
        return
    assert f.eval(x).to_json() == want.to_json()


# ---------------------------------------------------------------------------
# Oracle for the ball-ideal identity: enumerate every candidate
# ---------------------------------------------------------------------------


def scan_oracle(p, N, coefficient_sets=None):
    """(checked, escapees, missed) by testing every candidate vector against
    each ball ideal and the middle ideal; cost is the product of set sizes."""
    deg = p**N + 1
    mod = p ** (N + 2)
    sets = [list(range(mod))] * deg if coefficient_sets is None else coefficient_sets
    sizes = [len(s) for s in sets]
    total = math.prod(sizes)
    grid = np.indices(sizes).reshape(deg, total).T  # mixed-radix enumeration
    cands = np.empty((total, deg), dtype=np.int64)
    for m in range(deg):
        cands[:, m] = np.asarray(sets[m], dtype=np.int64)[grid[:, m]]
    inter = np.ones(total, dtype=bool)
    for h in range(N + 1):
        ph = p**h
        W = np.array(
            [[tpower_ball_oracle(m, a, ph) % mod for a in range(ph)] for m in range(deg)],
            dtype=np.int64,
        )
        inter &= (cands @ W % p ** (N - h + 1) == 0).all(axis=1)
    middle = np.ones(total, dtype=bool)
    for m in range(deg):
        middle &= cands[:, m] % p ** middle_ideal_valuation(p, N, m) == 0
    return total, int(np.count_nonzero(inter & ~middle)), int(np.count_nonzero(middle & ~inter))


def bounded_sets(p, N):
    """The idealcheck --scan bounded sets: per degree 0 and the multiples of
    p^(v-1) and p^v straddling the middle-ideal threshold v."""
    mod = p ** (N + 2)
    sets = []
    for m in range(p**N + 1):
        v = middle_ideal_valuation(p, N, m)
        cand = {0, p**v % mod}
        if v > 0:
            cand |= {p ** (v - 1) % mod, p ** (v - 1) * (p - 1) % mod}
        sets.append(sorted(cand))
    return sets


@pytest.mark.parametrize("p, N", [(2, 1), (2, 2), (3, 1)])
def test_full_scan_matches_enumeration(p, N):
    every = (p ** (N + 2)) ** (p**N + 1)
    assert intersection_vs_middle_scan(p, N) == scan_oracle(p, N) == (every, 0, 0)


@st.composite
def candidate_sets(draw):
    p, N = draw(st.sampled_from([(3, 2), (2, 3)]))
    if draw(st.booleans()):
        return p, N, bounded_sets(p, N)
    mod = p ** (N + 2)
    values = st.integers(-mod, 2 * mod - 1)  # both tests read a candidate mod p^(N+2)
    return p, N, [draw(st.lists(values, min_size=1, max_size=3)) for _ in range(p**N + 1)]


@settings(max_examples=30, deadline=None)
@given(candidate_sets())
def test_candidate_scan_matches_enumeration(case):
    p, N, sets = case
    assert intersection_vs_middle_scan(p, N, sets) == scan_oracle(p, N, sets)


@pytest.mark.parametrize("p, N, shifts, message", [
    (2, 2, {0: 1}, "index gap"),
    (2, 2, {2: -1}, "outside"),
    (3, 2, {5: 1}, "index gap"),
    (3, 2, {5: -1}, "outside"),
    (2, 3, {8: 1}, "index gap"),
    (2, 3, {3: 1, 5: -1}, "outside"),  # same index, different module
])
def test_valuation_mutant_is_caught(monkeypatch, p, N, shifts, message):
    # a middle ideal one digit too small in a degree fails the index count;
    # one digit too large has a generator outside the intersection
    true_valuation = iwasawa.middle_ideal_valuation
    monkeypatch.setattr(
        iwasawa, "middle_ideal_valuation",
        lambda p_, N_, m: true_valuation(p_, N_, m) + shifts.get(m, 0),
    )
    with pytest.raises(InternalConsistencyError, match=message):
        intersection_vs_middle_scan(p, N)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([2, 3]),
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 3),
    st.randoms(use_true_random=False),
)
def test_elementary_divisors_count_the_kernel(p, K, n_rows, n_cols, rnd):
    # log_p of the kernel of c -> c·A over Z/p^K, by enumerating every c;
    # entries are drawn as p^v·u so that pivots of every valuation occur
    mod = p**K
    A = [[p ** rnd.randrange(K + 1) * rnd.randrange(mod) % mod for _ in range(n_cols)]
         for _ in range(n_rows)]
    kernel = sum(
        all(sum(x * r[j] for x, r in zip(c, A)) % mod == 0 for j in range(n_cols))
        for c in itertools.product(range(mod), repeat=n_rows)
    )
    assert p ** sum(iwasawa._elementary_divisor_valuations(A, p, K)) == kernel


# ---------------------------------------------------------------------------
# Oracles for the ball rows: the per-monomial fold, the per-generator
# membership loop and the whole-matrix pivot search
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 3), st.integers(0, 80))
@example(2, 0, 5)  # N = 0: the total mass alone, 0 from T^1 on
@example(3, 2, 30)  # m past p^h: the fold wraps around
def test_ball_table_rows_are_folded_monomials(p, N, top):
    # row m is T^m folded on its own at each radius p^-h, h = 0..N, taken
    # mod p^(N+1-h) and scaled by p^(h+1)
    N = min(N, 2) if p == 5 else N
    rows = iwasawa._ball_rows(p, N, top)
    assert len(rows) == top + 1
    for m, row in enumerate(rows):
        want = []
        for h in range(N + 1):
            values = _series.ball_residues([0] * m + [1], p**h, p ** (N + 1 - h))
            want += [x * p ** (h + 1) for x in values + [0] * (p**h - len(values))]
        assert row == want, m


def membership_loop(p, N, gens):
    """The (i, m) that ball_ideal_failures lists, by folding each generator
    p^i T^m on its own and testing natural_ideal_membership(h, N+1-h) at
    each radius h = 0..N."""
    degree = p ** (N + 1) + 1
    out = []
    for i, m in gens:
        mu = IwasawaElt.monomial(p, m, N + 3, degree, coeff=p**i)
        if not all(mu.natural_ideal_membership(h, N + 1 - h)[0] for h in range(N + 1)):
            out.append((i, m))
    return out


def idealcheck_lists(p, N):
    """The three generator lists of idealcheck."""
    return [
        ptadic_power_generators(p, N),
        ball_ideal_equal_generators(p, N),
        ball_ideal_middle_generators(p, N),
    ]


@pytest.mark.parametrize("p, N", [(2, 0), (2, 1), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_ball_ideal_failures_match_the_membership_loop(p, N):
    # idealcheck's own lists pass; each with one power of p taken from every
    # generator fails, at the same generators as the loop
    for gens in idealcheck_lists(p, N):
        assert ball_ideal_failures(p, N, gens) == membership_loop(p, N, gens) == []
        weaker = [(i - 1, m) for i, m in gens if i > 0]
        want = membership_loop(p, N, weaker)
        assert want and ball_ideal_failures(p, N, weaker) == want


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1)]),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
def test_perturbed_ball_ideal_failures_match_the_membership_loop(pN, which, rnd):
    # generators drop out, lose a power of p or move a degree
    p, N = pN
    gens = [
        (max(0, i - rnd.randrange(2)), max(0, m + rnd.choice((-1, 0, 0, 1))))
        for i, m in idealcheck_lists(p, N)[which] if rnd.random() < 0.7
    ]
    assert ball_ideal_failures(p, N, gens) == membership_loop(p, N, gens)


def test_ball_ideal_failures_refuse_negative_exponents():
    with pytest.raises(PreconditionError):
        ball_ideal_failures(2, 1, [(0, -1)])


def stacked_row_failures(p, N, gens):
    """ball_ideal_failures by the stacked rows: row m holds T^m on the balls
    of every radius p^-h, h = 0..N, mod p^(N+1-h) and scaled by p^(h+1), one
    cyclic difference pass per m over all of 0..max m, and p^i T^m fails
    when p^i·gcd(p^(N+2), row m) is not 0 mod p^(N+2)."""
    top, mod = max((m for _, m in gens), default=0), p ** (N + 2)
    rows = [[] for _ in range(top + 1)]
    for h in range(N + 1):
        scale, hmod = p ** (h + 1), p ** (N + 1 - h)
        values = [1] + [0] * (p**h - 1)
        for row in rows:
            row += [x * scale for x in values]
            values = [(x - y) % hmod for x, y in zip(values[-1:] + values[:-1], values)]
    return [(i, m) for i, m in gens if p**i * math.gcd(mod, *rows[m]) % mod]


@settings(max_examples=120, deadline=None)
@given(
    st.sampled_from([(2, N) for N in range(7)] + [(3, N) for N in range(4)]
                    + [(5, N) for N in range(3)]),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
@example((2, 6), 2, random.Random(0))
@example((3, 3), 1, random.Random(1))
@example((5, 2), 0, random.Random(2))
def test_ball_ideal_failures_match_the_stacked_rows(pN, which, rnd):
    # idealcheck's lists with generators dropped, weakened by powers of p,
    # moved in degree (past p^N too), or added at random
    p, N = pN
    gens = [
        (max(0, i - rnd.randrange(3)), max(0, m + rnd.choice((-2, -1, 0, 0, 0, 1, 2))))
        for i, m in idealcheck_lists(p, N)[which] if rnd.random() < 0.8
    ]
    gens += [(rnd.randrange(N + 3), rnd.randrange(p ** (N + 1) + 2)) for _ in range(3)]
    assert ball_ideal_failures(p, N, gens) == stacked_row_failures(p, N, gens)


def elementary_divisors_by_matrix_search(rows, p, K):
    """_elementary_divisor_valuations with each pivot found by a search over
    the whole matrix for the first entry of least valuation."""
    mod = p**K
    rows = [[x % mod for x in r] for r in rows]
    out = []
    while rows:
        best = mod
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                if x and (g := math.gcd(x, mod)) < best:
                    best, bi, bj = g, i, j
        if best == mod:
            break
        piv = rows.pop(bi)
        inv = pow(piv[bj] // best, -1, mod)
        for r in rows:
            if r[bj]:
                f = r[bj] // best * inv % mod
                r[:] = [(x - f * y) % mod for x, y in zip(r, piv)]
        out.append(vp_int(best, p))
    return out + [K] * len(rows)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(1, 4),
    st.integers(1, 9),
    st.integers(1, 6),
    st.integers(0, 2),
    st.integers(0, 2),
    st.randoms(use_true_random=False),
)
@example(2, 3, 4, 2, 2, 2, random.Random(0))  # more rows than columns
def test_row_tracked_pivots_match_the_matrix_search(p, K, n_rows, n_cols, zeros, repeats, rnd):
    mod = p**K
    A = [[p ** rnd.randrange(K + 1) * rnd.randrange(-mod, mod) for _ in range(n_cols)]
         for _ in range(n_rows)]
    A += [[0] * n_cols for _ in range(zeros)] + [list(rnd.choice(A)) for _ in range(repeats)]
    rnd.shuffle(A)
    want = elementary_divisors_by_matrix_search([r[:] for r in A], p, K)
    assert iwasawa._elementary_divisor_valuations(A, p, K) == want


def test_scan_matrix_is_the_stacked_ball_table():
    # the scan's rows are T^m's ball values times p^(h+1) mod p^(N+2),
    # radius after radius, as folded one monomial at a time
    p, N = 3, 2
    K, deg = N + 2, p**N + 1
    seen = {}
    true_divisors = iwasawa._elementary_divisor_valuations

    def spy(rows, p_, K_):
        seen["rows"] = [r[:] for r in rows]
        return true_divisors(rows, p_, K_)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(iwasawa, "_elementary_divisor_valuations", spy)
        intersection_vs_middle_scan(p, N)
    want = [[] for _ in range(deg)]
    for h in range(N + 1):
        for m, row in enumerate(want):
            values = _series.ball_residues([0] * m + [1], p**h, p**K)
            values += [0] * (p**h - len(values))
            row += [x * p ** (h + 1) % p**K for x in values]
    assert seen["rows"] == want


# ---------------------------------------------------------------------------
# The power-of-p ladder: each floor against the loop it once was
# ---------------------------------------------------------------------------

LADDER_PRIMES = st.sampled_from([2, 3, 5, 7, 11, 13])


def ball_tail_floor_loop(p, degree, h):
    """1 + the largest l with p^(h+l) <= degree, or 0 if p^h > degree."""
    l = 0
    while p ** (h + l + 1) <= degree:
        l += 1
    return 0 if p ** (h + l) > degree else l + 1


def period_floor_loop(p, prec, period, n0):
    """min(1 + the largest l with period·p^l <= n0, prec), or 0 below the period."""
    if n0 < period:
        return 0
    l = 0
    while period * p ** (l + 1) <= n0:
        l += 1
    return min(l + 1, prec)


def middle_valuation_loop(p, N, m):
    """N + 1 at m = 0, else max(0, N - j) for the largest j with p^j <= m."""
    if m == 0:
        return N + 1
    j = 0
    while p ** (j + 1) <= m:
        j += 1
    return max(0, N - j)


def sample_level_loop(p, m):
    """The least M with p^M >= m."""
    M = 0
    while p**M < m:
        M += 1
    return M


@settings(max_examples=300, deadline=None)
@given(LADDER_PRIMES, st.integers(1, 3000), st.integers(0, 8), st.booleans())
@example(2, 1, 0, False)
@example(3, 9, 2, False)
def test_ball_tail_floor_matches_the_loop(p, degree, h, exact):
    mu = IwasawaElt(p, 1, degree, [], exact_tail=exact)
    assert mu.ball_tail_floor(h) == (math.inf if exact else ball_tail_floor_loop(p, degree, h))


@settings(max_examples=300, deadline=None)
@given(LADDER_PRIMES.flatmap(lambda p: st.tuples(
    st.just(p), st.integers(1, 9), st.integers(0, 7).map(lambda k: p**k), st.integers(0, 3000))))
@example((5, 4, 125, 124))
def test_period_tail_floor_matches_the_loop(case):
    # a period is a power of p: MahlerFn refuses any other
    p, prec, period, n0 = case
    f = MahlerFn(p, prec, {}, period, period=period)
    assert f.tail_floor_at(n0) == period_floor_loop(p, prec, period, n0)


@settings(max_examples=300, deadline=None)
@given(LADDER_PRIMES, st.integers(0, 5), st.integers(0, 3000))
@example(3, 2, 9)
@example(2, 0, 1)
def test_middle_ideal_valuation_matches_the_loop(p, N, m):
    assert middle_ideal_valuation(p, N, m) == middle_valuation_loop(p, N, m)


@settings(max_examples=200, deadline=None)
@given(LADDER_PRIMES, st.integers(0, 300), st.one_of(st.none(), st.integers(1, 9)))
@example(2, 256, None)
@example(3, 0, None)
@example(5, 26, 2)
def test_sample_count_level_matches_the_loop(p, m, prec):
    M = sample_level_loop(p, m)
    if p**M != m:
        with pytest.raises(PreconditionError, match=f"sample count {m} is not a power of {p}"):
            mahler_coeffs_from_samples(p, [1] * m, prec=prec)
        return
    f = mahler_coeffs_from_samples(p, [1] * m, prec=prec)
    assert f.prec == (M + 1 if prec is None else min(prec, M + 1)) and f.period == m


@pytest.mark.parametrize("exact", [False, True])
def test_ball_tail_floor_refuses_a_negative_radius(exact, capsys):
    # it once read a floor of 5 at h = -1, a radius p^1 that no ball has
    mu = IwasawaElt(2, 4, 8, [0, 1], exact_tail=exact)
    with pytest.raises(PreconditionError, match="h >= 0"):
        mu.ball_tail_floor(-1)
    assert mu.ball_tail_floor(0) == (math.inf if exact else 4)
    # the ball command refuses h < 0 with exit 3, as it did before
    assert main(["ball", "--p", "2", "--mu", "dirac:37", "--a", "0", "--h", "-1"]) == 3
    assert "error:" in capsys.readouterr().err


def test_ball_readers_refuse_a_negative_radius():
    # h = -1 once shifted an int by a float (TypeError) and read a floor of 5
    mu = dirac(37, 8, 4, p=2)
    with pytest.raises(PreconditionError):
        mu.natural_ideal_membership(-1, 0)
    with pytest.raises(PreconditionError):
        mu.ball_measure(0, -1)
    with pytest.raises(PreconditionError):
        mu._ball_values(-1)
