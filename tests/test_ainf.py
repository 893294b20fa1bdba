import math
import random
from fractions import Fraction

import pytest

from padic_fourier.ainf import (
    AinfElt,
    dirac_q,
    rescale_pushforward,
    t_tilde_approx,
)
from padic_fourier.errors import BoxExhausted, ParseError, PreconditionError
from padic_fourier.padic import LowerBound, PadicScalar, comb_int
from padic_fourier.witt import PerfSeries


def mono(p, q, prec, degree=None):
    return AinfElt.monomial(p, Fraction(q), prec, degree)


class TestArithmetic:
    def test_root_powers_multiply_to_unit_exponent(self):
        p = 3
        x = mono(p, Fraction(1, 3), 6)
        prod = AinfElt.one(p, 6)
        for _ in range(p):
            prod = prod * x
        assert prod == mono(p, 1, 6)

    def test_multiplicative_unit(self):
        x = AinfElt(5, 4, 1, 3, {0: 2, 3: 4})
        assert x * AinfElt.one(5, 4) == x

    def test_square_at_depth_one(self):
        p = 2
        d = dirac_q(p, Fraction(1, 2), 1, 4, 2)
        assert d * d == AinfElt(p, 4, 1, 2, {0: 1, 1: 2, 2: 1})

    def test_depth_unification_is_lossless(self):
        x = mono(2, Fraction(1, 2), 5)
        y = x.with_depth(3)
        assert x == y and y.depth == 3  # same series on a finer grid

    def test_degree_intersection(self):
        a = AinfElt(3, 5, 0, 4, {0: 1, 2: 1})
        b = AinfElt(3, 5, 0, 2, {1: 1})
        out = a * b
        assert out.degree == 2
        assert out.coeffs == {1: 1}  # the 2+1 term left the box

    def test_exact_times_exact_stays_exact(self):
        a = AinfElt(3, 5, 0, None, {0: 1, 2: 1})
        b = AinfElt(3, 5, 0, None, {1: 1})
        assert (a * b).degree is None


class TestDiracCharacter:
    def test_dirac_zero_is_one(self):
        assert dirac_q(3, Fraction(0), 2, 5, 3) == AinfElt.one(3, 5)

    def test_dirac_at_its_own_depth(self):
        p = 3
        d = dirac_q(p, Fraction(1, 3), 1, 5, 2)
        assert d == AinfElt(p, 5, 1, 2, {0: 1, 1: 1})

    @pytest.mark.parametrize("p", [2, 3])
    def test_character_law_common_depth(self, p):
        rng = random.Random(p * 23)
        for _ in range(25):
            n1 = rng.randrange(0, p**4)
            n2 = rng.randrange(0, p**4)
            s1 = Fraction(n1, p**2)
            s2 = Fraction(n2, p**2)
            m = 3
            lhs = dirac_q(p, s1, m, 5, 2) * dirac_q(p, s2, m, 5, 2)
            assert lhs == dirac_q(p, s1 + s2, m, 5, 2)

    def test_depth_insufficient(self):
        with pytest.raises(PreconditionError):
            dirac_q(3, Fraction(1, 9), 1, 4, 2)

    @pytest.mark.parametrize("p, s, m, prec, degree", [
        (2, Fraction(5, 8), 3, 12, 2),
        (2, Fraction(-3, 4), 6, 10, Fraction(1, 2)),
        (3, Fraction(7, 9), 2, 8, 3),
        (5, Fraction(2), 1, 6, Fraction(7, 5)),
        (3, Fraction(1, 3), 4, 5, 1),
    ])
    def test_coefficients_are_binomials(self, p, s, m, prec, degree):
        """Tt^(i/p^m) carries C(s p^m, i) mod p^prec, for i/p^m < degree."""
        a = int(s * p**m)
        want = {i: comb_int(a, i) for i in range(math.ceil(degree * p**m))}
        assert dirac_q(p, s, m, prec, degree) == AinfElt(p, prec, m, degree, want)
        x = PadicScalar.from_fraction(p, s, prec + 40)
        assert dirac_q(p, x, m, prec, degree) == AinfElt(p, prec, m, degree, want)

    def test_padic_scalar_point(self):
        p = 3
        s = PadicScalar.from_fraction(p, Fraction(4, 3), 30)
        d1 = dirac_q(p, s, 2, 4, 2)
        d2 = dirac_q(p, Fraction(4, 3), 2, 4, 2)
        assert d1 == d2


class TestWValuation:
    def test_examples(self):
        p = 3
        x = mono(p, Fraction(1, 3), 6) * p
        assert x.w_valuation() == Fraction(4, 3)
        assert mono(2, Fraction(3, 2), 6).w_valuation() == Fraction(3, 2)
        z = AinfElt(3, 5, 0, 4, {})
        assert z.w_valuation() == LowerBound(Fraction(4))

    def test_zero_box_floor_uses_prec(self):
        z = AinfElt(3, 2, 0, 7, {})
        assert z.w_valuation() == LowerBound(Fraction(2))

    def test_multiplicative(self):
        rng = random.Random(9)
        for _ in range(30):
            p = rng.choice([2, 3])
            a = AinfElt(p, 6, 1, 4, {rng.randrange(6): 1 + p * rng.randrange(8)})
            b = AinfElt(p, 6, 1, 4, {rng.randrange(6): 1 + p * rng.randrange(8)})
            wa, wb = a.w_valuation(), b.w_valuation()
            if wa + wb >= 4:
                continue  # the product box cannot resolve the minimum
            assert (a * b).w_valuation() == wa + wb


class TestTTildeStages:
    def test_stage_zero_at_own_depth_is_monomial(self):
        p = 2
        a = t_tilde_approx(p, 0, 0, 0, 5, 2)
        assert a == mono(p, 1, 5, 2)

    def test_final_stage_reaches_monomial(self):
        p = 3
        a = t_tilde_approx(p, 1, 2, 3, 5, 2)
        assert a == mono(p, Fraction(1, 3), 5, 2)

    @pytest.mark.parametrize("p", [2, 3])
    def test_distances_strictly_increase(self, p):
        depth, prec, degree = 5, 10, 8
        dists = []
        prev = None
        for s in range(0, 4):
            a = t_tilde_approx(p, 0, s, depth, prec, degree)
            if prev is not None:
                w = (a - prev).w_valuation()
                assert not isinstance(w, LowerBound)
                dists.append(w)
            prev = a
        assert dists == sorted(dists) and len(set(dists)) == len(dists)

    @pytest.mark.parametrize("p", [2, 3])
    def test_mod_p_is_exact_root_of_t(self, p):
        for n in range(0, 2):
            for s in range(0, 3):
                a = t_tilde_approx(p, n, s, n + s + 1, 4, 2)
                assert a.reduce_mod_p() == PerfSeries.monomial(
                    p, Fraction(1, p**n), degree=Fraction(2)
                )

    def test_depth_exhaustion(self):
        with pytest.raises(BoxExhausted):
            t_tilde_approx(3, 1, 2, 2, 4, 2)


class TestRescale:
    def test_dirac_difference_pushes_down(self):
        p = 2
        for n in range(0, 3):
            tn1 = dirac_q(p, Fraction(1, p ** (n + 1)), 4, 5, 2) - 1
            tn = dirac_q(p, Fraction(1, p**n), 3, 5, 4) - 1
            assert rescale_pushforward(tn1) == tn

    def test_unit_fixed(self):
        one = AinfElt.one(3, 4)
        assert rescale_pushforward(one) == one

    def test_dirac_scaling(self):
        p = 3
        s = Fraction(1, 9)
        lhs = rescale_pushforward(dirac_q(p, s, 3, 4, 2))
        rhs = dirac_q(p, p * s, 2, 4, 6)
        assert lhs == rhs

    def test_depth_zero_scales_keys(self):
        x = AinfElt(3, 4, 0, 3, {1: 2})
        out = rescale_pushforward(x)
        assert out.coeffs == {3: 2} and out.depth == 0


class TestReduction:
    def test_monomial(self):
        assert mono(2, 1, 4).reduce_mod_p() == PerfSeries.monomial(2, 1)

    def test_multiple_of_p_vanishes(self):
        x = mono(3, Fraction(1, 3), 4) * 3
        assert x.reduce_mod_p() == PerfSeries.zero(3)

    def test_dirac_one(self):
        d = dirac_q(2, Fraction(1), 0, 4, 3)
        r = d.reduce_mod_p()
        assert r == PerfSeries(2, 0, Fraction(3), {0: 1, 1: 1})

    @pytest.mark.parametrize("p", [2, 3])
    def test_frobenius_compatibility(self, p):
        rng = random.Random(31 * p)
        for _ in range(15):
            x = AinfElt(
                p, 4, 2,
                4,
                {rng.randrange(8): rng.randrange(1, p**4) for _ in range(3)},
            )
            lhs = (x**p).reduce_mod_p()
            rhs = x.reduce_mod_p().frobenius()
            assert lhs == rhs


class TestSandwich:
    @pytest.mark.parametrize("p", [2, 3])
    def test_ideal_generators_have_w_at_least_n(self, p):
        for n in range(1, 6):
            for i in range(n + 1):
                x = mono(p, n - i, n + 2, n + 2) * p**i
                w = x.w_valuation()
                lo = w.bound if isinstance(w, LowerBound) else w
                assert lo >= n

    @pytest.mark.parametrize("p", [2, 3])
    def test_w_at_least_n_decomposes_one_level_down(self, p):
        # a term a_q Tt^q with v(a_q) + q >= n is divisible by a generator
        # p^i Tt^j with i + j = n - 1 and j integral (the one-level loss
        # comes from rounding the exponent down to an integer)
        rng = random.Random(p * 41)
        for n in range(2, 6):
            for _ in range(10):
                k = rng.randrange(0, 4 * p**2)
                q = Fraction(k, p**2)
                v = max(0, n - int(q) - (1 if q != int(q) else 0))
                x = mono(p, q, 10, 8) * p**v
                w = x.w_valuation()
                lo = w.bound if isinstance(w, LowerBound) else w
                if lo < n:
                    continue
                for qq, c in x.items_sexp():
                    from padic_fourier.padic import vp_int

                    va = vp_int(c, p)
                    j = min(int(qq.as_fraction()), n - 1)
                    i = n - 1 - j
                    assert va >= i and qq.as_fraction() >= j


class TestJson:
    def test_round_trip(self):
        x = AinfElt(3, 4, 2, Fraction(7, 3), {0: 2, 5: 1}, shift=-1)
        assert AinfElt.from_json(x.to_json()) == x

    def test_repeated_exponent_is_a_parse_error(self):
        # 1/2 and 2/4 are one exponent: the second term once replaced the first
        doc = {"p": 2, "prec": 4, "depth": 2, "degree": None,
               "terms": [{"q": {"num": 1, "logden": 1}, "coeff": 3},
                         {"q": {"num": 2, "logden": 2}, "coeff": 5}]}
        with pytest.raises(ParseError, match="repeated"):
            AinfElt.from_json(doc)

    def test_terms_sorted(self):
        x = AinfElt(2, 4, 1, 4, {5: 1, 0: 1, 2: 1})
        qs = [t["q"] for t in x.to_json()["terms"]]
        vals = [Fraction(q["num"], 2 ** q["logden"]) for q in qs]
        assert vals == sorted(vals)
