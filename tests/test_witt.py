import json
import operator
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from padic_fourier.ainf import AinfElt
from padic_fourier.errors import ParseError, PreconditionError
from padic_fourier.padic import LowerBound
from padic_fourier.witt import (
    PerfSeries,
    teichmuller,
    witt_decompose,
    witt_recompose,
)


def random_perf(rng, p, max_terms=4):
    cs = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        cs[rng.randrange(0, 2 * p**2)] = rng.randrange(1, p)
    return PerfSeries(p, rng.randrange(0, 3), None, cs)


class TestPerfSeries:
    def test_frobenius_inverse_roundtrip(self):
        x = PerfSeries(3, 1, None, {1: 2, 4: 1})
        assert x.frobenius_inverse().frobenius() == x
        assert x.frobenius(2).frobenius_inverse(2) == x

    def test_frobenius_scales_exponents(self):
        x = PerfSeries.monomial(2, Fraction(1, 2))
        assert x.frobenius() == PerfSeries.monomial(2, 1)

    def test_char_p_freshman_dream(self):
        rng = random.Random(2)
        for _ in range(20):
            p = rng.choice([2, 3])
            a, b = random_perf(rng, p), random_perf(rng, p)
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a + b) ** p == a**p + b**p

    def test_t_adic_valuation(self):
        x = PerfSeries(3, 1, None, {2: 1, 7: 2})
        assert x.t_adic_valuation() == Fraction(2, 3)
        assert PerfSeries.zero(3).t_adic_valuation() is None


class TestPerfSeriesIsAinfEltModP:
    """PerfSeries shares AinfElt's box and arithmetic: every result keeps the
    type and the box (prec 1, shift 0), and the two types never mix."""

    x = PerfSeries(3, 1, 4, {1: 2, 4: 1})
    y = PerfSeries(3, 0, None, {0: 1, 2: 2})

    @pytest.mark.parametrize("op", [
        lambda x, y: x + y, lambda x, y: x - y, lambda x, y: -x, lambda x, y: x * y,
        lambda x, y: x * 5, lambda x, y: 5 * x, lambda x, y: x**3, lambda x, y: x - 1,
        lambda x, y: 1 - x, lambda x, y: x.with_depth(3), lambda x, y: x.frobenius(2),
        lambda x, y: x.frobenius(-2), lambda x, y: x.frobenius_inverse(1),
        lambda x, y: x.resize(degree=2),
    ])
    def test_results_are_perf_series_mod_p(self, op):
        r = op(self.x, self.y)
        assert type(r) is PerfSeries
        assert (r.prec, r.shift) == (1, 0)
        assert all(0 < c < 3 for c in r.coeffs.values())

    def test_values(self):
        x, y = self.x, self.y
        assert x * 5 == x * 2 == x + x
        assert x - x == PerfSeries.zero(3) and -x == x * 2
        assert x.frobenius(-2) == x.frobenius_inverse(2)
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_mixing_with_ainf_elt_is_refused(self, op):
        a = self.x.lift(1)  # the same coefficients as an AinfElt
        with pytest.raises(PreconditionError):
            op(self.x, a)
        with pytest.raises(PreconditionError):
            op(a, self.x)
        assert not self.x == a and not a == self.x and self.x != a

    def test_inherited_classmethods_take_ainf_elt_arguments(self):
        inherited = {
            name for name, v in vars(AinfElt).items() if isinstance(v, classmethod)
        } - set(vars(PerfSeries))
        assert inherited == {"_new"}  # from_json reads the prec-less document
        built = PerfSeries._new(3, 1, 1, 4, {1: 2, 4: 1})
        assert type(built) is PerfSeries and built == self.x


class TestPerfSeriesJson:
    def test_document_without_prec_reads_back(self):
        x = PerfSeries(3, 1, 4, {1: 2})
        doc = x.to_json()
        assert "prec" not in doc
        loaded = PerfSeries.from_json(doc)
        assert type(loaded) is PerfSeries and loaded == x and loaded.to_json() == doc

    def test_ainf_elt_loader_still_needs_prec(self):
        with pytest.raises(ParseError, match="missing 'prec'"):
            AinfElt.from_json(PerfSeries(3, 1, 4, {1: 2}).to_json())

    @pytest.mark.parametrize("doc", [
        {"depth": 0, "degree": None, "terms": []},
        {"p": 2, "depth": 0, "degree": None, "terms": 5},
        {"p": 2, "depth": 0, "degree": None, "terms": [{"q": {"num": 1, "logden": 1},
                                                        "coeff": 1}]},
        [1, 2],
        {"p": 3, "depth": 1, "degree": None, "terms": [{"q": {"num": 1, "logden": 1}, "coeff": 1},
                                                        {"q": {"num": 1, "logden": 1}, "coeff": 2}]},
    ], ids=["no-p", "terms-not-a-list", "off-grid", "not-an-object", "repeated-exponent"])
    def test_malformed_document_is_a_parse_error(self, doc):
        with pytest.raises(ParseError):
            PerfSeries.from_json(doc)


@st.composite
def perf_series(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    depth = draw(st.integers(0, 3))
    degree = draw(st.one_of(
        st.none(),
        st.builds(Fraction, st.integers(1, 40), st.sampled_from([p**k for k in range(4)])),
    ))
    cs = draw(st.dictionaries(st.integers(0, 60), st.integers(-20, 20), max_size=6))
    return PerfSeries(p, depth, degree, cs)


@settings(max_examples=200, deadline=None)
@given(perf_series())
def test_perf_series_json_round_trip(x):
    doc = x.to_json()
    loaded = PerfSeries.from_json(json.loads(json.dumps(doc)))
    assert type(loaded) is PerfSeries
    assert loaded == x and loaded.to_json() == doc
    assert (loaded.depth, loaded.degree, loaded.coeffs) == (x.depth, x.degree, x.coeffs)


class TestTeichmuller:
    def test_unit(self):
        one = PerfSeries.one(2)
        assert teichmuller(one, 4) == AinfElt.one(2, 4)

    @pytest.mark.parametrize("p", [2, 3])
    def test_root_monomials_lift_to_basis(self, p):
        for n in range(0, 3):
            x = PerfSeries.monomial(p, Fraction(1, p**n))
            assert teichmuller(x, 4) == AinfElt.monomial(p, Fraction(1, p**n), 4)

    @pytest.mark.parametrize("p", [2, 3])
    def test_reduction_is_identity(self, p):
        rng = random.Random(5 * p)
        for _ in range(15):
            x = random_perf(rng, p)
            assert teichmuller(x, 3).reduce_mod_p() == x

    @pytest.mark.parametrize("p", [2, 3])
    def test_multiplicative(self, p):
        rng = random.Random(7 * p)
        for _ in range(10):
            x, y = random_perf(rng, p, 3), random_perf(rng, p, 3)
            assert teichmuller(x, 3) * teichmuller(y, 3) == teichmuller(x * y, 3)

    @pytest.mark.parametrize("p", [2, 3])
    def test_frobenius_power(self, p):
        rng = random.Random(11 * p)
        for _ in range(10):
            x = random_perf(rng, p, 3)
            assert teichmuller(x, 4) ** p == teichmuller(x.frobenius(), 4)

    def test_budget_shrinks_finite_degree(self):
        x = PerfSeries(2, 0, Fraction(8), {0: 1, 1: 1})
        out = teichmuller(x, 3)
        assert out.degree == Fraction(2)  # 8 / p^(N-1)


class TestWittDigits:
    def test_basis_monomial_digits(self):
        p = 2
        t_lift = teichmuller(PerfSeries.monomial(p, 1), 3)
        w = witt_decompose(t_lift, 3)
        assert w.digits[0] == PerfSeries.monomial(p, 1)
        assert w.digits[1] == PerfSeries.zero(p)
        assert w.digits[2] == PerfSeries.zero(p)

    def test_p_has_second_digit_one(self):
        p = 3
        a = AinfElt.one(p, 4) * p
        w = witt_decompose(a, 4)
        assert [bool(d.coeffs) for d in w.digits] == [False, True, False, False]
        assert w.digits[1] == PerfSeries.one(p)

    @pytest.mark.parametrize("p", [2, 3])
    def test_round_trip(self, p):
        rng = random.Random(13 * p)
        for _ in range(10):
            digits = 3
            a = teichmuller(random_perf(rng, p, 3), digits)
            b = teichmuller(random_perf(rng, p, 2), digits - 1)
            mixed = a + AinfElt(
                p, digits - 1, b.depth, b.degree, b.coeffs, shift=1
            )
            w = witt_decompose(mixed, digits - 1)
            assert witt_recompose(w) == mixed.resize(prec=digits - 1)

    @pytest.mark.parametrize("p", [2, 3])
    def test_product_of_lifts_has_one_digit(self, p):
        rng = random.Random(17 * p)
        for _ in range(8):
            x, y = random_perf(rng, p, 2), random_perf(rng, p, 2)
            prod = teichmuller(x, 3) * teichmuller(y, 3)
            w = witt_decompose(prod, 3)
            assert w.digits[0] == x * y
            assert all(not d.coeffs for d in w.digits[1:])

    def test_sum_of_lifts_carries(self):
        # 1 + Tt decomposes with the strict-p-ring carry digit t^(1/2):
        # peeling [1 + t] off leaves -2·Tt^(1/2) at p = 2
        p = 2
        a = AinfElt(p, 2, 0, None, {0: 1, 1: 1})
        w = witt_decompose(a, 2)
        assert w.digits[0] == PerfSeries(p, 0, None, {0: 1, 1: 1})
        assert w.digits[1] == PerfSeries.monomial(p, Fraction(1, 2))
        assert witt_recompose(w) == a

    def test_shifted_input_rejected(self):
        a = AinfElt(2, 3, 0, None, {0: 1}, shift=-1)
        with pytest.raises(PreconditionError):
            witt_decompose(a, 2)


class TestTopologyCofinality:
    @pytest.mark.parametrize("p", [2, 3])
    def test_product_topology_generators_sit_in_w_balls(self, p):
        # generators p^i [t]^(p^n - i) of (p, [t])^(p^n) have w >= p^n... the
        # generator grid and the w-floor grid are mutually cofinal at small n
        for n in range(0, 3):
            q = p**n
            for i in range(q + 1):
                x = AinfElt.monomial(p, q - i, n + q + 2, q + 1) * p**i
                w = x.w_valuation()
                lo = w.bound if isinstance(w, LowerBound) else w
                assert lo >= q

    @pytest.mark.parametrize("p", [2, 3])
    def test_w_balls_decompose_into_digit_ideals(self, p):
        # conversely an element with w >= p^n + n has every Witt digit x_i
        # below precision n supported in t-degree >= p^n - ...: check the
        # simplest certified consequence: digits 0..n-1 of such an element
        # vanish below exponent 1
        for n in range(1, 3):
            x = AinfElt.monomial(p, p**n, n + 3, p**n + 1) * p**0
            w = witt_decompose(x.resize(prec=n + 1), n + 1)
            for i, d in enumerate(w.digits[: n + 1]):
                tv = d.t_adic_valuation()
                assert tv is None or tv >= 1
