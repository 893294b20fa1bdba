import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_fourier import _series
from padic_fourier.ainf import AinfElt, dirac_q, rescale_pushforward
from padic_fourier.errors import (
    PrecisionExhausted,
    PreconditionError,
    PrimeMismatch,
    UncertifiedTailError,
)
from padic_fourier.fourier import (
    UnifFn,
    eval_unif,
    forward_transform,
    forward_transform_diracs,
    integrate_unif,
    integrate_unif_matrix,
    pullback_rescale,
)
from padic_fourier.iwasawa import (
    IwasawaElt,
    MahlerFn,
    integrate,
    integrate_matrix,
    mahler_coeffs_from_samples,
)
from padic_fourier.padic import (
    PadicScalar,
    SExponent,
    _congruent,
    comb_int,
    comb_tracked,
    gen_binomial,
    gen_binomial_profile,
    vp_int,
)


def quadrature_integral(f, q_prime, level, prec):
    """Independent oracle for the pairing against Tt^(q').

    Tt^(q') is approached by the Dirac combination
    (Delta(1/p^level) - 1)^(p^level · q'), whose integral against f is the
    finite signed sum Σ_j (-1)^(K-j) C(K, j) f(j / p^level).
    """
    p = f.p
    K = int(Fraction(q_prime) * p**level)
    acc = PadicScalar.zero(p, prec)
    for j in range(K + 1):
        x = PadicScalar.from_fraction(p, Fraction(j, p**level), prec + 40)
        fx = eval_unif(f, x, prec)
        acc = acc + fx * ((-1) ** (K - j) * comb_int(K, j))
    return acc


class TestOrthogonality:
    @pytest.mark.parametrize("p", [2, 3])
    def test_grid(self, p):
        prec = 12
        ks = range(0, 2 * p**2)  # q = k/p^2 in [0, 2)
        for k1 in ks:
            f = UnifFn.basis(p, Fraction(k1, p**2), prec)
            for k2 in ks:
                mu = AinfElt.monomial(p, Fraction(k2, p**2), prec, degree=2)
                expect = PadicScalar.from_int(p, 1 if k1 == k2 else 0, prec)
                assert integrate_unif(f, mu) == expect

    def test_quadrature_oracle_agrees(self):
        # the level sum against (Delta - 1)^K reproduces the pairing exactly
        p = 2
        for qn in (0, 1, 2, 3):
            for qd in (0, 1, 2, 3):
                f = UnifFn.basis(p, Fraction(qn, 2), 6)
                val = quadrature_integral(f, Fraction(qd, 2), 3, 4)
                expect = 1 if qn == qd else 0
                assert val.residue(2) == expect % 4, (qn, qd)


class TestForwardTransform:
    def test_monomial(self):
        mu = AinfElt.monomial(2, Fraction(3, 2), 6, degree=4)
        ft = forward_transform(mu)
        assert set(ft) == {SExponent(2, 3, 1)}
        assert ft[SExponent(2, 3, 1)] == PadicScalar.from_int(2, 1, 6)

    def test_zero(self):
        assert forward_transform(AinfElt.zero(3, 5)) == {}

    def test_stored_series_recovered(self):
        rng = random.Random(3)
        for _ in range(20):
            p = rng.choice([2, 3])
            cs = {rng.randrange(12): rng.randrange(1, p**5) for _ in range(4)}
            mu = AinfElt(p, 5, 2, 4, cs)
            ft = forward_transform(mu)
            back = {q.num * p ** (2 - q.logden): v.residue(5) for q, v in ft.items()}
            assert back == dict(mu.with_depth(2).coeffs)

    @pytest.mark.parametrize("p", [2, 3])
    def test_dirac_combination_matches_realization(self, p):
        # coefficients of the depth-m Dirac realization agree with the
        # generalized binomial at the certified congruence level 1 + m + v(s)
        m = 2
        for s in (Fraction(1, p**2), Fraction(3, p), Fraction(2)):
            d = dirac_q(p, s, m, 6, 2)
            vs = -2 if s.denominator == p**2 else (-1 if s.denominator == p else 0)
            level = 1 + m + vs
            qs = [q for q, _ in d.items_sexp()]
            ft = forward_transform_diracs(p, [(1, s)], qs, 6)
            stored = dict(d.items_sexp())
            for q in qs:
                assert ft[q].truncate(level) == PadicScalar.from_int(
                    p, stored[q], 6
                ).truncate(level)


class TestEval:
    def test_constant_one(self):
        f = UnifFn.constant(3, 1, 6)
        for fr in (Fraction(0), Fraction(5), Fraction(7, 9)):
            x = PadicScalar.from_fraction(3, fr, 40)
            assert eval_unif(f, x) == PadicScalar.from_int(3, 1, 6)

    def test_x_equals_q(self):
        f = UnifFn.basis(3, Fraction(1, 3), 8)
        x = PadicScalar.from_fraction(3, Fraction(1, 3), 60)
        assert eval_unif(f, x, 6) == PadicScalar.from_int(3, 1, 6)

    def test_basis_one_congruent_to_identity(self):
        # (x choose 1) agrees with x at the first congruence level
        f = UnifFn.basis(3, 1, 8)
        for a in (2, 5, 7):
            x = PadicScalar.from_int(3, a, 60)
            got = eval_unif(f, x, 6)
            assert (got - a).val_floor() >= 1

    def test_decay_floor_limits_precision(self):
        f = UnifFn(2, 8, 1, {1: 3}, decay_cert=[(Fraction(0), 4)])
        x = PadicScalar.from_fraction(2, Fraction(1, 2), 60)
        out = eval_unif(f, x)
        assert out.abs_bound == 4

    def test_uncertified_decay_raises(self):
        f = UnifFn(2, 6, 0, {1: 1}, decay_cert=[(Fraction(2), 0)])
        x = PadicScalar.from_int(2, 3, 40)
        with pytest.raises(UncertifiedTailError):
            eval_unif(f, x)


class TestPullback:
    def test_constant_fixed(self):
        f = UnifFn.constant(2, 1, 6)
        assert pullback_rescale(f) == f

    def test_coefficient_contraction(self):
        f = UnifFn.basis(2, 1, 6)
        g = pullback_rescale(f)
        assert [(q.num, q.logden) for q, _ in g.items_sexp()] == [(1, 1)]

    @pytest.mark.parametrize("p", [2, 3])
    def test_adjoint_to_pushforward(self, p):
        rng = random.Random(29 * p)
        for _ in range(15):
            f = UnifFn(
                p, 6, 1,
                {rng.randrange(8): rng.randrange(1, p**6) for _ in range(3)},
                exact_tail=True,
            )
            mu = AinfElt(
                p, 6, 2, 4,
                {rng.randrange(4 * p**2): rng.randrange(1, p**6) for _ in range(3)},
            )
            lhs = integrate_unif(pullback_rescale(f), mu)
            rhs = integrate_unif(f, rescale_pushforward(mu))
            assert lhs == rhs

    def test_pullback_of_limit_binomial_pointwise(self):
        # (px choose 1) = (x choose 1/p) as limit functions: both sides are
        # the same scaling sequence, checked at a point
        p, prec = 2, 6
        f = UnifFn.basis(p, 1, 8)
        g = pullback_rescale(f)
        x = PadicScalar.from_fraction(p, Fraction(3, 4), 60)
        px = x * p
        assert eval_unif(g, x, prec) == eval_unif(f, px, prec)


class TestDiracPairing:
    @pytest.mark.parametrize("p", [2, 3])
    def test_integrating_against_dirac_evaluates(self, p):
        # pairing with the depth-m Dirac realization agrees with direct
        # evaluation at the realization's congruence level 1 + m + v(s)
        rng = random.Random(53 * p)
        m = 2
        for _ in range(6):
            f = UnifFn(
                p, 8, 1,
                {rng.randrange(2 * p): rng.randrange(1, p**8) for _ in range(2)},
                exact_tail=True,
            )
            num = rng.randrange(1, p**3)
            s = Fraction(num, p**m)
            vs = -m if num % p else -m + 1
            level = 1 + m + vs
            mu = dirac_q(p, s, m, 8, 4)
            lhs = integrate_unif(f, mu)
            rhs = eval_unif(f, PadicScalar.from_fraction(p, s, 60), 8)
            assert lhs.truncate(level) == rhs.truncate(level), (p, s)

    def test_total_mass_is_constant_term(self):
        mu = AinfElt(3, 6, 1, 4, {0: 7, 2: 5, 5: 1})
        one = UnifFn.constant(3, 1, 6)
        assert integrate_unif(one, mu) == PadicScalar.from_int(3, 7, 6)


class TestRestrictionConsistency:
    def test_depth_zero_matches_mahler_pairing(self):
        rng = random.Random(41)
        for _ in range(20):
            p = rng.choice([2, 3, 5])
            fc = {rng.randrange(6): rng.randrange(1, p**5) for _ in range(3)}
            mc = {rng.randrange(8): rng.randrange(1, p**5) for _ in range(3)}
            f_q = UnifFn(p, 5, 0, fc, exact_tail=True)
            mu_q = AinfElt(p, 5, 0, 8, mc)
            f_z = MahlerFn(p, 5, fc, max(fc) + 1, exact_tail=True)
            cs = [0] * 8
            for k, c in mc.items():
                cs[k] = c
            mu_z = IwasawaElt(p, 5, 8, cs)
            assert integrate_unif(f_q, mu_q) == integrate(f_z, mu_z)


class TestRoundTrip:
    @pytest.mark.parametrize("p", [2, 3])
    def test_pointwise_reconstruction(self, p):
        # rebuild the function from its transported coefficients and compare
        # at points of p^(-2) Z_p, plus the quadrature oracle at one point
        rng = random.Random(43 * p)
        prec = 6
        f = UnifFn(
            p, prec, 2,
            {rng.randrange(2 * p**2): rng.randrange(1, p**prec) for _ in range(3)},
            exact_tail=True,
        )
        mu = AinfElt(p, prec, f.depth, 2, dict(f.coeffs))
        coeffs = forward_transform(mu)
        rebuilt = UnifFn(
            p, prec, f.depth,
            {q.num * p ** (f.depth - q.logden): v.residue(prec) for q, v in coeffs.items()},
            exact_tail=True,
        )
        assert rebuilt == f
        for _ in range(20):
            x = PadicScalar.from_fraction(
                p, Fraction(rng.randrange(1, 4 * p**2), p**2), 80
            )
            assert eval_unif(rebuilt, x, 5) == eval_unif(f, x, 5)

    def test_quadrature_matches_pairing(self):
        p = 2
        f = UnifFn(p, 5, 1, {0: 3, 1: 2, 2: 1}, exact_tail=True)
        for q in (Fraction(1, 2), Fraction(1)):
            mu = AinfElt.monomial(p, q, 5, degree=2)
            direct = integrate_unif(f, mu)
            oracle = quadrature_integral(f, q, 4, 4)
            assert direct.truncate(3) == oracle.truncate(3)


class TestIntegrateEdges:
    def test_stored_beyond_measure_box_raises(self):
        f = UnifFn(3, 4, 0, {5: 1}, exact_tail=False, decay_cert=[(Fraction(6), 4)])
        mu = AinfElt(3, 4, 0, 4, {1: 1})
        with pytest.raises(UncertifiedTailError):
            integrate_unif(f, mu)

    def test_decay_cert_folds_into_precision(self):
        f = UnifFn(3, 6, 0, {1: 1}, exact_tail=False, decay_cert=[(Fraction(0), 2)])
        mu = AinfElt(3, 6, 0, 4, {1: 5, 2: 9})
        out = integrate_unif(f, mu)
        # the unknown measure tail beyond degree 4 pairs with omitted
        # coefficients of floor 2, so two digits survive
        assert out.abs_bound == 2
        assert out.residue(2) == 5
        # with an exact measure tail only the stored crossing term matters:
        # floor 2 plus v_3(9) = 2 leaves four digits
        mu_exact = AinfElt(3, 6, 0, None, {1: 5, 2: 9}).resize(degree=None)
        out2 = integrate_unif(f, mu_exact)
        assert out2.abs_bound == 4 and out2.residue(4) == 5

    def test_stored_zero_is_not_charged_as_omitted(self):
        # 16 is 0 mod 2^4, yet known: the decay floor 0 of the omitted
        # coefficients must not reach the measure's term at q = 1
        f = UnifFn(2, 4, 0, {0: 1, 1: 16}, decay_cert=[(0, 0)])
        out = integrate_unif(f, AinfElt(2, 6, 0, None, {0: 1, 1: 1}))
        assert out.abs_bound == 4 and out == PadicScalar(2, 0, 1, 4)
        assert f.coeffs == {0: 1, 1: 0}

    def test_json_round_trip(self):
        f = UnifFn(3, 6, 1, {1: 2, 4: 5}, decay_cert=[(Fraction(2), 6)])
        doc = f.to_json()
        assert UnifFn.from_json(doc) == f
        f2 = UnifFn.basis(2, Fraction(1, 2), 5)
        assert UnifFn.from_json(f2.to_json()) == f2


# ---------------------------------------------------------------------------
# Batched pairings on Z_p and Q_p against per-pair oracles
# ---------------------------------------------------------------------------


def integrate_by_pairs(f, mu):
    """Oracle for ``integrate_matrix``: one pair at a time, every crossing
    term and tail rule spelled out."""
    if f.p != mu.p:
        raise PrimeMismatch("function and measure primes differ")
    p = f.p
    prec = min(f.prec, mu.prec)
    total, out_prec = 0, prec
    for n, c in f.coeffs.items():
        if n < mu.degree:
            total += c * mu.coeffs[n]
        elif not mu.exact_tail:
            # stored coefficient against an unknown measure digit
            out_prec = min(out_prec, vp_int(c, p))
    if not f.exact_tail:
        start = f.period if f.period is not None else f.tail_cert
        for n in range(start, mu.degree):
            if n in f.coeffs:
                continue
            a = mu.coeffs[n]
            av = vp_int(a, p) if a else mu.prec
            out_prec = min(out_prec, f.tail_floor_at(n) + av)
        if not mu.exact_tail:
            out_prec = min(out_prec, f.tail_floor_at(max(start, mu.degree)))
    if out_prec < 1:
        raise UncertifiedTailError("nothing certified")
    return PadicScalar(p, 0, total, out_prec)


def check_matrix_against_oracle(matrix, oracle, fns, mus):
    """``matrix(fns, mus)`` against ``oracle`` pair by pair: PrimeMismatch for
    a family of two primes, else UncertifiedTailError when some pair raises
    it, else every entry the oracle's scalar, and the CLI's per-entry test
    against 0 and 1 the verdict of ``PadicScalar.__eq__`` and of a zero
    difference."""
    if len({x.p for x in (*fns, *mus)}) > 1:
        with pytest.raises(PrimeMismatch):
            matrix(fns, mus)
        return
    try:
        want = [[oracle(f, mu) for mu in mus] for f in fns]
    except UncertifiedTailError:
        with pytest.raises(UncertifiedTailError):
            matrix(fns, mus)
        return
    got = matrix(fns, mus)
    assert len(got) == len(fns)
    for f, row, want_row in zip(fns, got, want):
        assert len(row) == len(mus)
        for (shift, total, bound), w in zip(row, want_row):
            assert PadicScalar(f.p, shift, total, bound - shift).to_json() == w.to_json()
            for c in (0, 1):
                assert _congruent(f.p, shift, total, 0, c, bound) == (w == c) == (w - c).is_zero()


@st.composite
def zp_pairing_families(draw):
    """Functions with exact, plain and period tails and measures with exact
    and unknown tails, stored indices running past the measures' degrees;
    now and then one object at another prime."""
    p = draw(st.sampled_from([2, 3, 5]))

    def function(p):
        prec = draw(st.integers(1, 6))
        kind = draw(st.sampled_from(["exact", "plain", "period"]))
        if kind == "period":
            M = draw(st.integers(0, 4 if p == 2 else 2))
            samples = st.integers(0, p**prec)
            return mahler_coeffs_from_samples(
                p, draw(st.lists(samples, min_size=p**M, max_size=p**M)), prec=prec
            )
        cert = draw(st.integers(1, 14))
        cs = draw(st.dictionaries(st.integers(0, cert - 1), st.integers(0, p**prec), max_size=4))
        return MahlerFn(p, prec, cs, cert, exact_tail=kind == "exact")

    def measure(p):
        prec, degree = draw(st.integers(1, 6)), draw(st.integers(1, 12))
        cs = draw(st.dictionaries(st.integers(0, degree - 1), st.integers(0, p**prec), max_size=4))
        return IwasawaElt(
            p, prec, degree, [cs.get(n, 0) for n in range(degree)], exact_tail=draw(st.booleans())
        )

    fns = [function(p) for _ in range(draw(st.integers(0, 4)))]
    mus = [measure(p) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 9)) == 0:
        family, make = draw(st.sampled_from([(fns, function), (mus, measure)]))
        family.append(make(7))
    return fns, mus


@settings(max_examples=300, deadline=None)
@given(zp_pairing_families())
@example(([MahlerFn(3, 2, {5: 1}, 6)], [IwasawaElt(3, 2, 4, [1, 1, 1, 1])]))  # uncertified
@example(([MahlerFn.basis(2, 1, 4)], [IwasawaElt.monomial(3, 1, 4, 3)]))  # two primes
def test_integrate_matrix_equals_the_per_pair_oracle(family):
    fns, mus = family
    check_matrix_against_oracle(integrate_matrix, integrate_by_pairs, fns, mus)
    if fns and mus:
        try:
            want = integrate_by_pairs(fns[0], mus[0]).to_json()
        except (PrimeMismatch, UncertifiedTailError) as e:
            with pytest.raises(type(e)):
                integrate(fns[0], mus[0])
        else:
            assert integrate(fns[0], mus[0]).to_json() == want


def integrate_unif_by_pairs(f, mu):
    """Oracle for ``integrate_unif_matrix``: one pair at a time on the pair's
    own grid.  The measure's coefficients are p^shift times its residues, so
    every bound counts the shift: the box's own p^(shift + prec), a stored
    function coefficient against an unknown measure digit, and an omitted
    function coefficient against a stored or unknown one."""
    if f.p != mu.p:
        raise PrimeMismatch("function and measure primes differ")
    p = f.p
    m = max(f.depth, mu.depth)
    mud = mu.with_depth(m)
    fk = {k * p ** (m - f.depth): b for k, b in f.coeffs.items()}
    keybound = None if mu.degree is None else math.ceil(mu.degree * p**m)
    prec = min(f.prec, mu.prec)
    total, out = 0, mu.shift + prec
    for k, b in fk.items():
        if keybound is None or k < keybound:
            total += b * mud.coeffs.get(k, 0)
        elif b:  # a stored 0 is known to O(p^prec), which ``out`` holds
            out = min(out, vp_int(b, p) + mu.shift)
    if not f.exact_tail:
        for k, a in mud.coeffs.items():
            if k not in fk:
                out = min(out, f.decay_floor_beyond(Fraction(k, p**m)) + vp_int(a, p) + mu.shift)
        if mu.degree is not None:
            out = min(out, f.decay_floor_beyond(mu.degree) + mu.shift)
    if out < min(1, mu.shift + prec):  # crossing terms left no digit from p^0 on
        raise UncertifiedTailError("nothing certified")
    return PadicScalar(p, mu.shift, total, out - mu.shift)


def unif_fn(draw, p, exact=None):
    """A uniform function on a grid of depth <= 2, its tail exact or under a
    decay certificate of up to two thresholds."""
    prec, depth = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    cs = draw(st.dictionaries(st.integers(0, 3 * p**depth), st.integers(0, p**prec), max_size=4))
    if draw(st.booleans()) if exact is None else exact:
        return UnifFn(p, prec, depth, cs, exact_tail=True)
    cert = draw(st.lists(
        st.tuples(st.integers(0, 3 * p**2).map(lambda k: Fraction(k, p**2)), st.integers(0, 4)),
        min_size=1, max_size=2,
    ))
    return UnifFn(p, prec, depth, cs, decay_cert=cert)


def unif_measure(draw, p, degree=True):
    """A shifted uniform measure; its degree may be off every p-power grid."""
    prec, depth = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    if degree and draw(st.integers(0, 3)):
        degree = Fraction(draw(st.integers(1, 12)), draw(st.sampled_from([1, 2, 3, 4, 9])))
    else:
        degree = None
    cs = draw(st.dictionaries(st.integers(0, 3 * p**depth), st.integers(0, p**prec), max_size=4))
    return AinfElt(p, prec, depth, degree, cs, shift=draw(st.integers(-3, 3)))


@st.composite
def qp_pairing_families(draw):
    p = draw(st.sampled_from([2, 3]))
    fns = [unif_fn(draw, p) for _ in range(draw(st.integers(0, 4)))]
    mus = [unif_measure(draw, p) for _ in range(draw(st.integers(0, 4)))]
    if draw(st.integers(0, 9)) == 0:
        family, make = draw(st.sampled_from([(fns, unif_fn), (mus, unif_measure)]))
        family.append(make(draw, 5))
    return fns, mus


@settings(max_examples=300, deadline=None)
@given(qp_pairing_families())
@example(([UnifFn(2, 10, 0, {0: 1, 1: 8}, exact_tail=True)],
          [AinfElt(2, 5, 0, 1, {0: 3}, shift=-3)]))
# omitted exponents of S come arbitrarily close above the degree 1/3, so the
# tail floor is the one at 1/3 (1), not at the key bound's 1/2 (3)
@example(([UnifFn(2, 6, 2, {1: 1}, decay_cert=[(0, 1), (Fraction(1, 2), 3)])],
          [AinfElt(2, 6, 2, Fraction(1, 3), {1: 1})]))
def test_integrate_unif_matrix_equals_the_per_pair_oracle(family):
    fns, mus = family
    check_matrix_against_oracle(integrate_unif_matrix, integrate_unif_by_pairs, fns, mus)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from([2, 3]))
def test_shifted_pairing_holds_for_both_tail_realisations(data, p):
    # a certified pairing agrees, to its precision, with the exact pairing
    # of every completion of the boxes: here the unknown measure tail at 0
    # and at p^shift, the omitted function terms at 0 and at p^floor
    draw = data.draw
    f = unif_fn(draw, p)
    mu = unif_measure(draw, p, degree=False)
    mu = AinfElt(p, mu.prec, mu.depth, Fraction(draw(st.integers(1, 12)), p**mu.depth),
                 mu.coeffs, shift=mu.shift)
    try:
        got = integrate_unif(f, mu)
    except UncertifiedTailError:
        return
    m = max(f.depth, mu.depth)
    fk = {k * p ** (m - f.depth): b for k, b in f.coeffs.items()}
    mk = mu.with_depth(m).coeffs
    kb = _series.key_bound(p, m, mu.degree)
    keys = set(fk) | set(mk) | set(range(kb, kb + 3))
    for f_tail in (False, True) if not f.exact_tail else (False,):
        fc = dict(fk)
        if f_tail:
            for k in keys - set(fk):
                fc[k] = p ** f.decay_floor_beyond(Fraction(k, p**m))
        for mu_tail in (False, True):
            mc = dict(mk)
            if mu_tail:
                mc.update({k: 1 for k in keys if k >= kb})
            total = sum(b * mc.get(k, 0) for k, b in fc.items())
            exact = PadicScalar(p, mu.shift, total, min(f.prec, mu.prec))
            assert got == exact, (f_tail, mu_tail)


class TestShiftedPairing:
    def test_positive_shift_keeps_its_digits(self, tmp_path, capsys):
        # 2^2·3·Tt^(1/2) + O(2^7, q >= 1) against (x choose 1/2): the box
        # certifies O(2^7), the shift plus the five stored digits
        from padic_fourier.cli import main

        mu = AinfElt(2, 5, 1, 1, {1: 3}, shift=2)
        assert integrate_unif(UnifFn.basis(2, Fraction(1, 2), 12), mu) == PadicScalar(2, 2, 3, 5)
        path = tmp_path / "mu.json"
        path.write_text(json.dumps(mu.to_json()))
        argv = ["integrate", "--p", "2", "--f", "binom:1/2", "--mu", f"@{path}"]
        assert main([*argv, "--format", "pretty"]) == 0
        assert capsys.readouterr().out.strip() == "2^2 * 3 + O(2^7)"

    def test_negative_shift_tail_is_uncertified(self):
        # a tail coefficient 2^-3 at q = 1 moves the integral by 8 · 2^-3 = 1
        f = UnifFn(2, 10, 0, {0: 1, 1: 8}, exact_tail=True)
        with pytest.raises(UncertifiedTailError):
            integrate_unif(f, AinfElt(2, 5, 0, 1, {0: 3}, shift=-3))

    def test_negative_shift_with_exact_tails_is_certified(self):
        # no tail to cross: the box's own p^(shift + prec) = 2^-1, below p^0
        mu = AinfElt(2, 2, 0, None, {0: 3}, shift=-3)
        out = integrate_unif(UnifFn.constant(2, 1, 8), mu)
        assert out.abs_bound == -1 and out == PadicScalar(2, -3, 3, 2)


# ---------------------------------------------------------------------------
# One generalized-binomial pass per point: the per-exponent evaluation, with
# its own level rule, is the oracle for gen_binomial, gen_binomial_profile,
# forward_transform_diracs and eval_unif.
# ---------------------------------------------------------------------------


def sexp(p, q):
    return q if isinstance(q, SExponent) else SExponent.from_fraction(p, q)


def level_oracle(x, q, target_prec):
    vx = x.val_floor()
    return max(q.logden, -min(vx, 0), target_prec - 1 - vx, 0)


def gen_binomial_oracle(x, q, target_prec):
    """(x choose q) at its own level: C(p^n x, p^n q) by ``comb_tracked``,
    certified to the tail 1 + n + v(x)."""
    p, q = x.p, sexp(x.p, q)
    if target_prec < 1:
        raise PreconditionError("target_prec must be >= 1")
    if q.num == 0:
        return PadicScalar.one(p, target_prec)
    n = level_oracle(x, q, target_prec)
    X, M = x.unit * p ** (x.shift + n), x.abs_bound + n
    out = comb_tracked(p, X, M, q.num * p ** (n - q.logden), work=target_prec + 2)
    certified = min(out.abs_bound, 1 + n + x.val_floor())
    if certified < target_prec:
        raise PrecisionExhausted(f"certified only to O(p^{certified})")
    return out.truncate(certified)


def profile_oracle(x, logden, q_max, target_prec):
    """The profile's entries j >= 1, each by ``comb_tracked`` at the level the
    largest exponent needs."""
    p = x.p
    j_max = int(Fraction(q_max) * p**logden)
    n = max(level_oracle(x, SExponent(p, max(j_max, 1), logden), target_prec), logden)
    X, M, step = x.unit * p ** (x.shift + n), x.abs_bound + n, p ** (n - logden)
    out = {}
    for j in range(1, j_max + 1):
        sc = comb_tracked(p, X, M, j * step, target_prec + 2)
        certified = min(sc.abs_bound, 1 + n + x.val_floor())
        if certified < target_prec:
            raise PrecisionExhausted(f"entry {j} certified only to O(p^{certified})")
        out[j] = sc.truncate(certified)
    return out


def forward_transform_diracs_oracle(p, combo, qs, prec):
    points = [
        (c, s if isinstance(s, PadicScalar) else PadicScalar.from_fraction(p, s, prec + 24))
        for c, s in combo
    ]
    out = {}
    for q in qs:
        q = sexp(p, q)
        acc = PadicScalar.zero(p, prec)
        for c, s in points:
            acc = acc + gen_binomial_oracle(s, q, prec) * c
        out[q] = acc
    return out


def eval_unif_oracle(f, x, target_prec=None):
    target = f.prec if target_prec is None else min(target_prec, f.prec)
    out_prec = min(target, f.decay_floor_beyond(Fraction(0)))
    if out_prec < 1:
        raise UncertifiedTailError("decay certificate certifies no digits")
    acc = PadicScalar.zero(f.p, out_prec)
    for q, b in f.items_sexp():
        if b:
            acc = acc + gen_binomial_oracle(x, q, out_prec) * b
    return acc.truncate(min(out_prec, acc.abs_bound))


def triple(s):
    return s.shift, s.unit, s.prec


def outcome(fn, *args):
    """The (shift, unit, prec) of every scalar fn returns, in order, or the
    class of the error it raises."""
    try:
        out = fn(*args)
    except (PrecisionExhausted, PreconditionError, PrimeMismatch, UncertifiedTailError) as e:
        return type(e)
    if isinstance(out, PadicScalar):
        return triple(out)
    return [(k, triple(v)) for k, v in out.items()]


def scalars(p):
    """Scalars of prec 0-12, the zero scalar included."""
    return st.one_of(st.just(PadicScalar(p, 0, 0, 0)), st.builds(
        lambda shift, unit, prec: PadicScalar(p, shift, unit, prec),
        st.integers(-3, 3), st.integers(0, p**12), st.integers(0, 12)))


def dirac_points(p):
    """Scalars, and rationals whose denominator is a power of p or prime to p."""
    return scalars(p) | st.builds(
        Fraction, st.integers(-40, 40), st.sampled_from([1, p, p**2, p**3, 3 * p + 1]))


def exponent_lists(p):
    """Unsorted exponents on grids of depth 0-3, with duplicates, q = 0, and
    both SExponents and Fractions."""
    q = st.builds(lambda n, e: SExponent(p, n, e), st.integers(0, 3 * p**2), st.integers(0, 3))
    return st.lists(st.one_of(q, q.map(SExponent.as_fraction), st.just(0)), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
    st.just(p), st.lists(st.tuples(st.integers(-5, 5), dirac_points(p)), min_size=1, max_size=3),
    exponent_lists(p), st.integers(1, 10))))
@example((2, [(5, Fraction(29, 7))], [Fraction(3, 2), 0, Fraction(1, 4), 1, Fraction(1, 4)], 4))
@example((3, [(1, PadicScalar(3, 0, 0, 0)), (2, PadicScalar(3, -2, 5, 3))],
          [SExponent(3, 7, 2), 0, SExponent(3, 1, 0)], 6))
def test_forward_transform_diracs_matches_the_per_exponent_oracle(case):
    p, combo, qs, prec = case
    want = outcome(forward_transform_diracs_oracle, p, combo, qs, prec)
    assert outcome(forward_transform_diracs, p, combo, qs, prec) == want
    for _, s in combo:
        if isinstance(s, PadicScalar):
            for q in qs:
                assert outcome(gen_binomial, s, q, prec) == outcome(gen_binomial_oracle, s, q, prec)


def test_forward_transform_diracs_refuses_a_point_at_another_prime():
    with pytest.raises(PrimeMismatch):
        forward_transform_diracs(2, [(1, PadicScalar.from_int(3, 1, 4))], [0, 1], 4)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
    st.data(), scalars(p), st.none() | st.integers(1, 10))))
def test_eval_unif_matches_the_per_exponent_oracle(case):
    data, x, target = case
    f = unif_fn(data.draw, x.p)
    assert outcome(eval_unif, f, x, target) == outcome(eval_unif_oracle, f, x, target)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5]).flatmap(lambda p: st.tuples(
    scalars(p), st.integers(0, 3),
    st.builds(Fraction, st.integers(1, 12), st.sampled_from([1, 2, 4])), st.integers(1, 10))))
@example((PadicScalar(2, 0, 0, 0), 0, Fraction(0), 7))
def test_profile_matches_the_per_exponent_oracle_past_entry_zero(case):
    x, logden, q_max, target = case
    want = outcome(profile_oracle, x, logden, q_max, target)
    got = outcome(gen_binomial_profile, x, logden, q_max, target)
    # (x choose 0) is 1 for every x, at the target precision
    assert got == (want if isinstance(want, type) else [(0, (0, 1, target))] + want)


def test_profile_entry_zero_is_one_where_the_walk_has_no_digits():
    # the walk's entry 0 for this x raised PrecisionExhausted
    x = PadicScalar(2, 0, 0, 0)
    assert outcome(gen_binomial_profile, x, 0, 0, 7) == [(0, (0, 1, 7))]
    assert outcome(gen_binomial, x, 0, 7) == (0, 1, 7)
