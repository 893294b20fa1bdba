import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from padic_fourier import _series, artin_hasse

from padic_fourier.ainf import AinfElt, dirac_q
from padic_fourier.artin_hasse import (
    _log_newton,
    artin_hasse_log_mod,
    canonical_measure,
    pi_element,
)
from padic_fourier.errors import BoxExhausted, InternalConsistencyError
from padic_fourier.padic import LowerBound
from padic_fourier.witt import PerfSeries, teichmuller

from oracles import (
    compose_exact,
    dict_log_newton_oracle,
    exp_recurrence_loop,
    residue,
    schoolbook,
    substitute_oracle,
    terms_needed,
)


def exp_oracle(terms, degree):
    """exp of a rational polynomial with zero constant term, over Q."""
    out = [Fraction(0)] * degree
    out[0] = Fraction(1)
    power = [Fraction(1)] + [Fraction(0)] * (degree - 1)
    fact = 1
    for k in range(1, degree):
        nxt = [Fraction(0)] * degree
        for i, a in enumerate(power):
            if a:
                for j, b in enumerate(terms):
                    if b and i + j < degree:
                        nxt[i + j] += a * b
        power = nxt
        fact *= k
        for i, a in enumerate(power):
            out[i] += a / fact
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11]), st.integers(0, 400), st.integers(1, 16))
@example(2, 180, 16)  # slots sized from the modulus overflowed here
@example(11, 400, 16)
@example(2, 257, 1)
def test_dense_log_newton_matches_dict_oracle(p, degree, prec):
    assert artin_hasse_log_mod(p, degree, prec) == dict_log_newton_oracle(p, degree, prec)


def log_by_coefficients(p, degree):
    """L mod T^degree over Q, one coefficient at a time from Σ_i L^(p^i)/p^i
    = log(1+T): for i >= 1, [T^n] L^(p^i) reads L below T^n only, so
    L_n = (-1)^(n+1)/n - Σ_(1 <= i, p^i <= n) [T^n] L^(p^i) / p^i."""
    L = {}
    for n in range(1, degree):
        c, power, q = Fraction((-1) ** (n + 1), n), L, 1
        while q * p <= n:
            base = power
            for _ in range(p - 1):
                power = schoolbook(power, base, lambda k: k <= n)
            q *= p
            c -= Fraction(power.get(n, 0), q)
        if c:
            L[n] = c
    return tuple(L.get(n, 0) for n in range(degree))


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
@pytest.mark.parametrize("degree", [1, 2, 3, 12, 40])
def test_exact_log_newton_matches_dict_oracle(p, degree):
    """The oracle's Newton solve over Q, the reference for every residue of
    ``artin_hasse_log_mod``, against L solved coefficient by coefficient."""
    assert dict_log_newton_oracle(p, degree) == log_by_coefficients(p, degree)


def test_log_newton_refuses_a_residual_off_the_guard_power(monkeypatch):
    # one unit added to the top slot of every product: at level i >= 1 it
    # adds p^(guard - i) to the scaled residual, which p^guard then leaves
    # with a denominator
    product = _series.mul_mod

    def corrupt(a, b, n, m):
        out = product(a, b, n, m)
        out[-1] += 1
        return out

    monkeypatch.setattr(_series, "mul_mod", corrupt)
    with pytest.raises(InternalConsistencyError, match="guard power"):
        _log_newton(2, 20, 6)


def canonical_measure_oracle(p, stage, depth, prec, degree):
    """L(T_n)^(p^n) composed over ``AinfElt`` (``substitute_oracle``) and
    raised by ``AinfElt.__pow__``; at depth == stage, L is placed on the
    grid as an ``AinfElt``."""
    degree = Fraction(degree)
    if depth == stage:
        k_max = math.ceil(degree * p**stage)
        L = artin_hasse_log_mod(p, k_max + 1, prec)
        inner = AinfElt(p, prec, stage, degree, {k: c for k, c in enumerate(L) if k > 0})
    else:
        tn = dirac_q(p, Fraction(1, p**stage), depth, prec, degree) - 1
        L = artin_hasse_log_mod(p, terms_needed(prec, degree, tn.w_floor()), prec)
        inner = substitute_oracle(L, tn)
    return inner ** (p**stage)


@st.composite
def compose_cases(draw):
    """(p, prec, depth, degree, x, coeffs): x a coefficient map on the
    1/p^depth grid with keys up to past the box and coefficients of either
    sign past p^prec, its constant term kept, dropped or a multiple of p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 11]))
    prec, depth = draw(st.integers(1, 16)), draw(st.integers(0, 2))
    n = draw(st.integers(1, 160))
    m = p**prec
    coeff = st.one_of(st.integers(-3 * m, 3 * m), st.sampled_from([m - 1, m, -1, 1]))
    x = draw(st.dictionaries(st.integers(0, n + 4), coeff, max_size=6))
    constant = draw(st.sampled_from(["keep", "drop", "p"]))
    if constant == "drop":
        x.pop(0, None)
    elif constant == "p":
        x[0] = p * draw(coeff)
    return p, prec, depth, Fraction(n, p**depth), x, draw(st.lists(coeff, max_size=40))


@settings(max_examples=150, deadline=None)
@given(compose_cases())
@example((3, 13, 0, Fraction(8), {1: 2**20 - 1}, [3**13 - 1] * 6))  # period 1, tight
@example((3, 13, 1, Fraction(8, 3), {0: 2**20 - 1}, [3**13 - 1] * 9))  # no shift
@example((11, 16, 0, Fraction(40), {1: 11**16 - 2, 2: -1, 3: 7}, [5] * 30))  # wide
@example((5, 6, 0, Fraction(30), {1: 5, 2: 10, 3: 10, 4: 5, 5: 1}, [1] * 30))
@example((2, 4, 0, Fraction(5), {0: 2, 7: 1}, []))  # no coefficient
@example((7, 3, 0, Fraction(4), {4: 1, 9: 3}, [1, 2, 3]))  # every key past the box
@example((2, 1, 0, Fraction(3), {1: 2}, [1, 1, 1]))  # x empty mod m
def test_compose_mod_matches_the_element_substitution(case):
    p, prec, depth, degree, x, coeffs = case
    n, m = _series.key_bound(p, depth, degree), p**prec
    got = _series.compose_mod(coeffs, x, n, m)
    assert len(got) == n and all(0 <= c < m for c in got)
    want = substitute_oracle(coeffs, AinfElt(p, prec, depth, degree, x))
    assert AinfElt(p, prec, depth, degree, _series.sparse(got)).to_json() == want.to_json()


@st.composite
def canonical_cases(draw):
    """(p, stage, depth, prec, degree) with depth >= stage and a box of at
    most a few hundred grid keys."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    top = {2: 6, 3: 4, 5: 3, 7: 2}[p]
    depth = draw(st.integers(0, top))
    stage = draw(st.integers(0, depth))
    cells = max(1, 300 // p**depth)
    degree = Fraction(draw(st.integers(1, cells * p**depth)), p ** draw(st.integers(0, depth)))
    return p, stage, depth, draw(st.integers(1, 14)), min(degree, cells)


@settings(max_examples=60, deadline=None)
@given(canonical_cases())
@example((2, 0, 0, 12, Fraction(40)))  # stage 0, depth == stage
@example((2, 0, 3, 8, Fraction(6)))  # stage 0 below the depth
@example((2, 4, 6, 12, Fraction(4)))
@example((3, 3, 3, 6, Fraction(2)))  # depth == stage
@example((5, 2, 3, 6, Fraction(1)))
@example((7, 1, 2, 14, Fraction(3, 7)))
def test_canonical_measure_matches_the_element_oracle(case):
    mu = canonical_measure(*case)
    want = canonical_measure_oracle(*case)
    assert mu.to_json() == want.to_json()
    assert str(mu) == str(want)


def canonical_measure_untrimmed(p, stage, depth, prec, degree):
    """canonical_measure past the stage with L solved to all the terms
    ``terms_needed`` asks for, however far past the box's n keys, and raised
    to the p^stage-th power at full precision in one ``AinfElt`` power."""
    degree, m = Fraction(degree), p**prec
    tn = dirac_q(p, Fraction(1, p**stage), depth, prec, degree) - 1
    L = artin_hasse_log_mod(p, terms_needed(prec, degree, tn.w_floor()), prec)
    n = _series.key_bound(p, tn.depth, degree)
    inner = _series.compose_mod(L, tn.coeffs, n, m)
    return AinfElt(p, prec, tn.depth, degree, _series.sparse(inner)) ** (p**stage)


@st.composite
def past_stage_cases(draw):
    """(p, stage, depth, prec, degree), depth one or two past the stage and
    a box of n = ⌈degree·p^depth⌉ <= 200 keys, n <= 2 among them."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    stage = draw(st.integers(0, 3))
    depth = stage + draw(st.integers(1, 2))
    j = draw(st.integers(0, depth))
    num = draw(st.integers(1, 2) | st.integers(1, max(1, 200 // p ** (depth - j))))
    return p, stage, depth, draw(st.integers(1, 8)), Fraction(num, p**j)


@settings(max_examples=60, deadline=None)
@given(past_stage_cases())
@example((2, 0, 1, 1, Fraction(1, 2)))  # n = 1
@example((3, 1, 3, 8, Fraction(2, 27)))  # n = 2
@example((7, 3, 5, 8, Fraction(1, 7**3)))  # L trimmed from 3088 terms to 49
@example((2, 3, 5, 8, Fraction(4)))  # terms needed below n: nothing trimmed
def test_canonical_measure_past_the_stage_needs_l_only_to_the_box(case):
    mu, want = canonical_measure(*case), canonical_measure_untrimmed(*case)
    assert mu.to_json() == want.to_json() and str(mu) == str(want)


@st.composite
def deep_stage_cases(draw):
    """(p, stage, depth, prec, degree), stage >= prec, depth = stage or one or
    two past it, a box of at most about 400 keys; a degree of 1/p^stage or
    below leaves T_n no unit coefficient in the box."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    prec = draw(st.integers(1, {2: 5, 3: 3, 5: 2, 7: 2}[p]))
    stage = prec + draw(st.integers(0, {2: 3, 3: 2, 5: 1, 7: 1}[p]))
    depth = stage + draw(st.integers(0, 2))
    j = draw(st.integers(0, depth))
    num = draw(st.integers(1, 3) | st.integers(1, max(1, 400 // p ** (depth - j))))
    return p, stage, depth, prec, Fraction(num, p**j)


@settings(max_examples=80, deadline=None)
@given(deep_stage_cases())
@example((2, 4, 4, 2, Fraction(3)))  # depth == stage, c = 3
@example((5, 2, 2, 2, Fraction(2)))  # stage == prec: c = 1
@example((2, 6, 8, 3, Fraction(1)))  # j0 = p^2
@example((3, 2, 4, 2, Fraction(1, 27)))  # T_n has no unit coefficient in the box
@example((7, 1, 3, 1, Fraction(1, 7)))  # the unit key is the box's bound
@example((3, 3, 5, 1, Fraction(5, 3)))
def test_canonical_measure_past_the_precision_matches_the_oracle(case):
    mu = canonical_measure(*case)
    want = canonical_measure_oracle(*case)
    assert mu.to_json() == want.to_json() and str(mu) == str(want)


@pytest.mark.parametrize("case", [
    (2, 3, 5, 10, Fraction(2)),  # e = 7, c = 0
    (3, 6, 8, 4, Fraction(3)),  # e = 1, c = 3
    (5, 2, 2, 6, Fraction(1)),  # depth == stage: K = n'
    (3, 2, 4, 2, Fraction(1, 27)),  # no unit coefficient: K = e
    (2, 0, 3, 5, Fraction(4)),  # stage 0: no power
])
def test_solve_and_powers_run_at_the_digits_they_need(monkeypatch, case):
    """L is solved mod p^e to at most K terms, and the j-th p-th power runs
    mod p^(e+j): at stage s, e = max(N - s, 1), c = max(0, s - N + 1),
    n' = ⌈keys/p^c⌉, K = (e - 1) + ⌈(n' - (e - 1)·k_min)/j0⌉, or e if T_s
    has no unit coefficient."""
    p, stage, depth, prec, degree = case
    solves, moduli = [], []
    real_solve, real_mul = artin_hasse.artin_hasse_log_mod, _series.mul_mod

    def solve(p, degree, prec):
        solves.append((degree, prec))
        out = real_solve(p, degree, prec)
        moduli.clear()  # the solve's own products
        return out

    monkeypatch.setattr(artin_hasse, "artin_hasse_log_mod", solve)
    monkeypatch.setattr(_series, "mul_mod", lambda a, b, n, m: moduli.append(m) or real_mul(a, b, n, m))
    canonical_measure(*case)
    e, c = max(prec - stage, 1), max(0, stage - prec + 1)
    if depth == stage:
        tn, keys = {1: 1}, math.ceil(degree * p**stage)
    else:
        tn = dirac_q(p, Fraction(1, p**stage), depth, prec, degree) - 1
        tn, keys = tn.coeffs, math.ceil(degree * p**tn.depth)
    fine = -(-keys // p**c)
    units = [k for k, v in tn.items() if v % p]
    K = e - 1 + math.ceil((fine - (e - 1) * min(tn)) / min(units)) if units else e
    [(terms, digits)] = solves
    assert digits == e and terms <= min(K, fine)
    per = p.bit_length() + p.bit_count() - 2  # products of one p-th power
    assert moduli == [p ** (e + j) for j in range(1, prec - e + 1) for _ in range(per)]


def log_mod_p(p, degree):
    """L mod (p, T^degree) as a ``PerfSeries`` on the integer grid, from the
    oracle's residues mod p."""
    L = dict_log_newton_oracle(p, degree, 1)
    return PerfSeries(p, 0, Fraction(degree), {k: c for k, c in enumerate(L) if c})


class TestSeries:
    def test_exp_small_p2(self):
        # expand exp(T + T^2/2) over Q to degree 2
        terms = [Fraction(0), Fraction(1), Fraction(1, 2)]
        oracle = exp_oracle(terms, 3)
        assert list(exp_recurrence_loop(2, 3)) == oracle == [1, 1, 1]

    def test_exp_against_oracle_deeper(self):
        for p, d in [(2, 12), (3, 12), (5, 8)]:
            terms = [Fraction(0)] * d
            i = 0
            while p**i < d:
                terms[p**i] = Fraction(1, p**i)
                i += 1
            assert list(exp_recurrence_loop(p, d)) == exp_oracle(terms, d)

    def test_log_leading_terms(self):
        assert dict_log_newton_oracle(3, 2) == (0, 1)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_composition_inverse(self, p):
        d = 32
        E, L = exp_recurrence_loop(p, d), dict_log_newton_oracle(p, d)
        assert compose_exact(E, L, d) == [1, 1] + [0] * (d - 2)
        assert compose_exact(L, [0, *E[1:]], d) == [0, 1] + [0] * (d - 2)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_p_integrality(self, p):
        for series in (exp_recurrence_loop(p, 64), dict_log_newton_oracle(p, 64)):
            assert all(Fraction(c).denominator % p for c in series)


class TestCanonicalMeasure:
    @pytest.mark.parametrize("p", [2, 3])
    def test_reduction_is_log_at_every_stage(self, p):
        degree = 3
        Lbar = log_mod_p(p, degree)
        for n in range(0, 3):
            mu = canonical_measure(p, n, 3, 4, degree)
            assert mu.reduce_mod_p() == Lbar

    @pytest.mark.parametrize("p", [2, 3])
    def test_stages_cauchy_in_w(self, p):
        stages = [canonical_measure(p, n, 4, 4, 3) for n in range(0, 4)]
        dists = []
        for a, b in zip(stages, stages[1:]):
            w = (b - a).w_valuation()
            dists.append(w.bound if isinstance(w, LowerBound) else w)
        assert all(d2 >= d1 for d1, d2 in zip(dists, dists[1:]))
        assert dists[0] < dists[-1]

    @pytest.mark.parametrize("p", [2, 3])
    def test_converges_to_teichmuller_oracle(self, p):
        # independent route: the multiplicative lift of the mod-p logarithm
        prec, degree = 4, 3
        need = (prec + degree) * p**3 + 1
        target = teichmuller(log_mod_p(p, need), prec)
        dists = []
        for n in range(0, 4):
            mu = canonical_measure(p, n, 4, prec, degree)
            w = (mu - target).w_valuation()
            dists.append(w.bound if isinstance(w, LowerBound) else w)
        assert all(d2 >= d1 for d1, d2 in zip(dists, dists[1:]))
        assert dists[0] < dists[-1]

    def test_exp_of_canonical_roots_approach_dirac(self):
        # E([log-bar]^(1/p^n))^(p^n) approaches the Dirac realization in w
        p = 2
        prec, degree = 4, 3
        need = 64
        Lbar = log_mod_p(p, need)
        E = [residue(c, p**prec) for c in exp_recurrence_loop(p, need)]
        dists = []
        for n in range(0, 3):
            root = teichmuller(Lbar.frobenius_inverse(n), prec)
            root = AinfElt(p, root.prec, root.depth, Fraction(degree), root.coeffs)
            val = substitute_oracle(E, root) ** (p**n)
            target = dirac_q(p, Fraction(1), max(val.depth, 3), prec, degree)
            w = (val - target).w_valuation()
            dists.append(w.bound if isinstance(w, LowerBound) else w)
        assert all(d2 >= d1 for d1, d2 in zip(dists, dists[1:]))
        assert dists[0] < dists[-1]

    def test_depth_below_stage_rejected(self):
        with pytest.raises(BoxExhausted):
            canonical_measure(3, 2, 1, 3, 2)


class TestPiElement:
    def test_terms_p2(self):
        pi = pi_element(2, 2, 3, 4)
        # i_max = 1, reported degree shrinks to 3, global shift -1
        assert pi.shift == -1
        assert pi.degree == Fraction(3)
        terms = {q.as_fraction(): c for q, c in pi.items_sexp()}
        # stored: 2·Tt^(1/2) (i=-1), Tt (i=0), (1/2)·Tt^2 (i=1)
        assert terms == {Fraction(1, 2): 4, Fraction(1): 2, Fraction(2): 1}

    def test_negative_level_coefficient(self):
        pi = pi_element(2, 1, 4, 3)
        terms = {q.as_fraction(): c for q, c in pi.items_sexp()}
        assert terms[Fraction(1, 2)] == 4  # 2·Tt^(1/2) against shift -1

    @pytest.mark.parametrize("p", [2, 3])
    def test_w_is_min_over_levels(self, p):
        # independent oracle: minimize p^i - i over the levels in the box
        depth, prec, degree = 2, 4, p**2 + 1
        pi = pi_element(p, depth, prec, degree)
        w = pi.w_valuation()
        val = w.bound if isinstance(w, LowerBound) else w
        best = min(
            Fraction(p) ** i - i
            for i in range(-depth, 3)
            if p**i < degree
        )
        assert val == best == 1

    def test_w_nonnegative_invariant(self):
        for p in (2, 3, 5):
            pi = pi_element(p, 2, 4, p**2 + 1)
            w = pi.w_valuation()
            assert (w.bound if isinstance(w, LowerBound) else w) >= 0


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@pytest.mark.parametrize("degree", [2, 3, 5, 9, 17, 33, 65])
def test_log_mod_matches_exact_series(p, degree):
    """The production Newton loop mod p^N against the exact series over Q."""
    exact = dict_log_newton_oracle(p, degree)
    for prec in (1, 3, 6, 10):
        assert artin_hasse_log_mod(p, degree, prec) == tuple(residue(c, p**prec) for c in exact)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_log_mod_matches_exact_series_at_every_degree(p):
    """Every round schedule up to 80: d = 2s with s odd (6, 10, 14, ...), where
    the inverse step needs g mod T^s, and d = 2^k + 1, one past a doubling."""
    exact = dict_log_newton_oracle(p, 80)  # L mod T^degree is its prefix
    for degree in range(2, 81):
        for prec in (1, 4, 9):
            expect = tuple(residue(c, p**prec) for c in exact[:degree])
            assert artin_hasse_log_mod(p, degree, prec) == expect, (degree, prec)


def test_log_mod_inverts_exp_one_past_a_power_of_two():
    """The Horner check below at 2^9 + 1, whose last round settles 257 -> 513."""
    test_log_mod_inverts_exp_mod_p_n(2, 2**9 + 1, 12)


@pytest.mark.parametrize("p, degree, prec", [
    (2, 113, 10), (2, 257, 12), (2, 321, 8), (3, 217, 6), (5, 176, 6), (7, 65, 5),
])
def test_log_mod_inverts_exp_mod_p_n(p, degree, prec):
    """E(L) = 1 + T mod (p^prec, T^degree), by Horner over Z/p^prec with E
    from its coefficient recurrence: no Newton step, no series kernel."""
    mod = p**prec
    e = [residue(c, mod) for c in exp_recurrence_loop(p, degree)]
    L = np.array(artin_hasse_log_mod(p, degree, prec), dtype=np.int64)
    out = np.array([e[-1]], dtype=np.int64)
    for c in reversed(e[:-1]):  # int64 is exact: degree · mod^2 < 2^63
        out = np.convolve(out, L)[:degree] % mod
        out[0] = (out[0] + c) % mod
    assert out.tolist() == [1, 1] + [0] * (degree - 2)


def exp_by_factors(p, degree):
    """E mod T^degree over Q as the product over p^i < degree of the factors
    exp(T^(p^i)/p^i) = Σ_j T^(j·p^i)/(p^(ij)·j!), each written out: the
    definition of E, with no recurrence."""
    out, q = {0: Fraction(1)}, 1
    while q < degree:
        factor = {j * q: Fraction(1, q**j * math.factorial(j)) for j in range(-(-degree // q))}
        out, q = schoolbook(out, factor, lambda k: k < degree), q * p
    return tuple(out.get(n, 0) for n in range(degree))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 11, 13]), st.integers(1, 150))
@example(2, 129)
def test_exp_recurrence_matches_the_loop(p, degree):
    """The recurrence oracle for E against the loop over its factors."""
    assert exp_recurrence_loop(p, degree) == exp_by_factors(p, degree)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11, 13]),
    st.integers(2, 3000),
    st.sampled_from([1, 2, 3, 7]),
    st.integers(0, 3),
)
@example(2, 4, 1, 2)  # degree p^2: i_max 1
@example(3, 19, 2, 1)  # 9 < 19/2 < 27
def test_pi_element_level_matches_the_loop(p, num, den, depth):
    # i_max, the largest i with p^i < degree, sets the reported box and shift
    degree = Fraction(num, den)
    assume(degree > 1)
    i_max = 0
    while p ** (i_max + 1) < degree:
        i_max += 1
    prec = depth + 1 + i_max
    pi = pi_element(p, depth, prec, degree)
    assert pi.shift == -i_max
    assert pi.degree == min(degree, Fraction(p ** (i_max + 1) - 1))
    assert pi.prec == prec
