"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 carries one documented red clause: the (p-1)-scaled valuation
bound is refuted at p = 3 by exact arithmetic (see decisions ledger); the
certified carry-count bound v(s) - v(q) is verified in its place and the
literal clause is kept as a strict expected failure so the defect stays
visible.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from padic_fourier.ainf import AinfElt, dirac_q, rescale_pushforward
from padic_fourier import _series
from padic_fourier.artin_hasse import artin_hasse_log_mod, canonical_measure
from padic_fourier.fourier import UnifFn, eval_unif, forward_transform, integrate_unif
from padic_fourier.iwasawa import (
    IwasawaElt,
    MahlerFn,
    ball_ideal_equal_generators,
    ball_ideal_middle_generators,
    dirac,
    integrate,
    intersection_vs_middle_scan,
    mahler_coeffs_from_samples,
    ptadic_power_generators,
)
from padic_fourier.padic import (
    LowerBound,
    PadicScalar,
    SExponent,
    gen_binomial,
    gen_binomial_approximants,
    gen_binomial_profile,
    gen_binomial_valuation_bound,
    gen_binomial_valuation_floor,
    vp_int,
)
from padic_fourier.witt import PerfSeries, teichmuller, witt_decompose, witt_recompose

from oracles import (
    compose_exact,
    dict_log_newton_oracle,
    exp_recurrence_loop,
    mahler_coeffs_by_differences,
    residue,
)


def report(n, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n}] {status} {detail}", flush=True)
    assert ok, f"criterion {n}: {detail}"


def w_floor(w):
    return w.bound if isinstance(w, LowerBound) else w


def test_criterion_1_orthogonality_zp():
    """Pairing of binomial basis functions against T-power measures is the
    Kronecker delta, exactly, for i, j <= 30, p in {2, 3, 5} at O(p^20)."""
    t0 = time.time()
    prec, imax = 20, 30
    for p in (2, 3, 5):
        monomials = [IwasawaElt.monomial(p, j, prec, imax + 2) for j in range(imax + 1)]
        for i in range(imax + 1):
            f = MahlerFn.basis(p, i, prec)
            for j, mu in enumerate(monomials):
                val = integrate(f, mu)
                expect = PadicScalar.from_int(p, 1 if i == j else 0, prec)
                assert val == expect and val.abs_bound == prec, (p, i, j)
    dt = time.time() - t0
    report(1, dt < 5, f"(31x31 grid, p=2,3,5, O(p^20), {dt:.2f}s < 5s)")


def test_criterion_2_mahler_round_trip():
    """100 random locally constant functions of period <= p^3 per prime:
    samples -> coefficients -> evaluation reproduces every sample exactly,
    and the triangular solve equals the finite-difference oracle."""
    t0 = time.time()
    for p in (2, 3, 5):
        rng = random.Random(100 + p)
        for trial in range(100):
            M = rng.randrange(1, 4)
            n = p**M
            samples = [rng.randrange(0, p ** (M + 1)) for _ in range(n)]
            f = mahler_coeffs_from_samples(p, samples)
            assert f.prec == M + 1
            got = [f.eval(a).residue(M + 1) for a in range(n)]
            assert got == [s % p ** (M + 1) for s in samples], (p, trial)
            oracle = mahler_coeffs_by_differences(p, samples, M + 1)
            assert [f.coeffs.get(i, 0) for i in range(n)] == oracle, (p, trial)
    dt = time.time() - t0
    report(2, dt < 10, f"(300 functions, {dt:.2f}s < 10s)")


def test_criterion_3_ideal_sandwich():
    """Desk-scale natural-topology sandwich for p in {2,3}, N in {1,2}:
    (a) generators of (p,T)^(p^N) lie in every ball ideal with h+l = N+1;
    (b) the listed equal-level generators pass the same memberships and the
    deepened generators pass with h+l = N (the deepened intersection's
    consistent indexing; see ledger); (c) a scan of truncated polynomials
    finds no member of the deepened intersection outside the middle ideal."""
    t0 = time.time()
    t_scan22 = None
    for p in (2, 3):
        for N in (1, 2):
            prec = N + 4
            degree = p ** (N + 1) + 1
            for i, m in ptadic_power_generators(p, N):
                mu = IwasawaElt.monomial(p, m, prec, degree, coeff=p**i)
                for h in range(N + 2):
                    ok, _ = mu.natural_ideal_membership(h, N + 1 - h)
                    assert ok, ("a", p, N, i, m, h)
            for i, m in ball_ideal_equal_generators(p, N):
                mu = IwasawaElt.monomial(p, m, prec, degree, coeff=p**i)
                for h in range(N + 2):
                    ok, _ = mu.natural_ideal_membership(h, N + 1 - h)
                    assert ok, ("b-equal", p, N, i, m, h)
            for i, m in ball_ideal_middle_generators(p, N):
                mu = IwasawaElt.monomial(p, m, prec, degree, coeff=p**i)
                for h in range(N + 1):
                    ok, _ = mu.natural_ideal_membership(h, N - h + 1)
                    assert ok, ("b-middle", p, N, i, m, h)
            # (c) scan: full for p = 2 and for p = 3, N = 1; bounded sets
            # straddling the per-degree thresholds otherwise
            if (p, N) in ((2, 1), (2, 2), (3, 1)):
                sets = None
            else:
                mod = p ** (N + 2)
                sets = []
                for m in range(p**N + 1):
                    if m == 0:
                        need = N + 1
                    else:
                        j = 0
                        while p ** (j + 1) <= m:
                            j += 1
                        need = max(0, N - j)
                    # straddle the threshold: at it, just below it, and zero
                    cand = {0, p**need % mod}
                    if need > 0:
                        cand.add(p ** (need - 1) % mod)
                        cand.add((p ** (need - 1) * (p - 1)) % mod)
                    sets.append(sorted(cand))
            t1 = time.time()
            checked, escapees, missed = intersection_vs_middle_scan(p, N, sets)
            if (p, N) == (2, 2):
                t_scan22 = time.time() - t1
            assert escapees == 0 and missed == 0, ("c", p, N, checked)
    dt = time.time() - t0
    report(
        3,
        t_scan22 < 60,
        f"(memberships + scans, p=2 N=2 scan {t_scan22:.2f}s < 60s, total {dt:.2f}s)",
    )


def test_criterion_4_ball_valuation_grid():
    """v_p of T^(p^(h+l)) on every ball of radius p^-h is >= l + 1 for
    h, l <= 3 and p in {3, 5}; at p = 2 the a = 0 ball additionally
    satisfies the stronger floor 2^l.  Exact integer comparisons."""
    t0 = time.time()
    for p in (3, 5):
        for h in range(4):
            for l in range(4):
                m = p ** (h + l)
                mu = IwasawaElt.monomial(p, m, l + 3, m + 1)
                for a in range(p**h):
                    val = mu.ball_measure(a, h)
                    assert val.val_floor() >= l + 1, (p, h, l, a)
    for h in range(4):
        for l in range(4):
            m = 2 ** (h + l)
            mu = IwasawaElt.monomial(2, m, 2**l + 2, m + 1)
            val = mu.ball_measure(0, h)
            assert val.val_floor() >= 2**l, ("p=2 stronger", h, l)
    dt = time.time() - t0
    report(4, True, f"(grids h,l <= 3 at p=3,5 plus 2-adic floor, {dt:.2f}s)")


def test_criterion_5_scaled_binomial_congruence():
    """C(p·g, p·b) - C(g, b) lies in p·g·Z_p for 1 <= b <= g <= 60,
    p in {2, 3, 5}.  Exact integers."""
    t0 = time.time()
    for p in (2, 3, 5):
        for g in range(1, 61):
            need = 1 + vp_int(g, p)
            for b in range(1, g + 1):
                diff = math.comb(p * g, p * b) - math.comb(g, b)
                assert diff % p**need == 0, (p, g, b)
    dt = time.time() - t0
    report(5, True, f"(all 1 <= b <= g <= 60, p=2,3,5, {dt:.2f}s)")


def test_criterion_6a_stabilization():
    """Scaling-level approximants of the generalized binomial have strictly
    increasing valuation gaps on their way to the limit."""
    cases = [
        (2, Fraction(3, 2), Fraction(1, 2)),
        (2, Fraction(5, 4), Fraction(3, 4)),
        (3, Fraction(5, 3), Fraction(2, 3)),
        (3, Fraction(7, 9), Fraction(4, 9)),
    ]
    for p, xf, q in cases:
        x = PadicScalar.from_fraction(p, xf, 70)
        qe = SExponent.from_fraction(p, q)
        apx = gen_binomial_approximants(x, qe, range(qe.logden, qe.logden + 5))
        gaps = []
        for (_, a), (_, b) in zip(apx, apx[1:]):
            d = b - a
            if not d.is_zero():
                gaps.append(d.valuation())
        assert gaps == sorted(set(gaps)), (p, xf, q, gaps)
        assert len(gaps) >= 2
    report("6a", True, "(strictly increasing valuation gaps)")


def _valuation_grid(p, count):
    rng = random.Random(600 + p)
    grid = []
    while len(grid) < count:
        vs = rng.randrange(1, 4)
        u = rng.randrange(1, p**3)
        u += u % p == 0
        s = PadicScalar(p, vs, u, 26)
        q = SExponent(p, rng.choice([1, 2, p + 1]), rng.randrange(1, 3))
        if vs > q.vp():
            grid.append((s, q))
    # include the sharp corner cases explicitly
    grid[0] = (PadicScalar.from_int(p, p**2, 26), SExponent(p, 1, 0))
    grid[1] = (PadicScalar.from_int(p, p**3, 26), SExponent(p, 1, 1))
    return grid


def test_criterion_6b_valuation_floor_grid():
    """The certified valuation bound v(s) - v(q) holds on a 50-point grid
    (25 points per prime); at p = 2 it coincides with the stated
    (p-1)-scaled constant, which is therefore verified there too."""
    for p in (2, 3):
        for s, q in _valuation_grid(p, 25):
            floor = gen_binomial_valuation_floor(s, q)
            out = gen_binomial(s, q, floor + 3)
            assert out.val_floor() >= floor, (p, str(s), q)
            if p == 2:
                assert out.val_floor() >= gen_binomial_valuation_bound(s, q)
    report("6b", True, "(certified floor v(s)-v(q) on 50 points; literal at p=2)")


@pytest.mark.xfail(
    strict=True,
    reason="the (p-1)-scaled valuation bound is false at p = 3: "
    "v((p^2 choose 1)) = 2 < 4; the certified bound is v(s) - v(q) "
    "(carry counting), see the decisions ledger",
)
def test_criterion_6b_literal_constant_at_odd_p():
    """The literal (p-1)(v(s)-v(q)) clause, run faithfully at p = 3."""
    failures = []
    for s, q in _valuation_grid(3, 25):
        bound = gen_binomial_valuation_bound(s, q)
        out = gen_binomial(s, q, bound + 3)
        if out.val_floor() < bound:
            failures.append((str(s), str(q), out.val_floor(), bound))
    report("6b-literal", not failures, f"(first counterexamples: {failures[:2]})")


def test_criterion_6c_addition_formula():
    """C(x+y, q) = Σ_(q1+q2=q) C(x, q1) C(y, q2) at O(p^8), certified tail:
    pairs of denominator depth m' carry valuation >= 2(m' - 1) on
    x, y in p^-1 Z_p, so depths beyond 6 lie below the target."""
    t0 = time.time()
    target = 8
    m_star = 6  # 2 (m' - 1) > 8 for m' > 5; enumerate through depth 6
    for p in (2, 3):
        rng = random.Random(660 + p)
        for trial in range(20):
            x = PadicScalar(p, -1, 1 + p * rng.randrange(p**6), 40)
            y = PadicScalar(p, -1, 1 + p * rng.randrange(p**6), 40)
            q = SExponent(p, rng.choice([1, 2, 2 * p + 1]), rng.randrange(0, 3))
            lhs = gen_binomial(x + y, q, target)
            j_top = q.num * p ** (m_star - q.logden)
            px = gen_binomial_profile(x, m_star, q.as_fraction(), target)
            py = gen_binomial_profile(y, m_star, q.as_fraction(), target)
            acc = PadicScalar.zero(p, target)
            for j in range(j_top + 1):
                acc = acc + px[j] * py[j_top - j]
            assert acc.truncate(target) == lhs.truncate(target), (p, trial, str(q))
    dt = time.time() - t0
    report("6c", True, f"(20 triples per p in {{2,3}} at O(p^8), {dt:.2f}s)")


def test_criterion_7_qp_orthogonality_and_round_trip():
    """Kronecker delta over q, q' in (1/p^2)Z ∩ [0,4) at O(p^12), exact;
    coefficient recovery on 50 random S-series; pointwise agreement of the
    rebuilt function at 20 points of p^-2 Z_p."""
    t0 = time.time()
    prec = 12
    for p in (2, 3):
        ks = range(4 * p**2)
        monos = {
            k2: AinfElt.monomial(p, Fraction(k2, p**2), prec, degree=4) for k2 in ks
        }
        for k1 in ks:
            f = UnifFn.basis(p, Fraction(k1, p**2), prec)
            for k2 in ks:
                val = integrate_unif(f, monos[k2])
                expect = PadicScalar.from_int(p, 1 if k1 == k2 else 0, prec)
                assert val == expect and val.abs_bound == prec, (p, k1, k2)
    for p in (2, 3):
        rng = random.Random(700 + p)
        for _ in range(25):
            cs = {rng.randrange(4 * p**2): rng.randrange(1, p**prec) for _ in range(5)}
            mu = AinfElt(p, prec, 2, 4, cs)
            got = forward_transform(mu)
            back = {
                q.num * p ** (2 - q.logden): v.residue(prec) for q, v in got.items()
            }
            assert back == dict(mu.with_depth(2).coeffs), p
    recon_prec = 5
    for p in (2, 3):
        rng = random.Random(770 + p)
        f = UnifFn(
            p, 8, 2,
            {rng.randrange(2 * p**2): rng.randrange(1, p**8) for _ in range(3)},
            exact_tail=True,
        )
        mu = AinfElt(p, 8, f.depth, 2, dict(f.coeffs))
        rebuilt = UnifFn(
            p, 8, 2,
            {
                q.num * p ** (2 - q.logden): v.residue(8)
                for q, v in forward_transform(mu).items()
            },
            exact_tail=True,
        )
        assert rebuilt == f
        for _ in range(20):
            x = PadicScalar.from_fraction(
                p, Fraction(rng.randrange(1, 4 * p**2), p**2), 80
            )
            a = eval_unif(rebuilt, x, recon_prec)
            b = eval_unif(f, x, recon_prec)
            assert a == b and a.abs_bound >= recon_prec, (p, str(x))
    dt = time.time() - t0
    report(7, dt < 120, f"(delta grid at O(p^12), 50 recoveries, 40 points, {dt:.2f}s < 120s)")


def test_criterion_8_witt_teichmuller():
    """[x]^p = [x^p], [x][y] = [xy], decompose then recompose is the
    identity, on 50 random perfect series at digit precision 4, p in {2,3}."""
    t0 = time.time()
    digits = 4
    for p in (2, 3):
        rng = random.Random(800 + p)
        for trial in range(25):
            def rand_perf():
                cs = {
                    rng.randrange(0, 2 * p**2): rng.randrange(1, p)
                    for _ in range(rng.randrange(1, 4))
                }
                return PerfSeries(p, rng.randrange(0, 3), None, cs)

            x, y = rand_perf(), rand_perf()
            tx = teichmuller(x, digits)
            assert tx**p == teichmuller(x.frobenius(), digits), (p, trial, "power")
            assert tx * teichmuller(y, digits) == teichmuller(x * y, digits), (
                p, trial, "product",
            )
            ty = teichmuller(y, digits - 1)
            mixed = tx + AinfElt(p, ty.prec, ty.depth, ty.degree, ty.coeffs, shift=1)
            w = witt_decompose(mixed, digits - 1)
            assert witt_recompose(w) == mixed.resize(prec=digits - 1), (p, trial, "rt")
    dt = time.time() - t0
    report(8, True, f"(50 series per law, digit precision 4, {dt:.2f}s)")


def test_criterion_9_artin_hasse():
    """E(L(T)) = 1 + T and L(E(T) - 1) = T to degree 64 over Q, on the
    oracles (E by its recurrence, L by a Newton solve over coefficient
    maps); all coefficients p-integral to degree 64 for p in {2,3,5}; the
    library's residues of L are the oracle's, and E(L) = 1 + T mod p^N
    through the packed substitution; canonical-measure stages are Cauchy
    in w and reduce mod p to the logarithm series at every stage."""
    t0 = time.time()
    d = 64
    for p in (2, 3, 5):
        E, L = exp_recurrence_loop(p, d), dict_log_newton_oracle(p, d)
        assert all(Fraction(c).denominator % p for c in E + L), p
        assert compose_exact(E, L, d) == [1, 1] + [0] * (d - 2), p
        assert compose_exact(L, [0, *E[1:]], d) == [0, 1] + [0] * (d - 2), p
        for prec in (1, 5, 12):
            mod = p**prec
            Lmod = artin_hasse_log_mod(p, d, prec)
            assert Lmod == tuple(residue(c, mod) for c in L), (p, prec)
            e = [residue(c, mod) for c in E]
            assert _series.compose_mod(e, _series.sparse(Lmod), d, mod) == [1, 1] + [0] * (d - 2)
    for p in (2, 3):
        degree = 3
        L = [residue(c, p) for c in dict_log_newton_oracle(p, degree)]
        Lbar = PerfSeries(p, 0, Fraction(degree), _series.sparse(L))
        stages = []
        for n in range(0, 4):
            mu = canonical_measure(p, n, n, 5, degree)
            assert mu.reduce_mod_p() == Lbar, (p, n)
            stages.append(mu)
        dists = [w_floor((b - a).w_valuation()) for a, b in zip(stages, stages[1:])]
        assert all(d2 >= d1 for d1, d2 in zip(dists, dists[1:])), (p, dists)
        assert dists[0] < dists[-1], (p, dists)
    dt = time.time() - t0
    report(9, True, f"(inverses + integrality to T^64, residues mod p^N, Cauchy stages, {dt:.2f}s)")


def test_criterion_10_character_laws():
    """Dirac products compose points: on Z_p and on Q_p, 100 random pairs
    each, exact at the common box; the pushforward along multiplication by
    p carries the level-(n+1) Dirac difference to level n for n <= 3."""
    t0 = time.time()
    for p in (2, 3, 5):
        rng = random.Random(1000 + p)
        for _ in range(34):
            a, b = rng.randrange(0, p**6), rng.randrange(0, p**6)
            lhs = dirac(a, 10, 6, p=p) * dirac(b, 10, 6, p=p)
            assert lhs == dirac(a + b, 10, 6, p=p), (p, a, b)
    for p in (2, 3):
        rng = random.Random(1100 + p)
        for _ in range(50):
            m = 3
            s1 = Fraction(rng.randrange(0, p**5), p**m)
            s2 = Fraction(rng.randrange(0, p**5), p**m)
            lhs = dirac_q(p, s1, m, 5, 2) * dirac_q(p, s2, m, 5, 2)
            assert lhs == dirac_q(p, s1 + s2, m, 5, 2), (p, s1, s2)
    for p in (2, 3):
        for n in range(0, 4):
            tn1 = dirac_q(p, Fraction(1, p ** (n + 1)), n + 2, 5, 2) - 1
            tn = dirac_q(p, Fraction(1, p**n), n + 1, 5, 2 * p) - 1
            assert rescale_pushforward(tn1) == tn, (p, n)
    dt = time.time() - t0
    report(10, True, f"(100 pairs per side, pushforward n <= 3, {dt:.2f}s)")
