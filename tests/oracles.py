"""Slow, obvious reference computations that the tests check the library's
fast paths against.  They are kept out of the package: a job never runs them."""

import functools
import math
import operator
from fractions import Fraction

from padic_fourier import _series
from padic_fourier.ainf import AinfElt
from padic_fourier.padic import vp_factorial


def mahler_coeffs_by_differences(p, values, prec):
    """Independent oracle: c_n = Σ_i (-1)^(n-i) C(n, i) f(i), n < len(values).
    Row n of signed binomials mod p^prec comes from row n - 1 by Pascal's
    rule, so each term is a product of two residues, not of an m-bit C(n, i)."""
    mod = p**prec
    values = [v % mod for v in values]
    out, row = [], [1]
    for _ in values:
        out.append(sum(map(int.__mul__, row, values)) % mod)
        row = [(b - a) % mod for a, b in zip(row + [0], [0] + row)]
    return out


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


def legendre_loop(p, X, M, n):
    """Oracle: the Legendre count level by level up to M, each level taking
    X mod p^t afresh, as comb_tracked once did."""
    val, maxfv = -vp_factorial(n, p), 0
    while maxfv < M and X % p ** (maxfv + 1) < n:
        maxfv += 1
        val += 1 + (n - 1 - X % p**maxfv) // p**maxfv
    return val, maxfv


# -- the Artin-Hasse series over Q --------------------------------------------


def residue(c, mod):
    """A p-integral rational (or int) c as its residue mod ``mod``."""
    c = Fraction(c)
    return c.numerator * pow(c.denominator, -1, mod) % mod


def schoolbook(a, b, keep, add=operator.add):
    """Every pairwise product of terms, summed by exponent, kept where keep(q):
    exact for any coefficients, Fractions too."""
    out = {}
    for q1, c1 in a.items():
        for q2, c2 in b.items():
            q = add(q1, q2)
            if keep(q):
                out[q] = out.get(q, 0) + c1 * c2
    return out


@functools.cache
def exp_recurrence_loop(p, degree):
    """E mod T^degree over Q by n e_n = Σ_{p^i <= n} e_{n - p^i} (from
    E' = E · Σ T^(p^i - 1)), the powers of p found one at a time."""
    e = [Fraction(1)] + [Fraction(0)] * (degree - 1)
    for n in range(1, degree):
        acc, i = Fraction(0), 0
        while p**i <= n:
            acc += e[n - p**i]
            i += 1
        e[n] = acc / n
    return tuple(e[:degree])


@functools.cache
def dict_log_newton_oracle(p, degree, prec=None):
    """L mod T^degree, E(L) = 1 + T, by Newton's method on Σ_i L^(p^i)/p^i =
    log(1+T) over coefficient maps: exact over Q if prec is None, each
    product ``schoolbook``, else residues mod p^prec, each product the
    kernel's ``_series.mul`` on ints, reduced by a dict comprehension."""

    def mul_sparse(a, b, d, mod):
        if mod is None:
            return schoolbook(a, b, lambda k: k < d)
        return {k: r for k, c in _series.mul(a, b, d).items() if (r := c % mod)}

    guard = 0
    while p ** (guard + 1) < degree:
        guard += 1
    scale = p**guard
    mod, pmod = (None, None) if prec is None else (p ** (prec + guard), p**prec)
    slog = {n: Fraction((-1) ** (n + 1) * scale, n) for n in range(1, degree)}
    if mod is not None:
        slog = {n: residue(c, mod) for n, c in slog.items()}
    rounds, d = [], degree
    while d > 2:
        rounds.append(d)
        d = -(-d // 2)
    L, g, s = {1: 1}, {0: 1}, 2
    for d in reversed(rounds):
        H = {n: -c for n, c in slog.items() if n < d}
        Gp = {}
        P, Q, i = L, {0: 1}, 0
        while p**i < d:
            if i:
                mul = functools.partial(mul_sparse, d=d, mod=pmod and p ** (prec + i))
                R = _series.power(P, p - 1, {0: 1}, mul)
                P, Q = mul(R, P), mul_sparse(R, Q, s, pmod)
            for k, c in P.items():
                H[k] = H.get(k, 0) + scale // p**i * c
            for k, c in Q.items():
                Gp[k] = Gp.get(k, 0) + c
            i += 1
        r = {k: -c for k, c in mul_sparse(Gp, g, s, pmod).items()}
        r[0] = r.get(0, 0) + 2
        g = mul_sparse(g, r, s, pmod)
        G = {}
        for k, c in H.items():
            c = Fraction(c, scale)
            assert c.denominator % p, "scaled Newton residual not divisible by the guard power"
            if c := c if pmod is None else residue(c, pmod):
                G[k] = c
        for k, c in mul_sparse(G, g, d, pmod).items():
            L[k] = L.get(k, 0) - c
        s = d
    return tuple(L.get(n, 0) if prec is None else L.get(n, 0) % pmod for n in range(degree))


def compose_exact(outer, inner, degree):
    """outer(inner(T)) mod T^degree over Q, for coefficient lists with
    inner[0] = 0: Σ outer[k] · inner^k by ascending powers, each power one
    ``schoolbook`` product."""
    assert not inner[0], "composition needs a zero constant term"
    inner = {k: c for k, c in enumerate(inner) if c}
    out, power = [0] * degree, {0: 1}
    for c in outer[:degree]:
        for k, x in power.items():
            out[k] += c * x
        power = schoolbook(power, inner, lambda k: k < degree)
    return out


def terms_needed(prec, degree, w):
    """Series terms a substitution of x with w(x) >= w > 0 must keep in the
    box (prec, degree): from ceil((N + ceil(D))/w) + 1 on, every
    contribution has either exponent >= D or valuation >= N."""
    return math.ceil(Fraction(prec + math.ceil(degree)) / Fraction(w)) + 1


def substitute_oracle(coeffs, x):
    """Σ coeffs[k] · x^k for an ``AinfElt`` x by ascending powers, each an
    ``AinfElt`` product, sum and box rule: the element-level substitution.
    It stops at the first empty power, as every later one is empty too."""
    out, xk = AinfElt.zero(x.p, x.prec, x.degree), AinfElt.one(x.p, x.prec, x.degree)
    for k, c in enumerate(coeffs):
        if k:
            xk = xk * x
            if not xk.coeffs:
                break
        if c:
            out = out + xk * c
    return out
