"""The Artin-Hasse exponential E and logarithm L, the canonical measure
built from L, and the pi series.

E(T) = exp(Σ_{i>=0} T^(p^i)/p^i) has p-integral coefficients; L is its
compositional inverse in the sense E(L(T)) = 1 + T and L(E(T) - 1) = T.
Coefficients are exact rationals (checked p-integral coefficient-wise);
the same series are also computed as residues mod p^N for substitution
into the measure ring, where only residues survive anyway.

Both series come from identities that avoid composition:

    n e_n = Σ_{p^i <= n} e_{n - p^i}          (E' = E · d/dT Σ T^(p^i)/p^i)
    Σ_{i>=0} L^(p^i) / p^i = log(1 + T)        (take log of E(L) = 1 + T)

the second solved by one Newton iteration, exact or mod p^N, whose only
series operations are products: p-th powers, and one reciprocal step per
round on an inverse of G'(L) carried from round to round, in place of a
series division.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from . import _series
from .ainf import AinfElt, dirac_q
from .errors import (
    BoxExhausted,
    InternalConsistencyError,
    PreconditionError,
)
from .padic import Ring, _count, _degree, _modulus, _same, log_floor
from .witt import PerfSeries

__all__ = [
    "PIntegralSeries",
    "artin_hasse_exp",
    "artin_hasse_log",
    "artin_hasse_log_mod",
    "apply_series",
    "canonical_measure",
    "pi_element",
]


# -- truncated series helpers (coefficient lists, index = degree) -----------


def _residue(num, den, mod):
    """num/den, den prime to p: a Fraction (mod None) or its residue mod ``mod``."""
    return Fraction(num, den) if mod is None else num * pow(den, -1, mod) % mod


class PIntegralSeries(Ring):
    """A truncated power series over Q with p-integral coefficients."""

    __slots__ = ("p", "degree", "coeffs")

    def __init__(self, p, degree, coeffs):
        _modulus(p)
        degree = _count(degree, "degree", 1)
        cs = tuple(Fraction(c) for c in coeffs[:degree]) + (Fraction(0),) * max(
            0, degree - len(coeffs)
        )
        for n, c in enumerate(cs):
            if c.denominator % p == 0:
                raise InternalConsistencyError(
                    f"coefficient of T^{n} = {c} is not p-integral"
                )
        self._set(p=p, degree=degree, coeffs=cs)

    def __add__(self, other):
        other = _same(self.p, other, PIntegralSeries)
        d = min(self.degree, other.degree)
        return PIntegralSeries(self.p, d, [self.coeffs[n] + other.coeffs[n] for n in range(d)])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PIntegralSeries(self.p, self.degree, [c * other for c in self.coeffs])
        other = _same(self.p, other, PIntegralSeries)
        d = min(self.degree, other.degree)
        return PIntegralSeries(self.p, d, _mul_exact(self.coeffs, other.coeffs, d))

    def compose(self, inner):
        """self(inner(T)) for inner with zero constant term, truncated."""
        inner = _same(self.p, inner, PIntegralSeries)
        if inner.coeffs[0] != 0:
            raise PreconditionError("composition needs a zero constant term")
        d = min(self.degree, inner.degree)
        return _series.substitute(
            self.coeffs[:d], inner, PIntegralSeries(self.p, d, []), PIntegralSeries(self.p, d, [1])
        )

    def assert_p_integral(self):
        """The series itself: its constructor refuses a coefficient that is
        not p-integral, so every instance is."""
        return self

    def residues(self, prec):
        """Coefficients as residues mod p^prec."""
        return [_residue(c.numerator, c.denominator, self.p**prec) for c in self.coeffs]

    def reduce_mod_p(self, depth=0):
        """The mod-p reduction as a polynomial in t (on a depth-grid)."""
        cs = {}
        for n, c in enumerate(self.coeffs):
            r = c.numerator * pow(c.denominator, -1, self.p) % self.p
            if r:
                cs[n * self.p**depth] = r
        return PerfSeries(self.p, depth, Fraction(self.degree), cs)

    def _equal(self, other):
        d = min(self.degree, other.degree)
        return self.coeffs[:d] == other.coeffs[:d]

    def __repr__(self):
        return f"PIntegralSeries(p={self.p}, degree={self.degree})"

    def __str__(self):
        parts = []
        for n, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if n == 0:
                parts.append(str(c))
            else:
                mono = "T" if n == 1 else f"T^{n}"
                parts.append(mono if c == 1 else f"({c})·{mono}")
        return (" + ".join(parts) if parts else "0") + f" + O(T^{self.degree})"


@functools.lru_cache(maxsize=None, typed=True)  # a bool is no degree, though True == 1
def artin_hasse_exp(p: int, degree: int) -> PIntegralSeries:
    """E(T) = exp(Σ T^(p^i)/p^i) mod T^degree, exactly over Q.

    The coefficient recurrence n e_n = Σ_{p^i <= n} e_{n - p^i} follows
    from E' = E · (Σ T^(p^i - 1)) and involves no factorials.
    """
    e = [Fraction(0)] * _count(degree, "degree", 1)
    e[0] = Fraction(1)
    for n in range(1, degree):
        e[n] = sum(e[n - p**i] for i in range(log_floor(n, p) + 1)) / n
    return PIntegralSeries(p, degree, e)


def _mul_exact(a, b, n, m=None):
    """Truncated product of two rational coefficient lists, exact (m None)."""
    return _series.dense(_series.mul(_series.sparse(a), _series.sparse(b), n), n)


def _mod(cs, m):
    """The list ``cs`` reduced mod ``m``, or ``cs`` itself for m None."""
    return cs if m is None else [c % m for c in cs]


def _log_newton(p, degree, prec=None):
    """Coefficients of L mod T^degree as a tuple: exact over Q if prec is
    None, else residues mod p^prec.

    Newton's method on G(L) = Σ_i L^(p^i)/p^i - log(1+T) over coefficient
    lists; the two solves differ only in their product, ``_mul_exact`` or
    ``_series.mul_mod``, and their reduction, none or mod p^(prec+i).  The
    round degrees are ``degree`` halved with ceil down to 2, run upward, so
    each round goes from a settled degree s = ceil(d/2) to d (257 runs 3,
    5, 9, ..., 257).  Sums are scaled by p^guard, the largest power of p
    below degree, so p^(guard-i) and p^guard·log(1+T) are p-integral.  Mod
    p^prec, level i takes L^(p^i) mod p^(prec+i), which depends only on L
    mod p^prec, so each scaled term p^(guard-i)·L^(p^i), and the scaled
    residual with them, is right mod p^(prec+guard); the residual must be
    divisible by p^guard.  The inverse g of G'(L) = Σ L^(p^i - 1) is
    carried across rounds: L moves only at orders >= s, so g, right mod
    T^ceil(s/2), stays right, and one step g <- g(2 - G'g) mod T^s makes
    it right mod T^s; so L^(p^i - 1) is taken mod (p^prec, T^s) only.  The
    residual vanishes mod T^s and the product drops leading zeros, so
    G/G' mod T^d reads g mod T^(d-s) only.
    """
    guard = log_floor(_count(degree, "degree", 0) - 1, p)
    scale = p**guard
    mul = _mul_exact if prec is None else _series.mul_mod
    mods = [None if prec is None else p ** (prec + i) for i in range(guard + 1)]
    pmod = mods[0]
    slog = [0] + [  # -p^guard·log(1+T): n/k is prime to p for k = gcd(n, p^guard)
        _residue((-1) ** n * scale // (k := math.gcd(n, scale)), n // k, mods[guard])
        for n in range(1, degree)
    ]
    rounds, d = [], degree
    while d > 2:
        rounds.append(d)
        d = -(-d // 2)
    L, g, s = [0, 1], [1, 0], 2
    for d in reversed(rounds):
        L += [0] * (d - len(L))
        H, Gp = slog[:d], [1] + [0] * (s - 1)  # p^guard · G(L), G'(L)
        P, Q = L, Gp  # L^(p^i) mod p^(prec+i), L^(p^i - 1) mod (p^prec, T^s)
        for i in range(log_floor(d - 1, p) + 1):
            if i:
                step = functools.partial(mul, n=d, m=mods[i])
                R = _series.power(P, p - 1, None, step)  # p - 1 >= 1: no one is read
                P, Q = step(R, P), _mod(R[:s], pmod) if i == 1 else mul(R, Q, s, pmod)
                Gp = [x + y for x, y in zip(Gp, Q)]
            f = scale // p**i
            H = [h + f * c for h, c in zip(H, P)]
        r = _mod([-c for c in mul(Gp, g, s, pmod)], pmod)
        r[0] += 2
        g = mul(g, r, s, pmod)
        if any(c.numerator % scale for c in H):  # H/scale is not p-integral
            raise InternalConsistencyError(
                "scaled Newton residual not divisible by the guard power"
            )
        if pmod is None:
            G = [Fraction(c.numerator // scale, c.denominator) for c in H]
        else:
            G = [c // scale % pmod for c in H]
        L = _mod([x - y for x, y in zip(L, mul(G, g, d, pmod))], pmod)
        s = d
    return tuple((L + [0] * degree)[:degree])


@functools.lru_cache(maxsize=None, typed=True)
def artin_hasse_log(p: int, degree: int) -> PIntegralSeries:
    """L(T) with E(L(T)) = 1 + T, mod T^degree; L(T) = T + O(T^2), exactly
    over Q, from Σ_{i>=0} L^(p^i)/p^i = log(1+T) (see ``_log_newton``)."""
    return PIntegralSeries(p, degree, _log_newton(p, degree))


@functools.lru_cache(maxsize=None, typed=True)
def artin_hasse_log_mod(p: int, degree: int, prec: int) -> tuple:
    """Residues of L mod (p^prec, T^degree), prec >= 1, from the same Newton
    solve as ``artin_hasse_log`` run over scaled integers."""
    _modulus(p, prec)
    return _log_newton(p, degree, prec)


def _terms_needed(prec, degree, w):
    """Series terms a substitution of x with w(x) >= w > 0 must keep in the
    box (prec, degree): from ceil((N + ceil(D))/w) + 1 on, every
    contribution has either exponent >= D or valuation >= N."""
    return math.ceil(Fraction(prec + math.ceil(degree)) / Fraction(w)) + 1


def apply_series(series: PIntegralSeries, x: AinfElt) -> AinfElt:
    """Substitute a measure with w(x) > 0 into a p-integral series, which
    must be known to the degree that ``_terms_needed`` asks for."""
    x = _same(_same(None, series, PIntegralSeries).p, x, AinfElt)
    if x.shift != 0:
        raise PreconditionError("substitution needs integral coefficients")
    if x.degree is None:
        raise PreconditionError("substitution requires a finite degree box")
    w0 = x.w_floor()
    if w0 <= 0:
        raise PreconditionError("substitution needs w(x) > 0")
    need = _terms_needed(x.prec, x.degree, w0)
    if series.degree < need:
        raise BoxExhausted(
            f"series known to degree {series.degree}, substitution needs {need}"
        )
    n, m = _series.key_bound(x.p, x.depth, x.degree), x.p**x.prec
    cs = _series.compose_mod(series.residues(x.prec)[:need], x.coeffs, n, m)
    return AinfElt(x.p, x.prec, x.depth, x.degree, _series.sparse(cs))


def canonical_measure(p, stage, depth, prec, degree):
    """The stage-n approximant L(T_n)^(p^n) of the canonical measure.

    T_n is the depth-realized Dirac difference at 1/p^n; at depth == stage
    it is the basis monomial Tt^(1/p^n) and the logarithm series is placed
    directly on the exponent grid.  Successive stages converge in w to the
    multiplicative representative of the mod-p logarithm, and every stage
    reduces to it mod p exactly.  The work runs on dense lists of residues
    on T_n's grid: L(T_n) by ``_series.compose_mod``, its p^n-th power by
    ``_series.mul_mod``; the one ``AinfElt`` is the result.  L is solved to
    n terms at most: T_n has no constant term, so no coefficient of L past
    T^(n-1) reaches the box's n keys; ``_terms_needed`` may stop it sooner.
    """
    if _count(depth, "depth", 0) < _count(stage, "stage", 0):
        raise BoxExhausted(f"depth {depth} < stage {stage}")
    degree, m = _degree(degree), _modulus(p, prec)
    if depth == stage:
        n = _series.key_bound(p, stage, degree)
        inner = [0, *artin_hasse_log_mod(p, n, prec)[1:]]
    else:
        tn = dirac_q(p, Fraction(1, p**stage), depth, prec, degree) - 1
        depth, n = tn.depth, _series.key_bound(p, tn.depth, degree)
        L = artin_hasse_log_mod(p, min(_terms_needed(prec, degree, tn.w_floor()), n), prec)
        inner = _series.compose_mod(L, tn.coeffs, n, m)
    step = functools.partial(_series.mul_mod, n=n, m=m)
    cs = _series.power(inner, p**stage, None, step)  # p^stage >= 1: no one is read
    return AinfElt(p, prec, depth, degree, _series.sparse(cs))


def pi_element(p, depth, prec, degree):
    """The series Σ_{i in Z} Tt^(p^i) / p^i, truncated to the box.

    Stored terms have exponents p^i < degree on the grid and coefficient
    valuation -i above the precision floor; every omitted term lies in
    the box ideal, which may force the reported degree below the request
    (down to p^(i_max + 1) - 1) and the reported precision to
    depth + 1 + i_max.  So Tt^1 (i = 0) is stored only if the reported
    degree exceeds 1, which at p = 2 needs degree > 2.  Coefficients of the
    i >= 1 terms are not p-integral, so the element carries a global shift;
    the element-level invariant w >= 0 replaces coefficient-wise
    integrality here.
    """
    degree, depth = _degree(degree, 1), _count(depth, "depth", 0)  # above 1, it holds i = 0
    if degree is None:
        raise PreconditionError("the pi series needs a finite degree bound")
    i_max = log_floor(math.ceil(degree) - 1, p)
    deg_eff = min(degree, Fraction(p ** (i_max + 1) - 1))
    prec_eff = min(prec, depth + 1 + i_max)
    if prec_eff < max(1, i_max):  # the box floor prec_eff - i_max bounds w below
        raise BoxExhausted(f"a box of prec {prec_eff} cannot certify w >= 0 of the pi series")
    # Tt^(p^i) is key p^(depth+i); AinfElt's box rule drops the terms outside
    cs = {p ** (depth + i): p ** (i_max - i) for i in range(-depth, i_max + 1)}
    out = AinfElt(p, prec_eff, depth, deg_eff, cs, shift=-i_max)
    if out.w_floor() < 0:
        raise InternalConsistencyError("pi series must satisfy w >= 0")
    return out
