"""The Artin-Hasse logarithm L as residues mod p^N, the canonical measure
built from it, and the pi series.

E(T) = exp(Σ_{i>=0} T^(p^i)/p^i) has p-integral coefficients (Dwork's
lemma), and L is its compositional inverse: E(L(T)) = 1 + T and
L(E(T) - 1) = T.  Only residues of L mod p^N reach the measure ring, so L
is solved there alone, from an identity that avoids composition:

    Σ_{i>=0} L^(p^i) / p^i = log(1 + T)        (take log of E(L) = 1 + T)

by one Newton iteration over dense lists of residues whose only series
operations are products: p-th powers, and one reciprocal step per round
on an inverse of G'(L) carried from round to round, in place of a series
division.  E itself, and L over Q, are test oracles, not library code.
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
from .padic import _count, _degree, _modulus, log_floor

__all__ = [
    "artin_hasse_log_mod",
    "canonical_measure",
    "pi_element",
]


def _log_newton(p, degree, prec):
    """Residues of L mod (p^prec, T^degree) as a tuple.

    Newton's method on G(L) = Σ_i L^(p^i)/p^i - log(1+T) over dense lists
    of residues, every product a ``_series.mul_mod``.  The round degrees
    are ``degree`` halved with ceil down to 2, run upward, so each round
    goes from a settled degree s = ceil(d/2) to d (257 runs 3, 5, 9, ...,
    257).  Sums are scaled by p^guard, the largest power of p below
    degree, so p^(guard-i) and p^guard·log(1+T) are p-integral.  Level i
    takes L^(p^i) mod p^(prec+i), which depends only on L mod p^prec, so
    each scaled term p^(guard-i)·L^(p^i), and the scaled residual with
    them, is right mod p^(prec+guard); the residual must be divisible by
    p^guard.  The inverse g of G'(L) = Σ L^(p^i - 1) is carried across
    rounds: L moves only at orders >= s, so g, right mod T^ceil(s/2), stays
    right, and one step g <- g(2 - G'g) mod T^s makes it right mod T^s; so
    L^(p^i - 1) is taken mod (p^prec, T^s) only.  The residual vanishes mod
    T^s and the product drops leading zeros, so G/G' mod T^d reads g mod
    T^(d-s) only.
    """
    guard = log_floor(_count(degree, "degree", 0) - 1, p)
    scale, mul = p**guard, _series.mul_mod
    mods = [p ** (prec + i) for i in range(guard + 1)]
    pmod, top = mods[0], mods[guard]
    slog = [0] + [  # -p^guard·log(1+T): n/k is prime to p for k = gcd(n, p^guard)
        (-1) ** n * scale // (k := math.gcd(n, scale)) * pow(n // k, -1, top) % top
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
                P, Q = step(R, P), [c % pmod for c in R[:s]] if i == 1 else mul(R, Q, s, pmod)
                Gp = [x + y for x, y in zip(Gp, Q)]
            f = scale // p**i
            H = [h + f * c for h, c in zip(H, P)]
        r = [-c % pmod for c in mul(Gp, g, s, pmod)]
        r[0] += 2
        g = mul(g, r, s, pmod)
        if any(c % scale for c in H):  # H/scale is not p-integral
            raise InternalConsistencyError(
                "scaled Newton residual not divisible by the guard power"
            )
        G = [c // scale % pmod for c in H]
        L = [(x - y) % pmod for x, y in zip(L, mul(G, g, d, pmod))]
        s = d
    return tuple((L + [0] * degree)[:degree])


@functools.lru_cache(maxsize=None, typed=True)
def artin_hasse_log_mod(p: int, degree: int, prec: int) -> tuple:
    """Residues of L mod (p^prec, T^degree), prec >= 1: the one Artin-Hasse
    solve (``_log_newton``)."""
    _modulus(p, prec)
    return _log_newton(p, degree, prec)


def _terms_needed(prec, degree, w):
    """Series terms a substitution of x with w(x) >= w > 0 must keep in the
    box (prec, degree): from ceil((N + ceil(D))/w) + 1 on, every
    contribution has either exponent >= D or valuation >= N."""
    return math.ceil(Fraction(prec + math.ceil(degree)) / Fraction(w)) + 1


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
