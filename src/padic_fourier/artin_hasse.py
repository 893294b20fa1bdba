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


def canonical_measure(p, stage, depth, prec, degree):
    """The stage-s approximant L(T_s)^(p^s) of the canonical measure.

    T_s is the depth-realized Dirac difference at 1/p^s, at depth == stage
    the basis monomial Tt^(1/p^s), on whose grid L is then placed directly.
    The stages converge in w to the multiplicative representative of the
    mod-p logarithm, and all reduce to it mod p.  The work runs on dense
    residues over T_s's grid, n keys in a box of precision N, by two facts:
    (a) f ≡ g mod p^k, k >= 1, gives f^p ≡ g^p mod p^(k+1): in (g + p^k h)^p
        each C(p, i) g^(p-i) (p^k h)^i, 0 < i < p, and (p^k h)^p lie in p^(k+1);
    (b) mod p, (Σ a_k T^k)^p = Σ a_k T^(pk): each C(p, i) vanishes, a_k^p ≡ a_k.
    With e = max(N - s, 1) and c = max(0, s - N + 1) = s - (N - e), L(T_s)
    mod p^e on n' = ⌈n/p^c⌉ keys (``_series.compose_mod``), its keys times p^c
    by (b), then N - e p-th powers, the j-th mod p^(e+j) (``_series.mul_mod``),
    make L(T_s)^(p^s) mod (p^N, T^n) by (a).  L is solved mod p^e to K terms:
    with j0 T_s's least key with a unit coefficient and k_min <= j0 its least
    key, a monomial of T_s^k that survives mod p^e has at most e - 1 factors
    of positive valuation, so its key is at least (k - e + 1)·j0 + (e - 1)·k_min,
    >= n' from k = K = (e - 1) + ⌈(n' - (e - 1)·k_min)/j0⌉ on; if K < e - 1,
    K·k_min >= n' bounds the keys k·k_min of k in [K, e - 1) too.  With no
    unit, T_s^k vanishes mod p^e from k = e: K = e.  As T_s(0) = 0, K <= n'.
    """
    if _count(depth, "depth", 0) < _count(stage, "stage", 0):
        raise BoxExhausted(f"depth {depth} < stage {stage}")
    _modulus(p, prec)
    if _degree(degree) is None:
        raise PreconditionError("the canonical measure needs a finite degree bound")
    e, c = max(prec - stage, 1), max(0, stage - prec + 1)
    if depth == stage:
        n, tn = _series.key_bound(p, stage, degree), {1: 1}
    else:
        tn = dirac_q(p, Fraction(1, p**stage), depth, prec, degree) - 1
        depth, n, tn = tn.depth, _series.key_bound(p, tn.depth, degree), tn.coeffs
    fine, units = -(-n // p**c), [k for k, v in tn.items() if v % p]  # n'
    terms = e if not units else e - 1 + -(-(fine - (e - 1) * min(tn)) // min(units))
    L = artin_hasse_log_mod(p, min(terms, fine), e)  # n' terms if tn is T
    cs = [0] * n
    cs[:: p**c] = L if tn == {1: 1} else _series.compose_mod(L, tn, fine, p**e)  # (b)
    for j in range(1, prec - e + 1):  # (a): the j-th p-th power mod p^(e+j)
        step = functools.partial(_series.mul_mod, n=n, m=p ** (e + j))
        cs = _series.power(cs, p, None, step)  # p >= 2: no one is read
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
