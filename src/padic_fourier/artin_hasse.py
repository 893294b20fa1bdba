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

the second solved by a Newton iteration whose only series operations are
p-th powers and one division per round.
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
from .padic import is_prime, vp_int
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


def _mul_sparse(a, b, d, mod):
    """Truncated product of coefficient maps, reduced mod ``mod`` unless None."""
    out = _series.mul(a, b, d)
    return out if mod is None else {k: r for k, c in out.items() if (r := c % mod)}


def _mul_trunc(a, b, d, mod=None):
    return _series.dense(_mul_sparse(_series.sparse(a), _series.sparse(b), d, mod), d)


def _pow_trunc(a, k, d, mod=None):
    out = _series.power(
        _series.sparse(a), k, {0: 1}, lambda x, y: _mul_sparse(x, y, d, mod)
    )
    return _series.dense(out, d)


def _div_trunc(a, b, d, mod=None):
    """a / b for b with unit constant term (b_0 = 1, or invertible mod)."""
    out = [0] * d
    if mod is None:
        inv0 = Fraction(1, 1) / b[0]
    else:
        inv0 = pow(b[0] % mod, -1, mod)
    for n in range(d):
        acc = a[n] if n < len(a) else 0
        for j in range(1, n + 1):
            if j < len(b) and b[j] and out[n - j]:
                acc -= b[j] * out[n - j]
        out[n] = acc * inv0 if mod is None else acc * inv0 % mod
    return out


class PIntegralSeries:
    """A truncated power series over Q with p-integral coefficients."""

    __slots__ = ("p", "degree", "coeffs")

    def __init__(self, p, degree, coeffs, check=True):
        if not is_prime(p):
            raise PreconditionError(f"p = {p} is not prime")
        if degree < 1:
            raise PreconditionError("degree must be >= 1")
        cs = tuple(Fraction(c) for c in coeffs[:degree]) + (Fraction(0),) * max(
            0, degree - len(coeffs)
        )
        if check:
            for n, c in enumerate(cs):
                if c.denominator % p == 0:
                    raise InternalConsistencyError(
                        f"coefficient of T^{n} = {c} is not p-integral"
                    )
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("PIntegralSeries is immutable")

    def truncate(self, degree):
        return PIntegralSeries(self.p, degree, self.coeffs[:degree], check=False)

    def __add__(self, other):
        d = min(self.degree, other.degree)
        return PIntegralSeries(
            self.p, d,
            [self.coeffs[n] + other.coeffs[n] for n in range(d)], check=False,
        )

    def __sub__(self, other):
        d = min(self.degree, other.degree)
        return PIntegralSeries(
            self.p, d,
            [self.coeffs[n] - other.coeffs[n] for n in range(d)], check=False,
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PIntegralSeries(
                self.p, self.degree, [c * other for c in self.coeffs], check=False
            )
        d = min(self.degree, other.degree)
        return PIntegralSeries(
            self.p, d, _mul_trunc(self.coeffs, other.coeffs, d), check=False
        )

    __rmul__ = __mul__

    def compose(self, inner):
        """self(inner(T)) for inner with zero constant term, truncated."""
        if inner.coeffs[0] != 0:
            raise PreconditionError("composition needs a zero constant term")
        d = min(self.degree, inner.degree)
        out = [self.coeffs[d - 1]] + [Fraction(0)] * (d - 1)
        for n in range(d - 2, -1, -1):  # Horner
            out = _mul_trunc(out, inner.coeffs, d)
            out[0] += self.coeffs[n]
        return PIntegralSeries(self.p, d, out, check=False)

    def derivative(self):
        return PIntegralSeries(
            self.p, max(self.degree - 1, 1),
            [self.coeffs[n] * n for n in range(1, self.degree)], check=False,
        )

    def assert_p_integral(self):
        for n, c in enumerate(self.coeffs):
            if c.denominator % self.p == 0:
                raise InternalConsistencyError(
                    f"coefficient of T^{n} = {c} is not p-integral"
                )
        return self

    def residues(self, prec):
        """Coefficients as residues mod p^prec."""
        mod = self.p**prec
        return [
            c.numerator * pow(c.denominator, -1, mod) % mod for c in self.coeffs
        ]

    def reduce_mod_p(self, depth=0):
        """The mod-p reduction as a polynomial in t (on a depth-grid)."""
        cs = {}
        for n, c in enumerate(self.coeffs):
            r = c.numerator * pow(c.denominator, -1, self.p) % self.p
            if r:
                cs[n * self.p**depth] = r
        return PerfSeries(self.p, depth, Fraction(self.degree), cs)

    def __eq__(self, other):
        if not isinstance(other, PIntegralSeries):
            return NotImplemented
        d = min(self.degree, other.degree)
        return self.p == other.p and self.coeffs[:d] == other.coeffs[:d]

    def __hash__(self):
        raise TypeError("PIntegralSeries is not hashable")

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

    def to_json(self):
        return {
            "p": self.p,
            "degree": self.degree,
            "coeffs": [{"num": c.numerator, "den": c.denominator} for c in self.coeffs],
        }


@functools.lru_cache(maxsize=None)
def artin_hasse_exp(p: int, degree: int) -> PIntegralSeries:
    """E(T) = exp(Σ T^(p^i)/p^i) mod T^degree, exactly over Q.

    The coefficient recurrence n e_n = Σ_{p^i <= n} e_{n - p^i} follows
    from E' = E · (Σ T^(p^i - 1)) and involves no factorials.
    """
    e = [Fraction(0)] * degree
    e[0] = Fraction(1)
    for n in range(1, degree):
        acc = Fraction(0)
        i = 0
        while p**i <= n:
            acc += e[n - p**i]
            i += 1
        e[n] = acc / n
    return PIntegralSeries(p, degree, e).assert_p_integral()


def _log1p(degree):
    return [Fraction(0)] + [
        Fraction((-1) ** (n + 1), n) for n in range(1, degree)
    ]


@functools.lru_cache(maxsize=None)
def artin_hasse_log(p: int, degree: int) -> PIntegralSeries:
    """L(T) with E(L(T)) = 1 + T, mod T^degree; L(T) = T + O(T^2).

    Solved from Σ_{i>=0} L^(p^i)/p^i = log(1+T) by a Newton iteration:
    the update divides G(L) by G'(L) = Σ L^(p^i - 1), so each round costs
    a few p-th powers and one series division, never a composition.
    """
    log1p = _log1p(degree)
    L = [Fraction(0), Fraction(1)] + [Fraction(0)] * (degree - 2)
    settled = 2
    while settled < degree:
        settled = min(settled * 2, degree)
        d = settled
        # Q_i = L^(p^i - 1) via Q_(i+1) = Q_i^p * L^(p-1); P_i = Q_i * L
        Lp1 = _pow_trunc(L[:d], p - 1, d)
        G = [-log1p[n] for n in range(d)]
        Gp = [Fraction(0)] * d
        Q = [Fraction(1)] + [Fraction(0)] * (d - 1)
        i = 0
        while p**i <= d:
            if i > 0:
                Q = _mul_trunc(_pow_trunc(Q, p, d), Lp1, d)
            P = _mul_trunc(Q, L[:d], d)
            sc = Fraction(1, p**i)
            for n in range(d):
                if P[n]:
                    G[n] += P[n] * sc
                if Q[n]:
                    Gp[n] += Q[n]
            i += 1
        delta = _div_trunc(G, Gp, d)
        L = [L[n] - delta[n] for n in range(d)] + [Fraction(0)] * (degree - d)
    return PIntegralSeries(p, degree, L[:degree]).assert_p_integral()


@functools.lru_cache(maxsize=None)
def artin_hasse_log_mod(p: int, degree: int, prec: int) -> tuple:
    """Residues of L mod (p^prec, T^degree), by the same Newton iteration
    run over scaled integers.

    Working precision carries ceil(log_p degree) guard digits so that the
    non-integral intermediates Σ L^(p^i)/p^i - log(1+T) can be formed as
    exact multiples of p^guard.
    """
    guard = 0
    while p**guard < degree:
        guard += 1
    W = prec + guard
    mod = p**W
    scale = p**guard
    # p^guard * log(1+T) is p-integral below T^degree
    slog = [0] * degree
    for n in range(1, degree):
        v = vp_int(n, p)
        u = n // p**v
        slog[n] = (-1) ** (n + 1) * (scale // p**v) * pow(u, -1, mod) % mod
    L = [0, 1] + [0] * (degree - 2)
    pmod = p**prec
    settled = 2
    while settled < degree:
        settled = min(settled * 2, degree)
        d = settled
        Lp1 = _pow_trunc(L[:d], p - 1, d, mod)
        H = [(-slog[n]) % mod for n in range(d)]  # p^guard * G(L)
        Gp = [0] * d
        Q = [1] + [0] * (d - 1)
        i = 0
        while p**i <= d:
            if i > 0:
                Q = _mul_trunc(_pow_trunc(Q, p, d, mod), Lp1, d, mod)
            P = _mul_trunc(Q, L[:d], d, mod)
            sc = scale // p**i
            for n in range(d):
                if P[n]:
                    H[n] = (H[n] + sc * P[n]) % mod
                if Q[n]:
                    Gp[n] = (Gp[n] + Q[n]) % pmod
            i += 1
        G = []
        for n, c in enumerate(H):
            if c % scale:
                raise InternalConsistencyError(
                    "scaled Newton residual not divisible by the guard power"
                )
            G.append(c // scale % pmod)
        delta = _div_trunc(G, Gp, d, pmod)
        L = [(L[n] - delta[n]) % mod for n in range(d)] + [0] * (degree - d)
    return tuple(c % pmod for c in L[:degree])


def _apply_residues(coeffs, x: AinfElt) -> AinfElt:
    """Substitute a measure into a list of residues mod p^x.prec."""
    return _series.substitute(
        coeffs, x, AinfElt.zero(x.p, x.prec, x.degree), AinfElt.one(x.p, x.prec, x.degree)
    )


def apply_series(series: PIntegralSeries, x: AinfElt, terms=None) -> AinfElt:
    """Substitute a measure with w(x) > 0 into a p-integral series.

    The number of series terms needed is ceil((N + D)/w(x)) + 1: beyond it
    every contribution has either exponent >= D or valuation >= N.
    """
    p = x.p
    if x.shift != 0:
        raise PreconditionError("substitution needs integral coefficients")
    if x.degree is None:
        raise PreconditionError("substitution requires a finite degree box")
    w0 = x.w_floor()
    if w0 <= 0:
        raise PreconditionError("substitution needs w(x) > 0")
    need = math.ceil(Fraction(x.prec + math.ceil(x.degree)) / Fraction(w0)) + 1
    if terms is None and series.degree < min(need, len(series.coeffs)):
        raise BoxExhausted(
            f"series known to degree {series.degree}, substitution needs {need}"
        )
    k_max = min(need if terms is None else terms, series.degree)
    return _apply_residues(series.residues(x.prec)[:k_max], x)


def canonical_measure(p, stage, depth, prec, degree):
    """The stage-n approximant L(T_n)^(p^n) of the canonical measure.

    T_n is the depth-realized Dirac difference at 1/p^n; at depth == stage
    it is the basis monomial Tt^(1/p^n) and the logarithm series is placed
    directly on the exponent grid.  Successive stages converge in w to the
    multiplicative representative of the mod-p logarithm, and every stage
    reduces to it mod p exactly.
    """
    if depth < stage:
        raise BoxExhausted(f"depth {depth} < stage {stage}")
    degree = Fraction(degree)
    if depth == stage:
        k_max = math.ceil(degree * p**stage)
        L = artin_hasse_log_mod(p, k_max + 1, prec)
        inner = AinfElt(
            p, prec, stage, degree,
            {k: c for k, c in enumerate(L) if k > 0},
        )
    else:
        tn = dirac_q(p, Fraction(1, p**stage), depth, prec, degree) - 1
        w0 = tn.w_floor()
        need = math.ceil(Fraction(prec + math.ceil(degree)) / Fraction(w0)) + 1
        L = artin_hasse_log_mod(p, need, prec)
        inner = _apply_residues(L, tn)
    return inner ** (p**stage)


def pi_element(p, depth, prec, degree):
    """The series Σ_{i in Z} Tt^(p^i) / p^i, truncated to the box.

    Stored terms have exponents p^i < degree on the grid and coefficient
    valuation -i above the precision floor; every omitted term lies in
    the box ideal, which may force the reported degree below the request
    (down to p^(i_max + 1) - 1) and the reported precision to
    depth + 1 + i_max.  Coefficients of the i >= 1 terms are not
    p-integral, so the element carries a global shift; the element-level
    invariant w >= 0 replaces coefficient-wise integrality here.
    """
    degree = Fraction(degree)
    if degree <= 1:
        raise PreconditionError("degree must exceed 1 to hold the i = 0 term")
    i_max = 0
    while p ** (i_max + 1) < degree:
        i_max += 1
    deg_eff = min(degree, Fraction(p ** (i_max + 1) - 1))
    prec_eff = min(prec, depth + 1 + i_max)
    if prec_eff < 1:
        raise BoxExhausted("box cannot certify any digit of the pi series")
    shift = -i_max
    mod = p**prec_eff
    cs = {}
    scale = p**depth
    for i in range(i_max, -depth - 1, -1):
        c = p ** (i_max - i)
        if c % mod == 0:
            continue
        if i >= 0:
            key = p**i * scale
        else:
            key = p ** (depth + i)
        if Fraction(key, scale) >= deg_eff:
            continue
        cs[key] = c % mod
    out = AinfElt(p, prec_eff, depth, deg_eff, cs, shift=shift)
    w = out.w_floor()
    if w < 0:
        raise InternalConsistencyError("pi series must satisfy w >= 0")
    return out
