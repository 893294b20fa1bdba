"""Uniform measures on Q_p as truncated S-series in Tt = T̃.

An element is a finite sum Σ a_q · Tt^q with exponents q in the grid
(1/p^depth)·Z_{>=0}, known modulo the box (p^(shift+prec), exponents >= degree).
Exponents are stored as integer keys k with q = k / p^depth.  A degree of
None means the element has exact finite support (all other coefficients
are 0 mod p^(shift+prec)); the optional element-wide ``shift`` factors a
power of p out of all coefficients, which lets constructions with
non-integral coefficients stay in one representation.

The Dirac character at s in p^(-m) Z_p is realized at working depth m as

    Delta_s = (1 + Tt^(1/p^m))^(s p^m) = Σ_i C(s p^m, i) · Tt^(i/p^m),

which is multiplicative in s at fixed depth and converges to the measure-
theoretic point mass as the depth grows.  With T_n = Delta_(1/p^n) - 1
realized at depth m >= n, the stage-s approximant T_(n+s)^(p^s) converges
to the basis monomial Tt^(1/p^n) as s grows, and reduces to t^(1/p^n)
mod p at every stage.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _series
from .errors import (
    BoxExhausted,
    PrecisionExhausted,
    PreconditionError,
)
from .iwasawa import dirac
from .padic import (
    LowerBound,
    PadicScalar,
    Ring,
    SExponent,
    _as_sexponent,
    _modulus,
    _point,
    _same,
    json_field,
    json_int,
)

__all__ = [
    "AinfElt",
    "dirac_q",
    "t_tilde_approx",
    "rescale_pushforward",
]

class AinfElt(Ring):
    """A uniform measure on Q_p as a truncated S-series."""

    __slots__ = ("p", "prec", "depth", "degree", "shift", "coeffs")

    def __init__(self, p, prec, depth, degree, coeffs, shift=0):
        mod = _modulus(p, prec)
        if type(depth) is not int or type(shift) is not int or depth < 0:
            raise PreconditionError(f"box needs int depth >= 0 and shift, not {depth!r}, {shift!r}")
        degree = None if degree is None else Fraction(degree)
        if degree is not None and degree <= 0:
            raise PreconditionError("degree bound must be positive")
        depth, cs = _series.truncate(p, depth, degree, coeffs, mod)
        self._set(p=p, prec=prec, depth=depth, degree=degree, shift=shift, coeffs=cs)

    @classmethod
    def _new(cls, p, prec, depth, degree, coeffs, shift=0):
        """An element of ``cls`` by the box rule of ``__init__``, whatever
        arguments ``cls``'s own constructor takes: every result is built here."""
        elt = object.__new__(cls)
        AinfElt.__init__(elt, p, prec, depth, degree, coeffs, shift)
        return elt

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, p, prec, degree=None):
        return cls(p, prec, 0, degree, {})

    @classmethod
    def one(cls, p, prec, degree=None):
        return cls(p, prec, 0, degree, {0: 1})

    @classmethod
    def monomial(cls, p, q, prec, degree=None, coeff=1):
        """coeff * Tt^q for q in S."""
        q = _as_sexponent(p, q)
        return cls(p, prec, q.logden, degree, {q.num: coeff})

    # -- plumbing ---------------------------------------------------------

    def with_depth(self, depth):
        """Lossless re-expression of the exponent keys on a finer grid."""
        if depth < self.depth:
            raise PreconditionError("cannot coarsen the exponent grid")
        f = self.p ** (depth - self.depth)
        elt = object.__new__(type(self))
        elt._set(p=self.p, prec=self.prec, depth=depth, degree=self.degree,
                 shift=self.shift, coeffs=_series.regrid(self.coeffs, f))
        return elt

    def _pair(self, other):
        """Both operands on their common grid, once each is of the other's
        type at one prime: an AinfElt and a PerfSeries do not mix."""
        other = _same(self.p, other, type(self))
        _same(self.p, self, type(other))
        m = max(self.depth, other.depth)
        return self.with_depth(m), other.with_depth(m)

    def _align(self, other):
        """Both coefficient maps on a common grid and shift:
        (ca, cb, depth, shift, prec, degree), prec counted above the shift."""
        a, b = self._pair(other)
        s = min(a.shift, b.shift)
        prec = min(a.shift + a.prec, b.shift + b.prec) - s
        fa, fb = self.p ** (a.shift - s), self.p ** (b.shift - s)
        ca = {k: c * fa for k, c in a.coeffs.items()}
        cb = {k: c * fb for k, c in b.coeffs.items()}
        return ca, cb, a.depth, s, prec, _series.degree_min(a.degree, b.degree)

    def resize(self, prec=None, degree=None):
        """Shrink the box (truncation only; never a gain of information)."""
        prec = self.prec if prec is None else prec
        if prec > self.prec:
            raise PrecisionExhausted("cannot grow the coefficient precision")
        if degree is not None and self.degree is not None and Fraction(degree) > self.degree:
            raise PrecisionExhausted("cannot grow the degree bound")
        degree = self.degree if degree is None else degree
        return self._new(self.p, prec, self.depth, degree, self.coeffs, self.shift)

    def items_sexp(self):
        """Stored terms as (SExponent, coefficient) pairs, ascending."""
        terms = _series.exponents(self.p, self.depth, self.coeffs)
        return [(SExponent(self.p, n, e), c) for n, e, c in terms]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self._new(self.p, self.prec, 0, None, {0: other})
        ca, cb, depth, s, prec, degree = self._align(other)
        if prec < 1:
            raise PrecisionExhausted("shift alignment exhausts the precision")
        for k, c in cb.items():
            ca[k] = ca.get(k, 0) + c
        return self._new(self.p, prec, depth, degree, ca, s)

    def _mul(self, other):
        """The product behind every series type's own ``__mul__``."""
        if isinstance(other, int):
            return self._new(
                self.p, self.prec, self.depth, self.degree,
                {k: c * other for k, c in self.coeffs.items()}, self.shift,
            )
        a, b = self._pair(other)
        degree = _series.degree_min(a.degree, b.degree)
        cs = _series.mul(a.coeffs, b.coeffs, _series.key_bound(self.p, a.depth, degree))
        return self._new(self.p, min(a.prec, b.prec), a.depth, degree, cs, a.shift + b.shift)

    def __mul__(self, other):
        return self._mul(other)

    def __pow__(self, k):
        return _series.power(self, k, self._new(self.p, self.prec, 0, self.degree, {0: 1}))

    def _scaled(self, k):
        """The monomial substitution q -> p^k q, k in Z, in ``self``'s type."""
        depth, degree, cs = _series.scale(self.p, self.depth, self.degree, self.coeffs, k)
        return self._new(self.p, self.prec, depth, degree, cs, self.shift)

    def _equal(self, other):
        ca, cb, depth, _, prec, degree = self._align(other)
        return _series.equal(
            ca, cb, _series.key_bound(self.p, depth, degree), self.p**prec
        )

    # -- valuation and reduction -------------------------------------------

    def w_valuation(self):
        """w(Σ a_q Tt^q) = min_q v_p(a_q) + q, or a lower-bound marker."""
        return _series.w_valuation(self.p, self.depth, self.shift, self.prec, self.degree, self.coeffs)

    def w_floor(self):
        """The valuation if resolved, else the certified lower bound."""
        w = self.w_valuation()
        return w.bound if isinstance(w, LowerBound) else w

    def reduce_mod_p(self):
        """Coefficient-wise reduction, Tt^q -> t^q, into the perfect ring."""
        from .witt import PerfSeries

        if self.shift > 0:
            return PerfSeries(self.p, 0, self.degree, {})
        if self.shift < 0:
            raise PreconditionError("element has denominators; not reducible mod p")
        return PerfSeries(self.p, self.depth, self.degree, self.coeffs)

    # -- presentation --------------------------------------------------------

    def __repr__(self):
        return (
            f"AinfElt(p={self.p}, prec={self.prec}, depth={self.depth}, "
            f"degree={self.degree}, terms={len(self.coeffs)})"
        )

    def __str__(self):
        return self._text(_series.exponents(self.p, self.depth, self.coeffs))

    def to_json(self):
        terms = _series.exponents(self.p, self.depth, self.coeffs)
        return {**self._fields(), "terms": _series.encode_terms(terms)}

    def printed(self):
        """(fields, terms, text): ``to_json`` but "terms", each term's (num, logden,
        coeff) ascending, and ``str(self)``, from one ``_series.exponents`` pass."""
        terms = list(_series.exponents(self.p, self.depth, self.coeffs))
        return self._fields(), terms, self._text(terms)

    def _fields(self):
        doc = {"p": self.p, "prec": self.prec, "depth": self.depth,
               "degree": _series.encode_degree(self.p, self.degree)}
        return {**doc, "shift": self.shift} if self.shift else doc

    def _text(self, terms):
        coef = (lambda c: f"{self.p}^{self.shift}·{c}") if self.shift else str
        body = _series.render(self.p, terms, "Tt", coef)
        dstr = "inf" if self.degree is None else str(self.degree)
        return f"{body} + O({self.p}^{self.shift + self.prec}, q>={dstr})"

    @classmethod
    def from_json(cls, doc):
        """The measure of a ``to_json`` document, an AinfElt whatever ``cls``;
        a missing key, a non-integer field or coefficient, or prec < 1 is a
        ParseError."""
        p, depth = json_int(doc, "p"), json_int(doc, "depth")
        prec = json_int(doc, "prec", low=1)
        degree = _series.decode_degree(p, json_field(doc, "degree"))
        cs = _series.decode_terms(p, depth, json_field(doc, "terms"))
        shift = json_int(doc, "shift") if "shift" in doc else 0
        return AinfElt(p, prec, depth, degree, cs, shift=shift)


def dirac_q(p, s, depth, prec, degree):
    """The depth-m realization of the Dirac character at s in p^(-m) Z_p.

    (1 + Tt^(1/p^m))^(s p^m) is the Z_p Dirac mass at s p^m on the 1/p^m
    grid: ``iwasawa.dirac`` below degree·p^m, then T -> Tt^(1/p^m).  s may be
    an int or a Fraction (exact) or a PadicScalar, whose precision must then
    cover every binomial: ``padic._point``'s rule.
    """
    _modulus(p, prec)
    degree = Fraction(degree)
    if degree <= 0:
        raise PreconditionError("degree bound must be positive")
    if type(depth) is not int or depth < 0:
        raise PreconditionError(f"depth {depth!r} is not an int >= 0")
    s = _point(p, s)
    if isinstance(s, PadicScalar):
        if s.val_floor() < -depth:
            raise PreconditionError(
                f"depth {depth} insufficient: v(s) = {s.val_floor()} < -{depth}"
            )
        a = s * PadicScalar.from_int(p, p**depth, s.prec + depth + 1)
    else:
        a = s * p**depth
        if a.denominator != 1:
            raise PreconditionError(f"depth {depth} insufficient for s = {s}")
        a = int(a)
    mu = dirac(a, math.ceil(degree * p**depth), prec, p=p)
    return AinfElt(p, prec, depth, degree, _series.sparse(mu.coeffs))


def t_tilde_approx(p, n, stage, depth, prec, degree):
    """Stage-s approximant of the basis monomial Tt^(1/p^n).

    Returns T_(n+s)^(p^s) with T_(n+s) = Delta_(1/p^(n+s)) - 1 realized at
    the working depth; requires depth >= n + stage.  At stage = depth - n
    the approximant is the monomial itself; mod p every stage equals
    t^(1/p^n) exactly.
    """
    if type(n) is not int or type(stage) is not int or min(n, stage) < 0:
        raise PreconditionError(f"n and stage must be ints >= 0, not {n!r}, {stage!r}")
    if depth < n + stage:
        raise BoxExhausted(f"depth {depth} < n + stage = {n + stage}")
    base = dirac_q(p, Fraction(1, p ** (n + stage)), depth, prec, degree) - 1
    return base ** (p**stage)


def rescale_pushforward(x):
    """Pushforward along multiplication by p: Σ a_q Delta_q -> Σ a_q Delta_(pq).

    In series coordinates this is the monomial substitution Tt^q -> Tt^(pq),
    lowering the working depth by one (depth-0 keys simply scale by p).
    """
    return _same(None, x, AinfElt)._scaled(1)
