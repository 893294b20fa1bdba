"""Truncated perfect-ring arithmetic over F_p[t^(1/p^infinity)] and the
strict p-ring structure of the uniform measure ring.

A PerfSeries is a finite F_p-combination of monomials t^q on the grid
(1/p^depth)·Z_{>=0}; Frobenius and its inverse act by scaling exponents,
which witnesses perfectness exactly.  The multiplicative (Teichmüller)
representative of x at digit precision N is computed as

    [x] ≡ lift(x^(1/p^(N-1)))^(p^(N-1))   (mod p^N),

where ``lift`` sends each F_p coefficient to its representative in
{0, ..., p-1}.  Witt digits are peeled off with x_0 = a mod p,
a <- (a - [x_0]) / p.
"""

from __future__ import annotations

from fractions import Fraction

from . import _series
from .ainf import AinfElt
from .errors import BoxExhausted, InternalConsistencyError, PreconditionError
from .padic import Immutable, SExponent, _count, _same, json_field, json_int

__all__ = [
    "PerfSeries",
    "WittElt",
    "teichmuller",
    "witt_decompose",
    "witt_recompose",
]


class PerfSeries(AinfElt):
    """An element of F_p[t^(1/p^infinity)] truncated below exponent ``degree``:
    an AinfElt known mod p^1 with shift 0, whose arithmetic and box it shares."""

    __slots__ = ()

    def __init__(self, p, depth, degree, coeffs):
        AinfElt.__init__(self, p, 1, depth, degree, coeffs)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p, degree=None):
        return cls(p, 0, degree, {})

    @classmethod
    def one(cls, p, degree=None):
        return cls(p, 0, degree, {0: 1})

    @classmethod
    def monomial(cls, p, q, degree=None, coeff=1):
        q = SExponent.from_fraction(p, q)
        return cls(p, q.logden, degree, {q.num: coeff})

    # -- F_p-algebra operations ----------------------------------------------

    def __mul__(self, other):
        return self._mul(other)

    def frobenius(self, k=1):
        """x -> x^(p^k), exact: scales every exponent by p^k."""
        return self._scaled(k)

    def frobenius_inverse(self, k=1):
        """The exact p^k-th root: scales every exponent by p^-k."""
        return self._scaled(-k)

    def t_adic_valuation(self):
        """min of the exponents (None for the zero series)."""
        if not self.coeffs:
            return None
        return Fraction(min(self.coeffs), self.p**self.depth)

    def lift(self, prec):
        """The coefficient-wise integer lift into the measure ring.

        Each F_p coefficient maps to its representative in {0,...,p-1};
        any lift works for the Teichmüller limit, this one is the
        deterministic convention.
        """
        return AinfElt(self.p, prec, self.depth, self.degree, self.coeffs)

    def __repr__(self):
        return (
            f"PerfSeries(p={self.p}, depth={self.depth}, degree={self.degree}, "
            f"terms={len(self.coeffs)})"
        )

    def _text(self, terms):
        body = _series.render(self.p, terms, "t")
        dstr = "inf" if self.degree is None else str(self.degree)
        return f"{body}  (mod {self.p}, q>={dstr})"

    def _fields(self):
        return {k: v for k, v in AinfElt._fields(self).items() if k != "prec"}  # always 1

    @classmethod
    def from_json(cls, doc):
        """The series of a ``to_json`` document, which carries no prec; a
        missing key or a malformed field is a ParseError."""
        p, depth = json_int(doc, "p"), json_int(doc, "depth")
        degree = _series.decode_degree(p, json_field(doc, "degree"))
        return cls(p, depth, degree, _series.decode_terms(p, depth, json_field(doc, "terms")))


class WittElt(Immutable):
    """A strict p-ring element by its Teichmüller digits Σ p^i [x_i]."""

    __slots__ = ("p", "digits")

    def __init__(self, p, digits):
        self._set(p=p, digits=tuple(_same(p, d, PerfSeries) for d in digits))

    def _equal(self, other):
        return len(self.digits) == len(other.digits) and all(
            a == b for a, b in zip(self.digits, other.digits)
        )

    def __repr__(self):
        return f"WittElt(p={self.p}, digits={len(self.digits)})"


def teichmuller(x: PerfSeries, prec: int) -> AinfElt:
    """The multiplicative representative [x] modulo p^prec.

    Budget (checked up front): the exponent grid deepens by prec - 1 and a
    finite degree bound shrinks by the factor p^(prec - 1); exact finite
    support stays exact.  Satisfies [x] ≡ x mod p and [x][y] = [xy] at the
    common box.
    """
    x, n = _same(None, x, PerfSeries), _count(prec, "prec", 1) - 1
    if x.degree is not None:
        eff = x.degree / x.p**n
        if eff * x.p ** (x.depth + n) < 1:
            raise BoxExhausted(
                f"degree bound {x.degree} leaves no terms after {n} root steps"
            )
    y = x.frobenius_inverse(n).lift(prec)
    return y ** (x.p**n)


def witt_decompose(a: AinfElt, digits: int) -> WittElt:
    """Teichmüller-digit decomposition a = Σ p^i [x_i] mod p^digits.

    Peels digits off by subtracting the multiplicative representative and
    dividing by p; a residue not divisible by p after subtraction means
    the element was not a measure-ring value and is reported as corrupted.
    """
    a, digits = _same(None, a, AinfElt), _count(digits, "digits", 1)
    if a.shift != 0:
        raise PreconditionError("element must have integral coefficients")
    if a.prec < digits:
        raise PreconditionError(
            f"element precision O(p^{a.prec}) below digit count {digits}"
        )
    p = a.p
    out = []
    cur = a
    for i in range(digits):
        x_i = cur.reduce_mod_p()
        out.append(x_i)
        if i == digits - 1:
            break
        t = teichmuller(x_i, digits - i)
        diff = cur - t
        cs = {}
        for k, c in diff.coeffs.items():
            if c % p:
                raise InternalConsistencyError(
                    "digit peel-off left a coefficient not divisible by p"
                )
            cs[k] = c // p
        cur = AinfElt(p, diff.prec - 1, diff.depth, diff.degree, cs)
    return WittElt(p, out)


def witt_recompose(w: WittElt, prec=None) -> AinfElt:
    """Σ p^i [x_i] from the digit list, at precision len(digits) by default."""
    n = len(_same(None, w, WittElt).digits)
    if n == 0:
        raise PreconditionError("empty digit list")
    prec = n if prec is None else prec
    p = w.p
    total = None
    for i, x_i in enumerate(w.digits):
        if i >= prec:
            break
        t = teichmuller(x_i, prec - i)
        # p^i * [x_i]: an element-wide shift, so no precision is lost
        t = AinfElt(p, t.prec, t.depth, t.degree, t.coeffs, shift=i)
        total = t if total is None else total + t
    return total
