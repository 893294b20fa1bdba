"""Exact truncated arithmetic in Z_p and Q_p.

A scalar is stored as ``p^shift * unit`` with ``unit`` known modulo
``p^prec``, i.e. the value is known modulo ``p^(shift+prec)`` (absolute
precision).  All operations propagate the provable precision and never
report digits beyond it.  The module also provides the classical binomial
coefficient function on Z_p and its generalized version on Q_p with
exponents in S = Z[1/p] ∩ R_{>=0}, obtained as the limit of
``C(p^n x, p^n q)`` over scaling levels n.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .errors import (
    ParseError,
    PrecisionExhausted,
    PreconditionError,
    PrimeMismatch,
)

__all__ = [
    "PadicScalar",
    "SExponent",
    "LowerBound",
    "binomial",
    "comb_int",
    "gen_binomial",
    "gen_binomial_approximants",
    "gen_binomial_profile",
    "gen_binomial_valuation_bound",
    "gen_binomial_valuation_floor",
    "log_floor",
    "vp_int",
    "vp_factorial",
]


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


@functools.cache
def is_prime(n: int) -> bool:
    """Whether n is prime, decided exactly: a prime of _MR_BASES divides n,
    or n is a strong probable prime to each of them, which no composite
    below _MR_BOUND is (Sorenson and Webster, 2015).  A larger n is refused
    with a PreconditionError."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_BOUND:
        raise PreconditionError(f"p = {n}: primality is decided only below {_MR_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s · d with d odd
    d = (n - 1) >> s
    return all(
        pow(b, d, n) == 1 or any(pow(b, d << r, n) == n - 1 for r in range(s))
        for b in _MR_BASES
    )


def vp_int(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer in O(log v) divisions: after
    one p, strip p, p^2, p^4, ... while they divide, then the same powers
    back down.  A p below 2 is refused: 0 divides nothing, and 1 and -1
    divide every n, so the strip would never end."""
    if n == 0:
        raise ValueError("valuation of 0 is unbounded")
    if p < 2:
        _modulus(p)  # raises: no prime is below 2
    if n % p:
        return 0
    n //= p
    v, q, e, qs = 1, p, 1, []
    while n % q == 0:
        n //= q
        v += e
        qs.append(q)
        q *= q
        e += e
    # what is left of v is below e
    while qs:
        q = qs.pop()
        e >>= 1
        if n % q == 0:
            n //= q
            v += e
    return v


def log_floor(n: int, p: int) -> int:
    """How many of p, p^2, ... are <= n: the largest e with p^e <= n, 0 if n < p."""
    e, q = 0, p
    while q <= n:
        e, q = e + 1, q * p
    return e


def _tail_floor(n: int, r: int, p: int) -> int:
    """1 + the largest l with r·p^l <= n, 0 if n < r: the one valuation floor
    of a tail cut at n, where every term from r·p^l on lies in p^(l+1); r is
    a ball's p^h for T^m, or a Mahler function's period."""
    return log_floor(n // r, p) + 1 if n >= r else 0


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) by Legendre's formula."""
    s = 0
    q = n
    while q > 0:
        q //= p
        s += q
    return s


def comb_int(a: int, n: int) -> int:
    """Exact integer binomial C(a, n) for any integer a and n >= 0: below 0,
    C(a, n) = (-1)^n C(n - a - 1, n)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(a, n) if a >= 0 else (-1) ** n * math.comb(n - a - 1, n)


def json_field(doc, key):
    """``doc[key]`` of a JSON object; a missing key, or a ``doc`` that is no
    object, is a ParseError."""
    if not isinstance(doc, dict) or key not in doc:
        raise ParseError(f"missing {key!r} in a JSON document")
    return doc[key]


def json_int(doc, key, low=None):
    """``doc[key]`` as an integer of at least ``low``; a missing key, a bool,
    any other non-integer or a smaller value is a ParseError."""
    value = json_field(doc, key)
    if type(value) is not int or (low is not None and value < low):
        need = "an integer" if low is None else f"an integer >= {low}"
        raise ParseError(f"bad {key} {value!r}: need {need}")
    return value


def json_flag(doc, key):
    """``doc[key]`` of a JSON object as a bool, False when absent; any value
    but a JSON true or false is a ParseError."""
    value = doc.get(key, False)
    if type(value) is not bool:
        raise ParseError(f"bad {key} {value!r}: need true or false")
    return value


def _modulus(p, prec=1):
    """p^prec, once p is checked a prime and prec a count >= 1, each an int
    and no bool: the one check of the prime and the coefficient precision of
    every value type's box."""
    if type(p) is not int or not is_prime(p):
        raise PreconditionError(f"p = {p!r} is not prime")
    return p ** _count(prec, "prec", 1)


def _count(n, what, low=None):
    """``n``, once it is an int (no bool) of at least ``low`` (any int for
    None): the one rule of every count, a precision, degree, depth, radius,
    stage, level or index.  Anything else is a PreconditionError."""
    if type(n) is not int or (low is not None and n < low):
        raise PreconditionError(f"need an int {what}{'' if low is None else f' >= {low}'}, not {n!r}")
    return n


def _degree(d, low=0):
    """A degree bound on Q_p by its one rule: None (no bound) as None, an
    int or a ``Fraction`` above ``low`` as a Fraction.  Anything else (a
    float, a bool, a str, ...) is a PreconditionError."""
    if d is None:
        return None
    if type(d) is not int and not isinstance(d, Fraction) or d <= low:
        raise PreconditionError(f"need a degree bound above {low}, an int or a Fraction, not {d!r}")
    return Fraction(d)


class Immutable:
    """Base of the value types: an instance refuses assignment, and its
    constructor sets its slots once, through ``_set``.  Equality has one
    skeleton: a value of another type is ``NotImplemented``, one at another
    prime is unequal, and the rest is the type's own ``_equal``, up to its
    box; so a type is unhashable unless it defines ``__hash__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _set(self, **slots):
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.p == other.p and self._equal(other)


class Ring(Immutable):
    """Base of the value types with a ``+`` and a ``*`` of their own, which
    fix the operators that follow from them, written here once: ``-x`` is
    ``x * -1``; ``x - y`` is ``x + (-y)`` for an int or a Ring y and ``x + y``
    otherwise, so the type's own operand rule refuses a foreign y; ``y - x``
    is ``-x + y``; the reflected ``+`` and ``*`` swap their operands."""

    __slots__ = ()

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other if isinstance(other, (int, Ring)) else other)

    def __rsub__(self, other):
        return -self + other

    def __radd__(self, other):
        return self + other

    def __rmul__(self, other):
        return self * other


def _same(p, x, kind):
    """``x``, once it is a ``kind`` at the prime p (at any prime for p None):
    the one operand rule of every binary operation, pairing and scalar
    argument.  Another kind is a PreconditionError, another prime a
    PrimeMismatch."""
    if not isinstance(x, kind):
        raise PreconditionError(f"expected {kind.__name__}, got {type(x).__name__}")
    if p is not None and x.p != p:
        raise PrimeMismatch(f"p={p} vs p={x.p}")
    return x


def _point(p, s, prec=None):
    """A point of Q_p by the one rule of every reader of points: an int or
    a ``Fraction`` as an exact Fraction, a PadicScalar as ``_same`` checks
    it at p.  Anything else (a float, a bool, ...) is a PreconditionError.
    With ``prec`` a rational point becomes a scalar: an integer mod p^prec,
    any other with relative precision prec."""
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        s = Fraction(s)
        if prec is None:
            return s
        if s.denominator == 1:
            return PadicScalar.from_int(p, int(s), prec)
        return PadicScalar.from_fraction(p, s, prec)
    if not isinstance(s, PadicScalar):
        raise PreconditionError(f"a point is an int, a Fraction or a PadicScalar, not {type(s).__name__}")
    return _same(p, s, PadicScalar)


class LowerBound:
    """Marker for a quantity only known to be ``>= bound``.

    Returned by valuation-style queries when truncation prevents
    resolving the exact value.
    """

    __slots__ = ("bound",)

    def __init__(self, bound):
        self.bound = bound

    def __eq__(self, other):
        return isinstance(other, LowerBound) and self.bound == other.bound

    def __hash__(self):
        return hash(("LowerBound", self.bound))

    def __repr__(self):
        return f">= {self.bound}"


def _congruent(p, s, u, t, v, bound):
    """Whether p^s·u ≡ p^t·v mod p^bound, bound >= min(s, t): the rule of
    ``PadicScalar`` equality, for callers that hold no scalar."""
    if s > t:
        s, u, t, v = t, v, s, u
    return (u - v * p ** (t - s)) % p ** (bound - s) == 0


class PadicScalar(Ring):
    """An element of Q_p known to absolute precision O(p^(shift+prec)).

    Normal form: either ``unit`` is coprime to p (so the valuation is
    exactly ``shift``), or ``unit == 0 and prec == 0`` (the canonical
    "zero at precision O(p^shift)" element, whose valuation is only
    bounded below by ``shift``).
    """

    __slots__ = ("p", "shift", "unit", "prec")

    def __init__(self, p: int, shift: int, unit: int, prec: int):
        _modulus(p)  # a scalar may carry prec 0
        unit %= p ** _count(prec, "prec", 0)
        _count(shift, "shift")
        if unit == 0:
            shift, prec = shift + prec, 0
        else:
            v = vp_int(unit, p)
            if v:
                shift, prec, unit = shift + v, prec - v, unit // p**v
        self._set(p=p, shift=shift, unit=unit, prec=prec)

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, p: int, value: int, prec: int) -> "PadicScalar":
        return cls(p, 0, value % p**prec, prec)

    @classmethod
    def from_fraction(cls, p: int, value, prec: int) -> "PadicScalar":
        """Embed a rational with the given relative precision budget."""
        fr = Fraction(value)
        if fr == 0:
            return cls.zero(p, prec)
        num, den = fr.numerator, fr.denominator
        vn = vp_int(num, p)
        vd = vp_int(den, p)
        num //= p**vn
        den //= p**vd
        mod = p ** _count(prec, "prec", 0)
        unit = num * pow(den, -1, mod) % mod
        return cls(p, vn - vd, unit, prec)

    @classmethod
    def zero(cls, p: int, abs_bound: int) -> "PadicScalar":
        return cls(p, abs_bound, 0, 0)

    @classmethod
    def one(cls, p: int, prec: int) -> "PadicScalar":
        return cls(p, 0, 1, prec)

    # -- basic queries -------------------------------------------------

    @property
    def abs_bound(self) -> int:
        """Exponent b such that the value is known modulo p^b."""
        return self.shift + self.prec

    def is_zero(self) -> bool:
        """True when the value is 0 at its stated precision."""
        return self.unit == 0

    def valuation(self):
        """Exact valuation, or a LowerBound marker for a truncated zero."""
        if self.unit == 0:
            return LowerBound(self.shift)
        return self.shift

    def val_floor(self) -> int:
        """Certified lower bound on the valuation (exact when nonzero)."""
        return self.shift

    def integer_rep(self) -> int:
        """The representative of an integral element in [0, p^abs_bound)."""
        if self.shift < 0:
            raise PreconditionError("element is not integral")
        return self.unit * self.p**self.shift

    def residue(self, k: int) -> int:
        """Value modulo p^k (requires k <= abs_bound)."""
        if _count(k, "k") > self.abs_bound:
            raise PrecisionExhausted(
                f"residue mod p^{k} requested, only O(p^{self.abs_bound}) known"
            )
        if k <= self.shift:
            return 0
        return self.unit * self.p**self.shift % self.p**k

    # -- arithmetic ----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, int):
            return PadicScalar.from_int(self.p, other, self.prec + max(self.shift, 0) + 1)
        return _same(self.p, other, PadicScalar)

    def __add__(self, other):
        other = self._coerce(other)
        bound = min(self.abs_bound, other.abs_bound)
        s = min(self.shift, other.shift, bound)
        mod = self.p ** (bound - s)
        val = (
            self.unit * self.p ** (self.shift - s)
            + other.unit * self.p ** (other.shift - s)
        ) % mod
        return PadicScalar(self.p, s, val, bound - s)

    def __neg__(self):  # primitive: self * -1 would first coerce -1
        return PadicScalar(self.p, self.shift, -self.unit, self.prec)

    def __mul__(self, other):
        other = self._coerce(other)
        bound = min(self.shift + other.abs_bound, other.shift + self.abs_bound)
        s = self.shift + other.shift
        prec = bound - s
        return PadicScalar(self.p, s, self.unit * other.unit, prec)

    def truncate(self, abs_bound: int) -> "PadicScalar":
        """Forget digits: reduce the absolute precision to ``abs_bound``."""
        if abs_bound > self.abs_bound:
            raise PrecisionExhausted(
                f"cannot extend precision O(p^{self.abs_bound}) to O(p^{abs_bound})"
            )
        if abs_bound <= self.shift:
            return PadicScalar.zero(self.p, abs_bound)
        return PadicScalar(self.p, self.shift, self.unit, abs_bound - self.shift)

    def __eq__(self, other):
        """Equality at the coarsest common precision, by ``_congruent``; an
        int is exact at shift 0, so the bound is this scalar's own."""
        if isinstance(other, int):
            return _congruent(self.p, self.shift, self.unit, 0, other, self.abs_bound)
        if not isinstance(other, PadicScalar):
            return NotImplemented
        return self.p == other.p and _congruent(
            self.p, self.shift, self.unit, other.shift, other.unit,
            min(self.abs_bound, other.abs_bound),
        )

    # -- presentation ---------------------------------------------------

    def __repr__(self):
        return f"PadicScalar(p={self.p}, shift={self.shift}, unit={self.unit}, prec={self.prec})"

    def __str__(self):
        if self.unit == 0:
            return f"0 + O({self.p}^{self.abs_bound})"
        return f"{self.p}^{self.shift} * {self.unit} + O({self.p}^{self.abs_bound})"

    def to_json(self) -> dict:
        return {"p": self.p, "shift": self.shift, "unit": self.unit, "prec": self.prec}

    @classmethod
    def from_json(cls, doc: dict) -> "PadicScalar":
        """The scalar of a ``to_json`` document; a missing key or a field that
        is not an integer is a ParseError."""
        return cls(*(json_int(doc, key) for key in ("p", "shift", "unit", "prec")))


class SExponent(Immutable):
    """An exponent q = num / p^logden in S = Z[1/p] ∩ R_{>=0}, in lowest terms.
    Exponents have no order of their own: sort by ``as_fraction``."""

    __slots__ = ("p", "num", "logden")

    def __init__(self, p: int, num: int, logden: int = 0):
        num, logden = _count(num, "num", 0), _count(logden, "logden", 0)
        if num == 0:
            logden = 0
        elif logden:
            # vp_int refuses a p below 2 before it divides by it
            strip = min(vp_int(num, p), logden)
            if strip:
                num //= p**strip
                logden -= strip
        self._set(p=p, num=num, logden=logden)

    @classmethod
    def from_fraction(cls, p: int, value) -> "SExponent":
        fr = Fraction(value)
        if fr < 0:
            raise PreconditionError("S-exponents are nonnegative")
        den = fr.denominator
        if den == 1:
            return cls(p, fr.numerator, 0)
        logden = vp_int(den, p)
        if p**logden != den:
            raise PreconditionError(f"denominator {den} is not a power of {p}")
        return cls(p, fr.numerator, logden)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, self.p**self.logden)

    def vp(self):
        """Valuation of q, or None for q = 0 (valuation unbounded)."""
        if self.num == 0:
            return None
        return vp_int(self.num, self.p) - self.logden

    def __add__(self, other: "SExponent") -> "SExponent":
        other = _same(self.p, other, SExponent)
        m = max(self.logden, other.logden)
        num = self.num * self.p ** (m - self.logden) + other.num * self.p ** (
            m - other.logden
        )
        return SExponent(self.p, num, m)

    def _equal(self, other):
        return self.num == other.num and self.logden == other.logden

    def __hash__(self):
        return hash((self.p, self.num, self.logden))

    def __repr__(self):
        if self.logden == 0:
            return str(self.num)
        return f"{self.num}/{self.p ** self.logden}"

    def to_json(self) -> dict:
        return {"num": self.num, "logden": self.logden}

    @classmethod
    def from_json(cls, p: int, doc: dict) -> "SExponent":
        """The exponent of a ``to_json`` document; a missing key or a field
        that is not an integer is a ParseError."""
        return cls(p, json_int(doc, "num"), json_int(doc, "logden"))


# ---------------------------------------------------------------------------
# Binomial coefficient machinery
# ---------------------------------------------------------------------------


def binomial_row_tracked(p: int, X: int, M: int, n_max: int, work: int):
    """Yield C(X, n) mod p^work for n = 0..n_max, for the integer X.

    For x ≡ X mod p^M, entry n certifies C(x, n) mod p^min(work, M - v_p(n!)):
    n!·C(x, n) is a polynomial in x with integer coefficients.  Each step
    multiplies by X - n and divides by n + 1, the valuation kept apart
    from a unit mod p^work.
    """
    if M <= 0:
        raise PrecisionExhausted("argument has no known digits")
    work = max(work, 1)
    mod = p**work
    val, unit = 0, 1
    yield 1
    for k in range(1, n_max + 1):
        f = X - k + 1
        if f == 0:  # C(X, n) = 0 for every n > X
            yield from [0] * (n_max - k + 1)
            return
        fv, kv = vp_int(f, p), vp_int(k, p)
        val += fv - kv
        unit = unit * (f // p**fv) * pow(k // p**kv, -1, mod) % mod
        yield unit * p**val % mod if val < work else 0


def comb_tracked(p: int, X: int, M: int, n: int, work: int) -> PadicScalar:
    """C(x, n) as a PadicScalar, for x ≡ X mod p^M, at the provable precision.

    Legendre counting gives the valuation: p^t divides 1 + (n-1-r_t)//p^t
    of the factors x - j, with r_t = X mod p^t, while r_t < n and t <= M;
    the unit is known mod p^min(work, M - t_max).  It is the unit part of
    X(X-1)...(X-n+1) over that of n!, each from at most log_p(n) + 1
    levels of aligned blocks (``_unit_product``).  Cost: with p^e dividing
    X and n, the blocks on level j have size >= p^(e-j), so the levels
    j <= e - work take Wilson signs alone and each other level takes
    O(p log_p(n/p^e)) block evaluations of degree <= work, not a walk's n
    steps; gen_binomial's C(p^s x, p^s q) has e >= s.
    """
    return next(_combs_tracked(p, X, M, [n], work))


def _combs_tracked(p: int, X: int, M: int, ns, work: int):
    """Yield comb_tracked(p, X, M, n, work) for each n of the ascending ``ns``;
    the unit products grow from one n to the next, over the gap alone."""
    if M <= 0:
        raise PrecisionExhausted("argument has no known digits")
    X %= p**M
    w = max(work, 1)
    mod = p**w
    num, den, done = 1, 1, 0  # unit parts of X(X-1)...(X-done+1) and done!
    for n in ns:
        val, maxfv = _legendre(p, X, M, n)
        rel = min(w, M - maxfv)  # never grows with n: X >= n while rel > 0
        if rel <= 0:
            yield PadicScalar(p, val, 0, 0)
            continue
        num = num * _unit_product(p, X - n + 1, X - done + 1, w) % mod
        den = den * _unit_product(p, done + 1, n + 1, w) % mod
        done = n
        yield PadicScalar(p, val, num * pow(den, -1, mod), rel)


def _legendre(p: int, X: int, M: int, n: int):
    """(v, t) for x ≡ X mod p^M, 0 <= X < p^M: v_p(x(x-1)...(x-n+1)/n!) is
    v, or at least v when t = M, counted level by level while r_t = X mod p^t
    is below n and t <= M.  Once p^t > X, r_t stays X, so the levels t..M
    close in one step: M - t + 1 plus Σ (n-1-X)//p^s over s <= log_p(n-1-X)."""
    val, t, q = -vp_factorial(n, p), 0, 1  # q = p^t
    while t < M and X % (q * p) < n:
        t, q = t + 1, q * p
        if q > X:  # r_s = X < n for every s >= t
            y = n - 1 - X
            rest = sum(y // p**s for s in range(t, min(M, log_floor(y, p)) + 1))
            return val + M - t + 1 + rest, M
        val += 1 + (n - 1 - X % q) // q
    return val, t


_BLOCK_POLYS = {}  # (p, w) -> [F_1, F_2, ...], grown on demand


def _block_poly(p: int, w: int, k: int) -> list:
    """F_k(y) = ∏_{u < p^k, p ∤ u} (y + u) mod (p^w, y^⌈w/k⌉), 1 <= k < w, as
    a coefficient list.  It is evaluated only at points of valuation >= k,
    where the dropped terms vanish mod p^w; F_k = ∏_{t<p} F_(k-1)(y + t p^(k-1))."""
    table = _BLOCK_POLYS.get((p, w), [])
    if k <= len(table):
        return table[k - 1]
    from . import _series

    mod = p**w
    while len(table) < k:
        j = len(table) + 1
        if j == 1:
            factors = [[u, 1] for u in range(1, p)]
        else:
            factors = [_taylor_shift(table[-1], t * p ** (j - 1), mod) for t in range(p)]
        size = -(-w // j)
        f = {0: 1}
        for g in factors:
            f = {i: c % mod for i, c in _series.mul(f, _series.sparse(g), size).items()}
        table = table + [_series.dense(f, size)]  # published whole, never mutated
    _BLOCK_POLYS[(p, w)] = table
    return table[k - 1]


def _taylor_shift(c: list, s: int, mod: int) -> list:
    """Coefficients of c(y + s) mod ``mod``."""
    c = list(c)
    for i in range(len(c) - 1):
        for j in range(len(c) - 2, i - 1, -1):
            c[j] = (c[j] + s * c[j + 1]) % mod
    return c


def _unit_product(p: int, lo: int, hi: int, w: int) -> int:
    """Unit part of ∏_{lo <= m < hi} m mod p^w, for 1 <= lo.

    Each level multiplies the integers prime to p in [a, b), covered by
    aligned blocks [c, c + p^k), p^k | c, each F_k(c), or ±1 by generalized
    Wilson when k >= w.  [a, b) is [lo, hi) with an end ≡ 1 mod p moved down
    by one: that adds or drops a multiple of p, which no block multiplies
    in, and aligns the cover to the ends' high powers of p.  The multiples
    of p in the unmoved [lo, hi), divided by p, form the next level.
    """
    mod = p**w
    out = 1
    while lo < hi:
        a, b = lo - (lo % p == 1), hi - (hi % p == 1)
        while a < b:
            k, pk = 0, 1
            while a % (pk * p) == 0 and a + pk * p <= b:
                k, pk = k + 1, pk * p
            if k >= w:
                out = out if p == 2 and k >= 3 else -out
            elif k:
                r, y = 0, a % mod
                for c in reversed(_block_poly(p, w, k)):
                    r = (r * y + c) % mod
                out = out * r % mod
            elif a % p:
                out = out * a % mod
            a += pk
        lo, hi = -(-lo // p), -(-hi // p)
    return out % mod


def binomial(x: PadicScalar, n: int) -> PadicScalar:
    """Classical binomial C(x, n) for integral x, n >= 0.

    The output precision is the input's absolute precision minus v_p(n!):
    the numerator product is known mod p^bound and the division by n!
    costs exactly that many digits.
    """
    x, n = _same(None, x, PadicScalar), _count(n, "n", 0)
    if x.shift < 0:
        raise PreconditionError("binomial requires an integral argument")
    p = x.p
    bound = x.abs_bound
    vfact = vp_factorial(n, p)
    if bound <= vfact:
        raise PrecisionExhausted(
            f"input precision O(p^{bound}) <= v_p({n}!) = {vfact}"
        )
    if n == 0:
        return PadicScalar.one(p, bound)
    out = comb_tracked(p, x.integer_rep(), bound, n, work=bound)
    return out.truncate(bound - vfact)


def gen_binomial_valuation_floor(s: PadicScalar, q) -> int:
    """Certified lower bound v(s) - v(q) on v((s choose q)) when v(s) > v(q).

    Proof by carry counting: writing the pairing at a scaling level where
    both arguments are integral, the base-p addition of p^n q and
    p^n (s - q) is forced to carry at every position from n + v(q) up to
    n + v(s) - 1, and each carry contributes one to the valuation of the
    binomial coefficient.  The bound is sharp (s = p^k, q = 1 attains it).
    """
    q = _as_sexponent(_same(None, s, PadicScalar).p, q)
    vq = q.vp()
    if vq is None:
        return 0
    vs = s.val_floor()
    return max(0, vs - vq)


def gen_binomial_valuation_bound(s: PadicScalar, q) -> int:
    """The (p-1)-scaled valuation bound (p-1)(v(s)-v(q)), else 0.

    This is the stated interface constant; it coincides with the certified
    floor at p = 2.  For p >= 3 it can overstate the guarantee (already
    s = p^2, q = 1 gives a binomial of valuation exactly 2), so all
    internal truncation logic uses gen_binomial_valuation_floor instead.
    """
    floor = gen_binomial_valuation_floor(s, q)
    return (s.p - 1) * floor


def _as_sexponent(p: int, q) -> SExponent:
    return _same(p, q, SExponent) if isinstance(q, SExponent) else SExponent.from_fraction(p, q)


def _approximant(x: PadicScalar, logden: int, js, n: int):
    """(X, M, Ks): C(p^n x, p^n j/p^logden) is C(X, K) for x ≡ X mod p^M,
    with K = j·p^(n - logden) for each j of ``js``."""
    p, step = x.p, x.p ** (n - logden)
    return x.unit * p ** (x.shift + n), x.abs_bound + n, [j * step for j in js]


def _gen_binomials(x: PadicScalar, logden: int, js, target_prec: int):
    """Yield (x choose j/p^logden) for each j of the ascending ``js``, to
    >= target_prec digits, from one ``_combs_tracked`` walk at one level.

    The level n = max(logden, -min(v(x), 0), target_prec - 1 - v(x)) makes
    both arguments integral, and consecutive approximants C(p^n x, p^n q)
    differ by a multiple of p^(1+n+v(x)); each entry is certified to the
    lesser of that and its walk precision, or raises PrecisionExhausted.
    (x choose 0) is 1 + O(p^target_prec) for every x, with no walk.
    """
    p, vx = x.p, x.val_floor()
    n = max(_count(logden, "logden", 0), -min(vx, 0), _count(target_prec, "target_prec", 1) - 1 - vx)
    X, M, ks = _approximant(x, logden, js, n)
    walk = _combs_tracked(p, X, M, [k for k in ks if k], target_prec + 2)
    for j in js:
        if not j:
            yield PadicScalar.one(p, target_prec)
            continue
        out = next(walk)
        certified = min(out.abs_bound, 1 + n + vx)
        if certified < target_prec:
            raise PrecisionExhausted(f"(x choose {j}/p^{logden}) is certified only to "
                                     f"O(p^{certified}); raise the precision of x")
        yield out.truncate(certified)


def gen_binomial(x: PadicScalar, q, target_prec: int) -> PadicScalar:
    """Generalized binomial (x choose q) on Q_p, q in S, to >= target_prec digits.

    The one-entry case of ``_gen_binomials``: the approximant C(p^n x, p^n q)
    from ``comb_tracked``'s counting and block products, in time polynomial
    in the level n ≈ target_prec, where the falling-factorial walk took ~p^n.
    """
    q = _as_sexponent(_same(None, x, PadicScalar).p, q)
    return next(_gen_binomials(x, q.logden, [q.num], target_prec))


def gen_binomial_approximants(x: PadicScalar, q, levels) -> list:
    """The raw approximants C(p^n x, p^n q) for the given levels n.

    Levels must make both arguments integral.  Used to inspect the
    convergence of the defining limit.
    """
    q = _as_sexponent(_same(None, x, PadicScalar).p, q)
    out = []
    for n in levels:
        if _count(n, "level") < q.logden or x.shift + n < 0:
            raise PreconditionError(f"level {n} leaves arguments non-integral")
        X, M, (K,) = _approximant(x, q.logden, [q.num], n)
        out.append((n, comb_tracked(x.p, X, M, K, work=M)))
    return out


def gen_binomial_profile(x: PadicScalar, logden: int, q_max, target_prec: int) -> dict:
    """All (x choose j/p^logden) for 0 <= j/p^logden <= q_max, at one level.

    Returns {j: PadicScalar}: the grid case of ``_gen_binomials``.  The
    entries share the walk's unit products, which grow by block products
    over p^(n - logden) factors from one entry to the next, so the profile
    costs polynomial time in n per entry, where a walk took about
    q_max p^n steps.
    """
    js = range(int(Fraction(q_max) * _same(None, x, PadicScalar).p ** logden) + 1)
    return dict(zip(js, _gen_binomials(x, logden, js, target_prec)))
