"""The measure algebra on Z_p as the power-series ring Z_p[[T]].

Measures are truncated to a box (p^N, T^d): coefficients are residues
mod p^N and degrees run below d.  The Dirac mass at an integral point a
is the series (1+T)^a, convolution of measures is the series product,
and the pairing with a continuous function f = Σ c_n (x choose n)
(Mahler coefficients) is Σ c_n a_n.

Ball values come from the quotient Z_p[[T]]/((1+T)^(p^h) - 1), which is
Z_p[Z/p^h]: substitute T = S - 1 and fold the exponents of S mod p^h;
the coefficient of S^a is the value on a + p^h Z_p, so one Horner pass
gives every ball of a radius (Washington, Cyclotomic Fields, §7.1).  As
(S - 1)^(p^h) ≡ 0 mod p there, a fold mod p^k stops at T^(k·p^h).  The
pass and the Mahler solve's differences run in ``_series``, packed one
slot per power of S (per sample), every width moved as word planes.
Degree truncation is converted into p-adic precision through the
containment of T^(p^(h+l)) in the ideal of measures taking values in
p^(l+1) Z_p on all balls of radius p^(-h).

The ball ideals are read from one pass per radius (``_radius_pass``):
the values of T^m on the balls of radius p^-h mod p^(N+1-h), one cyclic
difference pass per m as T^(m+1) = T^m·(S - 1), until they vanish.  One
rule reads them: p^i T^m lies in every U_(h, N+1-h) exactly when p^i·g
vanishes mod p^(N+2), g the least of p^(h+1)·gcd(p^(N+1-h), values at
h), one gcd per (m, h).  ``ball_ideal_failures`` applies the rule to
generator lists, and ``intersection_vs_middle_scan`` to the middle
generators, whose scaled values it stacks into the ball-value map whose
Smith form (Cohen, A Course in Computational Algebraic Number Theory,
§2.4) counts the intersection.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _series
from .errors import (
    BoxExhausted,
    InternalConsistencyError,
    ParseError,
    PrecisionExhausted,
    PreconditionError,
    UncertifiedTailError,
)
from .padic import (
    Immutable,
    LowerBound,
    PadicScalar,
    Ring,
    _count,
    _modulus,
    _point,
    _same,
    _tail_floor,
    binomial_row_tracked,
    json_field,
    json_flag,
    json_int,
    log_floor,
    vp_factorial,
    vp_int,
)

__all__ = [
    "IwasawaElt",
    "MahlerFn",
    "BivariateSeries",
    "dirac",
    "mahler_coeffs_from_samples",
    "mahler_coeffs_by_differences",
    "integrate",
    "integrate_matrix",
    "ball_ideal_failures",
    "ptadic_power_generators",
    "ball_ideal_equal_generators",
    "ball_ideal_middle_generators",
    "middle_ideal_valuation",
    "middle_ideal_contains",
    "intersection_vs_middle_scan",
]

_INF = math.inf


class IwasawaElt(Ring):
    """A measure on Z_p as a series in T, known mod the box (p^N, T^d).

    ``exact_tail`` records that every coefficient from degree d on is
    exactly zero (true for Dirac masses of small integers and for
    monomials); it sharpens ball-value certificates but is never
    required.  Coefficients from degree d on are forgotten, and the tail
    stays exact only if each of them is zero mod p^N.
    """

    __slots__ = ("p", "prec", "degree", "coeffs", "exact_tail", "_balls")

    def __init__(self, p, prec, degree, coeffs, exact_tail=False):
        mod = _box(p, prec, degree)
        cs = [c % mod for c in coeffs]
        self._set(p=p, prec=prec, degree=degree,
                  coeffs=tuple(cs[:degree]) + (0,) * (degree - len(cs)),
                  exact_tail=bool(exact_tail) and not any(cs[degree:]))

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, p, prec, degree):
        return cls(p, prec, degree, [], exact_tail=True)

    @classmethod
    def one(cls, p, prec, degree):
        return cls(p, prec, degree, [1], exact_tail=True)

    @classmethod
    def monomial(cls, p, m, prec, degree, coeff=1):
        if _count(m, "m", 0) >= degree:
            raise BoxExhausted(f"T^{m} does not fit below degree {degree}")
        return cls(p, prec, degree, _series.dense({m: coeff}, degree), exact_tail=True)

    # -- box plumbing ----------------------------------------------------

    def resize(self, prec=None, degree=None):
        """Shrink the box (never a gain of information); an exact tail may
        grow the degree, and stays exact only if no nonzero term is cut."""
        prec = self.prec if prec is None else prec
        degree = self.degree if degree is None else degree
        if prec > self.prec or (degree > self.degree and not self.exact_tail):
            raise PrecisionExhausted("cannot grow a truncation box")
        return IwasawaElt(self.p, prec, degree, self.coeffs, exact_tail=self.exact_tail)

    def poly_degree(self):
        """Largest stored index with a nonzero residue (-1 for zero)."""
        for n in range(self.degree - 1, -1, -1):
            if self.coeffs[n]:
                return n
        return -1

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        prec, degree = _common_box(self, other)
        cs = [self.coeffs[n] + other.coeffs[n] for n in range(degree)]
        return IwasawaElt(
            self.p, prec, degree, cs,
            exact_tail=self.exact_tail and other.exact_tail
            and self.poly_degree() < degree and other.poly_degree() < degree,
        )

    def __mul__(self, other):
        if isinstance(other, int):
            return IwasawaElt(
                self.p, self.prec, self.degree,
                [c * other for c in self.coeffs], exact_tail=self.exact_tail,
            )
        prec, degree = _common_box(self, other)
        cs = _series.mul_mod(self.coeffs, other.coeffs, degree, self.p**prec)
        exact = (
            self.exact_tail
            and other.exact_tail
            and self.poly_degree() + other.poly_degree() < degree
        )
        return IwasawaElt(self.p, prec, degree, cs, exact_tail=exact)

    def __pow__(self, k):
        return _series.power(self, k, IwasawaElt.one(self.p, self.prec, self.degree))

    def _equal(self, other):
        prec, degree = _common_box(self, other)
        return _series.equal(
            _series.sparse(self.coeffs), _series.sparse(other.coeffs), degree, self.p**prec
        )

    # -- measure-theoretic operations ---------------------------------------

    def ball_tail_floor(self, h):
        """Certified valuation floor for the unknown tail's ball values.

        Every T^m with m >= p^(h+l) takes values in p^(l+1) Z_p on balls
        of radius p^(-h); the largest l with p^(h+l) <= degree converts
        the degree cut into a p-adic bound.  Exact tails have no unknown
        terms at all.
        """
        h = _count(h, "h", 0)
        return _INF if self.exact_tail else _tail_floor(self.degree, self.p**h, self.p)

    def _ball_values(self, h):
        """(residues, out_prec): residues[a] is the value on a + p^h Z_p mod
        p^prec (0 past the list's end), certified to O(p^out_prec).  One fold
        per radius, kept on the instance; callers must not mutate it.  The fold
        stops at T^(prec·p^h): past it, every term is 0 mod p^prec."""
        out_prec = min(self.prec, self.ball_tail_floor(h))
        if out_prec <= 0:
            raise UncertifiedTailError(
                f"degree bound {self.degree} certifies nothing at radius p^-{h}"
            )
        if not hasattr(self, "_balls"):
            self._set(_balls={})
        if h not in self._balls:
            r = self.p**h
            self._balls[h] = _series.ball_residues(self.coeffs[: self.prec * r], r, self.p**self.prec)
        return self._balls[h], out_prec

    def ball_measure(self, a, h):
        """The value of the measure on the ball a + p^h Z_p."""
        if _count(a, "a", 0) >= self.p ** _count(h, "h", 0):
            raise PreconditionError("need 0 <= a < p^h")
        vals, out_prec = self._ball_values(h)
        total = vals[a] if a < len(vals) else 0
        return PadicScalar(self.p, 0, total, out_prec)

    def w_valuation(self):
        """w(Σ a_n T^n) = min_n v_p(a_n) + n by ``AinfElt``'s rule at depth 0."""
        w = _series.w_valuation(self.p, 0, 0, self.prec, None if self.exact_tail else self.degree,
                                _series.sparse(self.coeffs))
        return w if isinstance(w, LowerBound) else int(w)

    def natural_ideal_membership(self, h, l):
        """Does the measure take values in p^l Z_p on every ball of radius p^-h?

        Returns (member, witness) where witness is the limiting ball: the
        first ball breaking membership, or the one of minimal certified
        valuation.  Raises when the box cannot decide.
        """
        p = self.p
        vals, out_prec = self._ball_values(h)
        cut = p**out_prec
        witness = None
        min_val = _INF
        for a in range(p**h):
            r = vals[a] % cut if a < len(vals) else 0
            cand = vp_int(r, p) if r else out_prec
            if cand < l:
                if r:
                    return False, a
                raise UncertifiedTailError(
                    f"ball {a} + p^{h} Z_p only certified to O(p^{out_prec}) < {l}"
                )
            if cand < min_val:
                min_val, witness = cand, a
        return True, witness

    def coproduct(self, degree=None):
        """Image under the ring map T -> T⊗1 + 1⊗T + T⊗T, truncated.

        The certified output region is the triangle i + j < degree: the
        unknown input coefficients a_n (n >= d) map to images supported
        on total degree >= d, so a square bidegree box would have an
        uncertified corner.  The box is taken through ``resize``, so a
        larger degree is refused unless the tail is exact.  One packed
        substitution on the keys of ``BivariateSeries``: T⊗1, 1⊗T and T⊗T
        are the keys d + 1, d and 2d + 1, and the box is the key bound d².
        """
        mu = self.resize(degree=degree)
        d, mod = mu.degree, self.p**self.prec
        cs = _series.compose_mod(mu.coeffs, {d: 1, d + 1: 1, 2 * d + 1: 1}, d * d, mod)
        return BivariateSeries._unkeyed(self.p, self.prec, d, _series.sparse(cs))

    # -- presentation -----------------------------------------------------

    def __repr__(self):
        return f"IwasawaElt(p={self.p}, prec={self.prec}, degree={self.degree})"

    def __str__(self):
        body = _series.render(self.p, ((k, 0, c) for k, c in enumerate(self.coeffs) if c), "T")
        return f"{body} + O({self.p}^{self.prec}, T^{self.degree})"

    def to_json(self):
        doc = {
            "p": self.p,
            "prec": self.prec,
            "degree": self.degree,
            "coeffs": list(self.coeffs),
        }
        if self.exact_tail:
            doc["exact_tail"] = True
        return doc

    @classmethod
    def from_json(cls, doc):
        """The measure of a ``to_json`` document; a missing key, a non-integer
        field or coefficient, prec < 1, or an exact tail over a coefficient
        past the degree that is nonzero mod p^prec is a ParseError."""
        p, degree = json_int(doc, "p"), json_int(doc, "degree")
        prec = json_int(doc, "prec", low=1)
        coeffs = json_field(doc, "coeffs")
        if not isinstance(coeffs, list) or any(type(c) is not int for c in coeffs):
            raise ParseError("coeffs must be a list of integers")
        exact = json_flag(doc, "exact_tail")
        mu = cls(p, prec, degree, coeffs, exact_tail=exact)
        if exact and not mu.exact_tail:
            raise ParseError(f"exact_tail with a nonzero coefficient past degree {degree}")
        return mu


def _box(p, prec, degree):
    """p^prec, once the box (p^prec, degree) of a Z_p series is checked."""
    mod = _modulus(p, prec)
    _count(degree, "degree", 1)
    return mod


def _common_box(a, b):
    """(prec, degree) of the box two series of ``a``'s type share."""
    b = _same(a.p, b, type(a))
    return min(a.prec, b.prec), min(a.degree, b.degree)


def dirac(a, degree, prec, p=None):
    """The Dirac mass at an integral point, as the series (1+T)^a.

    ``a`` is read by ``padic._point``'s rule: an integer, exact, or an
    integral PadicScalar, in which case each coefficient C(a, n) costs
    v_p(n!) digits of a's precision and the box precision must still be
    reachable.
    """
    a = _point(p, a)
    if isinstance(a, Fraction):
        if a.denominator != 1:
            raise PreconditionError(f"rational Dirac point {a}: give it as a PadicScalar")
        if p is None:
            raise PreconditionError("p is required when a is a plain integer")
    p = a.p if p is None else p
    _box(p, prec, degree)
    # exactness of the tail is only known for small true integers
    exact = isinstance(a, Fraction) and 0 <= a < degree
    need = prec + vp_factorial(degree - 1, p)
    a = _point(p, a, need)
    if a.shift < 0:
        raise PreconditionError("Dirac points on Z_p must be integral")
    if a.abs_bound < need:
        raise PrecisionExhausted(
            f"need a mod p^{need} for degree {degree} at precision {prec}"
        )
    cs = binomial_row_tracked(p, a.integer_rep(), a.abs_bound, degree - 1, prec)
    return IwasawaElt(p, prec, degree, cs, exact_tail=exact)


class BivariateSeries(Immutable):
    """Minimal truncated series in T1, T2 over Z/p^N, total degree < d.

    Products and equality go through the one-variable kernel on the key
    (i+j)·d + i: keys add without carry inside the box, and the box
    i + j < d becomes the key bound d².
    """

    __slots__ = ("p", "prec", "degree", "coeffs")

    def __init__(self, p, prec, degree, coeffs):
        mod = _box(p, prec, degree)
        cs = {}
        for (i, j), c in coeffs.items():
            if i < 0 or j < 0:
                raise PreconditionError(f"T1^{i}·T2^{j}: exponents are >= 0")
            if i + j < degree:
                c %= mod
                if c:
                    cs[(i, j)] = c
        self._set(p=p, prec=prec, degree=degree, coeffs=cs)

    def _keyed(self, d):
        return {(i + j) * d + i: c for (i, j), c in self.coeffs.items() if i + j < d}

    @classmethod
    def _unkeyed(cls, p, prec, d, keyed):
        """The series of a coefficient map on the keys (i+j)·d + i."""
        return cls(p, prec, d, {(k % d, k // d - k % d): c for k, c in keyed.items()})

    @classmethod
    def tensor(cls, mu, nu):
        """The product measure mu ⊗ nu on Z_p x Z_p."""
        prec, degree = _common_box(_same(None, mu, IwasawaElt), nu)
        left = cls(mu.p, prec, degree, {(i, 0): c for i, c in enumerate(mu.coeffs)})
        right = cls(mu.p, prec, degree, {(0, j): c for j, c in enumerate(nu.coeffs)})
        return left * right

    def __mul__(self, other):
        prec, d = _common_box(self, other)
        cs = _series.mul(self._keyed(d), other._keyed(d), d * d)
        return self._unkeyed(self.p, prec, d, cs)

    def _equal(self, other):
        d = min(self.degree, other.degree)
        return _series.equal(
            self._keyed(d), other._keyed(d), None, self.p ** min(self.prec, other.prec)
        )

    def __repr__(self):
        return f"BivariateSeries(p={self.p}, prec={self.prec}, degree={self.degree})"


# ---------------------------------------------------------------------------
# Continuous functions via Mahler coefficients
# ---------------------------------------------------------------------------


class MahlerFn(Immutable):
    """A continuous function Z_p -> Z_p mod p^N via its Mahler coefficients.

    coeffs maps n to the residue of the n-th coefficient; indices below
    tail_cert that are absent are exactly zero.  ``exact_tail=True``
    states that every coefficient from tail_cert on vanishes (finite
    Mahler support, e.g. binomial basis functions); otherwise a function
    built from samples of a locally constant input carries its period,
    and the omitted true coefficients at index >= period * p^l are only
    certified to valuation >= l+1.
    """

    __slots__ = ("p", "prec", "coeffs", "tail_cert", "exact_tail", "period")

    def __init__(self, p, prec, coeffs, tail_cert, exact_tail=False, period=None):
        mod, tail_cert = _modulus(p, prec), _count(tail_cert, "tail_cert")
        if period is not None and p ** log_floor(_count(period, "period", 1), p) != period:
            raise PreconditionError(f"period {period} is not a power of {p}")
        cs = {}
        for n, c in coeffs.items():
            c %= mod
            if c:
                if n >= tail_cert:
                    raise PreconditionError("stored coefficient beyond the tail certificate")
                cs[n] = c
        self._set(p=p, prec=prec, coeffs=cs, tail_cert=tail_cert,
                  exact_tail=bool(exact_tail), period=period)

    @classmethod
    def basis(cls, p, n, prec):
        """The binomial function x -> (x choose n)."""
        return cls(p, prec, {_count(n, "n", 0): 1}, n + 1, exact_tail=True)

    @classmethod
    def from_coeffs(cls, p, coeffs, prec, exact_tail=True, tail_cert=None):
        cs = dict(enumerate(coeffs)) if isinstance(coeffs, (list, tuple)) else dict(coeffs)
        d = tail_cert if tail_cert is not None else (max(cs, default=-1) + 1)
        return cls(p, prec, cs, max(d, 1), exact_tail=exact_tail)

    def tail_floor_at(self, n0):
        """Certified valuation floor of all true coefficients at index >= n0."""
        if self.exact_tail:
            return _INF if n0 >= self.tail_cert else 0
        if self.period is not None:
            return min(_tail_floor(n0, self.period, self.p), self.prec)
        # plain scalar certificate
        return self.prec if n0 >= self.tail_cert else 0

    def finite_difference(self, k):
        """The k-th iterated difference f(x+1) - f(x); shifts coefficients."""
        if _count(k, "k", 0) == 0:
            return self
        if self.period is not None:
            # each pass is reduced mod p^N: the Mahler solve reduces mod p^N
            # or a lower power anyway, and unreduced passes grow with k
            vals, mod = self.values_on_period(), self.p**self.prec
            for _ in range(k):
                vals = [(x - y) % mod for x, y in zip(vals[1:] + vals[:1], vals)]
            return mahler_coeffs_from_samples(self.p, vals, prec=self.prec)
        cs = {n - k: c for n, c in self.coeffs.items() if n >= k}
        return MahlerFn(
            self.p, self.prec, cs, max(self.tail_cert - k, 1),
            exact_tail=self.exact_tail,
        )

    def values_on_period(self):
        """Exact residues f(0..period-1) mod p^N: the Mahler solve undone."""
        if self.period is None:
            raise PreconditionError("function carries no period certificate")
        cs = [self.coeffs.get(n, 0) for n in range(self.period)]
        return _series.differences_at_zero(cs, self.p**self.prec, sign=1)

    def eval(self, x):
        """f(x) = ∫ f dδ_x at an integral point: the pairing with ``dirac``.

        A function with a period is locally constant, so the mass sits at
        the exact integer x mod the period, below degree = period.  A finite
        sum needs δ_x below its top index + 1; each C(x, n) costs v_p(n!)
        digits of x's precision.  The empty function is 0 wherever x has a
        digit.
        """
        p = self.p
        x = _point(p, x, self.prec + vp_factorial(self.tail_cert, p) + 1)
        if x.shift < 0:
            raise PreconditionError("Mahler evaluation needs an integral point")
        if self.period is not None:
            vper = vp_int(self.period, p)
            if x.abs_bound < vper:
                raise PrecisionExhausted(
                    f"argument known mod p^{x.abs_bound} < period p^{vper}"
                )
            return integrate(self, dirac(x.integer_rep() % self.period, self.period, self.prec, p=p))
        if not self.coeffs:
            if x.abs_bound < 1:
                raise PrecisionExhausted("argument has no known digits")
            return PadicScalar.zero(p, self.prec)
        top = max(self.coeffs)
        prec = min(self.prec, x.abs_bound - vp_factorial(top, p))
        if prec < 1:
            raise PrecisionExhausted("argument precision exhausted by binomials")
        return integrate(self, dirac(x, top + 1, prec, p=p))

    def _equal(self, other):
        return _series.equal(
            self.coeffs, other.coeffs, None, self.p ** min(self.prec, other.prec)
        )

    def __repr__(self):
        return (
            f"MahlerFn(p={self.p}, prec={self.prec}, terms={len(self.coeffs)}, "
            f"tail_cert={self.tail_cert}, period={self.period})"
        )

    def to_json(self):
        doc = {
            "p": self.p,
            "prec": self.prec,
            "coeffs": {str(n): c for n, c in sorted(self.coeffs.items())},
            "tail_cert": self.tail_cert,
        }
        if self.exact_tail:
            doc["exact_tail"] = True
        if self.period is not None:
            doc["period"] = self.period
        return doc


def mahler_coeffs_from_samples(p, values, prec=None):
    """Mahler coefficients of a locally constant function from its samples.

    ``values`` must list f(0), ..., f(p^M - 1) for some M; the function is
    promised constant on residue classes mod p^M.  The coefficients are
    the iterated differences c_n = (Δ^n f)(0), exact mod p^(M+1) (or the
    samples' precision if lower).  Coefficients beyond index p^M - 1 are
    not extrapolated.  Each sample is an int or a PadicScalar at p.  The
    differences run on one packed integer (``_series.differences_at_zero``),
    as the ball fold does.
    """
    m = len(values)
    M = log_floor(m, p)
    if p**M != m:
        raise PreconditionError(f"sample count {m} is not a power of {p}")
    scalars = [_same(p, v, PadicScalar) for v in values if not isinstance(v, int)]
    native = min([M + 1] + [v.abs_bound for v in scalars])
    out_prec = native if prec is None else min(_count(prec, "prec"), native)
    if out_prec < 1:
        raise PrecisionExhausted("samples carry no digits")
    mod = p**out_prec
    vals = [v % mod if isinstance(v, int) else v.residue(out_prec) for v in values]
    coeffs = dict(enumerate(_series.differences_at_zero(vals, mod)))
    return MahlerFn(p, out_prec, coeffs, m, exact_tail=False, period=m)


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


def integrate_matrix(fns, mus):
    """The pairing Σ c_n a_n of every function with every measure, as rows
    of (0, residue, bound), the value mod p^bound.  Crossing terms (a term
    unknown on one side, possibly nonzero on the other) cost digits, and a
    pair with none certified is flagged, never silently truncated.  Indices
    a function omits below its period or tail certificate are zero."""

    def fview(f):
        start = f.tail_cert if f.period is None else f.period
        at = lambda n: f.tail_floor_at(n) if n >= start else _INF
        return f.coeffs, f.prec, None if f.exact_tail else (at, lambda n: at(max(n, start)))

    def mview(mu):
        tail = None if mu.exact_tail else mu.degree
        return _series.sparse(mu.coeffs), mu.prec, 0, tail, tail

    p = _series.operand_prime(fns, MahlerFn, mus, IwasawaElt)
    return _series.pairings(p, fns, mus, fview, mview)


def integrate(f, mu):
    """The pairing of a function with a measure: ``integrate_matrix`` 1×1."""
    [[(_, total, bound)]] = integrate_matrix([f], [mu])
    return PadicScalar(f.p, 0, total, bound)


# ---------------------------------------------------------------------------
# The natural topology: explicit ideals and the index argument
# ---------------------------------------------------------------------------


def ptadic_power_generators(p, N):
    """Generators p^i T^(p^N - i), 0 <= i <= p^N, of (p, T)^(p^N)."""
    out = []
    q = p**N
    for i in range(q + 1):
        out.append((i, q - i))
    return out


def ball_ideal_equal_generators(p, N):
    """Generators of the intersection of the ball ideals with h + l = N + 1.

    The list is (p^(N+1)) together with p^(N-j) T^i for p^j <= i < p^(j+1),
    j = 0..N-1, and T^(p^N); given as (power of p, power of T) pairs with
    (N+1, 0) meaning the constant p^(N+1).
    """
    gens = [(N + 1, 0)]
    for j in range(N):
        for i in range(p**j, p ** (j + 1)):
            gens.append((N - j, i))
    gens.append((0, p**N))
    return gens


def ball_ideal_middle_generators(p, N):
    """Generators p^N (p, T, T^p / p, ..., T^(p^N) / p^N) of the deepened
    intersection of the ball ideals U_(h, l+1) over h + l = N."""
    gens = [(N + 1, 0)]
    for j in range(N + 1):
        gens.append((N - j, p**j))
    return gens


def middle_ideal_valuation(p, N, m):
    """Valuation the deepened middle ideal asks of the coefficient of T^m.

    The ideal is spanned, degree by degree, by p^(N+1) in degree 0 and by
    p^(max(0, N - floor(log_p m))) in degree m >= 1.
    """
    return N + 1 if m == 0 else max(0, N - log_floor(m, p))


def middle_ideal_contains(p, N, coeffs):
    """Per-coefficient membership test for the deepened middle ideal."""
    return all(c % p ** middle_ideal_valuation(p, N, m) == 0 for m, c in enumerate(coeffs))


def _radius_pass(p, h, mod):
    """The values of T^m on the balls of radius p^-h mod ``mod`` = p^k, for
    m = 0, 1, ... as lists of p^h residues, until they vanish (m = k·p^h at
    the latest): the values of T^(m+1) are one cyclic difference pass."""
    values = [1] + [0] * (p**h - 1)
    while any(values):
        yield values
        values = [(x - y) % mod for x, y in zip(values[-1:] + values[:-1], values)]


def _ball_rows(p, N, top):
    """The ball-value rows of T^m, m = 0..top, over Z/p^(N+2).

    Row m lists T^m on the balls of radius p^-h, h = 0..N, taken mod
    p^(N+1-h) and multiplied by p^(h+1), so that vanishing mod p^(N+1-h)
    is vanishing mod p^(N+2); a radius whose pass has stopped adds zeros.
    """
    rows = [[] for _ in range(top + 1)]
    for h in range(N + 1):
        scale, zeros = p ** (h + 1), [0] * p**h
        values = _radius_pass(p, h, p ** (N + 1 - h))
        for row in rows:
            row += [x * scale for x in next(values, zeros)]
    return rows


def ball_ideal_failures(p, N, gens):
    """The generators p^i T^m, given as pairs (i, m), that leave some ball
    ideal U_(h, N+1-h), h = 0..N, in the order of ``gens``.

    p^i T^m lies in every one of them exactly when p^i·gcd(p^(N+2), row m)
    vanishes mod p^(N+2), row m of ``_ball_rows``: the radius h part of
    the row then has valuation at least N + 2 - i, that is, T^m takes
    values in p^(N+1-h-i) Z_p on every ball of radius p^-h.  That gcd is
    the least over h of p^(h+1)·gcd(p^(N+1-h), values), taken unstacked.
    """
    if any(m < 0 for _, m in gens):
        raise PreconditionError("exponents on Z_p are >= 0")
    top = max((m for _, m in gens), default=0)
    least = [p ** (N + 2)] * (top + 1)  # a vanished row has gcd p^(N+2)
    for h in range(N + 1):
        scale, mod = p ** (h + 1), p ** (N + 1 - h)
        for m, values in zip(range(top + 1), _radius_pass(p, h, mod)):
            least[m] = min(least[m], scale * math.gcd(mod, *values))
    return [(i, m) for i, m in gens if p**i * least[m] % p ** (N + 2)]


def _elementary_divisor_valuations(rows, p, K):
    """Valuations of the elementary divisors of an integer matrix over
    Z/p^K, one per row; a row beyond the rank counts K, so the sum is
    log_p of the order of the kernel of c -> c·A in (Z/p^K)^rows.

    Smith form over a local ring: an entry of least valuation divides
    every other entry, so clearing its column by row operations and then
    dropping its row and column leaves the other divisors unchanged.
    Each row keeps p^(its least valuation), renewed when elimination
    rewrites the row, so a pivot search reads one number per row.
    """
    mod = p**K
    rows = [[x % mod for x in r] for r in rows]
    least = [math.gcd(mod, *r) for r in rows]  # p^K for a zero row
    out = []
    while rows:
        best = min(least)
        if best == mod:
            break
        bi = least.index(best)
        piv = rows.pop(bi)
        del least[bi]
        bj = next(j for j, x in enumerate(piv) if x % (best * p))
        inv = pow(piv[bj] // best, -1, mod)
        support = [(j, y) for j, y in enumerate(piv) if y]  # ball rows are sparse
        for k, r in enumerate(rows):
            if r[bj]:
                f = r[bj] // best * inv % mod
                for j, y in support:
                    r[j] = (r[j] - f * y) % mod
                least[k] = math.gcd(mod, *r)
        out.append(vp_int(best, p))
    return out + [K] * len(rows)


def intersection_vs_middle_scan(p, N, coefficient_sets=None):
    """Decide, for truncated polynomials mod (p^(N+2), T^(p^N + 1)), that the
    deepened ball-ideal intersection equals the middle ideal, and count the
    candidates it covers.

    The intersection I runs over the ball ideals U_(h, l+1) with h + l = N;
    the middle ideal M is p^N (p, T, T^p/p, ..., T^(p^N)/p^N), that is
    p^v(m) in each degree m with v = middle_ideal_valuation.  Over
    Z/p^K, K = N + 2, I is the kernel of c -> c·W mod p^K, W the rows of
    ``_ball_rows`` for m = 0..p^N.  I = M when every
    generator p^v(m) T^m lies in I and log_p|I|, the sum of the elementary
    divisor valuations of the stacked map, equals log_p|M| = Σ (K - v(m)).
    Both memberships depend on a candidate only mod p^K, so no candidate
    can then be an escapee (in I, not in M) or a miss (in M, not in I).

    With coefficient_sets=None every coefficient ranges over the full
    Z/p^(N+2); otherwise each degree uses the given candidate list.
    Returns (checked, escapees, missed) = (number of candidates, 0, 0);
    a generator outside I or an index gap raises InternalConsistencyError.
    """
    deg = p**N + 1
    K = N + 2
    mod = p**K
    if coefficient_sets is None:
        sizes = [mod] * deg
    else:
        sizes = [len(list(s)) for s in coefficient_sets]
        if len(sizes) != deg:
            raise PreconditionError(f"need {deg} coefficient sets")

    rows = _ball_rows(p, N, deg - 1)
    need = [middle_ideal_valuation(p, N, m) for m in range(deg)]
    for m, (v, row) in enumerate(zip(need, rows)):
        if p**v * math.gcd(mod, *row) % mod:
            raise InternalConsistencyError(
                f"middle-ideal generator p^{v} T^{m} is outside the ball-ideal intersection"
            )
    log_i = sum(_elementary_divisor_valuations(rows, p, K))
    log_m = sum(K - v for v in need)
    if log_i != log_m:
        raise InternalConsistencyError(
            f"index gap: log_p|intersection| = {log_i}, log_p|middle ideal| = {log_m}"
        )
    return math.prod(sizes), 0, 0
