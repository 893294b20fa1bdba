"""Truncated-series arithmetic shared by every series type of the library.

A series is a dict of nonzero coefficients on an integer exponent grid,
key k standing for the exponent k / p^depth.  It is known modulo a box:
coefficients modulo p^N and keys below an exclusive key bound, where a
bound of None means exact finite support.  Terms outside the box are
forgotten, never an error.  Products leave sums unreduced: reduction is
the job of each series type's constructor.  Dense products are one bigint
multiply (Kronecker substitution), sparse ones a pair loop: see ``mul``.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .padic import SExponent


def degree_min(a, b):
    """The smaller of two degree bounds, where None is no bound."""
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def key_bound(p, depth, degree):
    """Exclusive integer key bound of ``degree`` on the 1/p^depth grid."""
    return None if degree is None else math.ceil(degree * p**depth)


def truncate(p, depth, degree, coeffs, mod):
    """The box rule, as (depth, coeffs): the nonzero residues mod ``mod`` of
    the terms below ``degree``, on the coarsest grid that holds every key."""
    bound = key_bound(p, depth, degree)
    out = {}
    for k, c in coeffs.items():
        if k < 0:
            raise PreconditionError("series exponents are nonnegative")
        if bound is not None and k >= bound:
            continue
        c %= mod
        if c:
            out[k] = c
    while depth > 0 and all(k % p == 0 for k in out):
        out = {k // p: c for k, c in out.items()}
        depth -= 1
    return depth, out


def regrid(coeffs, factor):
    """The same series on a grid ``factor`` times finer."""
    return {k * factor: c for k, c in coeffs.items()}


def scale(p, depth, degree, coeffs, k):
    """(depth, degree, coeffs) after q -> p^k q, k in Z: spends grid depth
    before it multiplies keys; a negative k only deepens the grid."""
    if degree is not None:
        degree = degree * Fraction(p) ** k
    if k <= depth:
        return depth - k, degree, coeffs
    return 0, degree, regrid(coeffs, p ** (k - depth))


def sparse(seq):
    """Dense coefficient sequence (index = key) to a coefficient map."""
    return {k: c for k, c in enumerate(seq) if c}


def dense(coeffs, n):
    """Coefficient map with keys below n to a list of length n."""
    out = [0] * n
    for k, c in coeffs.items():
        out[k] = c
    return out


def mul(a, b, bound):
    """Truncated product of two coefficient maps: keys below ``bound`` only.

    Sums are exact and unreduced; a key whose sum is zero may be left out.
    Keys that cannot reach below the bound are dropped, and each operand is
    shifted to start at key 0.  Density rule: if len(a) · len(b) <= span_a +
    span_b, loop over term pairs; else use Kronecker substitution: pack each
    operand into one int, a w-byte slot per key (room for any coefficient of
    the product and a sign bit), take one Karatsuba bigint product and unpack
    the slots below the bound.  Cost: about min(pairs, Karatsuba on (span_a +
    span_b) · w bytes).  ``Fraction``s are scaled by a common denominator.
    """
    if not a or not b:
        return {}
    same, lo_a, lo_b = a is b, min(a), min(b)
    offset = lo_a + lo_b
    if bound is None:
        bound = max(a) + max(b) + 1
    if bound <= offset:
        return {}
    a = {k - lo_a: c for k, c in a.items() if k + lo_b < bound}
    b = a if same else {k - lo_b: c for k, c in b.items() if k + lo_a < bound}
    span_a, span_b = max(a) + 1, max(b) + 1
    n = min(bound - offset, span_a + span_b - 1)  # result slots
    if len(a) * len(b) <= span_a + span_b:
        bs = sorted(b.items())
        out = {}
        for k1, c1 in a.items():
            for k2, c2 in bs:
                if k1 + k2 >= n:
                    break
                k = offset + k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
        return out
    den_a, a = _integral(a)
    den_b, b = (den_a, a) if same else _integral(b)
    top = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    if not top:
        return {}
    w = (top.bit_length() + 8) // 8  # slot bytes, with a sign bit
    half = 1 << (8 * w - 1)
    x = _pack(a, span_a, w, half)
    prod = x * x if same else x * _pack(b, span_b, w, half)
    # balanced digits: with half added, slot i holds c_i + half, no borrows
    low = (prod + _biases(n, w, half)) % (1 << 8 * w * n)
    raw = low.to_bytes(w * n, "little")
    cs = [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * n, w)]
    if den_a is None and den_b is None:
        return {offset + i: c for i, c in enumerate(cs) if c}
    den = (den_a or 1) * (den_b or 1)
    return {offset + i: Fraction(c, den) for i, c in enumerate(cs) if c}


def _integral(cs):
    """(None, cs) for int coefficients, else (their lcm den, cs · den)."""
    if all(type(c) is int for c in cs.values()):
        return None, cs
    den = math.lcm(*(c.denominator for c in cs.values()))
    return den, {k: int(c * den) for k, c in cs.items()}


def _biases(span, w, half):
    """Σ half · 2^(8 w k) over 0 <= k < span."""
    return int.from_bytes(half.to_bytes(w, "little") * span, "little")


def _pack(cs, span, w, half):
    """Σ cs[k] · 2^(8 w k) over 0 <= k < span, |cs[k]| < half: each slot is
    packed as the bytes of cs[k] + half, and the biases are taken off once."""
    mid = half.to_bytes(w, "little")
    raw = b"".join([
        mid if (c := cs.get(k)) is None else (c + half).to_bytes(w, "little")
        for k in range(span)
    ])
    return int.from_bytes(raw, "little") - _biases(span, w, half)


def power(x, k, one, mul=operator.mul):
    """x^k by square-and-multiply, every product taken by ``mul``."""
    if k < 0:
        raise PreconditionError("negative powers not supported")
    out = one
    while k:
        if k & 1:
            out = mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return out


def equal(a, b, bound, mod):
    """Box-relative equality: every key below ``bound`` agrees mod ``mod``."""
    return all(
        (a.get(k, 0) - b.get(k, 0)) % mod == 0
        for k in a.keys() | b.keys()
        if bound is None or k < bound
    )


def substitute(coeffs, x, zero, one):
    """Σ coeffs[k] · x^k over ascending powers of x, in x's own arithmetic;
    stops at the first empty power, since every later one is empty too."""
    out, xk = zero, one
    for k, c in enumerate(coeffs):
        if k > 0:
            xk = xk * x
            if not xk.coeffs:
                break
        if c:
            out = out + xk * c
    return out


def encode_degree(p, degree):
    """JSON form of a degree bound: an S-exponent, or None for no bound."""
    return None if degree is None else SExponent.from_fraction(p, degree).to_json()


def decode_degree(p, doc):
    """Degree bound from JSON: an S-exponent, an integer, or None for no bound;
    any other value is a ParseError."""
    if doc is None or (isinstance(doc, int) and not isinstance(doc, bool)):
        return None if doc is None else Fraction(doc)
    try:
        return Fraction(doc["num"], p ** doc["logden"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        raise ParseError(f"bad degree {doc!r}: need an S-exponent, an integer or null")


def encode_terms(p, depth, coeffs):
    """JSON terms ``[{"q", "coeff"}, ...]`` in ascending exponent order."""
    return [
        {"q": SExponent(p, k, depth).to_json(), "coeff": c}
        for k, c in sorted(coeffs.items())
    ]


def decode_terms(p, depth, terms):
    """Coefficient map on the 1/p^depth grid from JSON terms; an exponent
    off that grid (``logden > depth`` in lowest terms) is a ParseError."""
    cs = {}
    for term in terms:
        q = SExponent.from_json(p, term["q"])
        if q.logden > depth:
            raise ParseError(f"exponent {q} is off the 1/{p}^{depth} grid")
        cs[q.num * p ** (depth - q.logden)] = term["coeff"]
    return cs
