"""Truncated-series arithmetic shared by every series type of the library.

A series is a dict of nonzero coefficients on an integer exponent grid,
key k standing for the exponent k / p^depth.  It is known modulo a box:
coefficients modulo p^N and keys below an exclusive key bound, where a
bound of None means exact finite support.  Terms outside the box are
forgotten, never an error.  Products leave sums unreduced: reduction is
the job of each series type's constructor.  Dense products are one bigint
multiply (Kronecker substitution), sparse ones a pair loop: see ``mul``;
``mul_mod`` and ``compose_mod`` work on dense lists of residues mod m.
Packed slots of up to 8 bytes are moved as machine words (``_pack``,
``_unpack``), wider ones slot by slot.
"""

from __future__ import annotations

import math
import operator
from array import array
from fractions import Fraction

from .errors import ParseError, PreconditionError
from .padic import SExponent, json_field, json_int, vp_int


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
    if depth:
        g = math.gcd(*out)  # 0 when no key, or key 0 alone, is left
        shift = min(vp_int(g, p), depth) if g else depth
        if shift:
            step = p**shift
            out = {k // step: c for k, c in out.items()}
            depth -= shift
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
    shifted to start at key 0.  Density rule: if len(a) · len(b) <= 4 ·
    (span_a + span_b), loop over term pairs (timed, the pair loop wins up to
    that factor and packing from about 6); else use Kronecker substitution:
    pack each operand into one int, a w-byte slot per key (room for any
    coefficient of the product and a sign bit), take one Karatsuba bigint
    product and unpack the slots below the bound (``_pack``, ``_unpack``,
    shared with the packed passes of ``iwasawa``).  The low slots are cut
    off by a mask, & (2^(8wn) - 1), equal to % 2^(8wn) for every integer:
    CPython masks in linear time but takes % as a long division, quadratic
    in the size.  Cost: about min(pairs, Karatsuba on (span_a + span_b) · w
    bytes).  ``Fraction``s are scaled by a common denominator.
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
    if len(a) * len(b) <= 4 * (span_a + span_b):
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
    x = _pack(dense(a, span_a), w, half)
    prod = x * x if same else x * _pack(dense(b, span_b), w, half)
    cs = _unpack(prod, n, w, half)
    if den_a is None and den_b is None:
        return {offset + i: c for i, c in enumerate(cs) if c}
    den = (den_a or 1) * (den_b or 1)
    return {offset + i: Fraction(c, den) for i, c in enumerate(cs) if c}


def mul_mod(a, b, n, m):
    """The low n slots, mod m, of the product of dense lists of nonnegative
    ints, a list of length n: ``mul`` past each operand's leading zeros,
    packed with no bias (half = 0), a square once.  Slots are sized from
    max(a)·max(b)·min(len), not m: operands may exceed m."""
    lo_a = next((k for k, c in enumerate(a) if c), n)
    lo_b = lo_a if a is b else next((k for k, c in enumerate(b) if c), n)
    offset = lo_a + lo_b
    if offset >= n:
        return [0] * n
    same, a = a is b, a[lo_a:n - lo_b]
    b = a if same else b[lo_b:n - lo_a]
    w = (max(a) * max(b) * min(len(a), len(b))).bit_length() + 7 >> 3
    x = _pack(a, w, 0)
    k = min(n - offset, len(a) + len(b) - 1)
    cs = _unpack(x * x if same else x * _pack(b, w, 0), k, w, 0)
    return [0] * offset + [c % m for c in cs] + [0] * (n - offset - k)


def compose_mod(coeffs, x, n, m):
    """Σ coeffs[k] · x^k mod (m, T^n) as a dense list of n residues, x a
    coefficient map of ints (keys >= n are dropped).

    Ascending powers of x on one packed int, w-byte slots with no bias: a
    step is one bigint product by the packed x, a mask to the slots left,
    and c_k times the power added to the running sum.  The power keeps its
    low zero slots off (x^k starts at k·min(x)), and the loop stops at the
    first power that is empty mod m: every later one is empty too.  From
    residues below 2^b, a step multiplies a slot bound by at most A = Σ x
    < 2^a, so ``period`` steps keep the sum below 2^(2b + a·period + 2) <=
    2^(8w); the power and the sum are brought back to residues at every
    period boundary.  w is one machine word when that leaves period >= 1,
    else the least width with period = 1.
    """
    x = {k: r for k, c in x.items() if k < n and (r := c % m)}
    if not coeffs:
        return [0] * n
    lo = min(x, default=n)
    b, a = (m - 1).bit_length(), max(sum(x.values()).bit_length(), 1)
    w = max(8, (2 * b + a + 9) // 8)
    W = 8 * w
    period = (W - 2 * b - 2) // a
    X = _pack(dense({k - lo: c for k, c in x.items()}, max(x, default=lo) - lo + 1), w, 0)
    total, power, off, left = coeffs[0] % m, 1, 0, period
    for c in coeffs[1:]:
        off += lo
        if off >= n:
            break
        power = (power * X) & ((1 << W * (n - off)) - 1)
        if not power:
            break
        if c % m:
            total += (c % m * power) << W * off
        left -= 1
        if not left:
            power, left = _reduce(power, n - off, w, 0, m), period
            total = _reduce(total, n, w, 0, m)
            if not power:
                break
    return [c % m for c in _unpack(total, n, w, 0)]


def _integral(cs):
    """(None, cs) for int coefficients, else (their lcm den, cs · den)."""
    if all(type(c) is int for c in cs.values()):
        return None, cs
    den = math.lcm(*(c.denominator for c in cs.values()))
    return den, {k: int(c * den) for k, c in cs.items()}


def _biases(span, w, half):
    """Σ half · 2^(8 w k) over 0 <= k < span."""
    return int.from_bytes(half.to_bytes(w, "little") * span, "little")


# Byte j of a slot sits at offset _AT[j] of a native 8-byte word; on a
# little-endian host an 8-byte slot is a word as it stands (_NATIVE).
_WORD = array("Q", [int.from_bytes(bytes(range(8)), "little")]).tobytes()
_AT = [_WORD.index(j) for j in range(8)]
_NATIVE = _WORD == bytes(range(8))
_SIGN_FILL = bytes(128) + b"\xff" * 128  # top byte of a slot -> its sign byte


def _pack(values, w, half):
    """Σ values[k] · 2^(8 w k) for w-byte slots, half = 2^(8w-1) for values
    in [-half, half) or 0 for values in [0, 2^(8w)).  For w <= 8 the values
    become machine words, whose low w byte planes are gathered into the
    slots; a signed slot reads c + 2^(8w) for c < 0, so each slot with its
    top bit set gives back 2^(8w) at the next slot: x - 2·(x & biases).
    Wider slots are packed one by one as the bytes of values[k] + half."""
    n = len(values)
    if w > 8:
        raw = b"".join([(c + half).to_bytes(w, "little") for c in values])
        return int.from_bytes(raw, "little") - _biases(n, w, half)
    words = array("q" if half else "Q", values).tobytes()
    if w < 8 or not _NATIVE:
        raw = bytearray(w * n)
        for j in range(w):
            raw[j::w] = words[_AT[j]::8]
        words = raw
    x = int.from_bytes(words, "little")
    return x - ((x & _biases(n, w, half)) << 1) if half else x


def _unpack(x, n, w, half):
    """The low n slots of x as balanced digits, each in [-half, half): with
    the biases added, slot k holds its digit + half and nothing borrows,
    and flipping the top bit leaves the digit in w-byte two's complement.
    For w <= 8 the w byte planes are scattered into machine words (the
    sign byte repeated above a signed slot) and read at C speed."""
    mask = (1 << 8 * w * n) - 1
    if w > 8:
        raw = ((x + _biases(n, w, half)) & mask).to_bytes(w * n, "little")
        return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * n, w)]
    if half:
        biases = _biases(n, w, half)
        x = ((x + biases) & mask) ^ biases
    else:
        x &= mask
    raw = x.to_bytes(w * n, "little")
    if w < 8 or not _NATIVE:
        buf = bytearray(8 * n)
        for j in range(w):
            buf[_AT[j]::8] = raw[j::w]
        if half and w < 8:
            sign = raw[w - 1::w].translate(_SIGN_FILL)
            for j in range(w, 8):
                buf[_AT[j]::8] = sign
        raw = buf
    return memoryview(raw).cast("q" if half else "Q").tolist()


def _reduce(x, n, w, half, mod):
    """The low n slots of x, balanced digits, brought to residues mod
    ``mod`` and packed again; the slots above them are cut off."""
    return _pack([c % mod for c in _unpack(x, n, w, half)], w, half)


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


def exponents(p, depth, coeffs):
    """(num, logden, coeff) of each term in ascending key order, where key k
    on the 1/p^depth grid is the exponent num/p^logden in lowest terms."""
    pows = [p**v for v in range(depth + 1)]
    for k in sorted(coeffs):
        v = 0 if k % p else min(vp_int(k, p), depth) if k else depth
        yield k // pows[v], depth - v, coeffs[k]


def encode_terms(p, depth, coeffs):
    """JSON terms ``[{"q", "coeff"}, ...]`` in ascending exponent order."""
    return [{"q": {"num": n, "logden": e}, "coeff": c} for n, e, c in exponents(p, depth, coeffs)]


def decode_terms(p, depth, terms):
    """Coefficient map on the 1/p^depth grid from JSON terms; a term that is
    not ``{"q": {"num", "logden"}, "coeff"}`` with integer entries, or an
    exponent off that grid (``logden > depth`` in lowest terms), is a
    ParseError."""
    if not isinstance(terms, list):
        raise ParseError(f"terms must be a list, not {type(terms).__name__}")
    cs = {}
    for term in terms:
        q = SExponent.from_json(p, json_field(term, "q"))
        if q.logden > depth:
            raise ParseError(f"exponent {q} is off the 1/{p}^{depth} grid")
        cs[q.num * p ** (depth - q.logden)] = json_int(term, "coeff")
    return cs

