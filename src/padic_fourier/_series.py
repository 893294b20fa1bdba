"""Truncated-series arithmetic shared by every series type of the library.

A series is a dict of nonzero coefficients on an integer exponent grid,
key k standing for the exponent k / p^depth.  It is known modulo a box:
coefficients modulo p^N and keys below an exclusive key bound, where a
bound of None means exact finite support.  Terms outside the box are
forgotten, never an error.  Products leave sums unreduced: reduction is
the job of each series type's constructor.  Dense products are one bigint
multiply (Kronecker substitution), sparse ones a pair loop: see ``mul``;
``mul_mod`` and ``compose_mod`` work on dense lists of residues mod m, and
``ball_residues`` and ``differences_at_zero`` run the ball fold and Mahler
differences of ``iwasawa``.  Only this module knows the packed layout: a
slot of any width moves as machine-word byte planes (``_pack``, ``_unpack``).
"""

from __future__ import annotations

import functools
import math
import operator
from array import array
from fractions import Fraction

from .errors import ParseError, PreconditionError, UncertifiedTailError
from .padic import LowerBound, SExponent, _count, _same, json_field, json_int, vp_int


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


def truncate(p, depth, degree, coeffs, mod, zeros=False):
    """The box rule, as (depth, coeffs): the residues mod ``mod`` of the terms
    below ``degree``, nonzero unless ``zeros`` keeps each key given as known,
    on the coarsest grid that holds every key."""
    bound = key_bound(p, depth, degree)
    out = {}
    for k, c in coeffs.items():
        if k < 0:
            raise PreconditionError("series exponents are nonnegative")
        if bound is not None and k >= bound:
            continue
        c %= mod
        if c or zeros:
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
    k = _count(k, "k")
    degree = None if degree is None else degree * Fraction(p) ** k
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
    product and unpack the slots below the bound (``_pack``, ``_unpack``),
    cut off by a mask, & (2^(8wn) - 1): equal to % 2^(8wn) for every int,
    but linear, where CPython takes % as a long division.  Cost: about
    min(pairs, Karatsuba on (span_a + span_b) · w bytes).  Coefficients
    are ints.
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
    top = max(map(abs, a.values())) * max(map(abs, b.values())) * min(len(a), len(b))
    if not top:
        return {}
    w = (top.bit_length() + 8) // 8  # slot bytes, with a sign bit
    half = 1 << (8 * w - 1)
    x = _pack(dense(a, span_a), w, half)
    prod = x * x if same else x * _pack(dense(b, span_b), w, half)
    cs = _unpack(prod, n, w, half)
    return {offset + i: c for i, c in enumerate(cs) if c}


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


def _slots(mod):
    """(w, half, period) of a pass on residues mod ``mod``, packed into W = 8w
    bit slots: W = 64 when the residues fit in 40 bits, else W >= bits + 64.
    From residues, a slot that at most doubles and gains a residue per step
    stays below half = 2^(W-1) for period = W - bits - 2 >= 22 steps."""
    bits = (mod - 1).bit_length()
    w = 8 if bits <= 40 else (bits + 71) // 8
    return w, 1 << (8 * w - 1), 8 * w - bits - 2


def ball_residues(coeffs, r, mod):
    """Σ_m c_m (S-1)^m in (Z/mod)[S]/(S^n - 1), n = min(r, len(coeffs)).

    Packed like ``mul``: slot a of W bits holds the coefficient of S^a, and
    with S = 2^W, S^k = 1 holds mod 2^(Wk) - 1, so multiplying by S - 1 is
    x·2^W - x and folding the high slots onto the low ones.  For r = p^h
    entry a is the value on a + p^h Z_p (and 0 for a >= n, as no power of S
    reaches it).  With d = 1 + the top nonzero index, at most k = min(n, d)
    slots are nonzero.  One Horner loop runs on a ring of ``size`` slots: a
    step at most doubles each slot and adds a residue, so the slots are
    brought back to residues (``_reduce``) every ``period`` steps.  Two
    layouts share it:

    - one block: the d coefficients from the top down on size = k slots; as
      the degree stays below d, a ring of k slots wraps only when n < d.
      Cost: d steps on k slots of w bytes.
    - halves (a Taylor shift by halves, von zur Gathen & Gerhard 1997):
      blocks of B coefficients side by side on size = D slots, B the
      largest power of two <= W - bits - 3, so B steps need no reduction.
      Column j of every block is (C >> W·j) & mask, C the packed list, and
      block i ends holding P_i = Σ_(j<B) c_(iB+j) (S-1)^j, the sum being
      Σ_i P_i (S-1)^(iB).  Then L = ⌈log2(d/B)⌉ halving levels repack the
      D = B·2^L slots at v bytes, room for D·mod^2, and pair block 2i with
      2i + 1: X = (X & m_s) + ((X >> 8v·s) & m_s)·(S-1)^s, one product, one
      reduction and one squaring of the power each.  One wrap mod S^n - 1
      ends it.  Cost: B steps on D slots and L products of D·v bytes, or
      M(d) log d.

    Cost rule: halves iff d·k·w > D·(B·w + 24·L·v^1.5), both sides in bytes
    swept by a Horner step; a level's 24·v^1.5 was fitted on timings at
    moduli of 8 to 60 bits and d from 96 to 2048; k <= 40 never halves.
    """
    n = min(r, len(coeffs))
    d = 1 + max((m for m, c in enumerate(coeffs) if c), default=-1)
    bits, (w, half, period) = (mod - 1).bit_length(), _slots(mod)
    W, B = 8 * w, 1 << (period - 1).bit_length() - 1  # period - 1 = W - bits - 3
    L = (max(d - 1, 0) // B).bit_length()  # ⌈log2⌉ of the block count
    D = B << L
    k, v = min(n, d), (2 * bits + D.bit_length() + 7) // 8
    halves = d * k * w > D * (B * w + 24 * L * v**1.5)
    if halves:
        size, C = D, _pack([c % mod for c in coeffs[:d]], w, 0)
        mask = int.from_bytes((b"\xff" * w + bytes(w * (B - 1))) * (D // B), "little")
        columns = ((C >> W * j) & mask for j in range(B - 1, -1, -1))
    else:
        size, columns = k, [c % mod for c in reversed(coeffs[:d])]
    Wn = W * size
    ones, biases = (1 << Wn) - 1, _biases(size, w, half)

    def fold(x):
        # x ≡ Σ s_a 2^(Wa) mod 2^(Wn) - 1, |s_a| < half - 1: fold x + biases
        # into [0, 2^(Wn) - 1], where its slots read s_a + half
        x += biases
        x = (x & ones) + (x >> Wn)
        return (x & ones) + (x >> Wn) - biases

    x, left = 0, period
    for c in columns:
        if not left:
            x, left = _reduce(fold(x), size, w, half, mod), period
        x = (x << W) - x + c
        x = (x & ones) + (x >> Wn)
        left -= 1
    cs = [c % mod for c in _unpack(fold(x), size, w, half)]
    if halves:
        V, s = 8 * v, B
        x = _pack(cs, v, 0)
        power = _pack([(-1) ** (B - i) * math.comb(B, i) % mod for i in range(B + 1)], v, 0)
        while s < D:
            m_s = int.from_bytes((b"\xff" * (v * s) + bytes(v * s)) * (D // (2 * s)), "little")
            x = _reduce((x & m_s) + ((x >> V * s) & m_s) * power, D, v, 0, mod)
            s *= 2
            if s < D:
                power = _reduce(power * power, s + 1, v, 0, mod)
        Vn = V * n
        while x >> Vn:  # slots hold residues: their sums stay below 2^V
            x = (x & (1 << Vn) - 1) + (x >> Vn)
        cs = [c % mod for c in _unpack(x, k, v, 0)]
    return cs + [0] * (n - len(cs))


def differences_at_zero(values, mod, sign=-1):
    """[(Δ^n f)(0) mod ``mod`` for n < len(values)], f(i) = values[i] in
    [0, mod), Δf(x) = f(x+1) + sign·f(x): sign -1 takes samples to Mahler
    coefficients, sign 1 takes coefficients c_k to samples Σ_k C(n, k) c_k.

    One integer z packed like ``mul``, slot i holding f(i) + half so that
    no slot borrows: (Δ^n f)(0) is the low slot less half, and Δ is z >> W
    + sign·(z - biases).  A pass at most doubles each slot, so the slots
    are brought back to residues every ``period`` passes.
    """
    m, (w, half, period) = len(values), _slots(mod)
    W, biases = 8 * w, _biases(m, w, half)
    low = (1 << W) - 1
    z, left, out = _pack(values, w, half) + biases, period, []
    for n in range(m):
        if not left:  # the low m - n slots hold Δ^n f; the rest are dropped
            z, left = _reduce(z - biases, m - n, w, half, mod) + biases, period
        out.append(((z & low) - half) % mod)
        z = (z >> W) + sign * (z - biases)
        left -= 1
    return out


def _biases(span, w, half):
    """Σ half · 2^(8 w k) over 0 <= k < span."""
    return int.from_bytes(half.to_bytes(w, "little") * span, "little")


# Byte j of a plane sits at offset _AT[j] of a native 8-byte word; on a
# little-endian host an 8-byte slot is a word as it stands (_NATIVE).
_WORD = array("Q", [int.from_bytes(bytes(range(8)), "little")]).tobytes()
_AT = [_WORD.index(j) for j in range(8)]
_NATIVE = _WORD == bytes(range(8))
_SIGN_FILL = bytes(128) + b"\xff" * 128  # top byte of a slot -> its sign byte
_LOW = (1 << 64) - 1


@functools.lru_cache(maxsize=64)  # few widths recur; rare huge ones do not pile up
def _planes(w, half):
    """(shift, top, code, pairs, fill) per plane of a w-byte slot, top last:
    its bits from shift up as words of type code, signed on a signed top
    plane; (slot byte, word offset) pairs; the word offsets to sign-fill."""
    return [(8 * i, i + 8 >= w, "q" if half and i + 8 >= w else "Q",
             [(i + j, _AT[j]) for j in range(min(8, w - i))],
             [_AT[j] for j in range(w - i, 8)] if half else []) for i in range(0, w, 8)]


def _pack(values, w, half):
    """Σ values[k] · 2^(8 w k) for w-byte slots, half = 2^(8w-1) for values
    in [-half, half) or 0 for values in [0, 2^(8w)).  Plane i gathers the
    words v >> 64i mod 2^64 (v >> 64i on a top plane, signed if half), so a
    negative v reads v + 2^(8w) in its slot, which x - 2·(x & biases) takes back."""
    if w == 8 and _NATIVE:
        raw = array("q" if half else "Q", values).tobytes()
    else:
        raw = bytearray(w * len(values))
        for shift, top, code, pairs, _ in _planes(w, half):
            plane = [c >> shift for c in values] if shift else values
            words = array(code, plane if top else [c & _LOW for c in plane]).tobytes()
            for at, word_at in pairs:
                raw[at::w] = words[word_at::8]
    x = int.from_bytes(raw, "little")
    return x - ((x & _biases(len(values), w, half)) << 1) if half else x


def _unpack(x, n, w, half):
    """The low n slots of x as balanced digits, each in [-half, half): with
    the biases added, slot k holds its digit + half and nothing borrows,
    and flipping the top bit leaves the digit in w-byte two's complement.
    Each plane is scattered into machine words, read at C speed and joined
    as (hi << 64) | lo."""
    mask, biases = (1 << 8 * w * n) - 1, _biases(n, w, half) if half else 0
    x = ((x + biases) & mask) ^ biases if half else x & mask
    raw = x.to_bytes(w * n, "little")
    if w == 8 and _NATIVE:
        return memoryview(raw).cast("q" if half else "Q").tolist()
    out = None
    for _, _, code, pairs, fill in reversed(_planes(w, half)):
        buf = bytearray(8 * n)
        for at, word_at in pairs:
            buf[word_at::8] = raw[at::w]
        if fill:  # the sign byte, repeated above a signed top plane's bytes
            sign = raw[w - 1::w].translate(_SIGN_FILL)
            for word_at in fill:
                buf[word_at::8] = sign
        plane = memoryview(buf).cast(code).tolist()
        out = plane if out is None else [hi << 64 | lo for hi, lo in zip(out, plane)]
    return out


def _reduce(x, n, w, half, mod):
    """The low n slots of x, balanced digits, brought to residues mod
    ``mod`` and packed again; the slots above them are cut off."""
    return _pack([c % mod for c in _unpack(x, n, w, half)], w, half)


def power(x, k, one, mul=operator.mul):
    """x^k by square-and-multiply, every product taken by ``mul``: the result
    starts at its first factor, so ``one`` is returned for k = 0 alone and is
    never multiplied; bit_length(k) - 1 squarings, bit_count(k) - 1 products."""
    k, out = _count(k, "k", 0), None
    while k:
        if k & 1:
            out = x if out is None else mul(out, x)
        k >>= 1
        if k:
            x = mul(x, x)
    return one if out is None else out


def equal(a, b, bound, mod):
    """Box-relative equality: every key below ``bound`` agrees mod ``mod``."""
    return all(
        (a.get(k, 0) - b.get(k, 0)) % mod == 0
        for k in a.keys() | b.keys()
        if bound is None or k < bound
    )


def operand_prime(fns, fkind, mus, mkind):
    """The one prime of the functions, each a ``fkind``, and the measures,
    each a ``mkind`` (None for none), every operand checked by ``_same``
    before a pairing reads any of its fields."""
    p = None
    for xs, kind in ((fns, fkind), (mus, mkind)):
        for x in xs:
            p = _same(p, x, kind).p
    return p


def pairings(p, fns, mus, fview, mview):
    """Σ_k b_k a_k for every function and measure at the prime p, that
    ``operand_prime`` returned: rows of (shift, residue, bound), the value
    p^shift·residue mod p^bound.  ``fview(f)`` is (coeffs, prec, floors),
    floors None for an exact tail or (at, beyond): ``at(k)`` floors the
    valuation of the omitted coefficient at key k, ``beyond(q)`` of all
    those from exponent q on.  ``mview(mu)`` is (coeffs, prec, shift,
    key bound, degree): residues, p^-shift times the coefficients below the
    key bound, and from ``degree`` on only valuation >= shift, both None for
    an exact tail.  A term unknown on one side costs the other's valuation."""
    views = [mview(mu) for mu in mus]
    index = {}  # key -> [(measure, residue)]: each sum is a join
    for j, (mc, *_) in enumerate(views):
        for k, a in mc.items():
            index.setdefault(k, []).append((j, a))
    rows = []
    for fc, fprec, floors in map(fview, fns):
        totals = [0] * len(views)
        for k, b in fc.items():
            for j, a in index.get(k, ()):
                totals[j] += b * a
        row = []
        for total, (mc, mprec, shift, kbound, degree) in zip(totals, views):
            prec = bound = fprec if fprec < mprec else mprec  # all for two exact tails
            if kbound is not None:
                bound = min([bound] + [vp_int(b, p) for k, b in fc.items() if k >= kbound and b])
            if floors is not None:
                at, beyond = floors
                bound = min([bound] + [at(k) + vp_int(a, p) for k, a in mc.items() if k not in fc])
                bound = bound if degree is None else min(bound, beyond(degree))
            # crossing terms that leave no digit from p^0 on certify nothing
            if bound < prec and bound < 1 - shift:
                raise UncertifiedTailError("the boxes do not jointly certify the pairing tail")
            row.append((shift, total % p**prec if total else 0, shift + bound))
        rows.append(row)
    return rows


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
        v = 0 if not depth or k % p else min(vp_int(k, p), depth) if k else depth
        yield k // pows[v], depth - v, coeffs[k]


def w_valuation(p, depth, shift, prec, degree, coeffs):
    """w = min_q v_p(a_q) + q of p^shift · Σ c_k X^(k/p^depth), known mod
    (p^(shift+prec), q >= degree), degree None for an exact tail: the least
    stored term, a Fraction, if no omitted one can lie below it, else a
    LowerBound of the omitted terms' floor shift + min(prec, degree)."""
    den = p**depth
    best = min((vp_int(c, p) * den + k for k, c in coeffs.items()), default=None)
    floor = prec if degree is None else min(prec, degree)
    if best is not None and best <= floor * den:
        return shift + Fraction(best, den)
    return LowerBound(shift + floor)


def render(p, terms, var, coef=str):
    """The (num, logden, coeff) ``terms`` of ``exponents`` as text, in their
    order: the constant as ``coef(c)``, any other term as its monomial in
    ``var``, preceded by ``coef(c)·`` unless that reads 1; "0" for none."""
    parts = []
    for n, e, c in terms:
        c, mono = coef(c), f"{var}^{n}/{p**e}" if e else var if n == 1 else f"{var}^{n}"
        parts.append(c if not n else mono if c == "1" else f"{c}·{mono}")
    return " + ".join(parts) or "0"


def encode_terms(terms):
    """JSON terms ``[{"q", "coeff"}, ...]`` of (num, logden, coeff) ``terms``."""
    return [{"q": {"num": n, "logden": e}, "coeff": c} for n, e, c in terms]


def decode_terms(p, depth, terms):
    """Coefficient map on the 1/p^depth grid from JSON terms; a term that is
    not ``{"q": {"num", "logden"}, "coeff"}`` with integer entries, an
    exponent off that grid (``logden > depth`` in lowest terms), or one
    already given (equal in lowest terms) is a ParseError."""
    if not isinstance(terms, list):
        raise ParseError(f"terms must be a list, not {type(terms).__name__}")
    cs = {}
    for term in terms:
        q = SExponent.from_json(p, json_field(term, "q"))
        if q.logden > depth:
            raise ParseError(f"exponent {q} is off the 1/{p}^{depth} grid")
        k = q.num * p ** (depth - q.logden)
        if k in cs:
            raise ParseError(f"exponent {q} is repeated")
        cs[k] = json_int(term, "coeff")
    return cs

