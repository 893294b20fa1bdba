"""The series types against a plain pairwise product, and the JSON term grid.

The oracle below knows nothing of grids, shifts, dense tuples or packed
keys: a series is a map from exponent (a Fraction, an int or an (i, j)
pair) to coefficient, and the product visits every pair of terms.
"""

import copy
import functools
import json
import math
import operator
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_fourier import _series
from padic_fourier.ainf import AinfElt, dirac_q, rescale_pushforward, t_tilde_approx
from padic_fourier.artin_hasse import (
    PIntegralSeries, apply_series, artin_hasse_exp, artin_hasse_log, artin_hasse_log_mod,
    canonical_measure, pi_element,
)
from padic_fourier.errors import (
    BoxExhausted, ParseError, PrecisionExhausted, PreconditionError, PrimeMismatch,
)
from padic_fourier.fourier import (
    UnifFn, eval_unif, forward_transform, forward_transform_diracs, integrate_unif,
    pullback_rescale,
)
from padic_fourier.iwasawa import (
    BivariateSeries, IwasawaElt, MahlerFn, dirac, integrate, mahler_coeffs_from_samples,
)
from padic_fourier.padic import (
    LowerBound, PadicScalar, SExponent, binomial, gen_binomial, gen_binomial_approximants,
    gen_binomial_profile, gen_binomial_valuation_bound, gen_binomial_valuation_floor, vp_int,
)
from padic_fourier.witt import PerfSeries, WittElt, teichmuller, witt_decompose, witt_recompose

PRIMES = st.sampled_from([2, 3, 5])


def schoolbook(a, b, keep, add=operator.add):
    """Every pairwise product of terms, summed by exponent, kept where keep(q)."""
    out = {}
    for q1, c1 in a.items():
        for q2, c2 in b.items():
            q = add(q1, q2)
            if keep(q):
                out[q] = out.get(q, 0) + c1 * c2
    return out


def residues(terms, mod):
    return {q: c % mod for q, c in terms.items() if c % mod}


def box_equal(a, b, keep, mod):
    return all((a.get(q, 0) - b.get(q, 0)) % mod == 0 for q in set(a) | set(b) if keep(q))


def below(degree):
    return lambda q: degree is None or q < degree


def degree_min(a, b):
    return a if b is None else b if a is None else min(a, b)


# -- the product kernel ------------------------------------------------------


def nonzero(terms):
    return {q: c for q, c in terms.items() if c}


COEFFS = st.one_of(
    st.integers(-9, 9),
    st.integers(-(2**130), 2**130),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
)


@st.composite
def coeff_maps(draw):
    lo = draw(st.integers(0, 40))
    span = draw(st.sampled_from([0, 4, 16, 10**6]))  # dense to sparse
    return draw(st.dictionaries(st.integers(lo, lo + span), COEFFS, max_size=24))


@st.composite
def kernel_cases(draw):
    a = draw(coeff_maps())
    b = a if draw(st.booleans()) else draw(coeff_maps())
    least = min(a, default=0) + min(b, default=0)
    bound = draw(st.one_of(
        st.none(), st.just(0), st.integers(0, least),
        st.integers(0, max(a, default=0) + max(b, default=0) + 2),
    ))
    return a, b, bound


# Squares whose middle coefficient 3c^2 has a bit length divisible by 8: a
# slot without room for the sign bit reads it back as negative.
SQ_SMALL = {0: 8, 1: -8, 2: 8}  # middle coefficient 192
SQ_WIDE = {5: 2**67, 6: 2**67, 7: 2**67}  # middle coefficient 3 * 2^134
# The same past the density rule's factor, so the kernel packs them: 16 equal
# terms c, middle coefficient 16c^2.
SQ_PACKED = {k: 48 for k in range(16)}  # 36864, 16 bits
SQ_PACKED_WIDE = {k: 48 << 64 for k in range(16)}  # 36864 * 2^128, 144 bits


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((SQ_SMALL, SQ_SMALL, None))
@example((SQ_WIDE, SQ_WIDE, None))
@example((SQ_WIDE, dict(SQ_WIDE), 13))
@example((SQ_PACKED, SQ_PACKED, None))
@example((SQ_PACKED_WIDE, dict(SQ_PACKED_WIDE), 20))
@example(({k: 1 for k in range(40)}, {0: Fraction(1, 3), 9: -2}, 30))  # dense, paired
@example(({k: 1 for k in range(40)}, {k: Fraction(k, 3) for k in range(10)}, 30))  # packed
@example(({0: 1, 10**6: 1}, {0: 1, 3: 1}, None))  # sparse: the pair loop
@example(({}, {0: 1}, None))
def test_kernel_product_matches_schoolbook(case):
    a, b, bound = case
    expect = schoolbook(a, b, lambda k: bound is None or k < bound)
    assert nonzero(_series.mul(a, b, bound)) == nonzero(expect)


@st.composite
def residue_lists(draw):
    """A dense list of nonnegative integers: leading zero slots (an offset),
    then entries small or far above the modulus, then trailing zeros."""
    body = st.lists(st.one_of(st.integers(0, 9), st.integers(0, 2**90)), max_size=40)
    return [0] * draw(st.integers(0, 12)) + draw(body) + [0] * draw(st.integers(0, 4))


@st.composite
def mul_mod_cases(draw):
    a = draw(residue_lists())
    b = a if draw(st.booleans()) else draw(residue_lists())
    n = draw(st.integers(0, len(a) + len(b) + 3))  # below and past the span
    m = draw(st.sampled_from([2, 3**5, 2**20, 2**64, 7**40]))
    return a, b, n, m


@settings(max_examples=300, deadline=None)
@given(mul_mod_cases())
@example(([0, 0, 5], [0, 0, 0, 7], 6, 3))  # offset 5 below n = 6
@example(([0, 0, 5], [0, 0, 0, 7], 5, 3))  # offset at n: all zero
@example(([2**80] * 30, [2**80] * 30, 59, 2**64))  # a wide square past m
@example(([], [1], 3, 5))
def test_mul_mod_matches_reduced_kernel_product(case):
    a, b, n, m = case
    expect = _series.mul(_series.sparse(a), _series.sparse(b), n)
    got = _series.mul_mod(a, b, n, m)
    assert got == [expect.get(k, 0) % m for k in range(n)]


@st.composite
def exponent_maps(draw):
    """(p, depth, coeffs) with keys u·p^j around the grid's depth, key 0 too."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    depth = draw(st.integers(0, 6))
    keys = st.builds(lambda u, j: u * p**j, st.integers(0, 50), st.integers(0, depth + 2))
    return p, depth, draw(st.dictionaries(keys, st.integers(-9, 9), max_size=12))


@settings(max_examples=300, deadline=None)
@given(exponent_maps())
@example((2, 3, {0: 1, 8: 2, 12: 3, 5: 4}))
@example((3, 0, {0: 5, 9: 1}))
def test_exponents_split_keys_as_sexponent_does(case):
    p, depth, coeffs = case
    expect = [
        (SExponent(p, k, depth).num, SExponent(p, k, depth).logden, c)
        for k, c in sorted(coeffs.items())
    ]
    assert list(_series.exponents(p, depth, coeffs)) == expect


def dense_operand(rng, kind, n):
    """n consecutive nonzero terms of either sign from a random key: the
    packed path."""
    lo = rng.randrange(0, 50)
    magnitude = {
        "int": lambda: rng.randrange(1, 2**20),
        "wide": lambda: rng.randrange(2**64, 2**90),
        "fraction": lambda: Fraction(rng.randrange(1, 50), rng.randrange(1, 12)),
    }[kind]
    return {lo + k: rng.choice([-1, 1]) * magnitude() for k in range(n)}


@pytest.mark.parametrize("bound", ["none", "mid", "past"])
@pytest.mark.parametrize("same", [False, True])
@pytest.mark.parametrize("kind", ["int", "wide", "fraction"])
def test_kernel_wide_packed_product_matches_schoolbook(kind, same, bound):
    # multi-KiB packed integers: the unpack keeps every slot, sign and carry
    rng = random.Random(f"{kind}-{same}-{bound}")
    sizes = (300, 330) if kind == "fraction" else (300, 600)
    a = dense_operand(rng, kind, rng.randrange(*sizes))
    b = a if same else dense_operand(rng, kind, rng.randrange(*sizes))
    lo, hi = min(a) + min(b), max(a) + max(b)
    bound = {"none": None, "mid": (lo + hi) // 2, "past": hi + 1}[bound]
    expect = schoolbook(a, b, lambda k: bound is None or k < bound)
    assert nonzero(_series.mul(a, b, bound)) == nonzero(expect)


def slice_pack(values, w, half):
    """The slot-by-slot packer: the bytes of each values[k] + half, joined."""
    raw = b"".join([(c + half).to_bytes(w, "little") for c in values])
    return int.from_bytes(raw, "little") - _series._biases(len(values), w, half)


def slice_unpack(x, n, w, half):
    """The slot-by-slot reader: a bytes slice of x + biases per slot."""
    low = (x + _series._biases(n, w, half)) & ((1 << 8 * w * n) - 1)
    raw = low.to_bytes(w * n, "little")
    return [int.from_bytes(raw[i:i + w], "little") - half for i in range(0, w * n, w)]


@st.composite
def slot_cases(draw):
    """(values, w, half, garbage): n <= 64 slot values of w bytes (one to
    three word planes), often at an end of the range, and an integer to add
    above the n slots."""
    w = draw(st.integers(1, 24))
    half = draw(st.sampled_from([0, 1 << (8 * w - 1)]))
    lo, hi = (-half, half - 1) if half else (0, (1 << 8 * w) - 1)
    value = st.one_of(st.sampled_from([lo, lo + 1, hi - 1, hi, 0]), st.integers(lo, hi))
    values = draw(st.lists(value, max_size=64))
    garbage = draw(st.one_of(st.just(0), st.integers(-(2**200), 2**200)))
    return values, w, half, garbage


@settings(max_examples=400, deadline=None)
@given(slot_cases(), st.booleans())
@example(([-(2**63), 2**63 - 1, -1, 0], 8, 2**63, -1), False)
@example(([2**64 - 1] * 3, 8, 0, 2**200), True)
@example(([-128, 127, -1], 1, 128, -(2**90)), True)
@example(([2**135 - 1, -(2**135)], 17, 2**135, 5), False)
@example(([], 3, 0, 7), False)
@example(([2**191 - 1, -(2**191), -1, 0, 2**64, -(2**128)], 24, 2**191, -(2**250)), True)
@example(([2**72 - 1, 2**64 - 1, 2**64, 0], 9, 0, 2**100), False)
def test_pack_and_unpack_match_the_slice_oracle(case, negate):
    values, w, half, garbage = case
    x = slice_pack(values, w, half)
    assert _series._pack(values, w, half) == x
    n = len(values)
    y = x + (garbage << 8 * w * n)  # a negative garbage makes y negative too
    assert _series._unpack(y, n, w, half) == slice_unpack(y, n, w, half) == values
    # any integer, not only a packed one, reads as the slice oracle reads it
    z = -y if negate else y
    assert _series._unpack(z, n, w, half) == slice_unpack(z, n, w, half)
    # the byte-order shortcut off: 8-byte slots go through the plane scatter
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_series, "_NATIVE", False)
        assert _series._pack(values, w, half) == x
        assert _series._unpack(z, n, w, half) == slice_unpack(z, n, w, half)


@pytest.mark.parametrize("native", [True, False])
@pytest.mark.parametrize("half", [False, True])
@pytest.mark.parametrize("w", range(1, 25))
def test_pack_and_unpack_4096_slots(monkeypatch, w, half, native):
    rng = random.Random(f"{w}-{half}")
    half = 1 << (8 * w - 1) if half else 0
    lo, hi = (-half, half - 1) if half else (0, (1 << 8 * w) - 1)
    values = [rng.choice([lo, hi, rng.randint(lo, hi)]) for _ in range(4096)]
    monkeypatch.setattr(_series, "_NATIVE", native and _series._NATIVE)
    x = _series._pack(values, w, half)
    assert x == slice_pack(values, w, half)
    y = x - (rng.randrange(2**100) << 8 * w * 4096)
    assert _series._unpack(y, 4096, w, half) == values


def test_word_byte_offsets_follow_the_host_byte_order():
    little = sys.byteorder == "little"
    assert _series._AT == (list(range(8)) if little else list(range(7, -1, -1)))
    assert _series._NATIVE is little


def truncate_oracle(p, depth, degree, coeffs, mod):
    """The box rule with the grid coarsened one power of p per pass."""
    bound = _series.key_bound(p, depth, degree)
    out = {k: c % mod for k, c in coeffs.items() if (bound is None or k < bound) and c % mod}
    while depth > 0 and all(k % p == 0 for k in out):
        out = {k // p: c for k, c in out.items()}
        depth -= 1
    return depth, out


@st.composite
def truncate_cases(draw):
    p = draw(PRIMES)
    depth = draw(st.integers(0, 12))
    degree = draw(st.one_of(st.none(), st.builds(Fraction, st.integers(1, 40), st.integers(1, 4))))
    shared = p ** draw(st.integers(0, 14))  # a power of p that every key may share
    keys = st.builds(operator.mul, st.integers(0, 30), st.just(shared))
    coeffs = draw(st.dictionaries(keys, st.integers(-50, 50), max_size=6))
    return p, depth, degree, coeffs, p ** draw(st.integers(1, 3))


@settings(max_examples=200, deadline=None)
@given(truncate_cases())
@example((2, 5, None, {}, 4))  # empty: depth 0
@example((3, 4, None, {0: 1}, 9))  # key 0 alone: depth 0
@example((2, 3, None, {8: 1, 0: 5}, 4))  # coarsens by more than the depth
@example((5, 6, Fraction(1), {25: 5, 50: 1}, 5))  # a residue vanishes
def test_truncate_matches_one_pass_per_power(case):
    assert _series.truncate(*case) == truncate_oracle(*case)


@pytest.mark.parametrize("p, depth, coeffs", [
    (2, 10**7, {}),
    (3, 40000, {3**40000: 1}),
])
def test_deep_grid_constructs_in_one_step(p, depth, coeffs):
    start = time.monotonic()
    x = AinfElt(p, 4, depth, 4, coeffs)
    assert time.monotonic() - start < 0.5
    assert x.depth == 0 and x.coeffs == {k // p**depth: c for k, c in coeffs.items()}


def test_kernel_square_of_wide_sparse_series():
    # keys {1, 3, 2^23 + 1}: packed densely, the square would take seconds
    depth = 22
    x = AinfElt(2, 8, depth, None, {1: 1, 3: 1, 2 ** (depth + 1) + 1: 1})
    expect = schoolbook(ainf_terms(x), ainf_terms(x), below(None))
    assert ainf_terms(x * x) == residues(expect, 2**8)


# -- AinfElt ---------------------------------------------------------------


def ainf_terms(x):
    return {q.as_fraction(): c for q, c in x.items_sexp()}


@st.composite
def ainf_elts(draw, p):
    depth = draw(st.integers(0, 2))
    degree = draw(st.one_of(
        st.none(),
        st.builds(
            Fraction, st.integers(1, 3 * p**depth), st.sampled_from([1, p, p * p])
        ),
    ))
    prec = draw(st.integers(1, 4))
    coeffs = draw(st.dictionaries(
        st.integers(0, 3 * p**depth), st.integers(-(p ** (prec + 1)), p ** (prec + 1)),
        max_size=6,
    ))
    return AinfElt(p, prec, depth, degree, coeffs, shift=draw(st.integers(-1, 2)))


@st.composite
def ainf_pairs(draw):
    p = draw(PRIMES)
    x = draw(ainf_elts(p))
    if draw(st.booleans()):
        return x, draw(ainf_elts(p))
    # x on a finer grid, with noise below the precision and past the degree
    finer = draw(st.integers(0, 2))
    f = p**finer
    cs = {
        k * f: c + p**x.prec * draw(st.integers(-2, 2)) for k, c in x.coeffs.items()
    }
    if x.degree is not None:
        cs[int(x.degree * p ** (x.depth + finer)) + 1] = draw(st.integers(1, 9))
    if draw(st.booleans()):
        k = draw(st.integers(0, 3 * p ** (x.depth + finer)))
        cs[k] = cs.get(k, 0) + draw(st.integers(1, 3))
    return x, AinfElt(p, x.prec, x.depth + finer, x.degree, cs, shift=x.shift)


def ainf_value_terms(x, s):
    """Coefficients as multiples of p^s, s <= x.shift."""
    return {q: c * x.p ** (x.shift - s) for q, c in ainf_terms(x).items()}


@settings(max_examples=150, deadline=None)
@given(ainf_pairs())
def test_ainf_product_matches_schoolbook(pair):
    x, y = pair
    z = x * y
    degree = degree_min(x.degree, y.degree)
    expect = schoolbook(ainf_terms(x), ainf_terms(y), below(degree))
    assert ainf_terms(z) == residues(expect, x.p ** min(x.prec, y.prec))
    assert (z.prec, z.degree, z.shift) == (
        min(x.prec, y.prec), degree, x.shift + y.shift
    )


@settings(max_examples=80, deadline=None)
@given(PRIMES.flatmap(ainf_elts), st.integers(0, 5))
def test_ainf_power_matches_repeated_schoolbook(x, k):
    expect = {Fraction(0): 1}
    for _ in range(k):
        expect = schoolbook(expect, ainf_terms(x), below(x.degree))
    z = x**k
    assert ainf_terms(z) == residues(expect, x.p**x.prec)
    assert (z.prec, z.degree, z.shift) == (x.prec, x.degree, k * x.shift)


@settings(max_examples=150, deadline=None)
@given(ainf_pairs())
def test_ainf_equality_matches_box_oracle(pair):
    x, y = pair
    s = min(x.shift, y.shift)
    mod = x.p ** (min(x.shift + x.prec, y.shift + y.prec) - s)
    keep = below(degree_min(x.degree, y.degree))
    expect = box_equal(ainf_value_terms(x, s), ainf_value_terms(y, s), keep, mod)
    assert (x == y) == expect
    assert (y == x) == expect


# -- PerfSeries ------------------------------------------------------------


@st.composite
def perf_elts(draw, p):
    depth = draw(st.integers(0, 2))
    degree = draw(st.one_of(
        st.none(), st.builds(Fraction, st.integers(1, 3 * p**depth), st.just(p**depth))
    ))
    coeffs = draw(st.dictionaries(
        st.integers(0, 3 * p**depth), st.integers(-p, 2 * p), max_size=6
    ))
    return PerfSeries(p, depth, degree, coeffs)


def perf_terms(x):
    return {Fraction(k, x.p**x.depth): c for k, c in x.coeffs.items()}


perf_pairs = PRIMES.flatmap(lambda p: st.tuples(perf_elts(p), perf_elts(p)))


@settings(max_examples=100, deadline=None)
@given(perf_pairs)
def test_perfseries_product_matches_schoolbook(pair):
    x, y = pair
    degree = degree_min(x.degree, y.degree)
    z = x * y
    assert perf_terms(z) == residues(
        schoolbook(perf_terms(x), perf_terms(y), below(degree)), x.p
    )
    assert z.degree == degree


@settings(max_examples=60, deadline=None)
@given(PRIMES.flatmap(perf_elts), st.integers(0, 5))
def test_perfseries_power_matches_repeated_schoolbook(x, k):
    expect = {Fraction(0): 1}
    for _ in range(k):
        expect = schoolbook(expect, perf_terms(x), below(x.degree))
    assert perf_terms(x**k) == residues(expect, x.p)


@settings(max_examples=100, deadline=None)
@given(perf_pairs, st.integers(0, 2))
def test_perfseries_equality_matches_box_oracle(pair, finer):
    x, y = pair
    keep = below(degree_min(x.degree, y.degree))
    assert (x == y) == box_equal(perf_terms(x), perf_terms(y), keep, x.p)
    # the same element on a finer grid, with coefficients off by multiples of p
    f = x.p**finer
    twin = PerfSeries(
        x.p, x.depth + finer, x.degree, {k * f: c + x.p for k, c in x.coeffs.items()}
    )
    assert x == twin and twin == x


# -- IwasawaElt ------------------------------------------------------------


@st.composite
def iwasawa_elts(draw, p):
    degree = draw(st.integers(1, 10))
    prec = draw(st.integers(1, 4))
    coeffs = draw(st.lists(
        st.integers(-(p ** (prec + 1)), p ** (prec + 1)), max_size=degree + 2
    ))
    return IwasawaElt(p, prec, degree, coeffs, exact_tail=draw(st.booleans()))


def iwasawa_terms(x):
    return {n: c for n, c in enumerate(x.coeffs) if c}


iwasawa_pairs = PRIMES.flatmap(lambda p: st.tuples(iwasawa_elts(p), iwasawa_elts(p)))


@settings(max_examples=150, deadline=None)
@given(iwasawa_pairs)
def test_iwasawa_product_matches_schoolbook(pair):
    x, y = pair
    degree, prec = min(x.degree, y.degree), min(x.prec, y.prec)
    z = x * y
    expect = schoolbook(iwasawa_terms(x), iwasawa_terms(y), below(degree))
    assert iwasawa_terms(z) == residues(expect, x.p**prec)
    assert (z.prec, z.degree, len(z.coeffs)) == (prec, degree, degree)


@settings(max_examples=80, deadline=None)
@given(PRIMES.flatmap(iwasawa_elts), st.integers(0, 6))
def test_iwasawa_power_matches_repeated_schoolbook(x, k):
    expect = {0: 1}
    for _ in range(k):
        expect = schoolbook(expect, iwasawa_terms(x), below(x.degree))
    z = x**k
    assert iwasawa_terms(z) == residues(expect, x.p**x.prec)
    assert (z.prec, z.degree) == (x.prec, x.degree)


@settings(max_examples=150, deadline=None)
@given(iwasawa_pairs, st.integers(-2, 2), st.integers(0, 3))
def test_iwasawa_equality_matches_box_oracle(pair, noise, grow):
    x, y = pair
    mod = x.p ** min(x.prec, y.prec)
    keep = below(min(x.degree, y.degree))
    assert (x == y) == box_equal(iwasawa_terms(x), iwasawa_terms(y), keep, mod)
    # a larger box agreeing with x inside x's box
    twin = IwasawaElt(
        x.p, x.prec + grow, x.degree + grow,
        [c + noise * x.p**x.prec for c in x.coeffs] + [1] * grow,
        exact_tail=x.exact_tail,
    )
    assert x == twin and twin == x


# -- power: square-and-multiply from the first factor -----------------------


_ONE = object()  # a stand-in identity that no product may see


def counting_mul(calls, mul=operator.mul):
    """``mul`` that refuses the stand-in identity and counts its calls."""

    def counted(a, b):
        assert a is not _ONE and b is not _ONE, "power multiplied by one"
        calls.append(1)
        return mul(a, b)

    return counted


@pytest.mark.parametrize("k", range(71))
def test_power_never_multiplies_by_one(k):
    calls = []
    got = _series.power(3, k, _ONE, counting_mul(calls))
    want = _ONE
    for _ in range(k):
        want = 3 if want is _ONE else want * 3
    assert got is want if k == 0 else got == want
    # bit_length(k) - 1 squarings and bit_count(k) - 1 further products
    assert len(calls) == (k.bit_length() + bin(k).count("1") - 2 if k else 0)


@settings(max_examples=80, deadline=None)
@given(PRIMES, st.integers(1, 24), st.integers(1, 6), st.integers(1, 70), st.randoms())
def test_power_of_residue_lists_matches_repeated_products(p, n, prec, k, rng):
    m = p**prec
    x = [rng.randrange(m) for _ in range(n)]
    step = functools.partial(_series.mul_mod, n=n, m=m)
    calls = []
    want = x
    for _ in range(k - 1):
        want = step(want, x)
    assert _series.power(x, k, _ONE, counting_mul(calls, step)) == want
    assert len(calls) == k.bit_length() + bin(k).count("1") - 2


@settings(max_examples=80, deadline=None)
@given(PRIMES.flatmap(ainf_elts))
def test_ainf_first_power_is_the_product_by_one(x):
    one = AinfElt.one(x.p, x.prec, x.degree)
    assert x**1 == one * x and (x**1).to_json() == (one * x).to_json()


@settings(max_examples=80, deadline=None)
@given(PRIMES.flatmap(perf_elts))
def test_perfseries_first_power_is_the_product_by_one(x):
    one = PerfSeries.one(x.p, x.degree)
    assert x**1 == one * x and (x**1).to_json() == (one * x).to_json()


@settings(max_examples=80, deadline=None)
@given(PRIMES.flatmap(iwasawa_elts))
def test_iwasawa_first_power_is_the_product_by_one(x):
    x = IwasawaElt(x.p, x.prec, x.degree, x.coeffs, exact_tail=True)
    one = IwasawaElt.one(x.p, x.prec, x.degree)
    assert x**1 == one * x and (x**1).to_json() == (one * x).to_json()


# -- BivariateSeries -------------------------------------------------------


def pair_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


@st.composite
def bivariate_elts(draw, p):
    degree = draw(st.integers(1, 7))
    prec = draw(st.integers(1, 4))
    coeffs = draw(st.dictionaries(
        st.tuples(st.integers(0, 7), st.integers(0, 7)),
        st.integers(-(p ** (prec + 1)), p ** (prec + 1)), max_size=10,
    ))
    return BivariateSeries(p, prec, degree, coeffs)


bivariate_pairs = PRIMES.flatmap(lambda p: st.tuples(bivariate_elts(p), bivariate_elts(p)))


@settings(max_examples=150, deadline=None)
@given(bivariate_pairs)
def test_bivariate_product_matches_schoolbook(pair):
    x, y = pair
    degree, prec = min(x.degree, y.degree), min(x.prec, y.prec)
    z = x * y
    expect = schoolbook(x.coeffs, y.coeffs, lambda q: sum(q) < degree, pair_add)
    assert z.coeffs == residues(expect, x.p**prec)
    assert (z.prec, z.degree) == (prec, degree)


@settings(max_examples=150, deadline=None)
@given(bivariate_pairs, st.integers(-2, 2))
def test_bivariate_equality_matches_box_oracle(pair, noise):
    x, y = pair
    d = min(x.degree, y.degree)
    mod = x.p ** min(x.prec, y.prec)
    assert (x == y) == box_equal(x.coeffs, y.coeffs, lambda q: sum(q) < d, mod)
    twin_cs = {k: c + noise * x.p**x.prec for k, c in x.coeffs.items()}
    twin_cs[(x.degree, 0)] = 1  # outside the box
    twin = BivariateSeries(x.p, x.prec + 1, x.degree + 1, twin_cs)
    assert x == twin and twin == x


# -- immutability ------------------------------------------------------------


VALUES = pytest.mark.parametrize("value", [
    PadicScalar(2, 0, 1, 3),
    SExponent(2, 3, 1),
    IwasawaElt.one(2, 3, 3),
    BivariateSeries(2, 3, 3, {(1, 0): 1}),
    MahlerFn.basis(2, 1, 3),
    AinfElt.one(2, 3),
    PerfSeries(2, 0, None, {1: 1}),
    PIntegralSeries(2, 3, [1, 1]),
    UnifFn(2, 3, 0, {0: 1}, exact_tail=True),
    WittElt(2, [PerfSeries(2, 0, None, {0: 1})]),
], ids=lambda value: type(value).__name__)


@VALUES
@pytest.mark.parametrize("name", ["p", "extra"])
def test_value_types_refuse_assignment(value, name):
    before = value.p
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        setattr(value, name, 7)
    assert value.p == before and not hasattr(value, "extra")


@VALUES
def test_value_types_are_unhashable_but_exponents(value):
    # equality is up to a box or a precision, so equal values may differ in
    # their digits: no hash can agree with it.  An exponent is exact and
    # keys the forward transform's result.
    if isinstance(value, SExponent):
        assert {value: 1}[SExponent(2, 6, 2)] == 1
    else:
        with pytest.raises(TypeError):
            hash(value)


# -- one operand rule ----------------------------------------------------------


OPERAND_CALLS = {
    "integrate a Q_p function": (PreconditionError, lambda: integrate(
        UnifFn.basis(3, 1, 4), IwasawaElt.monomial(3, 1, 4, 3))),
    "integrate a Q_p measure": (PreconditionError, lambda: integrate(
        MahlerFn.basis(3, 1, 4), AinfElt.monomial(3, 1, 4, 3))),
    "integrate_unif a Z_p function": (PreconditionError, lambda: integrate_unif(
        MahlerFn.basis(3, 1, 4), AinfElt.monomial(3, 1, 4, 3))),
    "integrate_unif a Z_p measure": (PreconditionError, lambda: integrate_unif(
        UnifFn.basis(3, 1, 4), IwasawaElt.monomial(3, 1, 4, 3))),
    "integrate an int": (PreconditionError, lambda: integrate(MahlerFn.basis(3, 1, 4), 5)),
    "E + E at two primes": (PrimeMismatch, lambda: artin_hasse_exp(2, 8) + artin_hasse_exp(3, 8)),
    "E * E at two primes": (PrimeMismatch, lambda: artin_hasse_exp(2, 8) * artin_hasse_exp(3, 8)),
    "E composed at two primes": (PrimeMismatch, lambda: artin_hasse_exp(2, 8).compose(
        PIntegralSeries(3, 8, [0, 1]))),
    "E * a measure": (PreconditionError, lambda: artin_hasse_exp(3, 8) * AinfElt.monomial(3, 1, 4, 3)),
    "exponent + Fraction": (PreconditionError, lambda: SExponent(3, 1, 1) + Fraction(1, 3)),
    "dirac at another prime": (PrimeMismatch, lambda: dirac(PadicScalar.from_int(5, 2, 12), 4, 4, p=3)),
    "dirac at a Fraction": (PreconditionError, lambda: dirac(Fraction(5, 2), 4, 4, p=3)),
    "Mahler eval at a float": (PreconditionError, lambda: MahlerFn.basis(3, 1, 4).eval(2.5)),
    # the derived operators of padic.Ring reach the type's own operand rule
    "1 + mu": (PreconditionError, lambda: 1 + IwasawaElt.monomial(3, 1, 4, 3)),
    "1 - mu": (PreconditionError, lambda: 1 - IwasawaElt.monomial(3, 1, 4, 3)),
    "mu - None": (PreconditionError, lambda: IwasawaElt.monomial(3, 1, 4, 3) - None),
    "1 + E": (PreconditionError, lambda: 1 + artin_hasse_exp(3, 8)),
    "1 - E": (PreconditionError, lambda: 1 - artin_hasse_exp(3, 8)),
    "E - None": (PreconditionError, lambda: artin_hasse_exp(3, 8) - None),
    "a - None": (PreconditionError, lambda: AinfElt.monomial(3, 1, 4, 3) - None),
    "None - a": (PreconditionError, lambda: None - AinfElt.monomial(3, 1, 4, 3)),
    "sum of measures": (PreconditionError, lambda: sum([IwasawaElt.monomial(3, 1, 4, 3)] * 2)),
}


@pytest.mark.parametrize("name", OPERAND_CALLS)
def test_operands_of_another_kind_or_prime_are_refused(name):
    """Each call mixes kinds or primes; ``padic._same`` refuses it with the
    documented class, never an AttributeError, TypeError or exit-5 error."""
    error, call = OPERAND_CALLS[name]
    with pytest.raises(error):
        call()


_MU = IwasawaElt.monomial(3, 1, 4, 3)
_A = AinfElt.monomial(3, 1, 4, 3)
_E = artin_hasse_exp(3, 8)
_X = PadicScalar.from_int(3, 2, 4)


def test_derived_operators_follow_from_plus_and_times():
    # padic.Ring writes -x, x - y, y - x and the reflected + and * once
    assert -_E == _E * -1 and -_E + _E == _E * 0
    assert 1 - _A == -_A + 1 and _A - 1 == _A + -1
    assert 2 * _MU == _MU * 2 and -_MU == _MU * -1 and _MU - _MU == _MU * 0
    assert 1 - _X == -_X + 1 and 3 + _X == _X + 3 and 3 * _X == _X * 3


# an integer parameter that is no int: a float, a bool or None
INTEGER_PARAMETER_CALLS = {
    "scalar prec 2.5": lambda: PadicScalar(3, 0, 1, 2.5),
    "basis index 1.5": lambda: MahlerFn.basis(3, 1.5, 4),
    "measure prec True": lambda: IwasawaElt(3, True, 2, [1]),
    "canonical measure at p = 2.5": lambda: canonical_measure(2.5, 1, 1, 4, 2),
    "t_tilde_approx at n = None": lambda: t_tilde_approx(3, None, 1, 1, 4, 2),
    "dirac degree 4.0": lambda: dirac(3, 4.0, 4, p=3),
    "pi_element depth 1.5": lambda: pi_element(2, 1.5, 4, 3),
    "artin_hasse_log_mod prec 2.5": lambda: artin_hasse_log_mod(3, 4, 2.5),
    "artin_hasse_exp degree 2.5": lambda: artin_hasse_exp(3, 2.5),
    # True == 1 hashes alike: the cache must not hand it degree 1's series
    "artin_hasse_exp degree True": lambda: (artin_hasse_exp(3, 1), artin_hasse_exp(3, True)),
    "dirac_q at p = 2.0": lambda: dirac_q(2.0, 1, 1, 4, 2),
    "scalar shift 0.5": lambda: PadicScalar(3, 0.5, 1, 2),
    "measure shift 0.5": lambda: AinfElt(3, 4, 0, None, {0: 1}, shift=0.5),
    "monomial T^1.5": lambda: IwasawaElt.monomial(3, 1.5, 4, 3),
    "ball radius h = 1.5": lambda: IwasawaElt.one(3, 4, 3).ball_measure(0, 1.5),
}


@pytest.mark.parametrize("name", INTEGER_PARAMETER_CALLS)
def test_integer_parameters_are_ints(name):
    """A prime, precision, degree, depth, stage or index that is no int is
    refused by padic._modulus or the type test beside each count's bound,
    never built into a corrupt value or left to a TypeError."""
    with pytest.raises(PreconditionError):
        INTEGER_PARAMETER_CALLS[name]()


_F = MahlerFn.basis(3, 2, 4)
_P = PerfSeries(3, 0, None, {1: 1})
_X6 = PadicScalar.from_int(3, 5, 6)

# a count that is no int, or a degree bound that is no int or Fraction: each
# call once returned a value or ended outside the documented classes
COUNT_AND_DEGREE_CALLS = {
    "finite_difference(2.5)": lambda: _F.finite_difference(2.5),
    "finite_difference(True)": lambda: _F.finite_difference(True),
    "witt_decompose to 2.5 digits": lambda: witt_decompose(_A, 2.5),
    "mu ** 2.5": lambda: _MU ** 2.5,
    "a ** 2.5": lambda: _A ** 2.5,
    "with_depth(2.5)": lambda: _A.with_depth(2.5),
    "ball_measure at a = 0.5": lambda: _MU.ball_measure(0.5, 1),
    "frobenius(2.5)": lambda: _P.frobenius(2.5),
    "residue(2.5)": lambda: _X6.residue(2.5),
    "from_fraction at prec 2.5": lambda: PadicScalar.from_fraction(3, Fraction(1, 2), 2.5),
    "Mahler period 2.5": lambda: MahlerFn(3, 4, {0: 1}, 3, period=2.5),
    "Mahler period 6 at p = 3": lambda: MahlerFn(3, 4, {0: 1, 5: 1}, 6, period=6),
    "Mahler period 3 at p = 2": lambda: MahlerFn(2, 9, {}, 3, period=3),
    "gen_binomial to 2.5 digits": lambda: gen_binomial(_X6, 1, 2.5),
    "gen_binomial_approximants at level 2.5": lambda: gen_binomial_approximants(_X6, 1, [2.5]),
    "artin_hasse_log degree 2.5": lambda: artin_hasse_log(3, 2.5),
    "AinfElt degree 2.5": lambda: AinfElt(3, 4, 0, 2.5, {1: 1}),
    "AinfElt degree 0.1": lambda: AinfElt(3, 4, 0, 0.1, {0: 1}),
    "forward_transform_diracs prec 2.5": lambda: forward_transform_diracs(3, [(1, 2)], [1], 2.5),
    "Mahler samples prec 1.5": lambda: mahler_coeffs_from_samples(3, [1, 2, 3], prec=1.5),
    "UnifFn depth 2.5": lambda: UnifFn(3, 4, 2.5, {0: 1}, exact_tail=True),
    "dirac_q degree 'x'": lambda: dirac_q(3, 1, 1, 4, "x"),
    "dirac_q degree 0.5": lambda: dirac_q(3, 1, 1, 4, 0.5),
    "canonical_measure degree 0.5": lambda: canonical_measure(3, 1, 1, 4, 0.5),
    "pi_element degree 2.5": lambda: pi_element(3, 1, 4, 2.5),
    "SExponent numerator 1.5": lambda: SExponent(3, 1.5, 0),
}


@pytest.mark.parametrize("name", COUNT_AND_DEGREE_CALLS)
def test_counts_and_degrees_are_read_by_one_rule(name):
    """Every count passes ``padic._count`` and every Q_p degree bound
    ``padic._degree``; a period is a power of p, or a digit of x mod the
    period would be reported that x does not certify."""
    with pytest.raises(PreconditionError):
        COUNT_AND_DEGREE_CALLS[name]()


# the value a public function reads first, of another kind or prime
FIRST_OPERAND_CALLS = {
    "tensor of an int": (PreconditionError, lambda: BivariateSeries.tensor(5, _MU)),
    "eval_unif of an int": (PreconditionError, lambda: eval_unif(5, _X)),
    "pullback_rescale of an int": (PreconditionError, lambda: pullback_rescale(5)),
    "forward_transform of an int": (PreconditionError, lambda: forward_transform(5)),
    "forward_transform of a Z_p measure": (PreconditionError, lambda: forward_transform(_MU)),
    "rescale_pushforward of an int": (PreconditionError, lambda: rescale_pushforward(5)),
    "rescale_pushforward of a Z_p measure": (PreconditionError, lambda: rescale_pushforward(_MU)),
    "teichmuller of an int": (PreconditionError, lambda: teichmuller(5, 3)),
    "teichmuller of a measure": (PreconditionError, lambda: teichmuller(_A, 3)),
    "witt_decompose of an int": (PreconditionError, lambda: witt_decompose(5, 2)),
    "witt_decompose of a Z_p measure": (PreconditionError, lambda: witt_decompose(_MU, 2)),
    "witt_recompose of an int": (PreconditionError, lambda: witt_recompose(5)),
    "E applied to an int": (PreconditionError, lambda: apply_series(_E, 5)),
    "E applied to a Z_p measure": (PreconditionError, lambda: apply_series(_E, _MU)),
    "an int applied to a measure": (PreconditionError, lambda: apply_series(5, _A)),
    "E at p=2 applied at p=3": (PrimeMismatch, lambda: apply_series(artin_hasse_exp(2, 21), _A)),
    "binomial of an int": (PreconditionError, lambda: binomial(5, 2)),
    "gen_binomial of an int": (PreconditionError, lambda: gen_binomial(5, 1, 4)),
    "gen_binomial_profile of an int": (PreconditionError, lambda: gen_binomial_profile(5, 1, 1, 4)),
    "gen_binomial_approximants of an int": (PreconditionError, lambda: gen_binomial_approximants(5, 1, [1])),
    "gen_binomial_valuation_floor of an int": (PreconditionError, lambda: gen_binomial_valuation_floor(5, 1)),
    "gen_binomial_valuation_bound of an int": (PreconditionError, lambda: gen_binomial_valuation_bound(5, 1)),
    "Mahler samples at another prime": (PrimeMismatch, lambda: mahler_coeffs_from_samples(
        3, [PadicScalar.from_int(5, v, 4) for v in (1, 2, 3)])),
    "a float Mahler sample": (PreconditionError, lambda: mahler_coeffs_from_samples(3, [1, 2.5, 3])),
}


@pytest.mark.parametrize("name", FIRST_OPERAND_CALLS)
def test_first_operands_of_another_kind_or_prime_are_refused(name):
    """Each public function checks the value it reads first through
    ``padic._same``, before any field of it is read."""
    error, call = FIRST_OPERAND_CALLS[name]
    with pytest.raises(error):
        call()


# a point that is not an int, a Fraction or a PadicScalar at p
POINT_CALLS = {
    "dirac_q at a float": lambda: dirac_q(2, 0.5, 1, 4, 2),
    "forward_transform_diracs at a float": lambda: forward_transform_diracs(
        2, [(1, 0.1)], [SExponent(2, 1, 0)], 4),
    "dirac at a float": lambda: dirac(2.0, 4, 4, p=3),
    "dirac at a bool": lambda: dirac(True, 4, 4, p=3),
    "dirac_q at a string": lambda: dirac_q(3, "1/3", 1, 4, 2),
}


@pytest.mark.parametrize("name", POINT_CALLS)
def test_points_are_ints_fractions_or_scalars(name):
    """Every reader of a point takes it by ``padic._point``'s one rule; a
    float once read as the mass at 1/2 or ran out of precision."""
    with pytest.raises(PreconditionError, match="a point is an int, a Fraction or a PadicScalar"):
        POINT_CALLS[name]()


def test_points_read_alike_as_int_fraction_or_scalar():
    assert dirac(Fraction(5), 8, 4, p=3) == dirac(5, 8, 4, p=3)
    assert dirac(Fraction(5), 8, 4, p=3).exact_tail
    assert dirac_q(2, Fraction(1), 1, 4, 2) == dirac_q(2, 1, 1, 4, 2)
    q = [SExponent(2, 1, 1)]
    half = PadicScalar.from_fraction(2, Fraction(1, 2), 30)
    assert (forward_transform_diracs(2, [(1, Fraction(1, 2))], q, 4)
            == forward_transform_diracs(2, [(1, half)], q, 4))
    f = MahlerFn.basis(3, 2, 4)
    assert f.eval(Fraction(7)) == f.eval(7)
    assert f.eval(Fraction(1, 2)) == f.eval(PadicScalar.from_fraction(3, Fraction(1, 2), 8))


def test_perf_series_stays_a_measure_to_read():
    # a PerfSeries is an AinfElt wherever a measure is read first
    x = PerfSeries.monomial(3, Fraction(1, 3), degree=2)
    assert forward_transform(x) == {SExponent(3, 1, 1): PadicScalar(3, 0, 1, 1)}
    assert rescale_pushforward(x) == PerfSeries.monomial(3, 1, degree=6)
    assert witt_decompose(x, 1) == WittElt(3, [x])


def test_mahler_samples_mix_ints_and_scalars():
    # scalar samples at p count at their least precision, ints exactly
    ints = mahler_coeffs_from_samples(3, [1, 2, 3])
    mixed = mahler_coeffs_from_samples(3, [PadicScalar.from_int(3, 1, 4), 2, 3])
    assert mixed.prec == ints.prec == 2 and mixed == ints
    short = mahler_coeffs_from_samples(3, [1, PadicScalar.from_int(3, 2, 1), 3])
    assert short.prec == 1 and short == ints


def test_perf_series_is_a_measure_to_pair_but_not_to_mix():
    # a PerfSeries pairs as the AinfElt it is, but no sum, product or
    # equality mixes the two types, in either order
    assert integrate_unif(UnifFn.basis(3, 1, 4), PerfSeries.monomial(3, 1, 3)) == PadicScalar(3, 0, 1, 1)
    a, b = AinfElt.one(3, 4), PerfSeries.one(3)
    for x, y in ((a, b), (b, a)):
        for op in (operator.add, operator.mul):
            with pytest.raises(PreconditionError):
                op(x, y)
        assert x != y and not x == y


# -- JSON terms on the 1/p^depth grid ----------------------------------------


def qp_doc(term_q, depth=1):
    return {
        "p": 2, "prec": 4, "depth": depth, "degree": {"num": 4, "logden": 0},
        "terms": [{"q": {"num": 1, "logden": 0}, "coeff": 1},
                  {"q": term_q, "coeff": 1}],
    }


def test_ainf_from_json_rejects_off_grid_exponent():
    with pytest.raises(ParseError):
        AinfElt.from_json(qp_doc({"num": 1, "logden": 3}))


def test_uniffn_from_json_rejects_off_grid_exponent():
    doc = qp_doc({"num": 1, "logden": 3})
    doc["exact_tail"] = True
    with pytest.raises(ParseError):
        UnifFn.from_json(doc)


def test_json_exponents_on_the_grid_still_load():
    # 2/4 reduces to 1/2, which is on the depth-1 grid
    x = AinfElt.from_json(qp_doc({"num": 2, "logden": 2}))
    assert x == AinfElt.from_json(qp_doc({"num": 1, "logden": 1}))
    assert ainf_terms(x) == {1: 1, Fraction(1, 2): 1}
    doc = qp_doc({"num": 1, "logden": 1})
    doc["exact_tail"] = True
    assert UnifFn.from_json(doc).coeffs == {2: 1, 1: 1}


def run_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "padic_fourier.cli", *args],
        capture_output=True, text=True, timeout=120,
    )


def test_cli_off_grid_document_exits_2(tmp_path):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(qp_doc({"num": 1, "logden": 3})))
    out = run_cli(["convolve", "--p", "2", "--mu1", "Tt", "--mu2", f"@{path}",
                   "--degree", "4", "--format", "pretty"])
    assert out.returncode == 2
    assert out.stdout == ""
    assert "Traceback" not in out.stderr


def test_perfseries_monomial_off_grid_exponent():
    with pytest.raises(PreconditionError):
        PerfSeries.monomial(2, Fraction(1, 3))
    out = run_cli(["teich", "--p", "2", "--x", "t^1/3"])
    assert out.returncode == 3
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("degree, expect", [
    ({"num": 9, "logden": 1}, Fraction(9, 2)), (4, Fraction(4)), (None, None),
])
def test_ainf_from_json_degree_forms(degree, expect):
    doc = qp_doc({"num": 1, "logden": 1})
    doc["degree"] = degree
    assert AinfElt.from_json(doc).degree == expect


@pytest.mark.parametrize("degree", ["4", 2.5, True, [4], {"num": 4}])
def test_ainf_from_json_rejects_bad_degree(degree):
    doc = qp_doc({"num": 1, "logden": 1})
    doc["degree"] = degree
    with pytest.raises(ParseError):
        AinfElt.from_json(doc)


MISSING = object()

# a well-formed document for each JSON loader, corrupted one key per row below
BASE_DOCS = {
    IwasawaElt: {"p": 2, "prec": 4, "degree": 4, "coeffs": [1, 2, 3]},
    AinfElt: qp_doc({"num": 1, "logden": 1}),
    UnifFn: {**qp_doc({"num": 1, "logden": 1}),
             "decay_cert": [{"q_ge": {"num": 2, "logden": 0}, "val_floor": 3}]},
    PadicScalar: {"p": 2, "shift": 1, "unit": 3, "prec": 4},
    SExponent: {"num": 3, "logden": 1},
}


@pytest.mark.parametrize("cls, key, value", [
    (IwasawaElt, "prec", MISSING),
    (IwasawaElt, "coeffs", MISSING),
    (IwasawaElt, "prec", 4.5),
    (IwasawaElt, "prec", 0),
    (IwasawaElt, "p", True),
    (IwasawaElt, "degree", "4"),
    (IwasawaElt, "coeffs", ["a", 1]),
    (IwasawaElt, "coeffs", [1, True]),
    (IwasawaElt, "coeffs", 5),
    (AinfElt, "prec", MISSING),
    (AinfElt, "degree", MISSING),
    (AinfElt, "prec", 4.5),
    (AinfElt, "prec", -1),
    (AinfElt, "depth", 1.0),
    (AinfElt, "shift", "1"),
    (AinfElt, "terms", 5),
    (AinfElt, "terms", [{"q": {"num": 1, "logden": 0}}]),
    (AinfElt, "terms", [{"q": 1, "coeff": 1}]),
    (AinfElt, "terms", [{"q": {"num": 0.5}, "coeff": 1}]),
    (AinfElt, "terms", [{"q": {"num": 1, "logden": 0}, "coeff": "1"}]),
    (AinfElt, "terms", [7]),
    (IwasawaElt, "exact_tail", "false"),
    (IwasawaElt, "exact_tail", 1),
    (UnifFn, "prec", MISSING),
    (UnifFn, "terms", MISSING),
    (UnifFn, "prec", 0),
    (UnifFn, "depth", 0.5),
    (UnifFn, "exact_tail", "false"),
    (UnifFn, "exact_tail", None),
    (UnifFn, "decay_cert", 5),
    (UnifFn, "decay_cert", [7]),
    (UnifFn, "decay_cert", [{"q_ge": {"num": 2}, "val_floor": 3}]),
    (UnifFn, "decay_cert", [{"q_ge": {"num": 2, "logden": 0}, "val_floor": "3"}]),
    (PadicScalar, "unit", MISSING),
    (PadicScalar, "unit", "x"),
    (PadicScalar, "shift", 0.5),
    (PadicScalar, "prec", True),
    (PadicScalar, "p", None),
    (SExponent, "num", MISSING),
    (SExponent, "logden", 1.5),
    (SExponent, "num", "3"),
])
def test_from_json_rejects_malformed_documents(cls, key, value):
    load = functools.partial(SExponent.from_json, 2) if cls is SExponent else cls.from_json
    load(copy.deepcopy(BASE_DOCS[cls]))  # the uncorrupted document loads
    doc = copy.deepcopy(BASE_DOCS[cls])
    if value is MISSING:
        del doc[key]
    else:
        doc[key] = value
    with pytest.raises(ParseError):
        load(doc)


@pytest.mark.parametrize("argv", [
    ["wval", "--p", "2", "--mu", "Tt^3/2"],
    ["integrate", "--p", "2", "--f", "binom:3/2@depth1", "--mu", "Tt^3/2", "--prec", "8"],
    ["convolve", "--p", "2", "--mu1", "Tt^3/2", "--mu2", "Tt^1/2", "--degree", "4"],
])
def test_cli_qp_file_matches_inline_measure(tmp_path, capsys, argv):
    from padic_fourier import cli

    def run(args):
        assert cli.main(args) == 0
        return capsys.readouterr().out

    inline = run(argv)
    files = list(argv)
    for i, arg in enumerate(argv):
        if arg.startswith("Tt^"):
            q = Fraction(arg[3:])
            path = tmp_path / f"mu{i}.json"
            path.write_text(json.dumps({
                "p": 2, "prec": 8, "depth": 1, "degree": 4 if "--degree" in argv else 16,
                "terms": [{"q": {"num": int(q * 2), "logden": 1}, "coeff": 1}],
            }))
            files[i] = f"@{path}"
    assert run(files) == inline


# -- exact tails -------------------------------------------------------------
#
# Each input is drawn uncut: a Z_p series is a coefficient list that may run
# past its degree, and stands for exactly that list when it claims an exact
# tail, else for the list with one more nonzero term past its box.  A result
# may claim an exact tail only if the schoolbook result on the uncut inputs
# has no term at or past its box that is nonzero mod p^prec.


@st.composite
def zp_docs(draw, p):
    """The JSON document of an IwasawaElt whose coefficients may run past
    its degree; the coefficients cut are often zero mod p^prec."""
    degree, prec = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    mod = p**prec
    zero = st.integers(-2, 2).map(lambda k: k * mod)
    coeffs = draw(st.lists(st.one_of(st.integers(-mod, mod), zero), min_size=degree, max_size=degree))
    coeffs += draw(st.lists(draw(st.sampled_from([zero, st.integers(-mod, mod)])), max_size=4))
    exact = draw(st.booleans())
    return {"p": p, "prec": prec, "degree": degree, "coeffs": coeffs, "exact_tail": exact}


def uncut(doc):
    """The series a document stands for: its coefficients if its tail is
    exact, else with one more nonzero term past them and past its box."""
    cs, degree = doc["coeffs"], doc["degree"]
    return cs if doc["exact_tail"] else cs + [0] * (degree - len(cs)) + [1]


def zp_elt(doc):
    return IwasawaElt(doc["p"], doc["prec"], doc["degree"], doc["coeffs"], doc["exact_tail"])


@st.composite
def exact_tail_cases(draw):
    """(kind, doc, other, k, box): two Z_p documents of one prime, an
    integer and an optional degree for the operation ``kind``."""
    p = draw(PRIMES)
    doc, other = draw(zp_docs(p)), draw(zp_docs(p))
    mod = p ** doc["prec"]
    k = draw(st.one_of(st.integers(-mod, mod), st.sampled_from([0, mod, -2 * mod])))
    box = draw(st.one_of(st.none(), st.integers(1, doc["degree"] + 4)))
    kind = draw(st.sampled_from([
        "new", "resize", "from_json", "add", "mul", "int_mul", "neg", "coproduct",
        "mahler", "mahler_difference", "unif", "unif_json", "unif_pullback", "unif_basis",
    ]))
    return kind, doc, other, k, box


def list_mul(a, b):
    out = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def coproduct_oracle(cs):
    """Σ c_n (T1 + T2 + T1·T2)^n as a map (i, j) -> coefficient."""
    x = {(1, 0): 1, (0, 1): 1, (1, 1): 1}
    out, power = {}, {(0, 0): 1}
    for c in cs:
        for q, v in power.items():
            out[q] = out.get(q, 0) + c * v
        power = schoolbook(power, x, lambda q: True, pair_add)
    return out


def mahler_difference_oracle(cs, k):
    """Mahler coefficients of Δ^k f, f = Σ cs[n] (x choose n), read from the
    values of f: the m-th is (Δ^(m+k) f)(0)."""
    n = len(cs) + k + 1
    vals = [sum(c * math.comb(x, i) for i, c in enumerate(cs)) for x in range(n)]
    at_zero = []
    for _ in range(n):
        at_zero.append(vals[0])
        vals = [b - a for a, b in zip(vals, vals[1:])]
    return at_zero[k:]


def assert_zp_tail(mu, truth):
    mod = mu.p**mu.prec
    truth = list(truth) + [0] * mu.degree
    assert all((c - t) % mod == 0 for c, t in zip(mu.coeffs, truth))
    if mu.exact_tail:
        assert not any(t % mod for t in truth[mu.degree:])


def assert_mahler_tail(f, truth):
    mod = f.p**f.prec
    truth = list(truth) + [0] * f.tail_cert
    assert all((f.coeffs.get(n, 0) - t) % mod == 0 for n, t in enumerate(truth[:f.tail_cert]))
    if f.exact_tail:
        assert not any(t % mod for t in truth[f.tail_cert:])


def assert_unif_terms(f, truth):
    got = {q.as_fraction(): c for q, c in f.items_sexp()}
    assert all((got.get(q, 0) - truth.get(q, 0)) % f.p**f.prec == 0 for q in got.keys() | truth)


def zp_doc(p, prec, degree, coeffs, exact):
    return {"p": p, "prec": prec, "degree": degree, "coeffs": coeffs, "exact_tail": exact}


@settings(max_examples=600, deadline=None)
@given(exact_tail_cases())
# T·(1 + T) in degree 2 cuts T^2; T^3 is cut from the sum in degree 2
@example(("mul", zp_doc(2, 3, 2, [0, 1], True), zp_doc(2, 3, 2, [1, 1], True), 1, None))
@example(("add", zp_doc(3, 2, 4, [0, 0, 0, 1], True), zp_doc(3, 2, 2, [1], True), 1, None))
# a cut coefficient 10 ≢ 0 mod 7^4, and one that is 0 mod 7^4
@example(("from_json", zp_doc(7, 4, 3, [1, 5, 10, 10, 5, 1], True), zp_doc(7, 4, 1, [], True), 1, None))
@example(("resize", zp_doc(7, 4, 3, [1, 5, 10, 0, 7**4], True), zp_doc(7, 4, 1, [], True), 1, 6))
# a coproduct box grows only through an exact tail
@example(("coproduct", zp_doc(2, 3, 2, [0, 1], False), zp_doc(2, 3, 1, [], True), 1, 4))
@example(("coproduct", zp_doc(2, 3, 2, [1, 1, 8, 0], True), zp_doc(2, 3, 1, [], True), 1, 5))
@example(("mahler_difference", zp_doc(3, 2, 3, [1, 2, 3], True), zp_doc(3, 2, 1, [], True), 4, 2))
def test_exact_tails_hold_on_the_uncut_inputs(case):
    kind, doc, other, k, box = case
    p, prec, degree, cs = doc["p"], doc["prec"], doc["degree"], doc["coeffs"]
    mu, truth, mod = zp_elt(doc), uncut(doc), p**prec
    if kind == "new":
        assert_zp_tail(mu, truth)
    elif kind == "resize":
        prec = 1 + abs(k) % prec
        if box is not None and box > degree and not mu.exact_tail:
            with pytest.raises(PrecisionExhausted):
                mu.resize(prec, box)
        else:
            assert_zp_tail(mu.resize(prec, box), truth)
    elif kind == "from_json":
        if doc["exact_tail"] and any(c % mod for c in cs[degree:]):
            with pytest.raises(ParseError):
                IwasawaElt.from_json(doc)
        else:
            assert_zp_tail(IwasawaElt.from_json(doc), truth)
    elif kind == "add":
        a, b = truth, uncut(other)
        n = max(len(a), len(b))
        sums = [x + y for x, y in zip(a + [0] * n, b + [0] * n)]
        assert_zp_tail(mu + zp_elt(other), sums)
    elif kind == "mul":
        assert_zp_tail(mu * zp_elt(other), list_mul(truth, uncut(other)))
    elif kind == "int_mul":
        assert_zp_tail(mu * k, [c * k for c in truth])
        assert_zp_tail(k * mu, [c * k for c in truth])
    elif kind == "neg":
        assert_zp_tail(-mu, [-c for c in truth])
    elif kind == "coproduct":
        if box is not None and box > degree and not mu.exact_tail:
            with pytest.raises(PrecisionExhausted):
                mu.coproduct(box)
            return
        delta, want = mu.coproduct(box), coproduct_oracle(truth)
        assert delta.degree == (degree if box is None else box)
        assert delta.coeffs == residues(
            {q: c for q, c in want.items() if sum(q) < delta.degree}, mod
        )
    elif kind in ("mahler", "mahler_difference"):
        exact = doc["exact_tail"]
        if box is not None and any(c % mod for c in cs[box:]):
            with pytest.raises(PreconditionError):
                MahlerFn.from_coeffs(p, cs, prec, exact_tail=exact, tail_cert=box)
            return
        f = MahlerFn.from_coeffs(p, cs, prec, exact_tail=exact, tail_cert=box)
        if kind == "mahler":
            assert_mahler_tail(f, cs)
        else:
            k = abs(k) % (len(cs) + 3)
            assert_mahler_tail(f.finite_difference(k), mahler_difference_oracle(cs, k))
    else:
        depth, terms = abs(k) % 3, dict(enumerate(cs))
        exact = doc["exact_tail"] or kind == "unif_basis"
        cert = None if exact else [(Fraction(0), 1)]
        f = UnifFn(p, prec, depth, terms, decay_cert=cert, exact_tail=exact)
        want = {Fraction(key, p**depth): c for key, c in terms.items()}
        if kind == "unif_json":
            f = UnifFn.from_json(json.loads(json.dumps(f.to_json())))
        elif kind == "unif_pullback":
            f, want = pullback_rescale(f), {q / p: c for q, c in want.items()}
        elif kind == "unif_basis":
            q = Fraction(len(terms), p**depth)
            f, want = UnifFn.basis(p, q, prec), {q: 1}
        assert f.exact_tail == exact
        assert_unif_terms(f, want)


# -- one valuation rule and one printer -------------------------------------
# Each series type's valuation loop and term printer, and pi_element's key
# loop, written out per type: oracles for the one rule in _series that the
# Z_p, Q_p and F_p views share.


def iwasawa_w_oracle(mu):
    best = None
    for n, c in enumerate(mu.coeffs):
        if c:
            v = vp_int(c, mu.p) + n
            if best is None or v < best:
                best = v
    zero_floors = [mu.prec + n for n, c in enumerate(mu.coeffs) if c == 0]
    floor = min(zero_floors) if zero_floors else math.inf
    if not mu.exact_tail:
        floor = min(floor, mu.degree)
    if best is not None and best <= floor:
        return best
    bound = floor if best is None else min(floor, best)
    if bound is math.inf:
        return best if best is not None else LowerBound(mu.prec)
    return LowerBound(int(bound))


def ainf_w_oracle(x):
    grid = Fraction(1, x.p**x.depth)
    best = None
    for k, c in x.coeffs.items():
        v = x.shift + vp_int(c, x.p) + k * grid
        if best is None or v < best:
            best = v
    floor = Fraction(x.shift + x.prec)
    if x.degree is not None:
        floor = min(floor, x.shift + x.degree)
    if best is not None and best <= floor:
        return best
    return LowerBound(floor if best is None else min(floor, best))


def iwasawa_str_oracle(mu):
    parts = []
    for n, c in enumerate(mu.coeffs):
        if c == 0:
            continue
        if n == 0:
            parts.append(str(c))
        elif n == 1:
            parts.append(f"{c}·T" if c != 1 else "T")
        else:
            parts.append(f"{c}·T^{n}" if c != 1 else f"T^{n}")
    body = " + ".join(parts) if parts else "0"
    return f"{body} + O({mu.p}^{mu.prec}, T^{mu.degree})"


def ainf_str_oracle(x):
    parts = []
    for n, e, c in _series.exponents(x.p, x.depth, x.coeffs):
        c_str = f"{x.p}^{x.shift}·{c}" if x.shift else str(c)
        mono = f"Tt^{n}/{x.p**e}" if e else "Tt" if n == 1 else f"Tt^{n}"
        term = mono if c == 1 and not x.shift else f"{c_str}·{mono}"
        parts.append(c_str if n == 0 else term)
    body = " + ".join(parts) if parts else "0"
    dstr = "inf" if x.degree is None else str(x.degree)
    return f"{body} + O({x.p}^{x.shift + x.prec}, q>={dstr})"


def perf_str_oracle(x):
    parts = []
    for n, e, c in _series.exponents(x.p, x.depth, x.coeffs):
        mono = f"t^{n}/{x.p**e}" if e else "t" if n == 1 else f"t^{n}"
        parts.append(str(c) if n == 0 else mono if c == 1 else f"{c}·{mono}")
    body = " + ".join(parts) if parts else "0"
    dstr = "inf" if x.degree is None else str(x.degree)
    return f"{body}  (mod {x.p}, q>={dstr})"


def pi_element_oracle(p, depth, prec, degree):
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
    mod, scale, cs = p**prec_eff, p**depth, {}
    for i in range(i_max, -depth - 1, -1):
        c = p ** (i_max - i)
        if c % mod == 0:
            continue
        key = p**i * scale if i >= 0 else p ** (depth + i)
        if Fraction(key, scale) >= deg_eff:
            continue
        cs[key] = c % mod
    out = AinfElt(p, prec_eff, depth, deg_eff, cs, shift=-i_max)
    w = ainf_w_oracle(out)
    if (w.bound if isinstance(w, LowerBound) else w) < 0:
        raise BoxExhausted("box cannot certify w >= 0 of the pi series")
    return out


@st.composite
def sparse_iwasawa_elts(draw, p):
    """Z_p series with runs of zero residues, both tails, and coefficients
    that vanish mod p^prec."""
    prec = draw(st.integers(1, 4))
    coeff = st.one_of(st.just(0), st.builds(
        lambda u, j: u * p**j, st.integers(1, p**prec), st.integers(0, prec)))
    coeffs = draw(st.lists(coeff, max_size=draw(st.integers(1, 10)) + 2))
    degree = draw(st.integers(1, 10))
    return IwasawaElt(p, prec, degree, coeffs, exact_tail=draw(st.booleans()))


@settings(max_examples=300, deadline=None)
@given(PRIMES.flatmap(lambda p: st.tuples(
    sparse_iwasawa_elts(p), iwasawa_elts(p), ainf_elts(p), perf_elts(p))))
@example((IwasawaElt(2, 3, 4, [0, 0, 0, 0], exact_tail=True), IwasawaElt(2, 3, 2, [8, 4]),
          AinfElt(2, 3, 2, None, {3: 4, 8: 1}, shift=-1), PerfSeries(2, 1, None, {0: 1, 1: 1})))
def test_series_views_match_their_own_loops(case):
    zp, dense_zp, qp, fp = case
    for mu in (zp, dense_zp):
        w = mu.w_valuation()
        assert w == iwasawa_w_oracle(mu)
        assert type(w.bound if isinstance(w, LowerBound) else w) is int
        assert str(mu) == iwasawa_str_oracle(mu)
    for x in (qp, fp):
        assert x.w_valuation() == ainf_w_oracle(x)
    assert str(qp) == ainf_str_oracle(qp)
    assert str(fp) == perf_str_oracle(fp)


@settings(max_examples=200, deadline=None)
@given(PRIMES, st.integers(0, 3), st.integers(0, 6),
       st.builds(Fraction, st.integers(1, 300), st.sampled_from([1, 2, 3, 7])))
@example(2, 1, 4, Fraction(2))
@example(3, 0, 0, Fraction(5))
@example(2, 0, 1, Fraction(5))  # 1 <= prec < i_max: the box floor is below 0
@example(3, 1, 1, Fraction(10))
@example(2, 2, 2, Fraction(9))
def test_pi_element_matches_its_key_loop(p, depth, prec, degree):
    try:
        want = pi_element_oracle(p, depth, prec, degree)
    except (PreconditionError, BoxExhausted) as e:
        with pytest.raises(type(e)):
            pi_element(p, depth, prec, degree)
        return
    got = pi_element(p, depth, prec, degree)
    assert (got.depth, got.degree, got.prec, got.shift, got.coeffs) == (
        want.depth, want.degree, want.prec, want.shift, want.coeffs)
    assert str(got) == str(want)


def test_pi_element_p2_degree_two_holds_no_unit_term():
    # 1 < degree <= 2 at p = 2: the reported degree is 1, so Tt^1 (i = 0)
    # lies outside the box and only the i = -1 term is stored
    pi = pi_element(2, 1, 4, 2)
    assert str(pi) == "2·Tt^1/2 + O(2^2, q>=1)"
    assert pi.degree == 1 and pi.items_sexp()[-1][0].as_fraction() < 1
