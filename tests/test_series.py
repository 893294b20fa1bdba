"""The series types against a plain pairwise product, and the JSON term grid.

The oracle below knows nothing of grids, shifts, dense tuples or packed
keys: a series is a map from exponent (a Fraction, an int or an (i, j)
pair) to coefficient, and the product visits every pair of terms.
"""

import json
import operator
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from padic_fourier import _series
from padic_fourier.ainf import AinfElt
from padic_fourier.errors import ParseError, PreconditionError
from padic_fourier.fourier import UnifFn
from padic_fourier.iwasawa import BivariateSeries, IwasawaElt
from padic_fourier.witt import PerfSeries

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


@settings(max_examples=300, deadline=None)
@given(kernel_cases())
@example((SQ_SMALL, SQ_SMALL, None))
@example((SQ_WIDE, SQ_WIDE, None))
@example((SQ_WIDE, dict(SQ_WIDE), 13))
@example(({k: 1 for k in range(40)}, {0: Fraction(1, 3), 9: -2}, 30))  # dense
@example(({0: 1, 10**6: 1}, {0: 1, 3: 1}, None))  # sparse: the pair loop
@example(({}, {0: 1}, None))
def test_kernel_product_matches_schoolbook(case):
    a, b, bound = case
    expect = schoolbook(a, b, lambda k: bound is None or k < bound)
    assert nonzero(_series.mul(a, b, bound)) == nonzero(expect)


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
