"""Command-line front end.

Inline micro-grammar (anything richer goes through JSON files via --in):

  measures on Z_p     T | T^3 | dirac:5 | 1
  measures on Q_p     Tt | Tt^3/2 | diracq:3/4@depth2 | mucan handled by its command
  functions on Z_p    binom:2 | const:7
  functions on Q_p    binom:3/2@depth1
  mod-p series        t^1/2 + 2*t^3  (coefficients mod p, exponents num/den)

Exit codes: 0 success, 2 parse error, 3 precondition violation,
4 uncertified tail, 5 internal consistency failure.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

from . import __version__
from ._series import decode_degree
from .ainf import AinfElt, dirac_q
from .artin_hasse import canonical_measure
from .errors import (
    InternalConsistencyError,
    PadicFourierError,
    ParseError,
    PreconditionError,
    PrimeMismatch,
)
from .fourier import (
    UnifFn,
    forward_transform,
    forward_transform_diracs,
    integrate_unif,
    integrate_unif_matrix,
)
from .iwasawa import (
    IwasawaElt,
    MahlerFn,
    ball_ideal_equal_generators,
    ball_ideal_failures,
    ball_ideal_middle_generators,
    dirac,
    integrate,
    integrate_matrix,
    intersection_vs_middle_scan,
    mahler_coeffs_from_samples,
    middle_ideal_valuation,
    ptadic_power_generators,
)
from .padic import (
    LowerBound, PadicScalar, SExponent, _congruent, _count, _degree, _modulus, json_field, json_int, log_floor, vp_int,
)
from .witt import PerfSeries, teichmuller


class JobSpec:
    # a plain class keeps ``inspect`` out of every CLI start-up
    def __init__(self, command, params=None, in_path=None, out_path=None, fmt="json"):
        self.command = command
        self.params = {} if params is None else params
        self.in_path = in_path
        self.out_path = out_path
        self.fmt = fmt

    def validate(self):
        if self.command not in _COMMANDS:
            raise ParseError(f"unknown command {self.command!r}")
        if self.fmt not in ("json", "pretty"):
            raise ParseError(f"unknown format {self.fmt!r}")
        _, flags, required = _COMMANDS[self.command]
        unknown = set(self.params) - {"p", *flags}
        if unknown:
            raise ParseError(
                f"unknown parameter(s) for {self.command}: {sorted(unknown)}"
            )
        for need in required:
            if not any(flag in self.params for flag in need.split("|")):
                raise ParseError(
                    f"{self.command} needs --{need.replace('|', ' or --')}"
                )


def _budget(p, precs, work=0):
    """Refuse a job that does not fit PADIC_FOURIER_MAX_BOX, read here once
    per job, before anything is built.  Each (what, n) in ``precs`` is under
    the precision rule: residues mod p^n take n·bit_length(p) bits, refused
    past the cap, and p^n may not have more decimal digits than CPython's
    integer string limit (when set), past which a residue could not be
    written out.  ``work`` is the job's count of cells, or a function of
    ``cells(k, scale=1)``, int(scale·p^k), which refuses an exponent k that
    alone puts the count past the cap before p^k is computed."""
    raw = os.environ.get("PADIC_FOURIER_MAX_BOX", "1000000")
    try:
        cap = int(raw)
    except ValueError:
        raise ParseError(f"PADIC_FOURIER_MAX_BOX={raw!r} is not an integer")
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    for what, n in precs:
        if n * p.bit_length() > cap:
            raise PreconditionError(f"{what} {n} exceeds PADIC_FOURIER_MAX_BOX={cap} bits")
        # p^n has floor(n·log10(p)) + 1 decimal digits
        if digits and n * math.log10(p) >= digits:
            raise PreconditionError(
                f"{what} {n} gives residues of more than {digits} decimal digits, "
                "the integer string limit"
            )

    def cells(k, scale=1):
        num, den = scale.as_integer_ratio()
        # p^k >= 2^(k (bit_length(p) - 1)) and |scale| >= 1/den
        if num and k * (p.bit_length() - 1) > (cap * den).bit_length():
            raise PreconditionError(f"{p}^{k} cells exceed PADIC_FOURIER_MAX_BOX={cap}")
        return int(num * p**k // den) if num else 0

    count = work(cells) if callable(work) else work
    if count > cap:
        size = count if count.bit_length() <= 64 else f"over 2^{count.bit_length() - 1}"
        raise PreconditionError(f"job of {size} cells exceeds PADIC_FOURIER_MAX_BOX={cap}")


def _prec(pr, default, key="prec"):
    """The precision flag --``key`` of the parameters ``pr``, or ``default``
    when absent; a value below 1 is a precondition error."""
    if key not in pr:
        return default
    n = _int(pr[key], f"--{key}")
    if n < 1:
        raise PreconditionError(f"--{key} {n} < 1")
    return n


def _int(text, what, sep=None):
    """An integer flag value, or with ``sep`` the pair (int, rest) of a term
    ``c<sep>rest`` such as a --combo term; a bad value is a ParseError.  A
    value is a str (argv) or, from an --in document, an int but no bool."""
    if type(text) not in (str, int):
        raise ParseError(f"bad {what} {text!r}")
    try:
        if sep is None:
            return int(text)
        c, rest = str(text).split(sep, 1)
        return int(c), rest
    except (TypeError, ValueError):
        raise ParseError(f"bad {what} {text!r}")


def _depth(text, what):
    """A depth flag value: an int as ``_int`` reads it, at least 0 by the
    count rule ``padic._count``, so a negative depth exits 3 even where no
    term uses it."""
    return _count(_int(text, what), what, 0)


def _exponent_box(pr, qdepth, qmax):
    """(--qdepth, --qmax) of ``pr``, ``qdepth`` and ``qmax`` when absent: the
    exponents k/p^qdepth up to qmax of ``fourier --combo`` and ``orthocheck
    --mode qp``.  A negative value exits 3 before the job is charged."""
    qdepth, qmax = _depth(pr.get("qdepth", qdepth), "--qdepth"), _frac(pr.get("qmax", qmax))
    if qmax < 0:
        raise PreconditionError(f"--qmax {qmax} < 0")
    return qdepth, qmax


def _load_doc(path):
    """The JSON object in the file ``path``: an ``@path`` measure or ``--in``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read {path!r}: {e}")
    if not isinstance(doc, dict):
        raise ParseError(f"{path!r} is not a JSON object")
    return doc


def _frac(text) -> Fraction:
    """A rational flag value ``n`` or ``n/d``, a str or an int as ``_int``
    takes it; anything else is a ParseError."""
    if type(text) not in (str, int):
        raise ParseError(f"bad rational {text!r}")
    try:
        if "/" in str(text):
            num, den = str(text).split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {text!r}: {e}")


def _printed_degree(p, degree):
    """``degree``, once a printed Q_p measure can write it: None or an
    S-exponent at p, as ``SExponent.from_fraction`` checks before any work."""
    if degree is not None:
        SExponent.from_fraction(p, degree)
    return degree


def _measures(pr, exprs, prec, qp=None, degree=16, precs=(), printed=False):
    """The measures of the flag values ``exprs``, charged with ``precs`` as
    one job before any is built: on Q_p if ``qp``, on Z_p if ``qp`` is
    False, else on Q_p when any of them is.  Each ``@file`` is loaded once,
    its kind read from it (a Q_p document lists "terms"), and its prime
    must be --p; its "prec" is under the precision rule.  A Z_p measure
    counts its degree, a Q_p measure degree·p^depth + 1 cells, from its
    declared depth.  If ``printed``, the degree their product prints on
    Q_p, the least bound (None for none), passes ``_printed_degree`` first."""
    p = pr["p"]
    exprs = [str(e).strip() for e in exprs]
    docs = {e: _load_doc(e[1:]) for e in dict.fromkeys(exprs) if e.startswith("@")}
    if qp is None:
        qp = any("terms" in docs[e] if e in docs else
                 e.startswith(("Tt", "diracq:")) or "@depth" in e for e in exprs)
    if qp:
        degree = _degree(_frac(pr.get("degree", degree)))  # before a depth is counted against it
    else:
        degree = _int(pr.get("degree", degree), "--degree")
    depth = _depth(pr["depth"], "--depth") if "depth" in pr else None  # read where unused too

    def read(e):
        """(k, scale, extra, build): ``e`` counts scale·p^k + extra cells."""
        if e in docs:
            doc, q = docs[e], json_int(docs[e], "p")
            if q != p:
                _modulus(q)  # a document at no prime is refused as such
                raise PrimeMismatch(f"{e!r} is a measure at p = {q}, not {p}")
            if not qp:
                return 0, json_int(doc, "degree"), 0, lambda: IwasawaElt.from_json(doc)
            # a negative depth is left for the loader to refuse
            return max(json_int(doc, "depth"), 0), degree, 1, lambda: AinfElt.from_json(doc)
        if not qp:
            if e in ("1", "T") or e.startswith("T^"):  # 1 is T^0
                m = _int(e[2:], "monomial") if e.startswith("T^") else int(e == "T")
                return 0, degree, 0, lambda: IwasawaElt.monomial(p, m, prec, degree)
            if e.startswith("dirac:"):
                a = _int(e[6:], "dirac point")
                return 0, degree, 0, lambda: dirac(a, degree, prec, p=p)
            raise ParseError(f"cannot parse Z_p measure {e!r}")
        if e in ("1", "Tt") or e.startswith("Tt^"):  # 1 is Tt^0
            q = _frac(e[3:]) if e.startswith("Tt^") else Fraction(e == "Tt")
            k = vp_int(q.denominator, p)
            return k, degree, 1, lambda: AinfElt.monomial(p, q, prec, degree)
        if e.startswith("diracq:"):
            body, at, dd = e[len("diracq:"):].partition("@depth")
            m = _depth(dd, "depth") if at else depth
            if m is None:
                raise ParseError("diracq needs @depthM or --depth")
            s = _frac(body)
            return m, degree, 1, lambda: dirac_q(p, s, m, prec, degree)
        raise ParseError(f"cannot parse Q_p measure {e!r}")

    boxes = [read(e) for e in exprs]
    precs = [("--prec", prec), *precs, *(('document "prec"', json_int(doc, "prec"))
                                          for doc in docs.values())]
    _budget(p, precs, lambda cells: sum(cells(k, s) + c for k, s, c, _ in boxes))
    if printed and qp:
        bounds = (decode_degree(p, json_field(docs[e], "degree")) if e in docs else degree for e in exprs)
        _printed_degree(p, min(filter(None, bounds), default=None))
    return [build() for *_, build in boxes]


def _parse_function(p, expr, prec):
    """(qp, build): whether the function ``expr`` is a Q_p function, and a
    function that builds it."""
    expr = expr.strip()
    if expr.startswith("const:"):
        c = _int(expr[6:], "constant")
        return False, lambda: MahlerFn.from_coeffs(p, [c], prec)
    if expr.startswith("binom:"):
        body = expr[len("binom:"):]
        depth = 0
        if "@depth" in body:
            body, dd = body.split("@depth", 1)
            depth = _depth(dd, "depth")
        q = _frac(body)
        if q.denominator == 1 and depth == 0:
            return False, lambda: MahlerFn.basis(p, int(q), prec)
        return True, lambda: UnifFn.basis(p, q, prec)
    raise ParseError(f"cannot parse function {expr!r}")


def _parse_perfseries(p, expr):
    """The mod-p series ``expr`` as (depth, coeffs), summed on its deepest
    grid in one pass."""
    expr = expr.replace(" ", "")
    if expr.startswith("@"):
        raise ParseError("PerfSeries JSON input is not supported inline; use terms")
    terms = []
    for term in expr.split("+"):
        if not term:
            continue
        coeff, body = _int(term, "term", "*") if "*" in term else (1, term)
        if body == "1":
            q = Fraction(0)
        elif body == "t":
            q = Fraction(1)
        elif body.startswith("t^"):
            q = _frac(body[2:])
        else:
            try:
                coeff, q = int(body), Fraction(0)
            except ValueError:
                raise ParseError(f"bad term {term!r}")
        terms.append((SExponent.from_fraction(p, q), coeff))
    depth = max((q.logden for q, _ in terms), default=0)
    cs = {}
    for q, c in terms:
        k = q.num * p ** (depth - q.logden)
        cs[k] = cs.get(k, 0) + c
    return depth, cs


def _scalar_doc(x: PadicScalar):
    return {"value": x.to_json(), "pretty": str(x)}


class _Rows:
    """``n`` JSON records of one ``shape``, sorted (key, sub) pairs with sub None
    at an int leaf, held as their ``leaves`` in key order: ``_json`` infers no shape."""

    def __init__(self, shape, leaves, n):
        self.shape, self.leaves, self.n = shape, leaves, n

    def records(self):
        """The dicts it stands for, as written (for json.dumps and equality)."""
        return json.loads(_json(self, "\n"))

    def __eq__(self, other):
        return self.records() == (other.records() if type(other) is _Rows else other)


# the records of AinfElt.to_json's terms and of a Fourier coefficient
_Q = (("logden", None), ("num", None))
_TERM = (("coeff", None), ("q", _Q))
_COEFFICIENT = (("q", _Q), ("value", tuple((k, None) for k in ("p", "prec", "shift", "unit"))))


def _measure_doc(mu):
    if not isinstance(mu, AinfElt):
        return {"measure": mu.to_json(), "pretty": str(mu)}
    fields, terms, text = mu.printed()
    leaves = [x for n, e, c in terms for x in (c, e, n)]
    return {"measure": {**fields, "terms": _Rows(_TERM, leaves, len(terms))}, "pretty": text}


def _coefficients_doc(out):
    """The Fourier coefficients ``out``, SExponent -> PadicScalar, in order."""
    leaves = [x for q, v in out.items() for x in (q.logden, q.num, v.p, v.prec, v.shift, v.unit)]
    return {"coefficients": _Rows(_COEFFICIENT, leaves, len(out))}


def _wval_doc(w):
    if isinstance(w, LowerBound):
        b = w.bound
        return {"w_ge": {"num": Fraction(b).numerator, "den": Fraction(b).denominator}}
    return {"w": {"num": Fraction(w).numerator, "den": Fraction(w).denominator}}


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_mahler(pr):
    p = pr["p"]
    samples = [_int(s, "sample") for s in str(pr["samples"]).split(",") if s != ""]
    prec = _prec(pr, None)
    # pass n of the packed differences reads the m - n slots left: Σ (m - n)
    m = len(samples)
    _budget(p, [] if prec is None else [("--prec", prec)], m * (m + 1) // 2)
    f = mahler_coeffs_from_samples(p, samples, prec=prec)
    # the transform is a bijection mod p^N (binomial inversion), so its
    # inverse pass giving back the samples checks every coefficient
    return {
        "p": p,
        "prec": f.prec,
        "period": f.period,
        "coeffs": [f.coeffs.get(n, 0) for n in range(m)],
        "matches_difference_oracle": f.values_on_period() == [s % p**f.prec for s in samples],
    }


def _cmd_integrate(pr):
    p, prec = pr["p"], _prec(pr, 12)
    unif, build = _parse_function(p, str(pr["f"]), prec)
    (mu,) = _measures(pr, [pr["mu"]], prec, qp=unif or None)
    f = build()
    if not isinstance(mu, AinfElt):
        return _scalar_doc(integrate(f, mu))
    if isinstance(f, MahlerFn):  # lift a Z_p basis function to the Q_p side
        f = UnifFn(p, prec, 0, dict(f.coeffs), exact_tail=True)
    return _scalar_doc(integrate_unif(f, mu))


def _cmd_convolve(pr):
    m1, m2 = _measures(pr, [pr["mu1"], pr["mu2"]], _prec(pr, 8), printed=True)
    return _measure_doc(m1 * m2)


def _cmd_ball(pr):
    a, h = _int(pr["a"], "--a"), _int(pr["h"], "--h")
    (mu,) = _measures(pr, [pr["mu"]], _prec(pr, 8), qp=False, precs=[("--h", h)])
    return _scalar_doc(mu.ball_measure(a, h))


def _cmd_wval(pr):
    (mu,) = _measures(pr, [pr["mu"]], _prec(pr, 8))
    return _wval_doc(mu.w_valuation())


def _cmd_dirac(pr):
    p, prec = pr["p"], _prec(pr, 8)
    if "s" in pr:
        s, depth = _frac(pr["s"]), _depth(pr.get("depth", 0), "--depth")
        degree = _printed_degree(p, _frac(pr.get("degree", 4)))
        _budget(p, [("--prec", prec)], lambda cells: cells(depth, degree) + 1)
        return _measure_doc(dirac_q(p, s, depth, prec, degree))
    a, degree = _int(pr["a"], "--a"), _int(pr.get("degree", 16), "--degree")
    if "depth" in pr:  # no depth on Z_p, but a given one is read
        _depth(pr["depth"], "--depth")
    _budget(p, [("--prec", prec)], degree)
    return _measure_doc(dirac(a, degree, prec, p=p))


def _cmd_teich(pr):
    p, digits = pr["p"], _prec(pr, 3, "digits")
    depth, cs = _parse_perfseries(p, str(pr["x"]))
    degree = _printed_degree(p, _frac(pr["degree"]) if "degree" in pr else None)
    top = max(cs, default=0)
    # the result's box, of residues mod p^digits: the support, whose top key k
    # grows to k·p^(digits-1) in the power undoing the root steps, its last
    # product the largest; under a degree bound, degree·p^depth keys once per
    # squaring of that power
    _budget(p, [("--digits", digits)], lambda cells: digits * (
        cells(digits - 1, top) + 1 if degree is None
        else cells(depth, degree) * (math.ceil((digits - 1) * math.log2(p)) + 1)))
    return _measure_doc(teichmuller(PerfSeries(p, depth, degree, cs), digits))


def _cmd_mucan(pr):
    p = pr["p"]
    stage = _int(pr.get("stage", 1), "--stage")
    prec = _prec(pr, 4)
    depth = _depth(pr["depth"], "--depth") if "depth" in pr else stage
    degree = _printed_degree(p, _frac(pr.get("degree", 2)))

    def work(cells):
        # k packed products of n by t residues mod p^e (t = n by default) count
        # k·words·(words·t/n)^0.58/100, words = n slots of 2·e·bit_length(p) +
        # bit_length(n) bits as mul_mod sizes them: the box's p^stage-th power;
        # past the stage, (prec + ⌈degree⌉)/w + 1 powers of T_n, w(T_n) >= min(
        # 1/p^stage, degree), each times T_n's p^(depth-stage) + 1 slots; L's Newton
        # solve to as many terms (at most n), a p-th power per level i mod p^(prec+i)
        def products(k, n, e, t=None):  # n in [0, 2^64]: a box of degree <= 0
            n = min(max(n, 0), 1 << 64)  # is empty, and a float holds the size
            bits = (2 * e * p.bit_length() + n.bit_length()) / 64
            return k * Fraction(n * bits * ((n if t is None else t) * bits) ** 0.58)

        n, e, k = -cells(depth, -degree), cells(stage), p - 1  # n = ⌈degree·p^depth⌉
        count, terms = products(e.bit_length() + e.bit_count() - 2, n, prec), n
        if depth > stage >= 0 and degree > 0:
            terms = min(math.ceil((prec + math.ceil(degree)) / min(Fraction(1, e), degree)) + 1, n)
            count += products(terms, n, prec, min(cells(depth - stage) + 1, n))
        g = log_floor(min(terms, 1 << 64) - 1, p)
        per = k.bit_length() + k.bit_count() - 1  # products of a p-th power
        return int(count + sum(products(per, terms, prec + i) for i in range(1, g + 1))) // 100

    _budget(p, [("--prec", prec)], work)
    return _measure_doc(canonical_measure(p, stage, depth, prec, degree))


def _cmd_fourier(pr):
    p = pr["p"]
    prec = _prec(pr, 8)
    if "combo" in pr:
        if "mu" in pr:
            raise ParseError("fourier takes --combo or --mu, not both")
        qdepth, qmax = _exponent_box(pr, 1, 2)
        combo = []
        for part in str(pr["combo"]).split(","):
            c, s = _int(part, "--combo term", "@")
            combo.append((c, _frac(s)))
        if "depth" in pr:  # a measure's flags, unused by the points, are read
            _depth(pr["depth"], "--depth")
        if "degree" in pr:
            _degree(_frac(pr["degree"]))
        bits = prec * p.bit_length()
        # one binomial per exponent and term, its block products costing
        # about bits^2·log(bits): 4-5 times as much per doubling of --prec;
        # a point whose denominator is not a power of p has ends of random
        # digits, (p-1)/2 blocks of each size per level: timed at 4-16 times
        units = sum(p ** vp_int(s.denominator, p) != s.denominator for _, s in combo)
        weight = (len(combo) + 15 * units) * max(1, bits * bits * bits.bit_length() // 640)
        _budget(p, [("--prec", prec)], lambda cells: (cells(qdepth, qmax) + 1) * weight)
        n = int(qmax * p**qdepth) if qmax else 0  # no power past the cap at qmax 0
        qs = [SExponent(p, k, qdepth) for k in range(n + 1)]
        out = forward_transform_diracs(p, combo, qs, prec)
    else:
        (mu,) = _measures(pr, [pr["mu"]], prec, qp=True, degree=4)
        out = forward_transform(mu)
    return _coefficients_doc(out)


def _cmd_orthocheck(pr):
    p = pr["p"]
    mode = str(pr.get("mode", "zp"))
    imax = _count(_int(pr.get("imax", 30), "--imax"), "--imax", 0)
    qdepth, qmax = _exponent_box(pr, 2, 4)  # both modes read both boxes, charge their own
    if mode == "zp":
        prec = _prec(pr, 20)
        _budget(p, [("--prec", prec)], (imax + 1) ** 2)  # one pairing per (i, j)
        ks = range(imax + 1)
        fns = [MahlerFn.basis(p, i, prec) for i in ks]
        mus = [IwasawaElt.monomial(p, j, prec, imax + 2) for j in ks]
        matrix, keys = integrate_matrix, ("i", "j")
    elif mode == "qp":
        prec = _prec(pr, 12)
        _budget(p, [("--prec", prec)], lambda cells: cells(qdepth, qmax) ** 2)
        ks = range(int(qmax * p**qdepth) if qmax else 0)  # as in fourier
        fns = [UnifFn.basis(p, Fraction(k, p**qdepth), prec) for k in ks]
        mus = [AinfElt.monomial(p, Fraction(k, p**qdepth), prec, degree=qmax) for k in ks]
        matrix, keys = integrate_unif_matrix, ("q1", "q2")
    else:
        raise ParseError(f"unknown orthocheck mode {mode!r}")
    # each entry against the Kronecker delta at its own certified precision
    failures = [
        {keys[0]: i, keys[1]: j}
        for i, row in enumerate(matrix(fns, mus))
        for j, (shift, total, bound) in enumerate(row)
        if not _congruent(p, shift, total, 0, i == j, bound)
    ]
    if failures:
        raise InternalConsistencyError(f"orthogonality failed at {failures[:5]}")
    return {"mode": mode, "p": p, "checked": len(ks) ** 2, "failures": 0, "pass": True}


def _cmd_idealcheck(pr):
    p = pr["p"]
    N = _int(pr["N"], "--N")
    if N < 0:
        raise PreconditionError(f"N {N} < 0")
    scan = str(pr.get("scan", "bounded"))
    if scan not in ("off", "bounded", "full"):
        raise ParseError(f"unknown scan {scan!r}; expected off, bounded or full")
    # the cap counts a membership test for each of the 2(p^N + 1) + N + 2
    # generators below at each of N + 2 radii, over the p^(N+1) + 1 degrees
    # of their box; the rows behind those tests, T^m for m <= p^N on the
    # radii h <= N, cost (p^N + 1)·Σ_(h <= N) p^h once, within that count
    _budget(p, [], lambda cells: (2 * (cells(N) + 1) + N + 2) * (N + 2) * (p * cells(N) + 1))
    pN = p**N
    lists = (
        ptadic_power_generators(p, N),
        ball_ideal_equal_generators(p, N),
        ball_ideal_middle_generators(p, N),
    )
    failed = set(ball_ideal_failures(p, N, [g for gens in lists for g in gens]))
    gen_pass, equal_pass, middle_pass = (failed.isdisjoint(gens) for gens in lists)
    doc = {
        "p": p,
        "N": N,
        "power_generators_pass": gen_pass,
        "equal_list_pass": equal_pass,
        "middle_generators_pass": middle_pass,
    }
    if scan != "off":
        if scan == "full":
            sets = None
        else:
            mod = p ** (N + 2)
            sets = []
            for m in range(pN + 1):
                need = middle_ideal_valuation(p, N, m)
                cand = {0, p**need % mod}
                if need > 0:
                    cand.add(p ** (need - 1) % mod)
                    cand.add((p ** (need - 1) * (p - 1)) % mod)
                sets.append(sorted(cand))
        checked, escapees, missed = intersection_vs_middle_scan(p, N, sets)
        doc["scan_checked"] = checked
        doc["scan_escapees"] = escapees
        doc["scan_missed"] = missed
    if failed:
        raise InternalConsistencyError(f"ideal membership failures: {doc}")
    doc["pass"] = True
    return doc


# name -> (handler, flags besides --p, required flags); "a|s" asks for --a or
# --s.  The parser, JobSpec.validate and run all read this one table
_COMMANDS = {
    "mahler": (_cmd_mahler, ("samples", "prec"), ("samples",)),
    "integrate": (_cmd_integrate, ("f", "mu", "prec", "degree", "depth"), ("f", "mu")),
    "convolve": (_cmd_convolve, ("mu1", "mu2", "prec", "degree", "depth"), ("mu1", "mu2")),
    "ball": (_cmd_ball, ("mu", "a", "h", "prec", "degree"), ("mu", "a", "h")),
    "wval": (_cmd_wval, ("mu", "prec", "degree", "depth"), ("mu",)),
    "dirac": (_cmd_dirac, ("a", "s", "prec", "degree", "depth"), ("a|s",)),
    "teich": (_cmd_teich, ("x", "digits", "degree"), ("x",)),
    "mucan": (_cmd_mucan, ("stage", "prec", "depth", "degree"), ()),
    "fourier": (
        _cmd_fourier,
        ("mu", "combo", "qmax", "qdepth", "prec", "degree", "depth"),
        ("combo|mu",),
    ),
    "orthocheck": (_cmd_orthocheck, ("mode", "imax", "qmax", "qdepth", "prec"), ()),
    "idealcheck": (_cmd_idealcheck, ("N", "scan"), ("N",)),
}


def run(job: JobSpec) -> dict:
    """Execute a fully specified job; identical jobs give identical output.
    Keys of the ``--in`` document fill in the parameters the job lacks."""
    params = {**_load_doc(job.in_path), **job.params} if job.in_path else dict(job.params)
    JobSpec(job.command, params, fmt=job.fmt).validate()
    params["p"] = _int(params.get("p"), "--p")
    _modulus(params["p"])
    return _COMMANDS[job.command][0](params)


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(doc, "\n") + "\n"
    if "pretty" in doc:
        return doc["pretty"] + "\n"
    return "".join(f"{k}: {json.dumps(doc[k], sort_keys=True, default=_Rows.records)}\n" for k in sorted(doc))


def _json(x, nl):
    """json.dumps(x, sort_keys=True, indent=2) at the indent ``nl``, a newline
    and the spaces, in one pass: that call skips the C encoder when indenting.
    A list of ints is one join, and ``_Rows`` one template formatted once
    with its leaves; any other list is walked item by item."""
    t = type(x)
    if t is str:
        return _quote(x)
    if t is int:
        return int.__repr__(x)
    inner = nl + "  "
    if t is _Rows:
        row = inner + _template(x.shape, inner)
        return "[" + ",".join([row] * x.n) % tuple(x.leaves) + nl + "]" if x.n else "[]"
    if x and (t is list or t is tuple):
        if all(type(v) is int for v in x):
            return "[" + inner + ("," + inner).join(map(int.__repr__, x)) + nl + "]"
        return "[" + ",".join([inner + _json(v, inner) for v in x]) + nl + "]"
    if x and t is dict and all(type(k) is str for k in x):
        items = [f"{inner}{_quote(k)}: {_json(x[k], inner)}" for k in sorted(x)]
        return "{" + ",".join(items) + nl + "}"
    return json.dumps(x, sort_keys=True, indent=2).replace("\n", nl)


def _template(shape, nl):
    """The %-template of a record of ``shape`` at the indent ``nl``."""
    inner = nl + "  "
    return "{" + ",".join([
        f"{inner}{_quote(k).replace('%', '%%')}: " + ("%s" if sub is None else _template(sub, inner))
        for k, sub in shape
    ]) + nl + "}"


@functools.cache
def _build_parser(command):
    """The parser with the subcommand ``command`` alone, or with all of them
    for None: no command, ``-h``, ``--version`` or an unknown name, whose
    texts list every command.  ``_parsed_job`` passes a table name or None,
    so a process builds at most one parser per command; argparse keeps no
    state between parses.  It reads every argv that ``_plain_job`` declines
    and is the only source of usage, help and error texts.  argparse, and
    the gettext and locale it loads, are imported on the first call, so a
    plain job imports none of them."""
    import argparse

    ap = argparse.ArgumentParser(
        prog="padic-fourier",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--version", action="version", version=__version__)
    # a lone subcommand still shows every name in the usage line
    names = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True, metavar=names)
    for cmd in _COMMANDS if command is None else (command,):
        sp = sub.add_parser(cmd)
        sp.add_argument("--p", required=True)
        for flag in _COMMANDS[cmd][1]:
            sp.add_argument(f"--{flag}")
        sp.add_argument("--format", default="json", choices=["json", "pretty"])
        sp.add_argument("--in", dest="in_path")
        sp.add_argument("--out", dest="out_path")
    return ap


def _plain_job(argv):
    """The JobSpec of ``argv`` of the shape ``COMMAND (--FLAG VALUE)...``,
    read from the command table, or None for any other argv.  Each flag is
    one the command takes, or p, format, in or out, given once and spelled
    out; no value starts with "-"; --p is given and --format, if given, is
    json or pretty.  The parser reads such an argv to the same job."""
    if not argv or argv[0] not in _COMMANDS or len(argv) % 2 == 0:
        return None
    known = {"p", "format", "in", "out", *_COMMANDS[argv[0]][1]}
    opts = {}
    for flag, val in zip(argv[1::2], argv[2::2]):
        name = flag[2:]
        if flag[:2] != "--" or name not in known or name in opts or val[:1] == "-":
            return None
        opts[name] = val
    fmt = opts.pop("format", "json")
    if "p" not in opts or fmt not in ("json", "pretty"):
        return None
    in_path, out_path = opts.pop("in", None), opts.pop("out", None)
    return JobSpec(argv[0], opts, in_path=in_path, out_path=out_path, fmt=fmt)


def _parsed_job(argv):
    """The JobSpec argparse reads from ``argv``; on help, --version or a
    usage error it prints its text and raises SystemExit."""
    # the top-level parser takes no valued options, so the first bare token
    # names the command
    command = next((a for a in argv if not a.startswith("-")), None)
    ns = _build_parser(command if command in _COMMANDS else None).parse_args(argv)
    params = {
        key: val for key, val in vars(ns).items()
        if key not in ("command", "format", "in_path", "out_path") and val is not None
    }
    return JobSpec(ns.command, params, in_path=ns.in_path, out_path=ns.out_path, fmt=ns.format)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a plain argv is read from the command table; help, --version,
    # abbreviations, "=" forms, values starting with "-", repeats and every
    # usage error go to argparse, which reads a plain argv the same way
    job = _plain_job(argv) or _parsed_job(argv)
    try:
        doc = run(job)
    except PadicFourierError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    text = _render(doc, job.fmt)
    try:
        if job.out_path:
            Path(job.out_path).write_text(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as e:
        if not job.out_path:  # a closed pipe: the exit flush writes to devnull
            with open(os.devnull, "w") as null:
                os.dup2(null.fileno(), sys.stdout.fileno())
        sys.stderr.write(f"error: cannot write {repr(job.out_path) if job.out_path else 'stdout'}: {e}\n")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
