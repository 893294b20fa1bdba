"""The Fourier pair on Q_p.

The basis functions (x choose q) for q in S are orthogonal to the
monomial measures Tt^(q'): integrating the one against the other gives
the Kronecker delta.  A uniformly continuous function is stored by its
coefficients b_q against that basis together with a decay certificate
for the omitted ones; a uniform measure stored as an S-series has the
coefficients of its own expansion as Fourier coefficients, so the
forward transform on stored data is coefficient extraction, and for a
finite Dirac combination it is computed through the generalized
binomial.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import _series
from .ainf import AinfElt
from .errors import (
    ParseError,
    PreconditionError,
    UncertifiedTailError,
)
from .padic import (
    Immutable,
    PadicScalar,
    SExponent,
    _as_sexponent,
    _gen_binomials,
    _modulus,
    _point,
    _same,
    json_field,
    json_flag,
    json_int,
)

__all__ = [
    "UnifFn",
    "integrate_unif",
    "integrate_unif_matrix",
    "forward_transform",
    "forward_transform_diracs",
    "eval_unif",
    "pullback_rescale",
]

_INF = math.inf


class UnifFn(Immutable):
    """A uniformly continuous function Q_p -> Z_p via basis coefficients.

    coeffs maps integer keys k to residues mod p^prec of b_q at
    q = k / p^depth.  The decay certificate is either ``exact_tail=True``
    (all omitted coefficients vanish) or a list of (q_threshold, floor)
    pairs asserting v(b_q) >= floor for every omitted q >= q_threshold;
    thresholds are Fractions in ascending order and the floor of the
    largest applicable threshold wins.
    """

    __slots__ = ("p", "prec", "depth", "coeffs", "decay_cert", "exact_tail")

    def __init__(self, p, prec, depth, coeffs, decay_cert=None, exact_tail=False):
        mod = _modulus(p, prec)
        if depth < 0:
            raise PreconditionError("need depth >= 0")
        # a coefficient given is known mod p^prec, 0 included: no certificate
        # may charge it as omitted
        depth, cs = _series.truncate(p, depth, None, coeffs, mod, zeros=True)
        if not exact_tail:
            if not decay_cert:
                raise PreconditionError(
                    "a non-exact tail needs an explicit decay certificate"
                )
            decay_cert = tuple(
                sorted((Fraction(t), int(f)) for t, f in decay_cert)
            )
        else:
            decay_cert = ()
        self._set(p=p, prec=prec, depth=depth, coeffs=cs, decay_cert=decay_cert,
                  exact_tail=bool(exact_tail))

    @classmethod
    def basis(cls, p, q, prec):
        """The generalized binomial function x -> (x choose q)."""
        q = _as_sexponent(p, q)
        return cls(p, prec, q.logden, {q.num: 1}, exact_tail=True)

    @classmethod
    def constant(cls, p, value, prec):
        return cls(p, prec, 0, {0: value}, exact_tail=True)

    items_sexp = AinfElt.items_sexp

    def decay_floor_beyond(self, q0):
        """Certified valuation floor of all omitted b_q with q >= q0."""
        if self.exact_tail:
            return _INF
        floor = 0
        for t, f in self.decay_cert:
            if t <= q0:
                floor = max(floor, f)
        return floor

    def _equal(self, other):
        m = max(self.depth, other.depth)
        return _series.equal(
            _series.regrid(self.coeffs, self.p ** (m - self.depth)),
            _series.regrid(other.coeffs, self.p ** (m - other.depth)),
            None,
            self.p ** min(self.prec, other.prec),
        )

    def __repr__(self):
        return (
            f"UnifFn(p={self.p}, prec={self.prec}, depth={self.depth}, "
            f"terms={len(self.coeffs)})"
        )

    def to_json(self):
        doc = {
            "p": self.p,
            "prec": self.prec,
            "depth": self.depth,
            "terms": _series.encode_terms(_series.exponents(self.p, self.depth, self.coeffs)),
            "decay_cert": [
                {
                    "q_ge": SExponent.from_fraction(self.p, t).to_json(),
                    "val_floor": f,
                }
                for t, f in self.decay_cert
            ],
        }
        if self.exact_tail:
            doc["exact_tail"] = True
        return doc

    @classmethod
    def from_json(cls, doc):
        """The function of a ``to_json`` document; a missing key, a non-integer
        field, a decay certificate that is not a list, an ``exact_tail`` that
        is not a bool, or prec < 1 is a ParseError."""
        p, depth = json_int(doc, "p"), json_int(doc, "depth")
        cs = _series.decode_terms(p, depth, json_field(doc, "terms"))
        cert = doc.get("decay_cert", [])
        if not isinstance(cert, list):
            raise ParseError(f"decay_cert must be a list, not {type(cert).__name__}")
        cert = [
            (SExponent.from_json(p, json_field(e, "q_ge")).as_fraction(), json_int(e, "val_floor"))
            for e in cert
        ]
        return cls(
            p, json_int(doc, "prec", low=1), depth, cs,
            decay_cert=cert or None, exact_tail=json_flag(doc, "exact_tail"),
        )


def integrate_unif_matrix(fns, mus):
    """Σ_q b_q a_q for every uniform function and measure, as rows of (shift,
    residue, bound): p^shift·residue mod p^bound, the measure's shift.  A term
    outside one side's box is bounded by the other side's certificate, and an
    unbounded one raises.  Each side moves to the deepest grid once."""
    p = _series.operand_prime(fns, UnifFn, mus, AinfElt)
    m = max((x.depth for x in (*fns, *mus)), default=0)

    def fview(f):
        grid = Fraction(1, f.p**m)
        floors = (lambda k: f.decay_floor_beyond(k * grid)), f.decay_floor_beyond
        tail = None if f.exact_tail else floors
        return _series.regrid(f.coeffs, f.p ** (m - f.depth)), f.prec, tail

    def mview(mu):
        cs = mu.with_depth(m).coeffs
        return cs, mu.prec, mu.shift, _series.key_bound(mu.p, m, mu.degree), mu.degree

    return _series.pairings(p, fns, mus, fview, mview)


def integrate_unif(f: UnifFn, mu: AinfElt) -> PadicScalar:
    """The pairing of a uniform function and measure: ``integrate_unif_matrix`` 1×1."""
    [[(shift, total, bound)]] = integrate_unif_matrix([f], [mu])
    return PadicScalar(f.p, shift, total, bound - shift)


def forward_transform(mu: AinfElt) -> dict:
    """Fourier coefficients q -> (x choose q)-integral of a stored S-series.

    For a measure already stored as an S-series this is coefficient
    extraction (the expansion is unique); the result maps SExponents to
    scalars at the box precision.
    """
    mu = _same(None, mu, AinfElt)
    out = {}
    for q, c in mu.items_sexp():
        out[q] = PadicScalar(mu.p, mu.shift, c, mu.prec)
    return out


def forward_transform_diracs(p, combo, qs, prec) -> dict:
    """Fourier coefficients of a finite Dirac combination Σ c_i Δ(s_i).

    combo is a list of (c_i, s_i) with integer weights and points read by
    ``padic._point``'s rule (an int, a Fraction or a PadicScalar); the
    coefficient at q is Σ c_i (s_i choose q) at the target precision, each
    point's values read by one generalized binomial pass over the exponents
    on their common grid.  The result keeps the order of ``qs``.
    """
    points = [(c, x if isinstance(x := _point(p, s), PadicScalar)
               else PadicScalar.from_fraction(p, x, prec + 24)) for c, s in combo]
    qs = [_as_sexponent(p, q) for q in qs]
    logden = max((q.logden for q in qs), default=0)
    keys = {q: q.num * p ** (logden - q.logden) for q in qs}
    js = sorted(set(keys.values()))
    acc = dict.fromkeys(js, PadicScalar.zero(p, prec))
    for c, s in points:
        for j, b in zip(js, _gen_binomials(s, logden, js, prec)):
            acc[j] = acc[j] + b * c
    return {q: acc[j] for q, j in keys.items()}


def eval_unif(f: UnifFn, x: PadicScalar, target_prec=None) -> PadicScalar:
    """Evaluate Σ_q b_q (x choose q) at a point of Q_p.

    Stored terms are read by one generalized binomial pass; omitted terms are
    bounded by the decay certificate (the basis functions are bounded by
    1 everywhere, and sharper bounds from the valuation inequality can be
    folded into the certificate by the caller).
    """
    p = _same(None, f, UnifFn).p
    x = _same(p, x, PadicScalar)
    target = f.prec if target_prec is None else min(target_prec, f.prec)
    out_prec = min(target, f.decay_floor_beyond(0))
    if out_prec < 1:
        raise UncertifiedTailError("decay certificate certifies no digits")
    acc = PadicScalar.zero(p, out_prec)
    js = sorted(k for k, b in f.coeffs.items() if b)
    for j, c in zip(js, _gen_binomials(x, f.depth, js, out_prec)):
        acc = acc + c * f.coeffs[j]
    return acc.truncate(min(out_prec, acc.abs_bound))


def pullback_rescale(f: UnifFn) -> UnifFn:
    """The pullback (x -> f(px)) on uniform functions.

    Adjoint to the measure pushforward Tt^q -> Tt^(pq): pairing the
    pullback against Tt^(q') equals pairing f against Tt^(p q'), so the
    coefficient map contracts exponents, b'_(q') = b_(p q').  Exponent
    keys are kept and the depth grows by one, which realizes q -> q/p.
    """
    f = _same(None, f, UnifFn)
    cert = None
    if not f.exact_tail:
        cert = [(t / f.p, fl) for t, fl in f.decay_cert]
    return UnifFn(
        f.p, f.prec, f.depth + 1, dict(f.coeffs),
        decay_cert=cert, exact_tail=f.exact_tail,
    )
