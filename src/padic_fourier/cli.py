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

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__
from .ainf import AinfElt, dirac_q
from .artin_hasse import canonical_measure
from .errors import (
    InternalConsistencyError,
    PadicFourierError,
    ParseError,
    PreconditionError,
)
from .fourier import UnifFn, forward_transform, forward_transform_diracs, integrate_unif
from .iwasawa import (
    IwasawaElt,
    MahlerFn,
    ball_ideal_equal_generators,
    ball_ideal_middle_generators,
    dirac,
    integrate,
    intersection_vs_middle_scan,
    mahler_coeffs_by_differences,
    mahler_coeffs_from_samples,
    middle_ideal_valuation,
    ptadic_power_generators,
)
from .padic import LowerBound, PadicScalar, SExponent, is_prime
from .witt import PerfSeries, teichmuller

COMMANDS = (
    "mahler", "integrate", "convolve", "ball", "wval", "dirac",
    "teich", "mucan", "fourier", "orthocheck", "idealcheck",
)

_KNOWN_KEYS = {
    "mahler": {"p", "samples", "prec"},
    "integrate": {"p", "f", "mu", "prec", "degree", "depth"},
    "convolve": {"p", "mu1", "mu2", "prec", "degree", "depth"},
    "ball": {"p", "mu", "a", "h", "prec", "degree", "depth"},
    "wval": {"p", "mu", "prec", "degree", "depth"},
    "dirac": {"p", "a", "s", "prec", "degree", "depth"},
    "teich": {"p", "x", "digits", "degree"},
    "mucan": {"p", "stage", "prec", "depth", "degree"},
    "fourier": {"p", "mu", "combo", "qmax", "qdepth", "prec", "degree", "depth"},
    "orthocheck": {"p", "mode", "imax", "qmax", "qdepth", "prec", "seed"},
    "idealcheck": {"p", "N", "scan"},
}


@dataclass
class JobSpec:
    command: str
    params: dict = field(default_factory=dict)
    in_path: str | None = None
    out_path: str | None = None
    fmt: str = "json"

    def validate(self):
        if self.command not in COMMANDS:
            raise ParseError(f"unknown command {self.command!r}")
        if self.fmt not in ("json", "pretty"):
            raise ParseError(f"unknown format {self.fmt!r}")
        unknown = set(self.params) - _KNOWN_KEYS[self.command]
        if unknown:
            raise ParseError(
                f"unknown parameter(s) for {self.command}: {sorted(unknown)}"
            )


def max_box_cells():
    raw = os.environ.get("PADIC_FOURIER_MAX_BOX", "1000000")
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"PADIC_FOURIER_MAX_BOX={raw!r} is not an integer")


def _check_box(cells):
    cap = max_box_cells()
    if cells > cap:
        raise PreconditionError(
            f"box of {cells} cells exceeds PADIC_FOURIER_MAX_BOX={cap}"
        )


def _int(text, what, sep=None):
    """An integer flag value, or with ``sep`` the pair (int, rest) of a term
    ``c<sep>rest`` such as a --combo term; a bad value is a ParseError."""
    try:
        if sep is None:
            return int(text)
        c, rest = str(text).split(sep, 1)
        return int(c), rest
    except (TypeError, ValueError):
        raise ParseError(f"bad {what} {text!r}")


def _load_doc(expr):
    """The JSON object of an ``@path`` measure argument."""
    try:
        with open(expr.strip()[1:]) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise ParseError(f"cannot read {expr!r}: {e}")
    if not isinstance(doc, dict):
        raise ParseError(f"{expr!r} is not a JSON object")
    return doc


def _frac(text) -> Fraction:
    try:
        if "/" in str(text):
            num, den = str(text).split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as e:
        raise ParseError(f"bad rational {text!r}: {e}")


def _parse_zp_measure(p, expr, prec, degree):
    expr = expr.strip()
    if expr.startswith("@"):
        return IwasawaElt.from_json(_load_doc(expr))
    if expr == "1":
        return IwasawaElt.one(p, prec, degree)
    if expr == "T":
        return IwasawaElt.monomial(p, 1, prec, degree)
    if expr.startswith("T^"):
        try:
            m = int(expr[2:])
        except ValueError:
            raise ParseError(f"bad monomial {expr!r}")
        return IwasawaElt.monomial(p, m, prec, degree)
    if expr.startswith("dirac:"):
        try:
            a = int(expr[6:])
        except ValueError:
            raise ParseError(f"bad dirac point {expr!r}")
        return dirac(a, degree, prec, p=p)
    raise ParseError(f"cannot parse Z_p measure {expr!r}")


def _parse_qp_measure(p, expr, prec, degree, depth):
    expr = expr.strip()
    if expr.startswith("@"):
        return AinfElt.from_json(_load_doc(expr))
    if expr == "1":
        return AinfElt.one(p, prec, degree)
    if expr == "Tt":
        return AinfElt.monomial(p, 1, prec, degree)
    if expr.startswith("Tt^"):
        return AinfElt.monomial(p, _frac(expr[3:]), prec, degree)
    if expr.startswith("diracq:"):
        body = expr[len("diracq:"):]
        m = depth
        if "@depth" in body:
            body, dd = body.split("@depth", 1)
            m = _int(dd, "depth")
        if m is None:
            raise ParseError("diracq needs @depthM or --depth")
        return dirac_q(p, _frac(body), m, prec, degree)
    raise ParseError(f"cannot parse Q_p measure {expr!r}")


def _is_qp_expr(expr):
    expr = expr.strip()
    if expr.startswith("@"):
        return "terms" in _load_doc(expr)  # a Z_p document lists "coeffs"
    return expr.startswith(("Tt", "diracq:")) or "@depth" in expr


def _parse_function(p, expr, prec):
    expr = expr.strip()
    if expr.startswith("const:"):
        return MahlerFn.from_coeffs(p, [_int(expr[6:], "constant")], prec)
    if expr.startswith("binom:"):
        body = expr[len("binom:"):]
        depth = 0
        if "@depth" in body:
            body, dd = body.split("@depth", 1)
            depth = _int(dd, "depth")
        q = _frac(body)
        if q.denominator == 1 and depth == 0:
            return MahlerFn.basis(p, int(q), prec)
        return UnifFn.basis(p, q, prec)
    raise ParseError(f"cannot parse function {expr!r}")


def _parse_perfseries(p, expr):
    expr = expr.replace(" ", "")
    if expr.startswith("@"):
        raise ParseError("PerfSeries JSON input is not supported inline; use terms")
    out = PerfSeries.zero(p)
    if not expr:
        return out
    for term in expr.split("+"):
        if not term:
            continue
        coeff = 1
        body = term
        if "*" in term:
            coeff, body = _int(term, "term", "*")
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
        out = out + PerfSeries.monomial(p, q, coeff=coeff)
    return out


def _scalar_doc(x: PadicScalar):
    return {"value": x.to_json(), "pretty": str(x)}


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
    prec = _int(pr["prec"], "--prec") if "prec" in pr else None
    f = mahler_coeffs_from_samples(p, samples, prec=prec)
    coeffs = [f.coeffs.get(n, 0) for n in range(len(samples))]
    oracle = mahler_coeffs_by_differences(p, samples, f.prec)
    return {
        "p": p,
        "prec": f.prec,
        "period": f.period,
        "coeffs": coeffs,
        "matches_difference_oracle": coeffs == oracle,
    }


def _cmd_integrate(pr):
    p = pr["p"]
    prec = _int(pr.get("prec", 12), "--prec")
    degree = pr.get("degree", 16)
    depth = pr.get("depth")
    f_expr, mu_expr = str(pr["f"]), str(pr["mu"])
    f = _parse_function(p, f_expr, prec)
    if isinstance(f, UnifFn) or _is_qp_expr(mu_expr):
        if not isinstance(f, UnifFn):
            # lift a Z_p basis function to the Q_p side
            f = UnifFn(p, prec, 0, dict(f.coeffs), exact_tail=True)
        mu = _parse_qp_measure(p, mu_expr, prec, _frac(degree), depth)
        _check_box(int(_frac(degree) * p ** mu.depth) + 1)
        val = integrate_unif(f, mu)
    else:
        degree = _int(degree, "--degree")
        mu = _parse_zp_measure(p, mu_expr, prec, degree)
        _check_box(degree)
        val = integrate(f, mu)
    return _scalar_doc(val)


def _cmd_convolve(pr):
    p = pr["p"]
    prec = _int(pr.get("prec", 8), "--prec")
    degree = pr.get("degree", 16)
    depth = pr.get("depth")
    e1, e2 = str(pr["mu1"]), str(pr["mu2"])
    if _is_qp_expr(e1) or _is_qp_expr(e2):
        m1 = _parse_qp_measure(p, e1, prec, _frac(degree), depth)
        m2 = _parse_qp_measure(p, e2, prec, _frac(degree), depth)
    else:
        degree = _int(degree, "--degree")
        m1 = _parse_zp_measure(p, e1, prec, degree)
        m2 = _parse_zp_measure(p, e2, prec, degree)
    out = m1 * m2
    return {"measure": out.to_json(), "pretty": str(out)}


def _cmd_ball(pr):
    p = pr["p"]
    prec = _int(pr.get("prec", 8), "--prec")
    degree = _int(pr.get("degree", 16), "--degree")
    _check_box(degree)
    mu = _parse_zp_measure(p, str(pr["mu"]), prec, degree)
    val = mu.ball_measure(_int(pr["a"], "--a"), _int(pr["h"], "--h"))
    return _scalar_doc(val)


def _cmd_wval(pr):
    p = pr["p"]
    prec = _int(pr.get("prec", 8), "--prec")
    degree = pr.get("degree", 16)
    depth = pr.get("depth")
    expr = str(pr["mu"])
    if _is_qp_expr(expr):
        mu = _parse_qp_measure(p, expr, prec, _frac(degree), depth)
    else:
        mu = _parse_zp_measure(p, expr, prec, _int(degree, "--degree"))
    return _wval_doc(mu.w_valuation())


def _cmd_dirac(pr):
    p = pr["p"]
    prec = _int(pr.get("prec", 8), "--prec")
    if "s" in pr:
        depth = _int(pr.get("depth", 0), "--depth")
        degree = _frac(pr.get("degree", 4))
        _check_box(int(degree * p**depth) + 1)
        out = dirac_q(p, _frac(pr["s"]), depth, prec, degree)
        return {"measure": out.to_json(), "pretty": str(out)}
    degree = _int(pr.get("degree", 16), "--degree")
    _check_box(degree)
    out = dirac(_int(pr["a"], "--a"), degree, prec, p=p)
    return {"measure": out.to_json(), "pretty": str(out)}


def _cmd_teich(pr):
    p = pr["p"]
    digits = _int(pr.get("digits", 3), "--digits")
    x = _parse_perfseries(p, str(pr["x"]))
    if "degree" in pr:
        x = PerfSeries(p, x.depth, _frac(pr["degree"]), dict(x.coeffs))
    out = teichmuller(x, digits)
    return {"measure": out.to_json(), "pretty": str(out)}


def _cmd_mucan(pr):
    p = pr["p"]
    stage = _int(pr.get("stage", 1), "--stage")
    prec = _int(pr.get("prec", 4), "--prec")
    depth = _int(pr.get("depth", stage), "--depth")
    degree = _frac(pr.get("degree", 2))
    _check_box(int(degree * p**depth) + 1)
    out = canonical_measure(p, stage, depth, prec, degree)
    return {"measure": out.to_json(), "pretty": str(out)}


def _cmd_fourier(pr):
    p = pr["p"]
    prec = _int(pr.get("prec", 8), "--prec")
    if "combo" in pr:
        qdepth = _int(pr.get("qdepth", 1), "--qdepth")
        qmax = _frac(pr.get("qmax", 2))
        combo = []
        for part in str(pr["combo"]).split(","):
            c, s = _int(part, "--combo term", "@")
            combo.append((c, _frac(s)))
        _check_box((int(qmax * p**qdepth) + 1) * len(combo))
        qs = [
            SExponent(p, k, qdepth)
            for k in range(int(qmax * p**qdepth) + 1)
        ]
        out = forward_transform_diracs(p, combo, qs, prec)
    else:
        degree = _frac(pr.get("degree", 4))
        depth = pr.get("depth")
        mu = _parse_qp_measure(p, str(pr["mu"]), prec, degree, depth)
        out = forward_transform(mu)
    return {
        "coefficients": [
            {"q": q.to_json(), "value": v.to_json()}
            for q, v in sorted(out.items(), key=lambda kv: kv[0].as_fraction())
        ]
    }


def _cmd_orthocheck(pr):
    p = pr["p"]
    mode = str(pr.get("mode", "zp"))
    failures = []
    if mode == "zp":
        imax = _int(pr.get("imax", 30), "--imax")
        prec = _int(pr.get("prec", 20), "--prec")
        degree = imax + 2
        for i in range(imax + 1):
            f = MahlerFn.basis(p, i, prec)
            for j in range(imax + 1):
                val = integrate(f, IwasawaElt.monomial(p, j, prec, degree))
                if val != PadicScalar.from_int(p, 1 if i == j else 0, prec):
                    failures.append({"i": i, "j": j})
        checked = (imax + 1) ** 2
    elif mode == "qp":
        qdepth = _int(pr.get("qdepth", 2), "--qdepth")
        qmax = _frac(pr.get("qmax", 4))
        prec = _int(pr.get("prec", 12), "--prec")
        ks = range(int(qmax * p**qdepth))
        for k1 in ks:
            f = UnifFn.basis(p, Fraction(k1, p**qdepth), prec)
            for k2 in ks:
                mu = AinfElt.monomial(p, Fraction(k2, p**qdepth), prec, degree=qmax)
                val = integrate_unif(f, mu)
                if val != PadicScalar.from_int(p, 1 if k1 == k2 else 0, prec):
                    failures.append({"q1": k1, "q2": k2})
        checked = len(list(ks)) ** 2
    else:
        raise ParseError(f"unknown orthocheck mode {mode!r}")
    if failures:
        raise InternalConsistencyError(f"orthogonality failed at {failures[:5]}")
    return {"mode": mode, "p": p, "checked": checked, "failures": 0, "pass": True}


def _cmd_idealcheck(pr):
    p = pr["p"]
    N = _int(pr["N"], "--N")
    scan = str(pr.get("scan", "bounded"))
    prec = N + 3
    degree = p ** (N + 1) + 1
    _check_box(degree)

    def failures(gens, top, deepen=0):
        """Generators p^i T^m outside U_(h, l + deepen) for some h + l = top."""
        out = []
        for i, m in gens:
            mu = IwasawaElt.monomial(p, m, prec, degree, coeff=p**i)
            for h in range(top + 1):
                if not mu.natural_ideal_membership(h, top - h + deepen)[0]:
                    out.append({"gen": [i, m], "h": h, "l": top - h})
        return out

    gen_fail = failures(ptadic_power_generators(p, N), N + 1)
    equal_fail = failures(ball_ideal_equal_generators(p, N), N + 1)
    middle_fail = failures(ball_ideal_middle_generators(p, N), N, deepen=1)
    doc = {
        "p": p,
        "N": N,
        "power_generators_pass": not gen_fail,
        "equal_list_pass": not equal_fail,
        "middle_generators_pass": not middle_fail,
    }
    if scan != "off":
        if scan == "full":
            sets = None
        else:
            mod = p ** (N + 2)
            sets = []
            for m in range(p**N + 1):
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
        if escapees or missed:
            raise InternalConsistencyError(
                f"scan mismatch: {escapees} escapees, {missed} missed"
            )
    if gen_fail or equal_fail or middle_fail:
        raise InternalConsistencyError(f"ideal membership failures: {doc}")
    doc["pass"] = True
    return doc


_HANDLERS = {
    "mahler": _cmd_mahler,
    "integrate": _cmd_integrate,
    "convolve": _cmd_convolve,
    "ball": _cmd_ball,
    "wval": _cmd_wval,
    "dirac": _cmd_dirac,
    "teich": _cmd_teich,
    "mucan": _cmd_mucan,
    "fourier": _cmd_fourier,
    "orthocheck": _cmd_orthocheck,
    "idealcheck": _cmd_idealcheck,
}


def run(job: JobSpec) -> dict:
    """Execute a fully specified job; identical jobs give identical output."""
    job.validate()
    params = dict(job.params)
    if job.in_path:
        with open(job.in_path) as fh:
            loaded = json.load(fh)
        if not isinstance(loaded, dict):
            raise ParseError("--in document must be a JSON object")
        unknown = set(loaded) - _KNOWN_KEYS[job.command]
        if unknown:
            raise ParseError(f"unknown key(s) in --in document: {sorted(unknown)}")
        for k, v in loaded.items():
            params.setdefault(k, v)
    job2 = JobSpec(job.command, params, None, job.out_path, job.fmt)
    job2.validate()
    params["p"] = _int(params.get("p"), "--p")
    if not is_prime(params["p"]):
        raise PreconditionError(f"p = {params['p']} is not prime")
    return _HANDLERS[job.command](params)


def _render(doc: dict, fmt: str) -> str:
    if fmt == "pretty":
        lines = []
        if "pretty" in doc:
            lines.append(doc["pretty"])
        else:
            for k in sorted(doc):
                lines.append(f"{k}: {json.dumps(doc[k], sort_keys=True)}")
        return "\n".join(lines) + "\n"
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="padic-fourier",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    specs = {
        "mahler": ["--samples"],
        "integrate": ["--f", "--mu"],
        "convolve": ["--mu1", "--mu2"],
        "ball": ["--mu", "--a", "--h"],
        "wval": ["--mu"],
        "dirac": ["--a", "--s"],
        "teich": ["--x", "--digits"],
        "mucan": ["--stage"],
        "fourier": ["--mu", "--combo", "--qmax", "--qdepth"],
        "orthocheck": ["--mode", "--imax", "--qmax", "--qdepth"],
        "idealcheck": ["--N", "--scan"],
    }
    for cmd, extra in specs.items():
        sp = sub.add_parser(cmd)
        sp.add_argument("--p", required=True)
        for flag in extra:
            sp.add_argument(flag)
        for flag in ("--prec", "--degree", "--depth", "--seed"):
            sp.add_argument(flag)
        sp.add_argument("--format", default="json", choices=["json", "pretty"])
        sp.add_argument("--in", dest="in_path")
        sp.add_argument("--out", dest="out_path")
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    params = {}
    for key, val in vars(ns).items():
        if key in ("command", "format", "in_path", "out_path", "seed") or val is None:
            continue
        params[key] = val
    job = JobSpec(
        ns.command, params, in_path=ns.in_path, out_path=ns.out_path, fmt=ns.format
    )
    try:
        doc = run(job)
    except PadicFourierError as e:
        sys.stderr.write(f"error: {e}\n")
        return e.exit_code
    text = _render(doc, job.fmt)
    if job.out_path:
        with open(job.out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
