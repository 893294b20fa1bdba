"""The benchmark's workloads: fixed job slots whose values come from a seed.

A slot fixes every size that sets the cost of a job (p, precision, degree,
depth, stage, denominators, term counts).  The seed draws only values:
numerators prime to p (so valuations, and with them the work, stay fixed),
weights, Dirac points and the coefficients of dense ``--mu @file``
documents.  Any seed therefore measures the same amount of work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("series", "transform", "zp-measures", "session")


@dataclass
class Job:
    name: str
    argv: list
    expect_exit: int = 0
    # slot sizes, used to group per-layer time into a size ladder
    size: dict = field(default_factory=dict)
    # inputs with a documented exit code that the seed commit does not meet
    known_failure: bool = False
    # contract probes have no reference stdout; only their exit code is checked
    probe: bool = False


def _unit(rng, p, lo, hi):
    """A random integer in [lo, hi) prime to p."""
    while True:
        n = rng.randrange(lo, hi)
        if n % p:
            return n


def _frac(num, den):
    return f"{num}/{den}"


def _dense_zp_doc(rng, p, prec, degree):
    """A Z_p measure with every coefficient a nonzero residue mod p^prec."""
    return {
        "p": p,
        "prec": prec,
        "degree": degree,
        "coeffs": [rng.randrange(1, p**prec) for _ in range(degree)],
    }


def _series(rng, workdir):
    jobs = []
    for p, stage, prec, depth, degree in [
        (2, 3, 10, 5, 4), (2, 4, 12, 6, 4), (2, 5, 8, 6, 2), (3, 3, 6, 4, 2),
        (5, 2, 6, 3, 1),
    ]:
        jobs.append(Job(
            f"mucan-p{p}-s{stage}-n{prec}-m{depth}-d{degree}",
            ["mucan", "--p", str(p), "--stage", str(stage), "--prec", str(prec),
             "--depth", str(depth), "--degree", str(degree)],
        ))
    for p, den, terms, degree, digits in [
        (2, 1, 64, 512, 4), (2, 2, 128, 512, 4), (3, 3, 120, 729, 3),
    ]:
        x = " + ".join(
            f"{rng.randrange(1, p)}*t^{i}/{den}" for i in range(1, terms + 1)
        )
        jobs.append(Job(
            f"teich-p{p}-t{terms}-g{digits}-d{degree}",
            ["teich", "--p", str(p), "--x", x, "--digits", str(digits),
             "--degree", str(degree)],
        ))
    # Dirac points s = a / p^depth with a prime to p and above the number of
    # terms, so that every coefficient below the degree box is nonzero
    s = _frac(_unit(rng, 2, 512, 1024), 2**6)
    jobs.append(Job(
        "dirac-p2-m6-n12-d8",
        ["dirac", "--p", "2", "--s", s, "--depth", "6", "--prec", "12", "--degree", "8"],
    ))
    for p, depth, prec, degree in [(3, 3, 8, 8), (2, 5, 10, 16)]:
        terms = degree * p**depth
        s1, s2 = (
            _frac(_unit(rng, p, terms, 2 * terms), p**depth) for _ in range(2)
        )
        jobs.append(Job(
            f"convolve-p{p}-m{depth}-n{prec}-d{degree}",
            ["convolve", "--p", str(p), "--mu1", f"diracq:{s1}@depth{depth}",
             "--mu2", f"diracq:{s2}@depth{depth}", "--prec", str(prec),
             "--degree", str(degree)],
        ))
    return jobs


def _transform(rng, workdir):
    jobs = []
    # (p, denominator of the Dirac points, qdepth, qmax, prec, points)
    for p, den, qdepth, qmax, prec, points in [
        (2, 4, 2, 1, 12, 1), (2, 4, 2, 1, 13, 1), (2, 4, 2, 1, 14, 1),
        (2, 8, 2, 1, 12, 2), (3, 9, 2, 1, 7, 1), (3, 9, 2, 1, 8, 1),
        (3, 9, 2, 1, 9, 1), (5, 25, 1, 1, 5, 1), (5, 25, 1, 1, 6, 1),
    ]:
        combo = ",".join(
            f"{rng.randrange(1, 10)}@{_frac(_unit(rng, p, 1, den), den)}"
            for _ in range(points)
        )
        jobs.append(Job(
            f"fourier-p{p}-n{prec}-k{points}-den{den}",
            ["fourier", "--p", str(p), "--combo", combo, "--qdepth", str(qdepth),
             "--qmax", str(qmax), "--prec", str(prec)],
            size={"p": p, "prec": prec},
        ))
    q, s = _frac(_unit(rng, 2, 1, 8), 4), _frac(_unit(rng, 2, 1, 4), 4)
    jobs += [
        Job("integrate-p2-m2-n12",
            ["integrate", "--p", "2", "--f", f"binom:{q}@depth2",
             "--mu", f"diracq:{s}@depth2", "--prec", "12", "--degree", "2"]),
        Job("orthocheck-qp-p2-m2",
            ["orthocheck", "--p", "2", "--mode", "qp", "--qdepth", "2",
             "--qmax", "2", "--prec", "8"]),
    ]
    return jobs


def _zp_measures(rng, workdir):
    jobs = []
    for p, N, scan in [
        (2, 5, "off"), (2, 6, "off"), (3, 3, "off"), (2, 2, "full"),
        (3, 2, "bounded"),
    ]:
        jobs.append(Job(
            f"idealcheck-p{p}-N{N}-{scan}",
            ["idealcheck", "--p", str(p), "--N", str(N), "--scan", scan],
        ))
    for p, prec, degree, hs in [
        (2, 8, 512, (1, 8)), (3, 6, 243, (5,)), (3, 6, 729, (3,)),
    ]:
        path = workdir / f"zp-p{p}-d{degree}.json"
        path.write_text(json.dumps(_dense_zp_doc(rng, p, prec, degree)))
        for h in hs:
            jobs.append(Job(
                f"ball-p{p}-d{degree}-h{h}",
                ["ball", "--p", str(p), "--mu", f"@{path}",
                 "--a", str(rng.randrange(p**h)), "--h", str(h),
                 "--prec", str(prec), "--degree", str(degree)],
                size={"degree": degree, "h": h},
            ))
    samples = ",".join(str(rng.randrange(2**9)) for _ in range(2**8))
    jobs += [
        Job("mahler-p2-256", ["mahler", "--p", "2", "--samples", samples]),
        Job("orthocheck-zp-p2-i30",
            ["orthocheck", "--p", "2", "--mode", "zp", "--imax", "30", "--prec", "20"]),
    ]
    return jobs


def _session(rng, workdir):
    jobs = [
        Job(f"readme-{i}", argv) for i, argv in enumerate([
            ["integrate", "--p", "3", "--f", "binom:2", "--mu", "T^2", "--prec", "20"],
            ["mahler", "--p", "3", "--samples", "1,1,1,0,0,0,0,0,0"],
            ["mucan", "--p", "2", "--stage", "2", "--prec", "4", "--depth", "3",
             "--degree", "2"],
            ["dirac", "--p", "2", "--s", "1/2", "--depth", "1", "--prec", "4",
             "--degree", "2"],
            ["teich", "--p", "2", "--x", "t^1/2", "--digits", "3"],
            ["ball", "--p", "3", "--mu", "dirac:5", "--a", "2", "--h", "1"],
            ["wval", "--p", "2", "--mu", "Tt^3/2"],
            ["fourier", "--p", "2", "--combo", "1@3/4", "--qdepth", "2", "--qmax", "1"],
            ["orthocheck", "--p", "2", "--imax", "30", "--prec", "20"],
        ])
    ]  # the README's idealcheck --scan full is a zp-measures job instead
    for p in (2, 3, 5, 7):
        k, m = rng.randrange(0, 12), rng.randrange(0, 12)
        a = rng.randrange(0, 40)
        jobs += [
            Job(f"integrate-binom-p{p}",
                ["integrate", "--p", str(p), "--f", f"binom:{k}", "--mu", f"T^{m}",
                 "--prec", "16"]),
            Job(f"ball-dirac-p{p}",
                ["ball", "--p", str(p), "--mu", f"dirac:{a}", "--a",
                 str(a % p**2), "--h", "2", "--degree", "48"]),
            Job(f"wval-monomial-p{p}",
                ["wval", "--p", str(p), "--mu", f"T^{m}", "--format", "pretty"]),
            Job(f"convolve-dirac-p{p}",
                ["convolve", "--p", str(p), "--mu1", f"dirac:{a}",
                 "--mu2", f"dirac:{rng.randrange(0, 40)}", "--degree", "24"]),
            Job(f"fourier-monomial-p{p}",
                ["fourier", "--p", str(p), "--mu",
                 f"Tt^{_frac(_unit(rng, p, 1, 3 * p), p)}", "--degree", "4"]),
            Job(f"wval-diracq-p{p}",
                ["wval", "--p", str(p), "--mu",
                 f"diracq:{_frac(_unit(rng, p, 1, p), p)}@depth1", "--degree", "3"]),
        ]
    # repeated calls: the second and third hit the warm Artin-Hasse cache
    for rep in range(3):
        jobs += [
            Job(f"mucan-warm-{rep}",
                ["mucan", "--p", "3", "--stage", "2", "--prec", "5", "--depth", "3",
                 "--degree", "2"]),
            Job(f"dirac-warm-{rep}",
                ["dirac", "--p", "2", "--s", "3/8", "--depth", "3", "--prec", "8",
                 "--degree", "4"]),
        ]
    qp_doc = workdir / "session-qp.json"
    qp_doc.write_text(json.dumps({
        "p": 2, "prec": 6, "depth": 1, "degree": 4,
        "terms": [{"q": {"num": _unit(rng, 2, 1, 8), "logden": 1},
                   "coeff": rng.randrange(1, 64)}],
    }))
    # contract probes: inputs whose exit code the CLI documents
    probes = [
        ("probe-prec-abc", 2, True,
         ["integrate", "--p", "3", "--f", "binom:2", "--mu", "T^2", "--prec", "abc"]),
        ("probe-const-x", 2, True,
         ["integrate", "--p", "3", "--f", "const:x", "--mu", "T^2"]),
        ("probe-combo-1", 2, True,
         ["fourier", "--p", "2", "--combo", "1", "--qdepth", "2", "--qmax", "1"]),
        ("probe-wval-qp-file", 0, True, ["wval", "--p", "2", "--mu", f"@{qp_doc}"]),
        ("probe-convolve-qp-file", 0, True,
         ["convolve", "--p", "2", "--mu1", f"@{qp_doc}", "--mu2", f"@{qp_doc}"]),
        ("probe-mucan-p4", 3, True,
         ["mucan", "--p", "4", "--stage", "1", "--prec", "4", "--depth", "1"]),
        ("probe-ball-outside", 3, False,
         ["ball", "--p", "3", "--mu", "T^2", "--a", "9", "--h", "1"]),
    ]
    jobs += [
        Job(name, argv, expect_exit=code, known_failure=known, probe=True)
        for name, code, known, argv in probes
    ]
    return jobs


# Inputs that run away at the seed commit: numpy is asked for 10.9 GiB and
# for 7 EiB.  They show that the job caps contain a runaway; they are run
# once in a traced zp-measures run and never timed.
GUARD_PROBES = [
    Job("guard-idealcheck-p2-N4-bounded",
        ["idealcheck", "--p", "2", "--N", "4", "--scan", "bounded"]),
    Job("guard-idealcheck-p3-N3-bounded",
        ["idealcheck", "--p", "3", "--N", "3", "--scan", "bounded"]),
]

_BUILDERS = {
    "series": _series,
    "transform": _transform,
    "zp-measures": _zp_measures,
    "session": _session,
}


def build(workload: str, seed: int, workdir: Path) -> list:
    """The job list of one pass of ``workload`` for ``seed``.

    Documents for ``--mu @file`` are written under ``workdir``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    jobs = _BUILDERS[workload](rng, workdir)
    names = [j.name for j in jobs]
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate job names in {workload}")
    return jobs
