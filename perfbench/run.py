"""The padic-fourier benchmark: CLI jobs, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each job is a real CLI job,
``padic_fourier.cli.main(argv)``, run one at a time in a closed loop from
this single client.  Except in ``session``, every job runs in a fresh
interpreter (``child.py``), so caches start cold as they do for a CLI user;
``session`` streams one pass of small jobs through one long-lived process.

A run does a fixed number of passes over the workload's job list, sized so
that a run lasts about S seconds at the seed commit.  Every commit thus
times the same jobs, and percentiles compare like with like.  A job's time
is the median of its slot over the passes.

Neighbours on a shared machine slow every process down by tens of percent
for seconds at a time.  So each child times a fixed calibration loop beside
every job, and the end-to-end times are reported in seconds at a reference
speed: divided by (calibration time / CAL_REF_S) ** SPEED_EXPONENT.  The
uncorrected figures are printed on the line before the result.

With ``--trace 0`` the run prints the end-to-end metrics.  With
``--trace 1`` it makes one untimed pass without tracing and two traced
passes (``tracer.py`` wraps every public function of the seven layers),
checks that every count repeats exactly between the two traced passes, and
prints the per-layer metrics and a size ladder for the workload's target
layer.  Every job's output is checked; the last stdout line is the JSON
result.  ``--record`` writes the reference outputs for the given seed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import jobs as joblist  # noqa: E402

WORKDIR = Path("perfbench") / ".work"
REFS = HERE / "refs"
MEM_MB = 1024  # address-space cap of every job process
JOB_CAP_S = 20  # wall-clock cap of every job
SESSION_CPU_S = 150  # CPU-time cap of a session process
# One untraced pass per workload at the seed commit on a shared 2-CPU
# machine (CPython 3.11), in seconds; sets the number of passes of a run.
NOMINAL_PASS_S = {"series": 3.2, "transform": 3.2, "zp-measures": 3.2, "session": 0.5}
# child.calibrate()'s time at the reference speed: its median over repeated
# runs of this benchmark on a shared 2-CPU machine (CPython 3.11)
CAL_REF_S = 0.0009
# Share of the calibration loop's slowdown that the jobs feel: process
# start-up and memory traffic slow less than the loop does.  Chosen from
# repeated runs on that machine as the exponent that steadied the figures.
SPEED_EXPONENT = 0.75
# self-check fields a job's JSON output may carry, with the value they must have
SELF_CHECKS = {"matches_difference_oracle": True, "pass": True, "scan_escapees": 0}


def _child_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _read_line(proc, buf, deadline):
    """One line from the child's stdout, or None at EOF or the deadline."""
    fd = proc.stdout.fileno()
    while b"\n" not in buf:
        left = deadline - time.monotonic()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            return None
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            return None
        buf.extend(chunk)
    i = buf.index(b"\n")
    line = bytes(buf[:i])
    del buf[: i + 1]
    return line


def run_process(batch, trace):
    """Run ``batch`` in one child process; one result dict per job, in order."""
    cpu_s = SESSION_CPU_S if len(batch) > 1 else JOB_CAP_S + 5
    err_path = WORKDIR / "child.err"
    with open(err_path, "w+") as err:
        spawn = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(MEM_MB), str(cpu_s),
             "1" if trace else "0"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
            env=_child_env(),
        )
        results, buf = [], bytearray()
        try:
            try:
                proc.stdin.write(b"".join(
                    json.dumps({"name": j.name, "argv": j.argv, "cap_s": JOB_CAP_S})
                    .encode() + b"\n" for j in batch
                ))
                proc.stdin.close()
            except BrokenPipeError:
                pass  # the child died at start; its jobs are reported below
            for job in batch:
                line = _read_line(proc, buf, time.monotonic() + JOB_CAP_S + 15)
                if line is None:
                    break
                doc = json.loads(line)
                doc["setup_s"] = doc["ready"] - spawn
                results.append(doc)
        finally:
            if proc.poll() is None and len(results) < len(batch):
                proc.kill()
            proc.wait()
        err.seek(0)
        why = f"child ended with code {proc.returncode}: {err.read()[-300:]}"
    for job in batch[len(results):]:
        results.append({"name": job.name, "status": "crashed", "exit": None,
                        "stdout": "", "traceback": False, "stderr_tail": why,
                        "job_s": float("nan"), "rss_kb": 0, "setup_s": None})
    return results


def _timed(batch, trace):
    """run_process, with each job's share of its wall time and its slowness.

    ``slow`` is the child's calibration loop time beside the job over
    CAL_REF_S: 1.0 at the reference speed, above 1 when neighbours on a
    shared machine slow every process down.  Calibration time is left out
    of the wall time.
    """
    t0 = time.monotonic()
    results = run_process(batch, trace)
    wall = time.monotonic() - t0 - sum(r.get("cal_wall_s", 0) for r in results)
    for res in results:
        res["wall_s"] = wall / len(batch)
        res["slow"] = res.get("cal_s", CAL_REF_S) / CAL_REF_S
    return results


def run_pass(workload, batch, trace):
    if workload == "session":
        return _timed(batch, trace)
    return [_timed([job], trace)[0] for job in batch]


def digest(res):
    return f"{res['exit']}:{hashlib.sha256(res['stdout'].encode()).hexdigest()[:32]}"


def check(job, res, ref):
    """Reasons this job failed; empty when it met its contract."""
    if res["status"] != "done":
        return [f"{res['status']} ({res['stderr_tail'][-120:].strip()})"]
    reasons = []
    if res["exit"] != job.expect_exit:
        reasons.append(f"exit {res['exit']}, expected {job.expect_exit}")
    if res["traceback"]:
        reasons.append("traceback")
    if res["exit"] == 0 and res["stdout"].startswith("{"):
        doc = json.loads(res["stdout"])
        for key, want in SELF_CHECKS.items():
            if key in doc and doc[key] != want:
                reasons.append(f"{key} = {doc[key]!r}")
    if ref is not None and not job.probe and ref.get(job.name) != digest(res):
        reasons.append("stdout or exit code differs from the reference")
    return reasons


def load_refs(workload, seed):
    path = REFS / f"{workload}.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get(str(seed))


def tail(values):
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


class Verdict:
    """Failures of every job checked in a run, split into known and unexpected."""

    def __init__(self, jobs, refs):
        self.by_name = {j.name: j for j in jobs}
        self.refs = refs
        self.attempted = 0
        self.unexpected = []
        self.known = []

    def add(self, results):
        for res in results:
            job = self.by_name[res["name"]]
            self.attempted += 1
            reasons = check(job, res, self.refs)
            if reasons:
                (self.known if job.known_failure else self.unexpected).append(
                    (job.name, reasons))

    def report(self, out):
        failed_known = sorted({name for name, _ in self.known})
        out.append(f"known contract failures ({len(self.known)} jobs): "
                   f"{', '.join(failed_known) or 'none'}")
        for name, reasons in self.unexpected[:20]:
            out.append(f"FAILED {name}: {'; '.join(reasons)}")
        out.append("stdout compared with the reference: "
                   + ("yes" if self.refs is not None else
                      "no (no reference for this seed; exit codes, tracebacks "
                      "and self-check fields were checked)"))


def metric(value, unit):
    return {"value": value, "unit": unit}


def _figures(passes, session, factor):
    """Throughput, job-time median and tail, and set-up time of a run.

    Each time is divided by ``factor(result)``.  A job's time is the median
    over the run's passes of its slot, the same job each pass, so that one
    pass caught in a slow moment does not move a percentile.
    """
    rates, by_slot, setups = [], {}, []
    for batch in passes:
        rates.append(len(batch) / sum(r["wall_s"] / factor(r) for r in batch))
        for r in batch:
            if r["status"] == "done":
                by_slot.setdefault(r["name"], []).append(r["job_s"] / factor(r))
        # a session pass is one process, so it has one set-up
        for r in batch[:1] if session else batch:
            if r["setup_s"] is not None:
                setups.append(r["setup_s"] / factor(r))
    times = [statistics.median(v) for v in by_slot.values() for _ in v]
    tail_s, pct = tail(times)
    return {
        # the median pass discounts a pass slowed by a neighbour on the machine
        "jobs_per_s": statistics.median(rates),
        "job_s_p50": statistics.median(times),
        "job_s_tail": tail_s,
        "setup_s": statistics.median(setups),
    }, (pct, len(times), len(setups))


def timed_run(workload, jobs, seconds, verdict, out):
    """End-to-end metrics, in seconds at the reference machine speed.

    Every time is divided by slow ** SPEED_EXPONENT, slow being measured
    beside its job (see ``_timed``), so that a neighbour's load on a shared
    machine moves the figures less; the raw figures are printed beside them.
    """
    passes = []
    t0 = time.monotonic()
    for _ in range(max(2, round(seconds / NOMINAL_PASS_S[workload]))):
        passes.append(run_pass(workload, jobs, trace=False))
        verdict.add(passes[-1])
    wall = time.monotonic() - t0
    session = workload == "session"
    figures, (pct, n_times, n_setups) = _figures(
        passes, session, lambda r: r["slow"] ** SPEED_EXPONENT)
    raw, _ = _figures(passes, session, lambda r: 1.0)
    results = [r for batch in passes for r in batch]
    ok = verdict.attempted - len(verdict.unexpected) - len(verdict.known)
    out.append(f"{len(results)} jobs in {len(passes)} passes, {wall:.2f} s; "
               f"job_s_tail is p{pct:.1f} of {n_times} job times; "
               f"setup_s is the median of {n_setups} set-ups; "
               f"fail_ratio = {1 - ok / verdict.attempted:.4f}")
    raw["slow"] = statistics.median(r["slow"] for r in results)
    out.append("raw, before the speed correction: " + json.dumps(raw))
    units = {"jobs_per_s": "jobs/s", "job_s_p50": "s", "job_s_tail": "s", "setup_s": "s"}
    m = {name: metric(v, units[name]) for name, v in figures.items()}
    m["peak_rss_mb"] = metric(max(r["rss_kb"] for r in results) / 1024, "MiB")
    m["ok_ratio"] = metric(ok / verdict.attempted, "ratio")
    return m


# per-layer metrics: (metric prefix, tracer key or key prefix, fields)
LAYER_SPEC = [
    ("ainf.mul", "ainf.AinfElt.__mul__", ("calls", "self_s", "pairs", "pairs_kept")),
    ("ainf.pow", "ainf.AinfElt.__pow__", ("calls", "self_s")),
    ("ainf.add", "ainf.AinfElt.__add__", ("self_s",)),
    ("ainf.dirac_q", "ainf.dirac_q", ("calls", "self_s")),
    ("artin_hasse.log_mod", "artin_hasse.artin_hasse_log_mod",
     ("calls", "self_s", "cache_hit_ratio")),
    ("artin_hasse.canonical_measure", "artin_hasse.canonical_measure", ("calls", "self_s")),
    ("witt.teichmuller", "witt.teichmuller", ("calls", "self_s")),
    ("witt.mul", "witt.PerfSeries.__mul__", ("calls", "self_s", "pairs", "pairs_kept")),
    ("padic.gen_binomial", "padic.gen_binomial", ("calls", "self_s")),
    ("padic.binomial_row", "padic.binomial_row_tracked", ("steps", "self_s")),
    ("padic.scalar", "padic.PadicScalar.*", ("calls", "self_s")),
    ("fourier.forward_transform_diracs", "fourier.forward_transform_diracs",
     ("calls", "self_s")),
    ("fourier.integrate_unif", "fourier.integrate_unif", ("calls", "self_s")),
    ("iwasawa.ball_measure", "iwasawa.IwasawaElt.ball_measure",
     ("calls", "self_s", "walk_steps")),
    ("iwasawa.natural_ideal_membership", "iwasawa.IwasawaElt.natural_ideal_membership",
     ("calls", "self_s")),
    ("iwasawa.scan", "iwasawa.intersection_vs_middle_scan", ("self_s", "candidates")),
    ("iwasawa.mahler_solve", "iwasawa.mahler_coeffs_from_samples", ("self_s",)),
    ("iwasawa.mahler_oracle", "iwasawa.mahler_coeffs_by_differences", ("self_s",)),
    ("iwasawa.mul", "iwasawa.IwasawaElt.__mul__", ("calls", "self_s", "pairs", "pairs_kept")),
    ("iwasawa.integrate", "iwasawa.integrate", ("self_s",)),
    ("cli.main", "cli.main", ("self_s",)),
    ("cli.run", "cli.run", ("self_s",)),
]
LAYERS = ("padic", "iwasawa", "ainf", "witt", "artin_hasse", "fourier", "cli")
# size ladder of each heavy workload: (label, tracer keys, count key, slot size keys)
LADDERS = {
    "series": ("ainf.mul self time by product pairs", ["ainf.AinfElt.__mul__"],
               "ainf.AinfElt.__mul__.pairs", None),
    "transform": ("padic self time by precision", ["padic.*"],
                  "padic.binomial_row_tracked.steps", ("p", "prec")),
    "zp-measures": ("ball_measure self time by degree and h",
                    ["iwasawa.IwasawaElt.ball_measure"],
                    "iwasawa.IwasawaElt.ball_measure.walk_steps", ("degree", "h")),
}


def _sum(table, key):
    if key.endswith("*"):
        return sum(v for k, v in table.items() if k.startswith(key[:-1]))
    return table.get(key, 0)


def _pass_totals(results):
    """Sum the per-job trace tables of one pass."""
    tot = {"calls": {}, "self_s": {}, "counts": {}, "errors": {}}
    for res in results:
        for part in tot:
            for k, v in res.get("trace", {}).get(part, {}).items():
                tot[part][k] = tot[part].get(k, 0) + v
    return tot


def _count_signature(res):
    tr = res.get("trace", {})
    return (res["exit"], tr.get("calls"), tr.get("counts"), tr.get("errors"))


def traced_run(workload, jobs, verdict, out):
    plain = run_pass(workload, jobs, trace=False)
    verdict.add(plain)
    traced = [run_pass(workload, jobs, trace=True) for _ in range(2)]
    for batch in traced:
        verdict.add(batch)
    mismatched = [
        a["name"] for a, b in zip(*traced) if _count_signature(a) != _count_signature(b)
    ]
    if mismatched:
        out.append(f"COUNTS DIFFER between two traced passes: {', '.join(mismatched)}")
    if workload == "zp-measures":
        for res in run_pass(workload, joblist.GUARD_PROBES, trace=False):
            out.append(f"runaway guard: {res['name']} ended as {res['status']}, "
                       f"exit {res['exit']}; the run went on")
    totals = [_pass_totals(batch) for batch in traced]
    first = totals[0]

    def self_s(key):
        return statistics.fmean(_sum(t["self_s"], key) for t in totals)

    m = {}
    for name, key, fields in LAYER_SPEC:
        for f in fields:
            if f == "calls":
                m[f"{name}.calls"] = metric(_sum(first["calls"], key), "count")
            elif f == "self_s":
                m[f"{name}.self_s"] = metric(self_s(key), "s")
            elif f == "cache_hit_ratio":
                calls = _sum(first["calls"], key)
                hits = _sum(first["counts"], key + ".cache_hits")
                m[f"{name}.cache_hit_ratio"] = metric(hits / calls if calls else 0.0, "ratio")
            else:
                m[f"{name}.{f}"] = metric(_sum(first["counts"], f"{key}.{f}"), "count")
    for code in range(6):
        m[f"cli.exit.{code}"] = metric(sum(r["exit"] == code for r in traced[0]), "count")
    job_s = statistics.fmean(sum(r["job_s"] for r in batch) for batch in traced)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = metric(self_s(f"{layer}.*"), "s")
        m[f"{layer}.errors"] = metric(first["errors"].get(layer, 0), "count")
    m["job_s"] = metric(job_s, "s")
    m["unattributed_s"] = metric(job_s - self_s("*"), "s")
    plain_s = sum(r["job_s"] for r in plain)
    m["trace_overhead_pct"] = metric(100 * (job_s - plain_s) / plain_s, "%")

    shares = ", ".join(
        f"{layer} {100 * m[f'{layer}.self_s']['value'] / job_s:.1f}%" for layer in LAYERS
    )
    out.append(f"self time share of traced job time ({job_s:.3f} s per pass): {shares}")
    if workload in LADDERS:
        label, keys, count_key, size_keys = LADDERS[workload]
        out.append(f"size ladder, {label}:")
        rows = []
        for job, a, b in zip(jobs, *traced):
            count = _sum(a.get("trace", {}).get("counts", {}), count_key)
            if not count or (size_keys and not job.size):
                continue
            t = statistics.fmean(
                sum(_sum(r["trace"]["self_s"], k) for k in keys) for r in (a, b))
            size = (" ".join(f"{k}={job.size[k]}" for k in size_keys)
                    if size_keys else "")
            rows.append((count, job.name, size, t))
        for count, name, size, t in sorted(rows):
            out.append(f"  {name:34s} {size:18s} {count_key.rsplit('.', 1)[1]}={count:<10d} "
                       f"self_s={t:.4f}")
    return m, not mismatched


def record(workload, seed, jobs):
    """Write the reference exit code and stdout digest of every job for ``seed``."""
    results = run_pass(workload, jobs, trace=False)
    refs = {}
    for job, res in zip(jobs, results):
        reasons = check(job, res, None)
        if reasons and not job.known_failure:
            sys.exit(f"cannot record {job.name}: {'; '.join(reasons)}")
        if not job.probe:
            refs[job.name] = digest(res)
    path = REFS / f"{workload}.json"
    table = json.loads(path.read_text()) if path.is_file() else {}
    table[str(seed)] = refs
    REFS.mkdir(exist_ok=True)
    path.write_text(json.dumps(dict(sorted(table.items(), key=lambda kv: int(kv[0]))),
                               indent=1) + "\n")
    print(f"recorded {len(refs)} references for {workload} seed {seed}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="write the reference outputs for this seed and exit")
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "padic_fourier" / "cli.py").is_file():
        sys.exit(f"no padic_fourier sources under {root / 'src'}; "
                 "run from a full source checkout")
    os.chdir(root)
    jobs = joblist.build(args.workload, args.seed, WORKDIR)
    if args.record:
        record(args.workload, args.seed, jobs)
        return 0
    verdict = Verdict(jobs, load_refs(args.workload, args.seed))
    out = [f"workload {args.workload}, seed {args.seed}, {len(jobs)} jobs per pass"]
    if args.trace:
        metrics, counts_ok = traced_run(args.workload, jobs, verdict, out)
    else:
        metrics, counts_ok = timed_run(args.workload, jobs, args.seconds, verdict, out), True
    verdict.report(out)
    declared = json.loads((root / "BENCHMARK.json").read_text())
    want = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if list(metrics) != want:
        sys.exit(f"metrics {sorted(set(metrics) ^ set(want))} do not match BENCHMARK.json")
    for name, mv in metrics.items():
        out.append(f"  {name:40s} {mv['value']:.6g} {mv['unit']}")
    print("\n".join(out))
    print(json.dumps({
        "correct": counts_ok and not verdict.unexpected,
        "attempted": verdict.attempted,
        "failed": len(verdict.unexpected),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
