"""Run CLI jobs in this interpreter and report each as one JSON line.

Usage: python3 child.py MEM_MB CPU_S TRACE < jobs

Each stdin line is a job ``{"name", "argv", "cap_s"}``; the job's stdout and
stderr are captured, and one result line goes to the real stdout.  A fixed
calibration loop is timed just before and after each job, so that the
caller can tell how fast the machine ran at that moment.  The
process caps its own address space (MEM_MB) and CPU time (CPU_S) with
setrlimit before importing anything, and each job's wall time with an
interval timer, so a runaway job fails alone instead of stalling the run.
"""

import io
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path


class JobTimeout(BaseException):
    """Raised by the wall-clock timer; not an Exception, so nothing swallows it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def _val(n, p):
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def calibrate():
    """Seconds a fixed loop like the library's hot loops takes now.

    The loop is a small truncated product of dict-keyed series with a
    valuation call per term, as in the series products and binomial walks;
    the best of three tries is kept.
    """
    a = {k: (k * 7919 + 1) % 4096 for k in range(1, 66)}
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        cs = {}
        for k1, c1 in a.items():
            v = _val(k1, 2)
            for k2, c2 in a.items():
                k = k1 + k2
                if k < 90:
                    cs[k] = (cs.get(k, 0) + (c1 >> v) * c2) % 4096
        best = min(best, time.perf_counter() - t0)
    return best


def run_job(cli, job, tracer):
    out, err = io.StringIO(), io.StringIO()
    status, code = "done", None
    if tracer is not None:
        tracer.reset()
    t_cal = time.perf_counter()
    cal = calibrate()
    t_cal = time.perf_counter() - t_cal
    signal.setitimer(signal.ITIMER_REAL, job["cap_s"])
    t0 = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(job["argv"])
            except SystemExit as e:
                code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
            except MemoryError:
                status = "mem_cap"
            except Exception:
                traceback.print_exc()
                code = 1
    except JobTimeout:
        status = "time_cap"
    finally:
        job_s = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
    t1 = time.perf_counter()
    cal += calibrate()
    t_cal += time.perf_counter() - t1
    doc = {
        "name": job["name"],
        "status": status,
        "exit": code,
        "stdout": out.getvalue(),
        "traceback": "Traceback (most recent call last)" in err.getvalue(),
        "stderr_tail": err.getvalue()[-400:],
        "job_s": job_s,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cal_s": cal / 2,  # the calibration loop's time beside the job
        "cal_wall_s": t_cal,  # time spent calibrating, not part of the job
    }
    if tracer is not None:
        doc["trace"] = {
            "calls": dict(tracer.calls),
            "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts),
            "errors": dict(tracer.errors),
        }
    return doc


def main():
    mem_mb, cpu_s, trace = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3] == "1"
    resource.setrlimit(resource.RLIMIT_AS, (mem_mb << 20, mem_mb << 20))
    resource.setrlimit(resource.RLIMIT_CPU, (cpu_s, cpu_s + 5))
    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(here))
    import padic_fourier.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        sys.exit(f"padic_fourier imported from {cli.__file__}, not {src}")
    tracer = None
    if trace:
        import tracer as tracing

        tracer = tracing.install()
    signal.signal(signal.SIGALRM, _on_alarm)
    ready = time.monotonic()
    real_out = sys.stdout
    for line in sys.stdin:
        doc = run_job(cli, json.loads(line), tracer)
        doc["ready"] = ready
        real_out.write(json.dumps(doc) + "\n")
        real_out.flush()


if __name__ == "__main__":
    main()
