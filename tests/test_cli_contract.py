"""The benchmark's contract probes meet their documented CLI exit codes.

``perfbench/jobs.py`` lists, in its ``session`` workload, inputs whose exit
code the CLI documents (parse errors exit 2, precondition violations 3,
Q_p ``--mu @file`` documents load).  This test builds that job list and
runs every probe through ``cli.main`` in process, so the probes are part
of the test suite without a second copy of them.
"""

import importlib.util
import sys
from pathlib import Path

from padic_fourier import cli

ROOT = Path(__file__).resolve().parents[1]


def _bench_jobs():
    path = ROOT / "perfbench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("bench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve the module by name
    spec.loader.exec_module(module)
    return module


def test_session_probes_meet_their_exit_codes(tmp_path, capsys):
    probes = [job for job in _bench_jobs().build("session", 0, tmp_path) if job.probe]
    assert probes
    wrong = {}
    for job in probes:
        code = cli.main(job.argv)
        if code != job.expect_exit:
            wrong[job.name] = (code, job.expect_exit)
    capsys.readouterr()
    assert not wrong, f"(got, documented) exit codes: {wrong}"
