import contextlib
import io
import json
import math
import os
import shlex
import subprocess
import sys
import tempfile
import time
from datetime import timedelta
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from padic_fourier import _series, cli
from padic_fourier.ainf import AinfElt
from padic_fourier.cli import JobSpec, main, run
from padic_fourier.errors import PadicFourierError, ParseError, PreconditionError
from padic_fourier.fourier import UnifFn, integrate_unif_matrix
from padic_fourier.iwasawa import IwasawaElt, MahlerFn, integrate_matrix
from padic_fourier.padic import PadicScalar, SExponent, vp_int
from padic_fourier.witt import PerfSeries


# one job per --prec site of the CLI, with its required flags
_PREC_JOBS = [
    ["mahler", "--samples", "1,2,3"],
    ["integrate", "--f", "binom:1", "--mu", "T"],
    ["convolve", "--mu1", "T", "--mu2", "T"],
    ["ball", "--mu", "T", "--a", "0", "--h", "1"],
    ["wval", "--mu", "T"],
    ["dirac", "--a", "1"],
    ["dirac", "--s", "1/3", "--depth", "1"],
    ["mucan"],
    ["fourier", "--combo", "1@1/3"],
    ["orthocheck"],
    ["orthocheck", "--mode", "qp"],
]


def run_cli(args, env=None, timeout=None):
    import os

    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        [sys.executable, "-m", "padic_fourier.cli", *args],
        capture_output=True, text=True, env=full_env, timeout=timeout,
    )


class TestCommands:
    def test_integrate_basis_example(self):
        out = run_cli(["integrate", "--p", "3", "--f", "binom:2", "--mu", "T^2", "--prec", "20"])
        assert out.returncode == 0
        doc = json.loads(out.stdout)
        assert doc["value"]["unit"] == 1 and doc["value"]["shift"] == 0
        assert doc["value"]["prec"] == 20

    def test_integrate_orthogonal_zero(self):
        out = run_cli(["integrate", "--p", "3", "--f", "binom:2", "--mu", "T^3"])
        doc = json.loads(out.stdout)
        assert doc["value"]["unit"] == 0

    def test_mahler_matches_oracle(self):
        out = run_cli(["mahler", "--p", "3", "--samples", "1,1,1,0,0,0,0,0,0"])
        doc = json.loads(out.stdout)
        assert doc["matches_difference_oracle"] is True
        assert doc["coeffs"][0] == 1 and doc["prec"] == 3

    @pytest.mark.parametrize("p, samples, n", [
        (3, "1,1,1,0,0,0,0,0,0", 0), (3, "1,1,1,0,0,0,0,0,0", 8), (2, "5,0,3,1", 2),
    ])
    def test_mahler_self_check_flags_one_wrong_coefficient(self, capsys, monkeypatch,
                                                           p, samples, n):
        # the self-check is the inverse pass: samples -> coefficients -> samples
        # must give the samples back, so one corrupt coefficient shows
        real = _series.differences_at_zero

        def corrupt(values, mod, sign=-1):
            out = real(values, mod, sign)
            if sign == -1:
                out[n] = (out[n] + 1) % mod
            return out

        argv = ["mahler", "--p", str(p), "--samples", samples]
        assert main(argv) == 0
        assert '"matches_difference_oracle": true' in capsys.readouterr().out
        monkeypatch.setattr(_series, "differences_at_zero", corrupt)
        assert main(argv) == 0
        assert '"matches_difference_oracle": false' in capsys.readouterr().out

    def test_mucan_reduction(self):
        out = run_cli([
            "mucan", "--p", "2", "--stage", "2", "--prec", "4", "--depth", "3",
            "--degree", "2",
        ])
        doc = json.loads(out.stdout)
        # mod 2 the measure reduces to the logarithm series: only the Tt term
        # survives below degree 2
        odd = [t for t in doc["measure"]["terms"] if t["coeff"] % 2]
        assert odd == [{"q": {"num": 1, "logden": 0}, "coeff": 1}]

    def test_dirac_qp(self):
        out = run_cli(["dirac", "--p", "2", "--s", "1/2", "--depth", "1",
                       "--prec", "4", "--degree", "2", "--format", "pretty"])
        assert out.stdout.strip() == "1 + Tt^1/2 + O(2^4, q>=2)"

    def test_ball(self):
        out = run_cli(["ball", "--p", "3", "--mu", "dirac:5", "--a", "2", "--h", "1"])
        doc = json.loads(out.stdout)
        assert doc["value"]["unit"] == 1

    def test_wval_markers(self):
        out = run_cli(["wval", "--p", "2", "--mu", "Tt^3/2"])
        doc = json.loads(out.stdout)
        assert doc["w"] == {"num": 3, "den": 2}

    def test_teich(self):
        out = run_cli(["teich", "--p", "2", "--x", "t^1/2", "--digits", "3"])
        doc = json.loads(out.stdout)
        assert doc["measure"]["terms"] == [{"q": {"num": 1, "logden": 1}, "coeff": 1}]

    def test_fourier_monomial(self):
        out = run_cli(["fourier", "--p", "2", "--mu", "Tt^3/2", "--degree", "4"])
        doc = json.loads(out.stdout)
        assert doc["coefficients"] == [
            {"q": {"num": 3, "logden": 1}, "value": {"p": 2, "prec": 8, "shift": 0, "unit": 1}}
        ]

    def test_convolve_diracs(self):
        out = run_cli(["convolve", "--p", "3", "--mu1", "dirac:1", "--mu2",
                       "dirac:1", "--prec", "4", "--degree", "6"])
        doc = json.loads(out.stdout)
        assert doc["measure"]["coeffs"][:3] == [1, 2, 1]

    def test_orthocheck_zp(self):
        out = run_cli(["orthocheck", "--p", "2", "--imax", "6", "--prec", "8"])
        doc = json.loads(out.stdout)
        assert doc["pass"] is True and doc["checked"] == 49

    def test_idealcheck(self):
        out = run_cli(["idealcheck", "--p", "2", "--N", "1", "--scan", "full"])
        doc = json.loads(out.stdout)
        assert doc["pass"] is True and doc["scan_escapees"] == 0


class TestDeterminism:
    def test_byte_identical_runs(self):
        args = ["mucan", "--p", "2", "--stage", "1", "--prec", "3", "--depth", "2"]
        a, b = run_cli(args), run_cli(args)
        assert a.stdout == b.stdout and a.returncode == b.returncode == 0

    def test_emitted_json_reparses(self):
        out = run_cli(["dirac", "--p", "3", "--a", "4", "--degree", "6", "--prec", "4"])
        doc = json.loads(out.stdout)
        from padic_fourier.iwasawa import IwasawaElt, dirac

        assert IwasawaElt.from_json(doc["measure"]) == dirac(4, 6, 4, p=3)


class TestErrors:
    def test_parse_error_exit_2(self):
        out = run_cli(["integrate", "--p", "3", "--f", "nonsense", "--mu", "T^2"])
        assert out.returncode == 2

    def test_precondition_exit_3(self):
        out = run_cli(["dirac", "--p", "3", "--s", "1/9", "--depth", "1"])
        assert out.returncode == 3

    def test_box_cap_exit_3(self):
        out = run_cli(
            ["dirac", "--p", "3", "--a", "1", "--degree", "50"],
            env={"PADIC_FOURIER_MAX_BOX": "10"},
        )
        assert out.returncode == 3

    @pytest.mark.parametrize("prec", ["0", "-3"])
    def test_mucan_nonpositive_prec_exit_3(self, prec):
        out = run_cli(["mucan", "--p", "2", "--stage", "1", "--prec", prec])
        assert out.returncode == 3 and "Traceback" not in out.stderr

    # a printed Q_p measure writes its degree bound as an S-exponent; a bound
    # that is none is refused before the job's work, where the mucan job
    # once ran 1.2 s in process and failed only in the writer
    @pytest.mark.parametrize("argv", [
        "mucan --p 3 --stage 8 --depth 9 --prec 4 --degree 1/2",
        "teich --p 3 --x t^1/3+t --digits 6 --degree 1/2",
        "dirac --p 3 --s 1/3 --depth 12 --prec 12 --degree 1/2",
        "convolve --p 3 --mu1 diracq:1/3@depth8 --mu2 diracq:2/3@depth8 --prec 4 --degree 1/2",
    ])
    def test_unprintable_degree_exits_3_at_once(self, capsys, argv):
        start = time.perf_counter()
        assert main(argv.split()) == 3
        assert time.perf_counter() - start < 0.25, argv
        assert "not a power of 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "convolve --p 3 --mu1 diracq:1/3@depth10 --mu2 diracq:2/3@depth10 --degree 1/2 --prec 12",
        "convolve --p 3 --mu1 diracq:1/3@depth10 --mu2 @DOC --degree 1/2 --prec 12",
    ])
    def test_convolve_degree_is_checked_before_any_build(self, monkeypatch, capsys, argv):
        # the product's degree, the least bound of the flag and the
        # documents, is read before any build: no Dirac mass is built for a
        # product that cannot be printed
        calls = []
        monkeypatch.setattr(cli, "dirac_q", lambda *a: calls.append(a))
        with tempfile.TemporaryDirectory() as tmp:
            doc = AinfElt.monomial(3, Fraction(1, 3), 12, 1).to_json()
            (Path(tmp) / "mu.json").write_text(json.dumps(doc))
            assert main(argv.replace("DOC", str(Path(tmp) / "mu.json")).split()) == 3
        assert calls == []
        assert "denominator 2 is not a power of 3" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        "wval --p 3 --mu Tt --degree 1/2",
        "fourier --p 3 --mu Tt --degree 1/2",
        "integrate --p 3 --f binom:1/3@depth1 --mu Tt --degree 1/2",
    ])
    def test_unprinted_degree_is_not_refused(self, capsys, argv):
        assert main(argv.split()) == 0
        capsys.readouterr()

    def test_fourier_combo_q_count_is_budgeted(self):
        out = run_cli(["fourier", "--p", "3", "--combo", "1@1/3", "--qmax", "1000000000"])
        assert out.returncode == 3
        assert "PADIC_FOURIER_MAX_BOX" in out.stderr
        assert "Traceback" not in out.stderr

    def test_fourier_combo_precision_is_budgeted(self):
        # 800,000 bits pass the --prec bit rule, but the block products of
        # the binomials would run for hours: the work count refuses them
        # first (with no integer string limit, which refuses them as well)
        start = time.monotonic()
        out = run_cli(["fourier", "--p", "2", "--combo", "1@1/2", "--prec", "400000"],
                      env={"PYTHONINTMAXSTRDIGITS": "0"}, timeout=10)
        assert time.monotonic() - start < 5
        assert out.returncode == 3
        assert "PADIC_FOURIER_MAX_BOX" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv", [
        ["fourier", "--p", "2", "--combo", "1@3/7", "--prec", "1600"],
        ["fourier", "--p", "7", "--combo", "1@2/3", "--prec", "400"],
    ], ids=["p2-point-3_7-prec1600", "p7-point-2_3-prec400"])
    def test_fourier_combo_unit_points_are_budgeted(self, argv):
        # a point whose denominator is not a power of p meets blocks of every
        # size on every level: these ran 36.8 s and 16.8 s under a count that
        # priced them as aligned points
        start = time.monotonic()
        out = run_cli(argv, timeout=10)
        assert time.monotonic() - start < 5
        assert out.returncode == 3
        assert "PADIC_FOURIER_MAX_BOX" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("prec, admitted", [(1600, True), (1800, False)])
    def test_fourier_combo_work_count_at_the_default_cap(self, monkeypatch, prec, admitted):
        # one p=2 point: the count is checked before the transform runs, so
        # a stub stands in for it
        calls = []
        monkeypatch.setenv("PADIC_FOURIER_MAX_BOX", "1000000")
        monkeypatch.setattr(cli, "forward_transform_diracs", lambda *a: calls.append(a) or {})
        job = JobSpec("fourier", {"p": 2, "combo": "1@1/2", "prec": prec})
        if admitted:
            assert run(job) == {"coefficients": []} and len(calls) == 1
        else:
            with pytest.raises(PreconditionError, match="PADIC_FOURIER_MAX_BOX"):
                run(job)
            assert not calls

    @pytest.mark.parametrize("args", [
        ["integrate", "--f", "binom:1", "--mu", "diracq:1/2@depth24"],
        ["convolve", "--mu1", "diracq:1/2@depth24", "--mu2", "Tt"],
        ["wval", "--mu", "diracq:1/2@depth24"],
    ])
    def test_diracq_box_is_budgeted_before_it_is_built(self, args):
        # 16 * 2^24 + 1 cells: building the measure first runs for minutes, so
        # the timeout fails the test; the budget check itself takes
        # milliseconds, the rest is interpreter start-up
        start = time.monotonic()
        out = run_cli([args[0], "--p", "2", *args[1:], "--degree", "16"], timeout=10)
        assert time.monotonic() - start < 5
        assert out.returncode == 3
        assert "PADIC_FOURIER_MAX_BOX" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("args, checked", [
        (["--p", "2", "--N", "4", "--scan", "bounded"], 3**16 * 2),
        (["--p", "3", "--N", "3", "--scan", "bounded"], 2**55),
        (["--p", "2", "--N", "3", "--scan", "full"], 2**45),
    ], ids=["p2-N4-bounded", "p3-N3-bounded", "p2-N3-full"])
    def test_idealcheck_scan_beyond_enumeration(self, args, checked):
        # enumerating these candidates needs 10.9 GiB, 7 EiB and 2.25 PiB
        out = run_cli(["idealcheck", *args], timeout=10)
        assert out.returncode == 0, out.stderr
        doc = json.loads(out.stdout)
        assert doc["scan_escapees"] == doc["scan_missed"] == 0
        assert doc["scan_checked"] == checked

    @pytest.mark.parametrize("p, N", [(2, 7), (5, 3)])
    def test_largest_idealcheck_under_the_default_cap_runs(self, p, N):
        # the default cap refuses N + 1; at N the monomial ball table and the
        # row-tracked Smith form finish well inside the timeout
        env = {"PADIC_FOURIER_MAX_BOX": "1000000"}
        out = run_cli(["idealcheck", "--p", str(p), "--N", str(N)], env=env, timeout=10)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["pass"] is True
        assert main(["idealcheck", "--p", str(p), "--N", str(N + 1), "--scan", "off"]) == 3

    @pytest.mark.parametrize("p, N, scan, checked", [
        (2, 6, "off", None),
        (3, 3, "off", None),
        (2, 2, "full", 1048576),
        (3, 2, "bounded", 524288),
        (2, 7, "bounded", 23580369155477166343041745722825037331356423184551682218193922),
    ])
    def test_idealcheck_documents_are_pinned(self, capsys, p, N, scan, checked):
        # every generator list passes against the one ball-ideal intersection,
        # and the scan counts its candidates by the index argument
        assert main(["idealcheck", "--p", str(p), "--N", str(N), "--scan", scan]) == 0
        want = {
            "p": p, "N": N, "power_generators_pass": True, "equal_list_pass": True,
            "middle_generators_pass": True, "pass": True,
        }
        if checked is not None:
            want.update(scan_checked=checked, scan_escapees=0, scan_missed=0)
        assert json.loads(capsys.readouterr().out) == want

    def test_idealcheck_unknown_scan_exits_2(self, capsys):
        assert main(["idealcheck", "--p", "2", "--N", "1", "--scan", "bogus"]) == 2
        assert "unknown scan" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, missing", [
        pytest.param(["mahler", "--p", "3"], "--samples", id="mahler"),
        pytest.param(["integrate", "--p", "3", "--mu", "T"], "--f", id="integrate"),
        pytest.param(["convolve", "--p", "3", "--mu1", "T"], "--mu2", id="convolve"),
        pytest.param(["ball", "--p", "3", "--mu", "T"], "--a", id="ball"),
        pytest.param(["wval", "--p", "3"], "--mu", id="wval"),
        pytest.param(["dirac", "--p", "3", "--degree", "4"], "--a or --s", id="dirac"),
        pytest.param(["teich", "--p", "2"], "--x", id="teich"),
        pytest.param(["fourier", "--p", "2", "--qmax", "1"], "--combo or --mu", id="fourier"),
        pytest.param(["idealcheck", "--p", "2"], "--N", id="idealcheck"),
    ])
    def test_required_flag_missing_exits_2(self, capsys, argv, missing):
        assert main(argv) == 2
        assert f"needs {missing}" in capsys.readouterr().err

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        out = tmp_path / "missing-dir" / "x.json"
        assert main(["wval", "--p", "2", "--mu", "T", "--out", str(out)]) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_closed_stdout_exits_2_without_a_traceback(self):
        # stdout is a pipe whose read end is closed before the child starts
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "padic_fourier.cli", "wval", "--p", "2", "--mu", "T"],
                stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        finally:
            os.close(write_end)
        assert out.returncode == 2
        assert out.stderr.startswith("error: cannot write stdout")
        assert out.stderr.count("\n") == 1, out.stderr  # no traceback, no exit-flush warning

    @pytest.mark.parametrize("argv", [
        ["wval", "--mu", "MU"],
        ["integrate", "--f", "binom:1", "--mu", "MU"],
        ["convolve", "--mu1", "MU", "--mu2", "Tt"],
        ["fourier", "--mu", "MU", "--degree", "2"],
    ], ids=["wval", "integrate", "convolve", "fourier"])
    def test_depth_flag_matches_inline_depth(self, capsys, argv):
        def job(mu, *extra):
            code = main([argv[0], "--p", "2", *(mu if a == "MU" else a for a in argv[1:]), *extra])
            return code, capsys.readouterr().out

        assert job("diracq:1/2", "--depth", "2") == job("diracq:1/2@depth2")
        assert job("diracq:1/2", "--depth", "2")[0] == 0

    def test_bad_depth_flag_exits_2(self, capsys):
        assert main(["wval", "--p", "2", "--mu", "diracq:1/2", "--depth", "x"]) == 2
        assert "bad --depth 'x'" in capsys.readouterr().err

    def test_idealcheck_negative_N_exits_3(self, capsys):
        assert main(["idealcheck", "--p", "2", "--N", "-1"]) == 3
        assert "N -1 < 0" in capsys.readouterr().err
        assert main(["idealcheck", "--p", "2", "--N", "0"]) == 0

    @pytest.mark.parametrize("args", [
        ["orthocheck", "--p", "2", "--imax", "2000"],
        ["orthocheck", "--p", "2", "--mode", "qp", "--qdepth", "40", "--qmax", "2"],
        ["idealcheck", "--p", "7", "--N", "3", "--scan", "off"],
        ["idealcheck", "--p", "3", "--N", "5"],
        ["dirac", "--p", "2", "--s", "1", "--depth", "15000"],
        ["mucan", "--p", "2", "--stage", "1", "--depth", "100000000"],
        ["mucan", "--p", "2", "--stage", "14", "--prec", "12"],
        ["mucan", "--p", "11", "--stage", "0", "--depth", "4", "--prec", "12"],
        ["mucan", "--p", "5", "--stage", "5", "--prec", "40"],
        ["wval", "--p", "2", "--mu", "diracq:1@depth100000000"],
        ["fourier", "--p", "2", "--combo", "1@1/2", "--qdepth", "100000000"],
        ["idealcheck", "--p", "3", "--N", "100000000"],
        ["orthocheck", "--p", "3", "--mode", "qp", "--qdepth", "100000000"],
        ["dirac", "--p", "2", "--s", "1", "--depth", "2", "--degree", "9" * 4300],
        ["teich", "--p", "2", "--x", "1 + t", "--digits", "20"],
        ["mahler", "--p", "2", "--samples", ",".join(["1", "0"] * 8192)],
        ["ball", "--p", "3", "--mu", "T", "--a", "0", "--h", "4000000"],
        *([job[0], "--p", "3", *job[1:], "--prec", "100000000"] for job in _PREC_JOBS),
    ], ids=["orthocheck-zp", "orthocheck-qp", "idealcheck-p7-N3", "idealcheck-p3-N5",
            "dirac-depth-15000", "mucan-depth-1e8", "mucan-p2-stage-14",
            "mucan-p11-depth-4", "mucan-p5-prec-40", "wval-diracq-depth-1e8",
            "fourier-qdepth-1e8", "idealcheck-N-1e8", "orthocheck-qdepth-1e8",
            "dirac-degree-4300-digits", "teich-digits-20", "mahler-16384-samples",
            "ball-h-4e6",
            *("-".join(a.lstrip("-") for a in job[:2]) + "-prec-1e8" for job in _PREC_JOBS)])
    def test_check_commands_are_budgeted(self, args):
        # with no budget the first four ran past 4 s (idealcheck) or 8 s
        # (orthocheck); the exponent checks refuse the next six before the
        # power p^k, which ran for seconds or put more than 4300 digits into
        # the error text, as the 4300-digit degree's cell count still would;
        # of the --prec jobs, wval and integrate ran past a 10 s timeout
        # computing p^prec; with no charge at all teich ran 3.7 s at 18 digits
        # (about 7 times as long per two digits), mahler's difference oracle
        # 31 s on 16384 samples, and ball 2.3 s computing 3^4000000; under a
        # count linear in the box the first two mucan --prec 12 jobs took
        # 8-11 s, and under a weight sublinear in the slot width the --prec
        # 40 one 6-10 s
        start = time.monotonic()
        out = run_cli(args, timeout=10)
        assert time.monotonic() - start < 5
        assert out.returncode == 3
        assert "PADIC_FOURIER_MAX_BOX" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("args", [
        ["fourier", "--p", "3", "--combo", "1@0", "--qmax", "0", "--qdepth", "100000000"],
        ["orthocheck", "--p", "3", "--mode", "qp", "--qmax", "0", "--qdepth", "100000000"],
    ], ids=["fourier", "orthocheck-qp"])
    def test_zero_qmax_skips_the_power(self, args):
        # qmax·p^qdepth is 0, so no job needs 3^100000000, a power of about
        # 160 million bits
        start = time.monotonic()
        out = run_cli(args, timeout=10)
        assert time.monotonic() - start < 5
        assert out.returncode == 0

    def test_prec_jobs_cover_every_command_with_prec(self):
        assert {argv[0] for argv in _PREC_JOBS} == {
            c for c, (_, flags, _) in cli._COMMANDS.items() if "prec" in flags}

    def test_unknown_command_rejected(self):
        with pytest.raises(ParseError):
            run(JobSpec("frobnicate", {}))

    def test_unknown_param_rejected(self):
        with pytest.raises(ParseError):
            run(JobSpec("mahler", {"p": 3, "samples": "1", "bogus": 1}))

    def test_unknown_key_in_json_doc(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"samples": "1,2", "mystery": True}))
        with pytest.raises(ParseError):
            run(JobSpec("mahler", {"p": 2}, in_path=str(path)))

    def test_in_file_supplies_params(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(json.dumps({"samples": "1,1,1,0,0,0,0,0,0"}))
        doc = run(JobSpec("mahler", {"p": 3}, in_path=str(path)))
        assert doc["period"] == 9


@pytest.mark.parametrize("argv, code", [
    (["ball", "--p", "3", "--mu", "T^2", "--a", "x", "--h", "1"], 2),
    (["ball", "--p", "3", "--mu", "T^2", "--a", "0", "--h", "1", "--degree", "1.5"], 2),
    (["wval", "--p", "3", "--mu", "T^2", "--degree", "abc"], 2),
    (["mahler", "--p", "3", "--samples", "1,x,1"], 2),
    (["idealcheck", "--p", "2", "--N", "two", "--scan", "off"], 2),
    (["teich", "--p", "2", "--x", "x*t"], 2),
    (["integrate", "--p", "2", "--f", "binom:1@depthx", "--mu", "Tt"], 2),
    (["wval", "--p", "2", "--mu", "@does-not-exist.json"], 2),
    (["wval", "--p", "x", "--mu", "T"], 2),
    (["fourier", "--p", "6", "--combo", "1@1/2"], 3),
    (["dirac", "--p", "3", "--a", "5", "--degree", "0"], 3),
    (["mahler", "--p", "3", "--samples", "1,1,1,0,0,0,0,0,0", "--prec", "2"], 0),
    (["mucan", "--p", "2", "--stage", "-1", "--depth", "4"], 3),
    (["dirac", "--p", "2", "--s", "1", "--depth", "-1"], 3),
    (["orthocheck", "--p", "2", "--mode", "qp", "--qdepth", "-1"], 3),
    (["wval", "--p", "2", "--mu", "T^-1"], 3),
    (["ball", "--p", "2", "--mu", "T^-1", "--a", "0", "--h", "0"], 3),
    (["integrate", "--p", "2", "--f", "binom:-1", "--mu", "T"], 3),
    (["orthocheck", "--p", "2", "--imax", "-1"], 3),
    (["orthocheck", "--p", "2", "--mode", "qp", "--qmax", "-1"], 3),
    (["orthocheck", "--p", "2", "--mode", "qp", "--qmax", "0"], 0),
    # a document measure has its own precision, so --prec reached only the
    # function: 0 printed 0 + O(3^0), -2 failed in the scalar constructor
    (["integrate", "--p", "3", "--f", "binom:2", "--mu", "DOC", "--prec", "0"], 3),
    (["integrate", "--p", "3", "--f", "binom:2", "--mu", "DOC", "--prec", "-2"], 3),
    # a negative exponent box or depth exits 3 even where no term uses it:
    # all but the last of these ran and exited 0
    (["fourier", "--p", "2", "--combo", "1@1/2", "--qmax", "-1"], 3),
    (["integrate", "--p", "2", "--f", "binom:1@depth-1", "--mu", "Tt"], 3),
    (["fourier", "--p", "2", "--mu", "Tt^1/2", "--depth", "-1"], 3),
    (["convolve", "--p", "2", "--mu1", "Tt", "--mu2", "Tt", "--depth", "-1"], 3),
    (["wval", "--p", "2", "--mu", "Tt", "--depth", "-1"], 3),
    (["fourier", "--p", "2", "--combo", "1@1/2", "--qdepth", "-1"], 3),
    # a given --depth or --degree is read on a path that does not use it:
    # each of these but the last ran and exited 0
    (["wval", "--p", "2", "--mu", "T", "--depth", "x"], 2),
    (["wval", "--p", "2", "--mu", "T", "--depth", "-1"], 3),
    (["dirac", "--p", "2", "--a", "1", "--depth", "x"], 2),
    (["dirac", "--p", "2", "--a", "1", "--depth", "-1"], 3),
    (["fourier", "--p", "2", "--combo", "1@1/2", "--depth", "x", "--degree", "y"], 2),
    (["fourier", "--p", "2", "--combo", "1@1/2", "--degree", "y"], 2),
    (["fourier", "--p", "2", "--combo", "1@1/2", "--depth", "-1"], 3),
    (["fourier", "--p", "2", "--combo", "1@1/2", "--depth", "1", "--degree", "3/2"], 0),
    # a flag of the other path is read too: each of these ran and exited 0
    (["fourier", "--p", "2", "--combo", "1@1/2", "--mu", "garbage"], 2),
    (["orthocheck", "--p", "2", "--imax", "2", "--qmax", "x", "--qdepth", "y"], 2),
    (["orthocheck", "--p", "2", "--mode", "qp", "--imax", "x"], 2),
])
def test_flag_values_map_to_documented_exit_codes(capsys, tmp_path, argv, code):
    doc = _doc_arg(tmp_path, {"p": 3, "prec": 4, "degree": 4, "coeffs": [1, 2, 3]})
    assert main([doc if a == "DOC" else a for a in argv]) == code
    capsys.readouterr()


@pytest.mark.parametrize("mode, off", [
    ("zp", "{'i': 2, 'j': 5}"), ("qp", "{'q1': 2, 'q2': 5}"),
])
def test_orthocheck_reports_a_pair_off_by_a_unit(capsys, monkeypatch, mode, off):
    # basis function 2 also takes basis function 5's coefficient, so pair
    # (2, 5) pairs to 1 where the delta is 0, and no other pair moves
    if mode == "zp":
        cls, scale, flags = cli.MahlerFn, 1, ["--imax", "6", "--prec", "8"]
        skew = lambda p, prec: cls(p, prec, {2: 1, 5: 1}, 6, exact_tail=True)
    else:  # keys k at --qdepth 2 stand for q = k/4
        cls, scale, flags = cli.UnifFn, 4, ["--qmax", "2"]
        skew = lambda p, prec: cls(p, prec, 2, {2: 1, 5: 1}, exact_tail=True)
    basis = cls.basis.__func__
    monkeypatch.setattr(cls, "basis", classmethod(
        lambda klass, p, q, prec: skew(p, prec) if q * scale == 2 else basis(klass, p, q, prec)
    ))
    assert main(["orthocheck", "--p", "2", "--mode", mode, *flags]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error: orthogonality failed at [") and f"[{off}]" in err


@pytest.mark.parametrize("argv, cells", [
    (["orthocheck", "--p", "2", "--imax", "30", "--prec", "20"], 31),
    (["orthocheck", "--p", "2", "--mode", "qp"], 16),
], ids=["zp-readme", "qp-default"])
def test_orthocheck_work_is_linear_in_the_basis(capsys, monkeypatch, argv, cells):
    # the pairing matrix is one batch: no scalar and no single integral per
    # pair, so the counts stay O(cells) where the per-pair check made cells²
    from padic_fourier import fourier, iwasawa
    from padic_fourier.padic import PadicScalar

    calls = {"scalar": 0, "integral": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(PadicScalar, "__init__", counted("scalar", PadicScalar.__init__))
    for mod, name in [(iwasawa, "integrate"), (fourier, "integrate_unif"),
                      (cli, "integrate"), (cli, "integrate_unif")]:
        monkeypatch.setattr(mod, name, counted("integral", getattr(mod, name)))
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["checked"] == cells**2
    assert calls["integral"] == 0 and calls["scalar"] <= cells


@pytest.mark.parametrize("argv, doc", [
    (["wval", "--p", "2", "--mu", "Tt"], {"degree": None}),
    (["dirac", "--p", "2", "--depth", "1"], {"s": [1]}),
    (["integrate", "--p", "3", "--f", "binom:2", "--mu", "T^2"], {"prec": 7.9}),
    (["idealcheck", "--p", "2"], {"N": True}),
], ids=["null-degree", "list-s", "float-prec", "bool-N"])
def test_in_values_of_a_wrong_json_type_exit_2(capsys, tmp_path, argv, doc):
    # a flag value from --in is a str or an int but no bool: the first two
    # ended in a TypeError traceback, the last two ran as prec 7 and N = 1
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, "--in", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad ")


ZP_DOC = {"p": 2, "prec": 4, "degree": 4, "coeffs": [1, 2, 3]}
QP_DOC = {"p": 2, "prec": 6, "depth": 1, "degree": 4,
          "terms": [{"q": {"num": 1, "logden": 1}, "coeff": 3}]}


def _doc_arg(tmp_path, doc):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(doc))
    return f"@{path}"


class TestMeasureDocuments:
    """Each ``--mu @file`` defect exits with its documented code, in process
    and so without a traceback."""

    def _main(self, capsys, argv):
        code = main(argv)
        capsys.readouterr()
        return code

    def _ball(self, capsys, tmp_path, doc, p="2"):
        mu = _doc_arg(tmp_path, doc)
        return self._main(capsys, ["ball", "--p", p, "--mu", mu, "--a", "0", "--h", "1"])

    def test_zp_document_without_prec_exits_2(self, capsys, tmp_path):
        doc = {k: v for k, v in ZP_DOC.items() if k != "prec"}
        assert self._ball(capsys, tmp_path, doc) == 2

    def test_zp_document_with_string_coefficients_exits_2(self, capsys, tmp_path):
        assert self._ball(capsys, tmp_path, {**ZP_DOC, "coeffs": ["a", 1]}) == 2

    def test_zp_document_with_fractional_prec_exits_2(self, capsys, tmp_path):
        assert self._ball(capsys, tmp_path, {**ZP_DOC, "prec": 4.5}) == 2

    def test_qp_document_with_integer_terms_exits_2(self, capsys, tmp_path):
        mu = _doc_arg(tmp_path, {**QP_DOC, "terms": 5})
        assert self._main(capsys, ["wval", "--p", "2", "--mu", mu]) == 2

    @pytest.mark.parametrize("tail, code", [("false", 2), (1, 2), (False, 4), (True, 0)])
    def test_exact_tail_must_be_a_json_bool(self, capsys, tmp_path, tail, code):
        doc = {"p": 2, "prec": 8, "degree": 4, "coeffs": [1, 2, 3, 5], "exact_tail": tail}
        mu = _doc_arg(tmp_path, doc)
        argv = ["ball", "--p", "2", "--mu", mu, "--a", "1", "--h", "3"]
        assert self._main(capsys, argv) == code

    @pytest.mark.parametrize("args", [
        ["wval", "--mu", "DOC"],
        ["ball", "--mu", "DOC", "--a", "0", "--h", "1"],
        ["convolve", "--mu1", "DOC", "--mu2", "T"],
    ], ids=["wval", "ball", "convolve"])
    def test_exact_tail_over_a_cut_coefficient_exits_2(self, capsys, tmp_path, args):
        # C(5, 3..5) lie past degree 3, so the tail is not exactly zero
        doc = {"p": 7, "prec": 4, "degree": 3, "coeffs": [1, 5, 10, 10, 5, 1], "exact_tail": True}
        mu = _doc_arg(tmp_path, doc)
        argv = [args[0], "--p", "7", *(mu if a == "DOC" else a for a in args[1:])]
        assert self._main(capsys, argv) == 2
        doc["coeffs"] = [1, 5, 10, 0, 7**4]  # zero residues may be cut
        _doc_arg(tmp_path, doc)
        assert self._main(capsys, argv) == 0

    def test_ball_on_qp_document_exits_2(self, capsys, tmp_path):
        assert self._ball(capsys, tmp_path, QP_DOC) == 2

    @pytest.mark.parametrize("second", [{"num": 1, "logden": 1}, {"num": 2, "logden": 2}],
                             ids=["same", "same-in-lowest-terms"])
    def test_qp_document_with_a_repeated_exponent_exits_2(self, capsys, tmp_path, second):
        # the second term once replaced the first: coefficient 5, exit 0
        doc = {"p": 2, "prec": 6, "depth": 2, "degree": 4,
               "terms": [{"q": {"num": 1, "logden": 1}, "coeff": 3}, {"q": second, "coeff": 5}]}
        mu = _doc_arg(tmp_path, doc)
        assert self._main(capsys, ["fourier", "--p", "2", "--mu", mu]) == 2

    @pytest.mark.parametrize("doc", [ZP_DOC, QP_DOC], ids=["zp", "qp"])
    def test_document_prime_other_than_p_exits_3(self, capsys, tmp_path, doc):
        mu = _doc_arg(tmp_path, {**doc, "p": 3})
        assert self._main(capsys, ["wval", "--p", "2", "--mu", mu]) == 3

    @pytest.mark.parametrize("cmd", ["fourier", "wval"])
    @pytest.mark.parametrize("p", [1, -1, 0])
    def test_document_prime_below_2_exits_3(self, tmp_path, cmd, p):
        # the exponent of a term is reduced before the constructor checks
        # the prime; with p = 1 that reduction once ran without end
        doc = {"p": p, "prec": 1, "depth": 1, "degree": None,
               "terms": [{"q": {"num": 1, "logden": 1}, "coeff": 1}]}
        out = run_cli([cmd, "--p", "2", "--mu", _doc_arg(tmp_path, doc)], timeout=10)
        assert out.returncode == 3, out.stderr
        assert f"p = {p} is not prime" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("p, doc, extra", [
        ("3", {"p": 3, "prec": 10**8, "degree": 4, "coeffs": [0, 1]}, []),
        ("3", {**QP_DOC, "p": 3, "prec": 10**8}, []),
        ("2", {**QP_DOC, "depth": 10**8}, []),
        ("2", {**QP_DOC, "depth": 10**8, "terms": []}, ["--degree", "0"]),
    ], ids=["zp-prec-1e8", "qp-prec-1e8", "qp-depth-1e8", "qp-depth-1e8-degree-0"])
    def test_document_prec_and_depth_are_budgeted(self, tmp_path, p, doc, extra):
        # a document's "prec" follows the --prec bit rule and a Q_p
        # document's "depth" the cells of degree·p^depth + 1, both before its
        # constructor runs; the first three ran past an 8 s timeout
        # computing p^prec or regridding the terms, and a non-positive Q_p
        # --degree, which would count no cells, is refused first
        start = time.monotonic()
        out = run_cli(["wval", "--p", p, "--mu", _doc_arg(tmp_path, doc), *extra], timeout=10)
        assert time.monotonic() - start < 5
        assert out.returncode == 3, out.stderr
        assert "Traceback" not in out.stderr


    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no integer string limit in this interpreter")
    @pytest.mark.parametrize("args, code", [
        (["dirac", "--p", "2", "--a", "-1", "--degree", "4", "--prec", "14000"], 0),
        (["dirac", "--p", "2", "--a", "-1", "--degree", "4", "--prec", "15000"], 3),
        (["wval", "--p", "2", "--mu", "DOC"], 3),
        (["teich", "--p", "5", "--x", "3*t", "--digits", "7000"], 3),
    ], ids=["prec-14000", "prec-15000", "document-prec-15000", "teich-digits-7000"])
    def test_prec_past_the_integer_string_limit_exits_3(self, tmp_path, args, code):
        # 2^15000 - 1 has 4516 decimal digits, past CPython's default limit
        # of 4300, and writing such a residue out ended in a ValueError
        # traceback (exit 1); 2^14000 - 1 has 4215 and is still written, and
        # 5^7000 has 4893, which teich --digits wrote out in that traceback
        doc = _doc_arg(tmp_path, {"p": 2, "prec": 15000, "degree": 4, "coeffs": [0, 1]})
        args = [doc if a == "DOC" else a for a in args]
        out = run_cli(args, env={"PYTHONINTMAXSTRDIGITS": "4300"}, timeout=30)
        assert out.returncode == code, out.stderr
        assert "Traceback" not in out.stderr
        if code:
            assert "4300 decimal digits" in out.stderr

    def test_no_integer_string_limit_leaves_prec_to_the_bit_cap(self, monkeypatch):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0, raising=False)
        assert cli._budget(2, [("--prec", 15000)]) is None


class TestLargePrimes:
    def test_a_61_bit_prime_runs_in_a_fresh_interpreter(self):
        # trial division took minutes to accept p = 2^61 - 1
        start = time.monotonic()
        argv = ["integrate", "--p", str(2**61 - 1), "--f", "binom:2", "--mu", "T^2"]
        out = run_cli(argv, timeout=60)
        assert time.monotonic() - start < 5
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)["value"]["unit"] == 1

    @pytest.mark.parametrize("p", [3317044064679887385961981, 10**30 + 57])
    def test_a_p_past_the_primality_bound_exits_3(self, capsys, p):
        argv = ["integrate", "--p", str(p), "--f", "binom:2", "--mu", "T^2", "--prec", "2"]
        assert main(argv) == 3
        assert "primality is decided only below" in capsys.readouterr().err


class TestCommandTable:
    @pytest.mark.parametrize("content", [None, "{not json"], ids=["missing", "bad-json"])
    def test_unreadable_in_document_exits_2(self, capsys, tmp_path, content):
        path = tmp_path / "job.json"
        if content is not None:
            path.write_text(content)
        assert main(["mahler", "--p", "3", "--in", str(path)]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["wval", "--mu", "T", "--degree", str(10**12)],
        ["convolve", "--mu1", "T", "--mu2", "T", "--degree", str(10**12)],
        ["wval", "--mu", "DOC"],
    ])
    def test_huge_zp_degree_exits_3_before_it_is_built(self, tmp_path, args):
        doc = _doc_arg(tmp_path, {**ZP_DOC, "degree": 10**12})
        args = [doc if a == "DOC" else a for a in args]
        out = run_cli([args[0], "--p", "2", *args[1:]], timeout=10)
        assert out.returncode == 3
        assert "PADIC_FOURIER_MAX_BOX" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("argv", [
        ["teich", "--p", "2", "--x", "t", "--prec", "3"],
        ["mahler", "--p", "3", "--samples", "1,1,1", "--degree", "5"],
        ["orthocheck", "--p", "2", "--imax", "2", "--seed", "1"],
    ])
    def test_flag_the_command_does_not_take_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def _readme_cli_lines():
    """The lines of the ``sh`` block under ``## CLI`` in the README."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.strip()]
    assert lines
    return lines


def test_readme_cli_examples_run(capsys):
    """Every line of the ``sh`` block under ``## CLI`` in the README exits 0."""
    lines = _readme_cli_lines()
    failed = {line: code for line in lines if (code := main(shlex.split(line)[1:])) != 0}
    capsys.readouterr()
    assert not failed


class _Built(Exception):
    """A library builder was used: the job got past its charge."""


class _Unbuilt:
    """Stands in for a library builder; any call or attribute raises _Built."""

    def __call__(self, *args, **kwargs):
        raise _Built

    def __getattr__(self, name):
        raise _Built


@pytest.fixture
def unbuilt(monkeypatch):
    """Every name cli imports from the series and transform layers stubbed by
    an _Unbuilt, so a job raises _Built once its charge admits it."""
    from padic_fourier import ainf, artin_hasse, fourier, iwasawa, witt

    layers = {m.__name__ for m in (ainf, artin_hasse, fourier, iwasawa, witt)}
    names = [n for n, v in vars(cli).items() if getattr(v, "__module__", None) in layers]
    assert {"teichmuller", "mahler_coeffs_from_samples", "IwasawaElt", "AinfElt"} <= set(names)
    for name in names:
        monkeypatch.setattr(cli, name, _Unbuilt())


def _charged(monkeypatch, capsys, argv, cap):
    """(exit code, stderr) of ``main(argv)`` under PADIC_FOURIER_MAX_BOX=cap."""
    monkeypatch.setenv("PADIC_FOURIER_MAX_BOX", cap)
    code = main(argv)
    return code, capsys.readouterr().err


def test_readme_cli_examples_are_charged_before_anything_is_built(capsys, monkeypatch, unbuilt):
    """Under a cap of 1 every README example exits 3 and names the cap, and
    none uses a library builder first: every charge comes before the build."""
    for line in _readme_cli_lines():
        code, err = _charged(monkeypatch, capsys, shlex.split(line)[1:], "1")
        assert code == 3 and "PADIC_FOURIER_MAX_BOX=1" in err, (line, err)


@pytest.mark.parametrize("argv, cap, admitted", [
    # the --prec 12 and --prec 4 mucan jobs planned for the benchmark
    (["mucan", "--p", "5", "--stage", "5", "--prec", "12"], "1000000", True),
    (["mucan", "--p", "2", "--stage", "10", "--prec", "12"], "1000000", True),
    (["mucan", "--p", "11", "--stage", "3", "--prec", "12"], "1000000", True),
    (["mucan", "--p", "2", "--stage", "12", "--prec", "12"], "1000000", True),
    (["mucan", "--p", "5", "--stage", "5", "--prec", "4"], "1000000", True),
    # 3994 cells and 1 s: it fit the fuzz cap while mucan counted cells alone
    (["mucan", "--p", "11", "--stage", "3", "--prec", "12", "--degree", "3"], "4000", False),
    # 322103 cells, past 100 s: L(T_0) sums 15 powers of T_0 over the box
    (["mucan", "--p", "11", "--stage", "0", "--depth", "5", "--prec", "12"], "1000000", False),
    # past the stage each power of T_n is a product by T_n's p^(depth-stage)
    # + 1 slots: counted as whole-box products these were refused
    (["mucan", "--p", "5", "--stage", "3", "--prec", "40", "--degree", "1", "--depth", "4"],
     "1000000", True),
    (["mucan", "--p", "2", "--stage", "8", "--prec", "40", "--degree", "2", "--depth", "9"],
     "1000000", True),
    # exact support: 2^15 + 1 terms (0.5 s), then 2^17 + 1 (3.7 s)
    (["teich", "--p", "2", "--x", "1 + t", "--digits", "16"], "1000000", True),
    (["teich", "--p", "2", "--x", "1 + t", "--digits", "18"], "1000000", False),
    # 400 keys squared 1999 times: 0.5 s at 100 digits, past four minutes at 2000
    (["teich", "--p", "2", "--x", "1 + t", "--digits", "2000", "--degree", "400"], "1000000", False),
    # the difference oracle: 0.17 s at 1024 samples, 0.64 s at 2048
    (["mahler", "--p", "2", "--samples", ",".join("1" * 1024)], "1000000", True),
    (["mahler", "--p", "2", "--samples", ",".join("1" * 2048)], "1000000", False),
], ids=["mucan-p5-s5", "mucan-p2-s10", "mucan-p11-s3", "mucan-p2-s12", "mucan-p5-s5-n4",
        "mucan-p11-s3-d3-fuzz-cap", "mucan-p11-m5", "mucan-p5-s3-m4", "mucan-p2-s8-m9",
        "teich-digits-16", "teich-digits-18", "teich-degree-400", "mahler-1024", "mahler-2048"])
def test_work_counts_admit_and_refuse(capsys, monkeypatch, unbuilt, argv, cap, admitted):
    if admitted:
        with pytest.raises(_Built):
            _charged(monkeypatch, capsys, argv, cap)
    else:
        code, err = _charged(monkeypatch, capsys, argv, cap)
        assert code == 3 and f"PADIC_FOURIER_MAX_BOX={cap}" in err, err


@pytest.mark.parametrize("args", [
    ["wval", "--mu", "@zp"],
    ["wval", "--mu", "@qp"],
    ["integrate", "--f", "binom:1", "--mu", "@qp"],
    ["convolve", "--mu1", "@zp", "--mu2", "@zp2"],
    ["convolve", "--mu1", "@qp", "--mu2", "@qp2"],
    ["convolve", "--mu1", "@qp", "--mu2", "@qp"],
], ids=["wval-zp", "wval-qp", "integrate-qp", "convolve-zp", "convolve-qp", "convolve-same"])
def test_each_measure_document_is_read_once(capsys, monkeypatch, tmp_path, args):
    # the kind test and the reader each loaded a document, and convolve
    # loaded both of its documents twice
    term = {"q": {"num": 1, "logden": 0}, "coeff": 5}
    docs = {"zp": ZP_DOC, "zp2": {**ZP_DOC, "coeffs": [3, 1]},
            "qp": QP_DOC, "qp2": {**QP_DOC, "terms": [*QP_DOC["terms"], term]}}
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))
    reads = []

    def counted_open(path, *rest):
        reads.append(path)
        return open(path, *rest)

    monkeypatch.setattr(cli, "open", counted_open, raising=False)
    argv = [args[0], "--p", "2", *(f"@{tmp_path / a[1:]}" if a[:1] == "@" else a for a in args[1:])]
    assert main(argv) == 0, capsys.readouterr().err
    assert sorted(reads) == sorted({a[1:] for a in argv if a[:1] == "@"})


def test_readme_cli_examples_run_without_numpy(capsys, monkeypatch):
    """The library needs no numpy: with it blocked the README examples pass."""
    monkeypatch.setitem(sys.modules, "numpy", None)
    test_readme_cli_examples_run(capsys)


def _exit_code(call):
    """``call()``'s exit code, argparse's ``SystemExit`` included."""
    try:
        return call()
    except SystemExit as e:
        return e.code


class TestParsers:
    """``main`` parses with a per-command parser built once per process."""

    @pytest.mark.parametrize("command", list(cli._COMMANDS))
    def test_command_parser_prints_what_the_full_parser_prints(self, command):
        def parse(parser, argv):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _exit_code(lambda: vars(parser.parse_args(argv)))
            return code, out.getvalue(), err.getvalue()

        for argv in (
            [command, "--p", "2", "--bogus", "1"], [command], [command, "--p"],
            [command, "--p", "2", "--format", "x"], [command, "--p", "2", "extra"],
            ["-h", command], [command, "-h"],
        ):
            assert parse(cli._build_parser(command), argv) == parse(
                cli._build_parser(None), argv), argv

    def test_cached_parsers_carry_no_state_between_jobs(self, capsys):
        """A bad-flag call, a job, its pretty form and the job again,
        interleaved with another command in one process, each print and exit
        as the same argv alone in a fresh interpreter."""
        job = ["wval", "--p", "2", "--mu", "Tt^3/2"]
        other = ["ball", "--p", "3", "--mu", "dirac:5", "--a", "2", "--h", "1"]
        for argv in (
            ["wval", "--p", "2", "--mu", "T", "--bogus", "1"],
            job, other, [*job, "--format", "pretty"], other, job,
        ):
            got = _exit_code(lambda: main(argv)), capsys.readouterr().out
            fresh = run_cli(argv)
            assert got == (fresh.returncode, fresh.stdout), argv

    def test_main_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["padic-fourier", "wval", "--p", "2", "--mu", "T"])
        assert main() == 0
        assert json.loads(capsys.readouterr().out) == {"w": {"num": 1, "den": 1}}

    def test_import_loads_neither_inspect_nor_dataclasses(self):
        # -S: no site hooks that might import them first
        code = "import sys, padic_fourier.cli; print(sorted({'inspect', 'dataclasses'} & set(sys.modules)))"
        out = subprocess.run([sys.executable, "-S", "-c", code],
                             capture_output=True, text=True, check=True)
        assert out.stdout == "[]\n"


# the README grammar, malformed values and small integers
_FUZZ_VALUES = [
    *map(str, range(13)), "-1", "", "abc", "1/0", "@/nonexistent",
    "T", "T^3", "dirac:5", "Tt", "Tt^3/2", "diracq:3/4@depth2", "binom:2",
    "const:7", "binom:3/2@depth1", "t^1/2 + 2*t^3", "1@3/4", "1,1,1,0,0,0,0,0,0",
    "zp", "qp", "off", "bounded", "full", "json", "pretty",
]


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    flags = draw(st.lists(st.sampled_from(cli._COMMANDS[command][1]), unique=True))
    value = st.sampled_from(_FUZZ_VALUES)
    argv = [command, "--p", draw(value)]
    for flag in flags + ["format"] * draw(st.booleans()):
        argv += [f"--{flag}", draw(value)]
    return argv


# The slowest job this vocabulary gets past a cap of 4000 is fourier --combo
# 1@3/4 at p=2 qdepth 9 prec 12, 0.11 s in process on a shared 2-CPU machine
# (a grid over the numeric flags of every command).  mucan at p=11 stage 3
# degree 3 prec 12 (1.0 s) and at stage 0 depth 3 (0.5 s) no longer fit: its
# count takes the products of its powers, not the cells alone.  The deadline
# leaves a loaded machine about twenty times that job
@settings(max_examples=200, deadline=timedelta(seconds=2))
@given(argv=_argvs())
@example(argv=["wval", "--p", "2", "--mu", "diracq:1/2", "--depth", "2"])
@example(argv=["idealcheck", "--p", "2", "--N", "-1"])
@example(argv=["mucan", "--p", "2", "--stage", "-1", "--depth", "4"])
@example(argv=["mucan", "--p", "2", "--stage", "1", "--depth", "2", "--degree", "-1"])
@example(argv=["dirac", "--p", "2", "--s", "1", "--depth", "-1"])
@example(argv=["orthocheck", "--p", "2", "--mode", "qp", "--qdepth", "-1"])
@example(argv=["idealcheck", "--p", "7", "--N", "3"])
@example(argv=["wval", "--p", "3", "--mu", "T", "--prec", "100000000"])
@example(argv=["integrate", "--p", "3", "--f", "binom:1", "--mu", "T", "--prec", "30000000"])
def test_fuzzed_argv_exits_with_a_documented_code(argv):
    """Any argv from the grammar's vocabulary exits 0, 2, 3, 4 or 5 without an
    escaping exception; in one process, so the cached parsers serve every job."""
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PADIC_FOURIER_MAX_BOX", "4000")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = _exit_code(lambda: main(argv))
    assert code in (0, 2, 3, 4, 5), (argv, err.getvalue())


@st.composite
def _combo_jobs(draw, count=st.integers(1, 2)):
    """A ``fourier --combo`` argv without --prec: ``count`` points, each aligned
    (its denominator a power of p) or a p-adic unit (one prime to p)."""
    p = draw(st.sampled_from([2, 3, 5]))
    points = []
    for _ in range(draw(count)):
        den = draw(st.sampled_from([p, p**2, p**3, 3 * p + 1, 7]))
        points.append(f"{draw(st.integers(-5, 5))}@{draw(st.integers(1, 40))}/{den}")
    return ["fourier", "--p", str(p), "--combo=" + ",".join(points),
            "--qdepth", str(draw(st.integers(0, 2))),
            "--qmax", draw(st.sampled_from(["1", "3/2", "2"]))]


def _coefficients(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0, argv
    return [(c["q"], PadicScalar.from_json(c["value"])) for c in json.loads(out.getvalue())["coefficients"]]


# a refinement oracle: each digit printed at --prec N is certified, so a run
# three digits deeper prints the same digits; same deadline as the argv fuzz
@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(argv=_combo_jobs(), prec=st.integers(2, 10))
@example(argv=["fourier", "--p", "2", "--combo=5@29/7", "--qdepth", "2", "--qmax", "3/2"], prec=4)
def test_fourier_combo_digits_survive_a_deeper_run(argv, prec):
    shallow = _coefficients([*argv, "--prec", str(prec)])
    deep = _coefficients([*argv, "--prec", str(prec + 3)])
    assert [q for q, _ in shallow] == [q for q, _ in deep]
    for (q, a), (_, b) in zip(shallow, deep):
        assert a.abs_bound == prec and b.abs_bound == prec + 3, (argv, q)
        assert a == b, (argv, prec, q, a, b)


# the transform is linear in the measure: at every q the coefficient of
# c1@s1,c2@s2 is the sum of those of c1@s1 and c2@s2.  A negative weight
# goes as --combo=-3@1/2, since argparse reads a value that starts with -
# as a flag; same deadline as the argv fuzz
@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(argv=_combo_jobs(count=st.just(2)), prec=st.integers(2, 10))
@example(argv=["fourier", "--p", "3", "--combo=-3@1/3,2@5/7", "--qdepth", "1", "--qmax", "2"], prec=4)
def test_fourier_combo_is_linear_in_its_points(argv, prec):
    i = next(i for i, a in enumerate(argv) if a.startswith("--combo="))
    combo = argv[i][len("--combo="):]
    both, first, second = (
        _coefficients([*argv[:i], "--combo=" + c, *argv[i + 1:], "--prec", str(prec)])
        for c in (combo, *combo.split(",")))
    assert [q for q, _ in both] == [q for q, _ in first] == [q for q, _ in second]
    for (q, c), (_, a), (_, b) in zip(both, first, second):
        assert c == a + b, (argv, prec, q, c, a, b)


# the addition formula C(x+y, q) = Σ_(q1+q2=q) C(x, q1)·C(y, q2) on Q_p, each
# binomial read from a fourier --combo run of 1@x, 1@y or 1@x+y.  The sum runs
# over the --qdepth D grid.  For x, y in p^-d Z, v(C(x, q)) >= v(x) - v(q), and
# q1 off the grid puts q1 and q2 at a depth m > D, so the terms left out sum
# to O(p^(2(D + 1 - d))).  Same deadline as the argv fuzz
@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(p=st.sampled_from([2, 3]), d=st.integers(0, 1), k=st.integers(0, 2),
       a=st.integers(-40, 40), b=st.integers(-40, 40), prec=st.integers(3, 10),
       qmax=st.sampled_from(["1", "3/2", "2"]))
@example(p=2, d=1, k=2, a=1, b=3, prec=8, qmax="2")
@example(p=3, d=0, k=1, a=-7, b=11, prec=6, qmax="1")
def test_fourier_combo_satisfies_the_addition_formula(p, d, k, a, b, prec, qmax):
    x, y, depth = Fraction(a, p**d), Fraction(b, p**d), d + k
    cx, cy, cxy = (
        {Fraction(q["num"], p ** q["logden"]): v for q, v in _coefficients(
            ["fourier", "--p", str(p), f"--combo=1@{s}", "--qdepth", str(depth),
             "--qmax", qmax, "--prec", str(prec)])}
        for s in (x, y, x + y))
    tail = 2 * (depth + 1 - d)
    compared = 0
    for q, lhs in cxy.items():
        acc = sum((cx[q1] * cy[q - q1] for q1 in cx if q1 <= q), PadicScalar.zero(p, tail))
        rhs = acc.truncate(min(acc.abs_bound, tail))
        assert lhs == rhs, (p, x, y, q, lhs, rhs)
        compared += min(lhs.abs_bound, rhs.abs_bound) > 0
    assert compared, (p, x, y)  # C(x+y, 0) = 1 = C(x, 0)·C(y, 0) at the least


def _run_doc(argv):
    """(exit code, stdout JSON or None) of one in-process run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = _exit_code(lambda: main(argv))
    return code, json.loads(out.getvalue()) if code == 0 else None


@st.composite
def _ball_jobs(draw):
    """(argv without --prec and --degree, degree) of a ``ball`` job on a Dirac
    mass at a >= degree, whose tail is not exact, so that the degree cut
    (``ball_tail_floor``) sets the precision."""
    p = draw(st.sampled_from([2, 3, 5]))
    degree = draw(st.integers(1, 30))
    a = draw(st.one_of(st.integers(degree, degree + 300), st.integers(-300, -1)))
    h = draw(st.integers(0, 4).filter(lambda h: p**h <= degree * p))  # p^h > degree: exit 4
    argv = ["ball", "--p", str(p), "--mu", f"dirac:{a}", "--h", str(h),
            "--a", str(draw(st.integers(0, p**h - 1)))]
    return argv, degree


# the refinement oracle on ball values: at --prec N + 3 and a degree p^3
# times larger, the certified floor gains three digits and no printed digit
# may move; a run that cannot certify a digit exits 4
@settings(max_examples=300, deadline=timedelta(seconds=2))
@given(job=_ball_jobs(), prec=st.integers(2, 8))
@example(job=(["ball", "--p", "2", "--mu", "dirac:37", "--h", "1", "--a", "1"], 8), prec=6)
def test_ball_digits_survive_a_deeper_run(job, prec):
    argv, degree = job
    p = int(argv[2])
    code, shallow = _run_doc([*argv, "--prec", str(prec), "--degree", str(degree)])
    assert code in (0, 4), argv
    if code:
        return
    code, deep = _run_doc([*argv, "--prec", str(prec + 3), "--degree", str(degree * p**3)])
    assert code == 0, argv
    a, b = PadicScalar.from_json(shallow["value"]), PadicScalar.from_json(deep["value"])
    assert b.abs_bound >= a.abs_bound, (argv, prec, degree)
    assert a == b, (argv, prec, degree, a, b)


@st.composite
def _mucan_jobs(draw):
    """A ``mucan`` argv without --prec, at depth = stage, stage + 1 or stage
    + 2 (T_n's unit key p^2) and a degree on the depth's grid; stages reach
    past --prec, where L is read mod p on a coarse grid."""
    p = draw(st.sampled_from([2, 3, 5]))
    stage = draw(st.integers(0, {2: 8, 3: 5, 5: 2}[p]))
    depth = stage + draw(st.integers(0, 2))
    degrees = ["1", "2", "3"] + ([f"1/{p}", f"{p + 1}/{p}"] if depth else [])
    return ["mucan", "--p", str(p), "--stage", str(stage), "--depth", str(depth),
            "--degree", draw(st.sampled_from(degrees))]


# the refinement oracle on the canonical measure: every coefficient printed
# at --prec N is the one a run at --prec N + 3 prints, inside the common box
@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(argv=_mucan_jobs(), prec=st.integers(2, 8))
@example(argv=["mucan", "--p", "2", "--stage", "2", "--depth", "3", "--degree", "2"], prec=4)
@example(argv=["mucan", "--p", "2", "--stage", "8", "--depth", "10", "--degree", "3"], prec=2)
@example(argv=["mucan", "--p", "3", "--stage", "5", "--depth", "7", "--degree", "3"], prec=2)
@example(argv=["mucan", "--p", "5", "--stage", "2", "--depth", "4", "--degree", "6/5"], prec=2)
def test_mucan_digits_survive_a_deeper_run(argv, prec):
    _check_measure_refines(argv, prec)


@st.composite
def _teich_jobs(draw):
    """A ``teich`` argv without --digits: 1-3 terms c·t^q on a grid of depth
    at most 2, with or without a degree bound."""
    p = draw(st.sampled_from([2, 3]))
    terms = [f"{draw(st.integers(1, p - 1))}*t^{draw(st.integers(0, 2 * p))}/{p ** draw(st.integers(0, 2))}"
             for _ in range(draw(st.integers(1, 3)))]
    argv = ["teich", "--p", str(p), "--x", "+".join(terms)]
    if draw(st.booleans()):
        argv += ["--degree", draw(st.sampled_from(["1", "2", f"{p + 1}/{p}"]))]
    return argv


# the refinement oracle on Teichmüller lifts: [x] mod p^N is [x] mod p^(N+2)
# read mod p^N, inside the common box
@settings(max_examples=60, deadline=timedelta(seconds=2))
@given(argv=_teich_jobs(), digits=st.integers(1, 4))
@example(argv=["teich", "--p", "2", "--x", "1*t^1/2+1*t^3/4"], digits=2)
@example(argv=["teich", "--p", "3", "--x", "2*t^1/3+1*t^0/1", "--degree", "2"], digits=3)
def test_teich_digits_survive_a_deeper_run(argv, digits):
    runs = [_run_doc([*argv, "--digits", str(n)]) for n in (digits, digits + 2)]
    assert [code for code, _ in runs] == [0, 0], (argv, digits)
    shallow, deep = (AinfElt.from_json(doc["measure"]) for _, doc in runs)
    assert shallow.prec == digits and deep.prec == digits + 2, argv
    assert shallow == deep, (argv, digits)


def _deeper_runs(argv, prec):
    """The stdout documents of ``argv`` at --prec N and N + 3, both exiting 0."""
    docs = []
    for n in (prec, prec + 3):
        code, doc = _run_doc([*argv, "--prec", str(n)])
        assert code == 0, (argv, n)
        docs.append(doc)
    return docs


def _measure(doc):
    """The measure of a printed document, on Q_p if it lists terms."""
    return (AinfElt if "terms" in doc else IwasawaElt).from_json(doc)


def _check_measure_refines(argv, prec):
    """The measure ``argv`` prints at --prec N is the one it prints at N + 3,
    inside the common box, by the value types' own equality."""
    shallow, deep = (_measure(doc["measure"]) for doc in _deeper_runs(argv, prec))
    assert shallow.prec == prec and deep.prec == prec + 3, argv
    assert shallow == deep, (argv, prec)


def _zp_exprs(degree):
    return st.one_of(st.integers(-60, 60).map("dirac:{}".format),
                     st.integers(0, degree - 1).map("T^{}".format))


@st.composite
def _qp_expr(draw, p, depth):
    """A Dirac mass or a monomial on the 1/p^depth grid."""
    q = Fraction(draw(st.integers(-40, 40)), p ** draw(st.integers(0, depth)))
    return f"diracq:{q}@depth{depth}" if draw(st.booleans()) else f"Tt^{abs(q)}"


@st.composite
def _measure_jobs(draw, command):
    """A ``convolve``, ``integrate`` or ``wval`` argv without --prec, on Z_p
    below an integer degree or on Q_p at one grid depth; an integrand's
    basis index lies below the degree, so that the pairing is certified."""
    p = draw(st.sampled_from([2, 3, 5]))
    argv = [command, "--p", str(p)]
    if draw(st.booleans()):
        degree = draw(st.integers(1, 20))
        mu, f = _zp_exprs(degree), st.one_of(st.integers(0, degree - 1).map("binom:{}".format),
                                             st.integers(-9, 9).map("const:{}".format))
    else:
        depth = draw(st.integers(0, 2))
        degree = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(p + 1, p)]))
        mu = _qp_expr(p, depth)
        grid = [Fraction(k, p**depth) for k in range(math.ceil(degree * p**depth))]
        f = st.sampled_from(grid).map(lambda q: f"binom:{q}@depth{depth}")
    if command == "convolve":
        argv += ["--mu1", draw(mu), "--mu2", draw(mu)]
    else:
        argv += ["--mu", draw(mu)] + (["--f", draw(f)] if command == "integrate" else [])
    return argv + ["--degree", str(degree)]


@st.composite
def _dirac_s_jobs(draw):
    """A ``dirac --s`` argv without --prec, the point on the depth's grid."""
    p, depth = draw(st.sampled_from([2, 3, 5])), draw(st.integers(0, 3))
    s = Fraction(draw(st.integers(-40, 40)), p ** draw(st.integers(0, depth)))
    degree = draw(st.sampled_from(["1", "2", "3", f"1/{p}", f"{p + 1}/{p}"]))
    return ["dirac", "--p", str(p), f"--s={s}", "--depth", str(depth), "--degree", degree]


# the refinement oracle on convolutions and Q_p Dirac masses, as on the
# canonical measure; same deadline as the argv fuzz
@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(argv=st.one_of(_measure_jobs("convolve"), _dirac_s_jobs()), prec=st.integers(2, 8))
@example(argv=["convolve", "--p", "3", "--mu1", "dirac:-7", "--mu2", "dirac:40", "--degree", "12"], prec=3)
@example(argv=["convolve", "--p", "2", "--mu1", "diracq:5/4@depth2", "--mu2", "diracq:-3/2@depth2",
               "--degree", "3/2"], prec=4)
@example(argv=["dirac", "--p", "3", "--s=-5/9", "--depth", "2", "--degree", "4/3"], prec=5)
def test_measure_digits_survive_a_deeper_run(argv, prec):
    _check_measure_refines(argv, prec)


# the refinement oracle on integrals: every digit a pairing certifies at
# --prec N is certified, and the same, at N + 3
@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(argv=_measure_jobs("integrate"), prec=st.integers(2, 8))
@example(argv=["integrate", "--p", "2", "--mu", "dirac:37", "--f", "binom:5", "--degree", "8"], prec=4)
@example(argv=["integrate", "--p", "3", "--mu", "diracq:-7/3@depth1", "--f", "binom:2/3@depth1",
               "--degree", "2"], prec=3)
def test_integral_digits_survive_a_deeper_run(argv, prec):
    shallow, deep = (PadicScalar.from_json(doc["value"]) for doc in _deeper_runs(argv, prec))
    assert prec <= deep.abs_bound - 3 and shallow.abs_bound <= deep.abs_bound, (argv, shallow, deep)
    assert shallow == deep, (argv, prec, shallow, deep)


def _w(doc):
    """(w or its floor, whether exact) of a ``wval`` document."""
    key = "w" if "w" in doc else "w_ge"
    return Fraction(doc[key]["num"], doc[key]["den"]), key == "w"


# the refinement oracle on w-valuations: an exact w at --prec N stays exact
# at N + 3, and a floor may only rise
@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(argv=_measure_jobs("wval"), prec=st.integers(2, 8))
@example(argv=["wval", "--p", "2", "--mu", "dirac:12", "--degree", "9"], prec=2)
def test_w_valuation_survives_a_deeper_run(argv, prec):
    (w, exact), (deep_w, deep_exact) = map(_w, _deeper_runs(argv, prec))
    assert deep_w >= w, (argv, prec)
    assert not exact or (deep_exact and deep_w == w), (argv, prec)


def _orthocheck_matrix(p, mode, box, prec):
    """The Gram matrix that ``orthocheck --mode mode --prec prec`` checks, as
    rows of (shift, residue, bound), from the basis functions and monomials
    the command pairs: ``box`` is --imax on Z_p and (--qdepth, --qmax) on Q_p."""
    if mode == "zp":
        ks = range(box + 1)
        fns = [MahlerFn.basis(p, i, prec) for i in ks]
        return integrate_matrix(fns, [IwasawaElt.monomial(p, j, prec, box + 2) for j in ks])
    qdepth, qmax = box
    qs = [Fraction(k, p**qdepth) for k in range(int(qmax * p**qdepth))]
    fns = [UnifFn.basis(p, q, prec) for q in qs]
    return integrate_unif_matrix(fns, [AinfElt.monomial(p, q, prec, degree=qmax) for q in qs])


# the refinement oracle on orthocheck: every pairing of its Gram matrix at
# --prec N is certified, and the same, at N + k, compared by the valuation
# of the difference up to the shallow bound.  Same deadline as the argv fuzz
@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(p=st.sampled_from([2, 3, 5]), box=st.one_of(
           st.integers(0, 30),
           st.tuples(st.integers(0, 2), st.sampled_from([Fraction(1), Fraction(3, 2), Fraction(4)]))),
       prec=st.integers(1, 12), k=st.integers(1, 4))
@example(p=2, box=30, prec=20, k=3)  # the README job
@example(p=2, box=(2, Fraction(4)), prec=12, k=1)  # the qp defaults
def test_orthocheck_digits_survive_a_deeper_run(p, box, prec, k):
    mode = "zp" if isinstance(box, int) else "qp"
    shallow, deep = (_orthocheck_matrix(p, mode, box, n) for n in (prec, prec + k))
    assert len(shallow) == len(deep)
    for i, (row, deep_row) in enumerate(zip(shallow, deep)):
        for j, ((s, r, bound), (t, u, deep_bound)) in enumerate(zip(row, deep_row)):
            diff = Fraction(p) ** s * r - Fraction(p) ** t * u
            v = vp_int(diff.numerator, p) - vp_int(diff.denominator, p) if diff else bound
            assert deep_bound >= bound and v >= bound, (p, box, prec, k, i, j)


def _write(tmp, name, doc):
    """``@path`` of ``doc`` written to ``name`` in the folder ``tmp``."""
    path = Path(tmp, name)
    path.write_text(json.dumps(doc))
    return f"@{path}"


@st.composite
def _dense_zp_pairs(draw):
    """(p, μ, ν, n): two dense Z_p measure documents with unknown tails and
    an index below both degrees."""
    p = draw(st.sampled_from([2, 3, 5]))

    def doc():
        prec, degree = draw(st.integers(2, 8)), draw(st.integers(2, 20))
        coeffs = st.lists(st.integers(0, p**prec - 1), min_size=degree, max_size=degree)
        return {"p": p, "prec": prec, "degree": degree, "coeffs": draw(coeffs)}

    mu, nu = doc(), doc()
    return p, mu, nu, draw(st.integers(0, min(mu["degree"], nu["degree"]) - 1))


# the Hopf duality of functions and measures across commands: integration
# turns convolution of measures into the coproduct C(x + y, n) =
# Σ_k C(x, k)·C(y, n - k) of the binomial basis (Vandermonde); compared
# inside the precision both sides certify
@settings(max_examples=100, deadline=timedelta(seconds=2))
@given(case=_dense_zp_pairs())
def test_integrals_of_a_convolution_satisfy_vandermonde(case):
    p, mu, nu, n = case
    with tempfile.TemporaryDirectory() as tmp:
        m1, m2 = _write(tmp, "mu.json", mu), _write(tmp, "nu.json", nu)
        code, conv = _run_doc(["convolve", "--p", str(p), "--mu1", m1, "--mu2", m2])
        assert code == 0
        both = _write(tmp, "conv.json", conv["measure"])

        def integral(k, m):
            code, doc = _run_doc(["integrate", "--p", str(p), "--f", f"binom:{k}", "--mu", m])
            assert code == 0, (k, m)
            return PadicScalar.from_json(doc["value"])

        lhs = integral(n, both)
        terms = [integral(k, m1) * integral(n - k, m2) for k in range(n + 1)]
    rhs = sum(terms[1:], terms[0])
    assert min(lhs.abs_bound, rhs.abs_bound) >= min(mu["prec"], nu["prec"]), (lhs, rhs)
    assert lhs == rhs, (case, lhs, rhs)


@st.composite
def _dirac_pairs(draw):
    """(convolve argv, dirac argv) of δ_a ∗ δ_b and δ_(a+b), without --prec:
    on Z_p at integers, or on Q_p at points of one grid."""
    p = draw(st.sampled_from([2, 3, 5]))
    if draw(st.booleans()):
        a, b, degree = draw(st.integers(-60, 60)), draw(st.integers(-60, 60)), draw(st.integers(1, 20))
        mus, point = [f"dirac:{a}", f"dirac:{b}"], [f"--a={a + b}"]
    else:
        depth = draw(st.integers(0, 2))
        a, b = (Fraction(draw(st.integers(-40, 40)), p ** draw(st.integers(0, depth))) for _ in "ab")
        degree = draw(st.sampled_from(["1", "2", f"{p + 1}/{p}"]))
        mus = [f"diracq:{a}@depth{depth}", f"diracq:{b}@depth{depth}"]
        point = [f"--s={a + b}", "--depth", str(depth)]
    box = ["--p", str(p), "--degree", str(degree)]
    return ["convolve", *box, "--mu1", mus[0], "--mu2", mus[1]], ["dirac", *box, *point]


# the Hopf duality's group law: δ_a ∗ δ_b = δ_(a+b), through the CLI
@settings(max_examples=150, deadline=timedelta(seconds=2))
@given(argvs=_dirac_pairs(), prec=st.integers(2, 8))
@example(argvs=(["convolve", "--p", "2", "--degree", "12", "--mu1", "dirac:-5", "--mu2", "dirac:9"],
                ["dirac", "--p", "2", "--degree", "12", "--a=4"]), prec=3)
def test_convolution_of_dirac_masses_is_the_mass_at_the_sum(argvs, prec):
    conv, mass = (_run_doc([*argv, "--prec", str(prec)]) for argv in argvs)
    assert conv[0] == mass[0] == 0, argvs
    assert _measure(conv[1]["measure"]) == _measure(mass[1]["measure"]), (argvs, prec)


# a JSON value of each type a document may hold where a flag or field goes
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.floats(), st.integers(-3, 12),
    st.sampled_from([10**9, 2**70, -(2**70), 10**400]), st.sampled_from(_FUZZ_VALUES),
    st.lists(st.integers(0, 3), max_size=2),
    st.dictionaries(st.sampled_from(["num", "logden", "q"]), st.integers(-1, 3), max_size=2),
)
_HUGE = st.sampled_from([0, -1, 10**9, 2**70])
_SMALL_INT = st.one_of(st.integers(-1, 12), st.integers(0, 12).map(str))
# values of the flags' own kinds, in JSON
_FLAG_VALUES = {
    **dict.fromkeys(["mu", "mu1", "mu2"], st.sampled_from(
        ["@{mu}"] * 6 + ["T", "T^3", "dirac:5", "1", "Tt", "Tt^3/2", "diracq:3/4@depth2"])),
    **dict.fromkeys(["prec", "degree", "depth", "stage", "N", "qdepth", "imax", "digits", "a", "h"],
                    _SMALL_INT),
    **dict.fromkeys(["s", "qmax"], st.sampled_from(["1/3", "3/4", "2", 1, 2])),
    "f": st.sampled_from(["binom:2", "const:7", "binom:3/2@depth1", "binom:1/2"]),
    "samples": st.sampled_from(["1,1,1,0,0,0,0,0,0", "1,2", "5,1,4,2"]),
    "combo": st.sampled_from(["1@3/4", "2@1/2,1@1/3", "1@1"]),
    "x": st.sampled_from(["t^1/2 + 2*t^3", "t", "1"]),
    "mode": st.sampled_from(["zp", "qp"]),
    "scan": st.sampled_from(["off", "bounded", "full"]),
}


def _spoil(draw, doc):
    """``doc`` with at most one value made a huge integer or a JSON value of
    any type, or one key left out."""
    if doc and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc)))
        how = draw(st.sampled_from(["huge", "any", "missing"]))
        if how == "missing":
            del doc[key]
        else:
            doc[key] = draw(_HUGE if how == "huge" else _JSON_VALUES)
    return doc


@st.composite
def _measure_json(draw, p):
    """A Z_p or Q_p measure document: its prime mostly ``p``, else another or
    one <= 1; off-grid exponents, coefficients past the degree under an
    exact tail, and one field spoilt now and then."""
    doc = {"p": draw(st.sampled_from([p, p, p, 2, 3, 1, 0, -1, 4])),
           "prec": draw(st.integers(1, 12))}
    if draw(st.booleans()):
        doc["degree"] = draw(st.integers(1, 10))
        doc["coeffs"] = draw(st.lists(st.integers(-50, 50), max_size=14))
        doc["exact_tail"] = draw(st.booleans())
    else:
        doc["depth"] = draw(st.integers(0, 3))
        exponent = st.fixed_dictionaries({"num": st.integers(0, 40), "logden": st.integers(0, 5)})
        doc["degree"] = draw(st.one_of(st.none(), st.integers(1, 8), exponent))
        term = st.fixed_dictionaries({"q": exponent, "coeff": st.integers(-50, 50)})
        doc["terms"] = draw(st.lists(term, max_size=6))
    return _spoil(draw, doc)


@st.composite
def _in_jobs(draw):
    """(argv, --in document, measure document): one command's flags, its
    required ones among them, given in the --in document; a measure flag
    often names the measure document as @file (written as {mu})."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    _, flags, required = cli._COMMANDS[command]
    names = [draw(st.sampled_from(need.split("|"))) for need in required]
    names += draw(st.lists(st.sampled_from(["p", *flags]), unique=True))
    doc = {name: draw(_FLAG_VALUES.get(name, st.sampled_from(_FUZZ_VALUES))) for name in names}
    doc = _spoil(draw, doc)
    if not draw(st.integers(0, 19)):
        doc = draw(_JSON_VALUES)  # an --in document that is no JSON object
    p = draw(st.sampled_from([2, 3, 5, 7, 1]))
    argv = [command, "--p", str(p), "--in", "{in}"]
    return argv, doc, draw(_measure_json(p))


@settings(max_examples=200, deadline=timedelta(seconds=30))
@given(_in_jobs())
@example((["wval", "--p", "2", "--mu", "Tt", "--in", "{in}"], {"degree": None}, {}))
@example((["dirac", "--p", "2", "--depth", "1", "--in", "{in}"], {"s": [1]}, {}))
@example((["integrate", "--p", "3", "--f", "binom:2", "--mu", "T^2", "--in", "{in}"], {"prec": 7.9}, {}))
@example((["idealcheck", "--p", "2", "--in", "{in}"], {"N": True}, {}))
@example((["wval", "--p", "2", "--in", "{in}"], {"mu": "@{mu}"},
          {"p": 2, "prec": 4, "degree": 3, "coeffs": [1, 5, 10, 10], "exact_tail": True}))
@example((["convolve", "--p", "3", "--in", "{in}"], {"mu1": "@{mu}", "mu2": "T"},
          {"p": 5, "prec": 4, "degree": 3, "coeffs": [1]}))
@example((["fourier", "--p", "2", "--in", "{in}"], {"mu": "@{mu}"},
          {"p": 2, "prec": 4, "depth": 1, "degree": None,
           "terms": [{"q": {"num": 1, "logden": 3}, "coeff": 1}]}))
@example((["wval", "--p", "2", "--in", "{in}"], {"mu": "@{mu}", "degree": 10**9, "depth": 10**9},
          {"p": 1, "prec": 4, "depth": 10**9, "degree": None, "terms": []}))
@example((["orthocheck", "--p", "2", "--in", "{in}"], {"imax": 2**70}, {}))  # len(range) overflowed
def test_fuzzed_json_documents_exit_with_a_documented_code(job):
    """Any --in document and @file measure document, whatever the types of
    their values, exits 0, 2, 3, 4 or 5 without an escaping exception."""
    argv, doc, measure = job
    with tempfile.TemporaryDirectory() as tmp:
        paths = {"in": f"{tmp}/in.json", "mu": f"{tmp}/mu.json"}
        if isinstance(doc, dict):
            doc = {k: v.format(**paths) if isinstance(v, str) and "{mu}" in v else v
                   for k, v in doc.items()}
        Path(paths["in"]).write_text(json.dumps(doc))
        Path(paths["mu"]).write_text(json.dumps(measure))
        argv = [a.format(**paths) if a == "{in}" else a for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PADIC_FOURIER_MAX_BOX", "4000")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _exit_code(lambda: main(argv))
    assert code in (0, 2, 3, 4, 5), (argv, doc, measure, err.getvalue())


# values for the parser-agreement test: the fuzz vocabulary plus values
# argparse reads as options or as negative numbers
_PARITY_VALUES = [*_FUZZ_VALUES, "-2", "-3/2", "-", "--", "-x", "--p"]


@st.composite
def _parity_argvs(draw):
    """An argv near the plain shape: flags of the command, with some
    abbreviated, in the "--flag=value" form, without a value, repeated or
    unknown, stray tokens, -h and --version, and now and then a token
    before the command or no command at all."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    names = ["p", "format", "in", "out", *cli._COMMANDS[command][1]]
    # --in and --out name files in {dir}, a fresh directory per example
    values = {
        "p": ["2", "3", "-2"], "format": ["json", "pretty", "x"],
        "in": ["{dir}/in.json", "{dir}/none.json"],
        "out": ["{dir}/out.json", "{dir}/none/out.json"],
    }
    argv = [command]
    if draw(st.booleans()):  # --p and distinct flags, mostly of the plain shape
        for name in ["p", *draw(st.lists(st.sampled_from(names[1:]), unique=True))]:
            argv += [f"--{name}", draw(st.sampled_from(values.get(name, _FUZZ_VALUES)))]
        return argv
    if draw(st.integers(0, 3)):
        argv += ["--p", draw(st.sampled_from(values["p"]))]
    for _ in range(draw(st.integers(0, 4))):
        name = draw(st.sampled_from(names))
        value = draw(st.sampled_from(values.get(name, _PARITY_VALUES)))
        form = draw(st.sampled_from(
            ["pair"] * 12 + ["abbrev", "eq", "bare", "stray", "help", "unknown"]
        ))
        if form == "pair":
            argv += [f"--{name}", value]
        elif form == "abbrev":
            argv += [f"--{name[:draw(st.integers(1, len(name)))]}", value]
        elif form == "eq":
            argv.append(f"--{name}={value}")
        elif form == "bare":
            argv.append(f"--{name}")
        elif form == "stray":
            argv.append(value)
        elif form == "help":
            argv.append(draw(st.sampled_from(["-h", "--help", "--version"])))
        else:
            argv += ["--bogus", value]
    if draw(st.integers(0, 9)) == 0:
        argv = argv[1:] if draw(st.booleans()) else ["-h", *argv]
    return argv


@settings(max_examples=150, deadline=timedelta(seconds=30))
@given(argv=_parity_argvs())
@example(argv=["ball", "--p", "3", "--mu", "dirac:5", "--a", "2", "--h", "1"])
@example(argv=["wval", "--p", "2", "--mu", "T", "--format", "pretty", "--out", "{dir}/out.json"])
@example(argv=["integrate", "--p", "3", "--f", "binom:2", "--mu", "T", "--in", "{dir}/in.json"])
@example(argv=["dirac", "--p", "2", "--a", "-1"])
@example(argv=["wval", "--p", "2", "--mu", "T", "--p", "3"])
@example(argv=["wval", "--p=2", "--mu", "T"])
@example(argv=["wval", "--p", "2", "--m", "T"])
@example(argv=["wval", "--p", "2", "--mu", "T", "--format", "x"])
@example(argv=["wval", "--p", "2", "--mu", "T", "-h"])
@example(argv=["mahler", "--p", "2", "--samples", ""])
def test_plain_argv_reads_as_argparse_reads_it(argv):
    """Where ``_plain_job`` reads an argv, argparse reads the same job; and
    ``main`` exits and prints as it does with argparse alone."""
    with tempfile.TemporaryDirectory() as tmp:
        argv = [a.replace("{dir}", tmp) for a in argv]
        (Path(tmp) / "in.json").write_text('{"prec": "4", "mu": "T^2"}')
        out_file = Path(tmp) / "out.json"

        def call():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = _exit_code(lambda: main(argv))
            written = out_file.read_text() if out_file.exists() else None
            out_file.unlink(missing_ok=True)
            return code, out.getvalue(), err.getvalue(), written

        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("PADIC_FOURIER_MAX_BOX", "400")
            mp.chdir(tmp)  # where a stray --out lands
            job = cli._plain_job(argv)
            if job is not None:
                assert vars(job) == vars(cli._parsed_job(argv))
            got = call()
            mp.setattr(cli, "_plain_job", lambda argv: None)
            assert got == call(), argv


def test_readme_job_never_imports_argparse():
    """A fresh process that runs a README job from argv loads no argparse."""
    code = (
        "import sys, padic_fourier.cli as cli\n"
        "assert cli.main(['fourier', '--p', '2', '--combo', '1@3/4', '--qdepth', '2',"
        " '--qmax', '1']) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)), file=sys.stderr)\n"
    )
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         capture_output=True, text=True, check=True)
    assert out.stderr == "[]\n"


def _parsed_perfseries(p, expr):
    depth, cs = cli._parse_perfseries(p, expr)
    return PerfSeries(p, depth, None, cs)


def perfseries_fold_oracle(p, expr):
    """``teich --x`` read one monomial at a time: each sum rebuilds the
    series, so it is quadratic in the number of terms."""
    expr = expr.replace(" ", "")
    out = PerfSeries.zero(p)
    for term in expr.split("+") if expr else ():
        if not term:
            continue
        coeff, body = 1, term
        if "*" in term:
            coeff, body = cli._int(term, "term", "*")
        if body == "1":
            q = Fraction(0)
        elif body == "t":
            q = Fraction(1)
        elif body.startswith("t^"):
            q = cli._frac(body[2:])
        else:
            try:
                coeff, q = int(body), Fraction(0)
            except ValueError:
                raise ParseError(f"bad term {term!r}")
        out = out + PerfSeries.monomial(p, q, coeff=coeff)
    return out


@st.composite
def _perfseries_exprs(draw):
    """(p, expr): terms drawn from a small pool of exponents on mixed grids,
    so exponents repeat and coefficients may sum to 0 mod p; constants, bare
    t and explicit coefficients, spaces and empty terms."""
    p = draw(st.sampled_from([2, 3, 5]))
    pool = draw(st.lists(
        st.tuples(st.integers(0, 3 * p**2), st.integers(0, 3)), min_size=1, max_size=5,
    ))
    terms = []
    for _ in range(draw(st.integers(0, 12))):
        num, logden = draw(st.sampled_from(pool))
        body = draw(st.sampled_from(["1", "t", f"t^{num}", f"t^{num}/{p**logden}"]))
        coeff = draw(st.one_of(st.none(), st.integers(-2 * p, 2 * p)))
        if coeff is None:
            terms.append(body)
        elif body == "1" and draw(st.booleans()):
            terms.append(str(coeff))
        else:
            terms.append(f"{coeff}*{body}")
    sep = draw(st.sampled_from(["+", " + ", "++"]))
    return p, sep.join(terms)


@settings(max_examples=300, deadline=None)
@given(_perfseries_exprs())
@example((2, ""))
@example((3, "t + 2*t"))  # a sum that is 0 mod p
@example((2, "t^1/2 + t^3/8 + 1 + t^2/4"))  # mixed grids, kept on the coarsest
@example((5, "3 + 2 + t^5/5"))  # repeated constants; t^5/5 is t
def test_perfseries_parse_matches_monomial_fold(case):
    p, expr = case
    got, want = _parsed_perfseries(p, expr), perfseries_fold_oracle(p, expr)
    assert (got.depth, got.degree, got.coeffs) == (want.depth, want.degree, want.coeffs)
    assert str(got) == str(want) and got.to_json() == want.to_json()


@pytest.mark.parametrize("p, expr", [
    (2, "t^1/3"), (2, "t + t^-1"), (3, "x"), (3, "2*t + 1*"), (2, "@doc.json"),
])
def test_perfseries_parse_fails_as_the_fold_does(p, expr):
    with pytest.raises(PadicFourierError) as got:
        _parsed_perfseries(p, expr)
    if expr.startswith("@"):
        return
    with pytest.raises(PadicFourierError) as want:
        perfseries_fold_oracle(p, expr)
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))


def test_perfseries_parse_is_linear_in_the_terms():
    # 4000 terms on one grid: the monomial fold, which rebuilt the series
    # per term, took 0.77 s at 2000 terms, and 4000 take four times that
    expr = " + ".join(f"{1 + i % 2}*t^{i}/9" for i in range(1, 4001))
    start = time.perf_counter()
    x = _parsed_perfseries(3, expr)
    assert time.perf_counter() - start < 0.5
    assert len(x.coeffs) == 4000


# non-ASCII, escaped and control characters, and a character outside the BMP
_JSON_TEXT = st.text(max_size=6) | st.sampled_from(
    ["", "é", "\\", '"', "\n\t\x00\x1f", "\u2028", "\U0001f600"]
)
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), _JSON_TEXT,
    st.integers(), st.integers(-(10**1000), 10**1000),
    st.floats(allow_nan=True, allow_infinity=True),
)


@settings(max_examples=300, deadline=None)
@given(st.recursive(
    _JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_JSON_TEXT, children, max_size=4),
    ),
    max_leaves=30,
))
@example({"a": {1: [2, {"b": ()}]}, "c": [], "": {}})  # an int key: json.dumps renders it
@example({"terms": [{"q": {"num": 1, "logden": 2}, "coeff": -(2**200)}], "pretty": "Tt^1/4"})
def test_render_matches_indented_json_dumps(doc):
    assert cli._render(doc, "json") == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# Record lists: a shape is a str-keyed tree whose leaves (None) are ints.
_RECORD_KEYS = st.text(max_size=3) | st.sampled_from(["%", "%s", "%(q)d", "{", "é", "\U0001f600"])
_RECORD_SHAPES = st.recursive(
    st.none(), lambda sub: st.dictionaries(_RECORD_KEYS, sub, min_size=1, max_size=4),
    max_leaves=8,
).filter(lambda shape: shape is not None)
_ODD_LEAVES = st.sampled_from([True, False, "7", None, 1.5, {}, [1, 2], []])


def _records_of(shape):
    leaf = st.integers() | st.integers(-(2**200), 2**200)
    return st.fixed_dictionaries({
        k: leaf if sub is None else _records_of(sub) for k, sub in shape.items()
    })


@st.composite
def _record_lists(draw):
    """1-40 records of one shape, then at most one record changed: a key
    missing, added or renamed, or a leaf that is no int."""
    records = draw(st.lists(_records_of(draw(_RECORD_SHAPES)), min_size=1, max_size=40))
    change = draw(st.sampled_from(["none", "missing", "extra", "renamed", "leaf"]))
    if change != "none":
        node = draw(st.sampled_from(records))
        while draw(st.booleans()) and any(type(v) is dict for v in node.values()):
            node = draw(st.sampled_from([v for v in node.values() if type(v) is dict]))
        key = draw(st.sampled_from(sorted(node)))
        new = draw(_RECORD_KEYS.filter(lambda k: k not in node))
        if change == "missing":
            del node[key]
        elif change == "extra":
            node[new] = draw(st.integers())
        elif change == "renamed":
            node[new] = node.pop(key)
        else:
            node[key] = draw(_ODD_LEAVES)
    return {"measure": {"terms": records, "p": 2}, "pretty": "x"}


@settings(max_examples=300, deadline=None)
@given(_record_lists())
@example({"terms": [{"%s": 1, "{x}": {"é": 2, "%%": -3}}, {"%s": 4, "{x}": {"é": 5, "%%": 6}}]})
@example({"terms": [{"q": {"num": 2**70, "logden": -1}, "coeff": -(2**65)}] * 3})
@example({"terms": [{"a": 1, "b": 2}, {"a": 3, "b": 4}, {"a": 5, "b": True}]})
@example({"terms": [{"a": 1, "q": {"b": 2}}, {"a": 3, "q": {"b": 4, "c": 5}}]})
@example({"coeffs": [1, 2, True, 4], "more": [[3, -(2**64)], []]})
def test_record_lists_render_like_json_dumps(doc):
    assert cli._render(doc, "json") == json.dumps(doc, sort_keys=True, indent=2) + "\n"


# The measure and coefficient writers: records built with their shape, each
# list of them written like the documents of to_json and str
@st.composite
def _printed_measures(draw):
    """An AinfElt (any shift, depth, degree, coefficients past 2^64) or a
    PerfSeries, possibly with no terms."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    depth = draw(st.integers(0, 3))
    degree = draw(st.none() | st.builds(
        Fraction, st.integers(1, 4 * p**depth), st.sampled_from([1, p, p**depth])))
    keys = st.integers(0, 4 * p**depth)
    if draw(st.booleans()):
        return PerfSeries(p, depth, degree, draw(st.dictionaries(keys, st.integers(0, p), max_size=12)))
    prec = draw(st.integers(1, 4) | st.just(70))
    mod = p**prec
    coeffs = draw(st.dictionaries(keys, st.integers(-mod, mod) | st.just(mod - 1), max_size=12))
    return AinfElt(p, prec, depth, degree, coeffs, shift=draw(st.integers(-3, 3)))


@settings(max_examples=200, deadline=None)
@given(_printed_measures())
@example(AinfElt(2, 70, 0, None, {}))  # no terms
@example(AinfElt(2, 70, 3, Fraction(5, 2), {1: 2**70 - 1, 9: 2**64 + 1}, shift=-2))
@example(PerfSeries(3, 2, None, {0: 1, 1: 2, 9: 1}))
def test_measure_writer_matches_to_json_and_str(mu):
    doc = cli._measure_doc(mu)
    want = {"measure": mu.to_json(), "pretty": str(mu)}
    assert cli._render(doc, "json") == json.dumps(want, sort_keys=True, indent=2) + "\n"
    assert cli._render(doc, "pretty") == str(mu) + "\n"
    assert doc == want


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.lists(st.tuples(
    st.integers(0, 40), st.integers(0, 3),
    st.integers(-3, 3), st.integers(0, 2**70) | st.just(0), st.integers(0, 70),
), max_size=10))
@example(2, [])
@example(3, [(1, 1, -2, 2**65 + 1, 70), (3, 0, 0, 0, 5)])
def test_coefficient_writer_matches_to_json(p, rows):
    out = {SExponent.from_fraction(p, Fraction(num, p**logden)): PadicScalar(p, shift, unit, prec)
           for num, logden, shift, unit, prec in rows}
    want = [{"q": q.to_json(), "value": v.to_json()} for q, v in out.items()]
    doc = cli._coefficients_doc(out)
    assert cli._render(doc, "json") == json.dumps(
        {"coefficients": want}, sort_keys=True, indent=2) + "\n"
    assert cli._render(doc, "pretty") == f"coefficients: {json.dumps(want, sort_keys=True)}\n"
    assert doc == {"coefficients": want}
