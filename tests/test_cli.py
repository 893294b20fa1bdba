import json
import subprocess
import sys
import time

import pytest

from padic_fourier.cli import JobSpec, run
from padic_fourier.errors import ParseError


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

    def test_fourier_combo_q_count_is_budgeted(self):
        out = run_cli(["fourier", "--p", "3", "--combo", "1@1/3", "--qmax", "1000000000"])
        assert out.returncode == 3
        assert "PADIC_FOURIER_MAX_BOX" in out.stderr
        assert "Traceback" not in out.stderr

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
])
def test_flag_values_map_to_documented_exit_codes(capsys, argv, code):
    from padic_fourier.cli import main

    assert main(argv) == code
    capsys.readouterr()
