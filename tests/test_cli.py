"""Command-line interface: outputs, JSON schema, exit codes."""
import json
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from berger import assembly, cli, eta, forms


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestEk:
    def test_text_report(self, capsys):
        code, out = run(capsys, "ek")
        assert code == 0
        assert "-27/1120" in out
        assert "13/40" in out
        assert "-16189/700000" in out

    def test_reversed_orientation(self, capsys):
        code, out = run(capsys, "ek", "--orientation", "reversed")
        assert code == 0
        assert "27/1120" in out
        assert "-13/40" in out

    def test_json_schema(self, capsys):
        code, out = run(capsys, "ek", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ek"] == {"num": "-27", "den": "1120"}
        assert payload["eta_dirac"] == {"num": "-12923", "den": "281250"}
        assert payload["eta_signature"] == {"num": "-4817", "den": "140625"}
        assert payload["secondary_integral"] == {"num": "-49", "den": "50000"}
        assert payload["s1_mod1"] == {"num": "13", "den": "40"}
        assert payload["harmonic_spinors"] == 0
        assert payload["suites"] == []


class TestEta:
    def test_local_terms(self, capsys):
        _, out = run(capsys, "eta", "--term", "local0")
        assert "-12923/281250" in out
        _, out = run(capsys, "eta", "--term", "local3",
                     "--direction", "7,2", "--order", "12")
        assert "-277961/281250" in out

    def test_defects(self, capsys):
        _, out = run(capsys, "eta", "--term", "dirac")
        assert "-12923/281250" in out
        _, out = run(capsys, "eta")
        assert "-4817/140625" in out

    def test_bad_direction_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["eta", "--direction", "five"])
        assert err.value.code == 2

    def test_order_within_pole_depth_is_usage_error(self, capsys):
        for order in ("5", "0", "-3"):
            with pytest.raises(SystemExit) as err:
                cli.main(["eta", "--order", order])
            assert err.value.code == 2
        assert capsys.readouterr().err.count("error: truncation order") == 3

    def test_pole_cancellation_failure_exits_1(self, capsys, monkeypatch):
        def broken(*args):
            raise eta.PoleCancellationError({-2: F(1)})
        monkeypatch.setattr(eta, "local_term", broken)
        assert cli.main(["eta", "--term", "dirac"]) == 1
        assert "error: polar part survives" in capsys.readouterr().err

    def test_negative_direction_reaches_the_result(self, capsys):
        outs = []
        for argv in (["--direction", "-1,3"], ["--direction=-1,3"]):
            code, out = run(capsys, "eta", *argv)
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert "at direction (-1, 3), order 16: -4817/140625" in outs[0]

    def test_degenerate_direction_is_usage_error(self, capsys):
        for direction in ("1,2", "1,1", "-2,-1", "-1,1"):
            with pytest.raises(SystemExit) as err:
                cli.main(["eta", "--direction", direction])
            assert err.value.code == 2
        err = capsys.readouterr().err
        assert "direction degenerates the singular-ray factor: (-2, -1)" in err
        assert "direction lies on a root hyperplane: (-1, 1)" in err


class TestSpectrum:
    def test_lists_eigenvalues_and_family(self, capsys):
        code, out = run(capsys, "spectrum")
        assert code == 0
        assert "7/5*sqrt(5)" in out
        assert "-sqrt(5)" in out
        assert "singular" in out


class TestForms:
    def test_integral(self, capsys):
        _, out = run(capsys, "forms", "--show", "integral")
        assert "-49/50000" in out

    def test_all_sections(self, capsys):
        _, out = run(capsys, "forms")
        assert "21/25*pi^-2" in out
        assert "7/50*sqrt(5)*pi^-2" in out
        assert "16/75*sqrt(5)*pi^4" in out
        assert "7" in out

    def test_certificate_failure_exits_1(self, capsys, monkeypatch):
        class Skewed(forms.AltForm):
            def proportionality(self, other):
                return super().proportionality(other) * 2
        p1 = forms.pontryagin_form()
        monkeypatch.setattr(forms, "pontryagin_form",
                            lambda: Skewed(4, p1.coeffs))
        assert cli.main(["forms", "--show", "primitive"]) == 1
        assert "error: d h == p" in capsys.readouterr().err


class TestRep:
    def test_dimension_queries(self, capsys):
        _, out = run(capsys, "rep", "--dim", "0,2")
        assert "= 27" in out
        _, out = run(capsys, "rep", "--group", "so5", "--dim", "1/2,1/2")
        assert "= 4" in out
        _, out = run(capsys, "rep", "--group", "spin", "--dim", "3")
        assert "= 7" in out

    def test_tensor(self, capsys):
        _, out = run(capsys, "rep", "--tensor", "0,1", "0,1")
        assert "(0, 0)  +  (0, 1)  +  (1, 0)  +  (0, 2)" in out

    def test_branch(self, capsys):
        _, out = run(capsys, "rep", "--branch", "1,0")
        assert "spin 1  +  spin 5" in out
        _, out = run(capsys, "rep", "--group", "so5", "--branch", "1,1")
        assert "spin 1  +  spin 3" in out

    def test_branch_needs_branchable_group(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["rep", "--group", "spin", "--branch", "3"])
        assert err.value.code == 2

    def test_bad_label_is_usage_error(self, capsys):
        for argv in (["rep", "--dim=-1,0"],
                     ["rep", "--group", "so5", "--dim", "0,1"],
                     ["rep", "--group", "spin", "--dim", "1/4"],
                     ["rep", "--dim", "1/2,0"]):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 4
        # labels print as the CLI reads them, never as Fraction reprs
        assert "G2 label (-1, 0) is not dominant" in err
        assert "B2 label (0, 1) is not dominant" in err
        assert "A1 label 1/4 is not an integral weight" in err
        assert "G2 label (1/2, 0) is not an integral weight" in err
        assert "Fraction(" not in err

    def test_negative_label_reaches_the_domain_check(self, capsys):
        # a label starting with '-' is a value in both spellings, never an
        # option; each reaches the label check and exits 2
        cases = (["--dim", "-1,0"], ["--dim=-1,0"],
                 ["--tensor", "0,1", "-1,0"], ["--tensor", "-1,0", "0,1"],
                 ["--branch", "-1,0"], ["--branch=-1,0"],
                 ["--group", "spin", "--dim", "-1/2"])
        for argv in cases:
            with pytest.raises(SystemExit) as err:
                cli.main(["rep", *argv])
            assert err.value.code == 2
        err = capsys.readouterr().err
        assert err.count("G2 label (-1, 0) is not dominant") == 6
        assert "A1 label -1/2 is not dominant" in err
        assert "expected one argument" not in err

    def test_verify_split(self, capsys):
        code, out = run(capsys, "rep", "--verify-split")
        assert code == 0
        assert "agrees along both routes: True" in out
        assert "pairwise disjoint: True" in out

    def test_requires_exactly_one_action(self, capsys):
        with pytest.raises(SystemExit) as err:
            cli.main(["rep"])
        assert err.value.code == 2
        with pytest.raises(SystemExit) as err:
            cli.main(["rep", "--dim", "0,1", "--branch", "0,1"])
        assert err.value.code == 2


class TestClassify:
    def test_emits_sets_verbatim(self, capsys):
        code, out = run(capsys, "classify")
        assert code == 0
        assert "{2, -2}" in out
        assert "{1, -1}" in out
        assert "{-1, -9, -29, 19}" in out


class TestVerify:
    def test_fast_suite_passes(self, capsys):
        code, out = run(capsys, "verify", "--suite", "fast")
        assert code == 0
        assert "suite 'fast': pass" in out

    def test_json_payload(self, capsys):
        code, out = run(capsys, "verify", "--suite", "fast", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ek"] == {"num": "-27", "den": "1120"}
        assert payload["suites"]
        assert all(set(s) == {"name", "passed", "detail"} for s in payload["suites"])
        assert all(s["detail"] for s in payload["suites"])
        assert all(s["passed"] for s in payload["suites"])

    def test_all_suite_under_optimize_flag(self):
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), "..", "src"))
        out = subprocess.run(
            [sys.executable, "-O", "-m", "berger.cli", "verify", "--suite", "all"],
            env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        lines = out.stdout.splitlines()
        assert lines[-1] == "suite 'all': pass"
        assert [line.split()[1] for line in lines[:-1]] == ["ok"] * 17

    def test_suite_choices_are_the_registry_suites(self, capsys):
        # cli types the choices in, so that parsing loads no assembly
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["verify", "--help"])
        assert ("--suite {%s}" % ",".join(assembly.SUITES)
                in capsys.readouterr().out)

    def test_failure_exit_code(self, capsys, monkeypatch):
        failing = assembly.VerificationReport(
            "fast", (assembly.Check("demo", False, "injected"),))
        monkeypatch.setattr(assembly, "verify", lambda suite: failing)
        code, out = run(capsys, "verify", "--suite", "fast")
        assert code == 1
        assert "FAIL" in out


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            cli.main(["transmogrify"])
        assert err.value.code == 2

    def test_command_required(self):
        with pytest.raises(SystemExit) as err:
            cli.main([])
        assert err.value.code == 2
