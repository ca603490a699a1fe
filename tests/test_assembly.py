"""Invariant assembly, classification report, and verification suites."""
import inspect
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from berger import assembly, eta, forms, liealg, octonion
from berger.forms import AltForm
from berger.matrix import SqrtMatrix, det
from berger.scalar import CertificateError, SqrtField
from conftest import lagrange_basis

EK = F(-27, 1120)
ETA_DIRAC = F(-12923, 281250)
ETA_SIGNATURE = F(-4817, 140625)
INTERMEDIATE = F(-16189, 700000)
SECONDARY = F(-49, 50000)


class TestModOne:
    def test_reference_values(self):
        assert assembly.mod_one(F(27, 40)) == F(-13, 40)
        assert assembly.mod_one(F(-27, 40)) == F(13, 40)
        assert assembly.mod_one(0) == 0
        assert assembly.mod_one(F(1, 2)) == F(1, 2)
        assert assembly.mod_one(F(-1, 2)) == F(1, 2)

    def test_window_and_periodicity(self):
        for num in range(-20, 21):
            x = F(num, 7)
            r = assembly.mod_one(x)
            assert -F(1, 2) < r <= F(1, 2)
            assert (x - r).denominator == 1
            for shift in (-3, 1, 5):
                assert assembly.mod_one(x + shift) == r


class TestInvariant:
    def test_headline_value(self):
        report = assembly.compute_ek()
        assert report.ek == EK
        assert report.s1 == F(13, 40)
        assert report.orientation == "standard"

    def test_ingredients(self):
        report = assembly.compute_ek()
        assert report.eta_dirac == ETA_DIRAC
        assert report.eta_signature == ETA_SIGNATURE
        assert report.harmonic_spinors == 0
        assert report.secondary_integral == SECONDARY
        assert report.intermediate == INTERMEDIATE

    def test_assembly_identity(self):
        report = assembly.compute_ek()
        rebuilt = (report.eta_signature / 224
                   + (report.eta_dirac + report.harmonic_spinors) / 2
                   + report.secondary_integral)
        assert rebuilt == report.ek
        assert report.intermediate + report.secondary_integral == report.ek
        assert INTERMEDIATE + SECONDARY == EK

    def test_pl_invariant_is_28_ek(self):
        report = assembly.compute_ek()
        assert (28 * report.ek - report.s1).denominator == 1

    def test_reversed_orientation_negates(self):
        report = assembly.compute_ek(orientation="reversed")
        assert report.ek == -EK
        assert report.eta_dirac == -ETA_DIRAC
        assert report.eta_signature == -ETA_SIGNATURE
        assert report.secondary_integral == -SECONDARY
        assert report.s1 == F(-13, 40)

    def test_low_order_agrees(self):
        # the eta ingredients are already stable below the default order
        assert eta.eta_dirac(order=12) == ETA_DIRAC
        assert eta.eta_signature(order=12) == ETA_SIGNATURE

    def test_rejects_unknown_orientation(self):
        with pytest.raises(ValueError):
            assembly.compute_ek(orientation="mirror")


class TestSpectralGap:
    def test_certificate_holds(self):
        assert assembly.spectral_gap_certificate()

    def test_minimum_at_first_nontrivial_weight(self):
        # oracle for the monotonicity argument: enumerate the dominant
        # weights with p + q <= 10 on both factors
        values = [octonion.casimir_eigenvalue(p, q, factor)
                  for p in range(11) for q in range(p + 1)
                  if 0 < p + q <= 10 for factor in ("real", "imaginary")]
        assert min(values) == F(81, 20)
        assert octonion.casimir_eigenvalue(1, 0, "imaginary") == F(81, 20)

    def test_trivial_family_determinant_closed_form(self):
        # oracle away from the three points the certificate evaluates:
        # the double root at the endpoint and points on both sides of it
        for mu in (F(1, 8), F(1, 2), F(2, 3), F(-1), F(5)):
            got = det(octonion.trivial_family_matrix(mu))
            assert got == SqrtField.rational(F(-7, 20) * (1 - 2 * mu) ** 2)
        # the Lagrange basis on 0, 1, 2 weighted by 1, 2, 5 is 1 + x^2
        basis = [lagrange_basis((F(0), F(1), F(2)), j) for j in range(3)]
        assert [sum(y * c for y, c in zip((1, 2, 5), col))
                for col in zip(*basis)] == [1, 0, 1]

    def test_perturbed_block_fails(self, monkeypatch):
        block = octonion.trivial_component_block()
        # a multiple of sqrt5, so the determinant stays rational and
        # only its values differ from the closed form
        nudge = SqrtMatrix([[SqrtField.term(F(1, 100), 5), SqrtField()],
                            [SqrtField(), SqrtField()]])
        monkeypatch.setattr(octonion, "trivial_component_block",
                            lambda: block + nudge)
        with pytest.raises(CertificateError, match="kernel-freeness.*"
                           "trivial-family determinant"):
            assembly.spectral_gap_certificate()

    def test_detail_reports_the_certified_radius(self, monkeypatch):
        # 8/sqrt5 still clears the gap: the check passes on radius 16/5
        eigs = octonion.spectrum()
        assert assembly.check_spectral_gap().detail == (
            "deformation radius 49/20 clears every nontrivial Casimir "
            "eigenvalue (min 81/20)")
        monkeypatch.setattr(octonion, "spectrum", lambda: (
            SqrtField.term(F(8, 5), 5),) + eigs[1:])
        assert assembly.spectral_gap_certificate() is True
        check = assembly.check_spectral_gap()
        assert check.passed
        assert check.detail == ("deformation radius 16/5 clears every "
                                "nontrivial Casimir eigenvalue (min 81/20)")

    def test_larger_eigenvalue_fails(self, monkeypatch):
        # doubling every eigenvalue makes the radius 49/5, over the gap;
        # the smallest one would still clear it
        eigs = octonion.spectrum()
        monkeypatch.setattr(octonion, "spectrum",
                            lambda: tuple(lam * 2 for lam in eigs))
        with pytest.raises(CertificateError, match="kernel-freeness.*radius"):
            assembly.spectral_gap_certificate()


class TestClassification:
    def test_congruence_sets_verbatim(self):
        report = assembly.classify()
        assert report.pl_preserving == (2, -2)
        assert report.pl_reversing == (1, -1)
        assert report.pl_modulus == 10
        assert report.diffeo_reversing == (-1, -9, -29, 19)
        assert report.diffeo_modulus == 140

    def test_canonical_residues(self):
        report = assembly.classify()
        assert report.pl_preserving_residues() == (2, 8)
        assert report.pl_reversing_residues() == (1, 9)
        assert report.diffeo_residues() == (19, 111, 131, 139)

    def test_headline_bundle(self):
        report = assembly.classify()
        assert report.headline_euler_class == 10
        assert report.headline_bundle_parameter == -1
        assert report.headline_pontryagin_multiple == 16
        assert report.independent_vector_fields == 4

    def test_lines_emit_sets(self):
        text = "\n".join(assembly.classify().lines())
        assert "{2, -2}" in text
        assert "{1, -1}" in text
        assert "{-1, -9, -29, 19}" in text
        assert "mod 140" in text
        assert "4 independent vector fields" in text


class TestNamedChecks:
    def test_all_individual_checks_pass(self):
        for name, fn, suites in assembly.REGISTRY:
            for suite in suites:
                check = getattr(assembly, fn)(suite)
                assert check.passed and check.name == name, check

    def test_corrupted_bracket_is_located(self, monkeypatch):
        monkeypatch.setattr(liealg, "bracket", lambda a, b: liealg.so5(1, 2))
        check = assembly.check_jacobi_closure()
        assert not check.passed
        assert "(0, 1, 2)" in check.detail

    def test_wrong_sign_convention_is_reported(self, monkeypatch):
        secondary = forms.secondary_integral
        monkeypatch.setattr(forms, "secondary_integral",
                            lambda: secondary(-1))
        check = assembly.check_secondary_value()
        assert not check.passed
        assert "49/50000" in check.detail
        assert "-49/50000" in check.detail

    def test_non_invariant_form_fails_characteristic_check(self, monkeypatch):
        bogus = AltForm(4, {(0, 1, 2, 3): 1})
        assert not forms.is_h_invariant(bogus)
        monkeypatch.setattr(forms, "pontryagin_form", lambda: bogus)
        check = assembly.check_characteristic_form()
        assert not check.passed
        assert "not H-invariant" in check.detail

    def test_unnormalized_form_fails_characteristic_check(self, monkeypatch):
        monkeypatch.setattr(forms, "pontryagin_form", forms.g2_four_form)
        check = assembly.check_characteristic_form()
        assert not check.passed
        assert "(21/25) pi^-2" in check.detail

    def test_stability_order_failure_is_located(self, monkeypatch):
        local_term = eta.local_term
        monkeypatch.setattr(
            eta, "local_term",
            lambda k, direction, n: local_term(k, direction, n) + (n == 60))
        assert assembly.check_eta_values("fast").passed
        check = assembly.check_eta_values("all")
        assert not check.passed
        assert "direction (7, 2), order 60" in check.detail

    @pytest.fixture
    def empty_registry(self, monkeypatch):
        """A registry of its own for checks a test defines."""
        monkeypatch.setattr(assembly, "REGISTRY", [])
        return assembly.REGISTRY

    def test_raised_arithmetic_error_is_a_failed_check(self, empty_registry):
        @assembly.named_check("demo")
        def body(x):
            return "ok at %d" % (1 // x)
        assert body(1) == assembly.Check("demo", True, "ok at 1")
        assert body(0) == assembly.Check("demo", False,
                                         "integer division or modulo by zero")

    def test_usage_error_is_not_a_failed_check(self, empty_registry):
        @assembly.named_check("demo", suites=("fast",))
        def body():
            raise ValueError("bad input")
        assert empty_registry == [("demo", "body", ("fast",))]
        with pytest.raises(ValueError, match="bad input"):
            body()

    def test_check_body_stays_reachable(self, monkeypatch):
        # tracing tools rebind the module attribute; verify runs the check
        # it finds there, and the body stays reachable through the wrapper
        body = inspect.unwrap(assembly.check_jacobi_closure)
        assert body is not assembly.check_jacobi_closure
        assert body() == "all 120 basis triples close"
        rebound = assembly.Check("jacobi-identity", True, "rebound")
        monkeypatch.setattr(assembly, "check_jacobi_closure",
                            lambda suite: rebound)
        assert assembly.verify("fast").checks[0] is rebound

    def test_shipped_convention_matches(self):
        assert forms.DEFAULT_D_SIGN == 1
        assert assembly.check_secondary_value().passed


def suite_names(suite):
    return [name for name, _, suites in assembly.REGISTRY if suite in suites]


class TestVerify:
    def test_fast_suite(self):
        report = assembly.verify("fast")
        assert report.passed
        names = [c.name for c in report.checks]
        assert names == suite_names("fast")
        assert "minimal-polynomial" not in names
        assert "invariant-value" in names
        assert report.lines()[-1] == "suite 'fast': pass"

    def test_all_suite(self):
        report = assembly.verify("all")
        assert report.passed
        names = [c.name for c in report.checks]
        assert "minimal-polynomial" in names
        assert names == suite_names("all")
        assert len(names) == len(set(names)) == len(assembly.REGISTRY)
        assert report.invariant == assembly.compute_ek()
        eta_values = report.checks[names.index("eta-values")].detail
        assert "order 16" in eta_values and "order 60" in eta_values

    def test_failure_is_visible_in_lines(self):
        failing = assembly.VerificationReport(
            "fast", (assembly.Check("demo", False, "injected"),))
        assert not failing.passed
        assert any("FAIL" in line for line in failing.lines())

    def test_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            assembly.verify("exhaustive")


def test_import_leaves_dataclasses_out():
    # dataclasses imports inspect, ast, dis and tokenize: milliseconds of
    # every cold start, which each CLI command pays
    code = ("import sys, berger\n"
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
