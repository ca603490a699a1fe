"""Invariant assembly, classification report, and verification suites."""
import os
import subprocess
import sys
from fractions import Fraction as F

import pytest

from berger import assembly, eta, forms, liealg, octonion
from berger.forms import AltForm
from berger.matrix import SqrtMatrix, det
from berger.scalar import SqrtField

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
        assert assembly.compute_ek(order=12).ek == EK

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
        # oracle away from the three interpolation nodes: the double
        # root at the endpoint and points on both sides of it
        for mu in (F(1, 8), F(1, 2), F(2, 3), F(-1), F(5)):
            got = det(octonion.trivial_family_matrix(mu))
            assert got == SqrtField.rational(F(-7, 20) * (1 - 2 * mu) ** 2)
        assert assembly._quadratic_through(
            [(F(0), F(1)), (F(1), F(2)), (F(2), F(5))]) == (1, 0, 1)

    def test_perturbed_block_fails(self, monkeypatch):
        block = octonion.trivial_component_block()
        # a multiple of sqrt5, so the determinant stays rational and
        # only the interpolated polynomial differs
        nudge = SqrtMatrix([[SqrtField.term(F(1, 100), 5), SqrtField()],
                            [SqrtField(), SqrtField()]])
        monkeypatch.setattr(octonion, "trivial_component_block",
                            lambda: block + nudge)
        assert not assembly.spectral_gap_certificate()

    def test_larger_eigenvalue_fails(self, monkeypatch):
        # doubling every eigenvalue makes the radius 49/5, over the gap;
        # the smallest one would still clear it
        eigs = octonion.spectrum()
        monkeypatch.setattr(octonion, "spectrum",
                            lambda: tuple(lam * 2 for lam in eigs))
        assert not assembly.spectral_gap_certificate()


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
        for check in (assembly.check_jacobi_closure(),
                      assembly.check_structure_constants(),
                      assembly.check_octonion_laws(),
                      assembly.check_clifford_relations(),
                      assembly.check_volume_element(),
                      assembly.check_bracket_cayley(),
                      assembly.check_operator_blocks(),
                      assembly.check_isotropy_commutation(),
                      assembly.check_spectral_gap(),
                      assembly.check_eta_cancellation(order=12),
                      assembly.check_eta_values(order=12),
                      assembly.check_characteristic_form(),
                      assembly.check_secondary_value(),
                      assembly.check_secondary_sign_sweep(),
                      assembly.check_tensor_split(),
                      assembly.check_invariant_value(assembly.compute_ek(order=12))):
            assert check.passed, check

    def test_corrupted_bracket_is_located(self):
        check = assembly.check_jacobi_closure(lambda a, b: liealg.so5(1, 2))
        assert not check.passed
        assert "(0, 1, 2)" in check.detail

    def test_wrong_sign_convention_is_reported(self):
        check = assembly.check_secondary_value(d_sign=-1)
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
        assert assembly.check_eta_values(12).passed
        check = assembly.check_eta_values(12, stability=((7, 2), 60))
        assert not check.passed
        assert "direction (7, 2), order 60" in check.detail

    def test_shipped_convention_matches(self):
        assert forms.DEFAULT_D_SIGN == 1
        assert assembly.check_secondary_value().passed


class TestVerify:
    def test_fast_suite(self):
        report = assembly.verify("fast")
        assert report.passed
        names = [c.name for c in report.checks]
        assert "minimal-polynomial" not in names
        assert "invariant-value" in names
        assert report.lines()[-1] == "suite 'fast': pass"

    def test_all_suite(self):
        report = assembly.verify("all")
        assert report.passed
        names = [c.name for c in report.checks]
        assert "minimal-polynomial" in names
        assert len(names) == len(set(names)) == 17
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
