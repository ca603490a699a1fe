"""Invariant forms: the 3- and 4-form, Pontryagin form, primitive, integral."""
from fractions import Fraction as F

import pytest

from berger import cli, forms, liealg
from berger.forms import (AltForm, curvature, g2_four_form, g2_three_form,
                          integrate_invariant, invariant_d, is_h_invariant,
                          pontryagin_form, secondary_integral, solve_primitive,
                          vol_h, vol_m, vol_so3, vol_so5, volume_form)
from berger.scalar import CertificateError, PiScalar, SqrtField


def ps(p, q=1, rad=1, k=0):
    return PiScalar.of(SqrtField.term(F(p, q), rad), k)


class _SkewedForm(AltForm):
    """A corrupted input: reports twice its true proportionality."""

    def proportionality(self, other):
        return super().proportionality(other) * PiScalar.of(2)


class TestAltForm:
    def test_evaluate_sorts_with_sign(self):
        w = AltForm(3, {(0, 2, 5): F(4)})
        assert w.evaluate((0, 2, 5)) == PiScalar.of(4)
        assert w.evaluate((2, 0, 5)) == PiScalar.of(-4)
        assert w.evaluate((5, 0, 2)) == PiScalar.of(4)

    def test_evaluate_repeated_index_is_zero(self):
        w = AltForm(2, {(0, 1): F(1)})
        assert w.evaluate((1, 1)).is_zero()

    def test_wedge_kills_common_index(self):
        a = AltForm(2, {(0, 1): F(1)})
        b = AltForm(2, {(0, 2): F(1)})
        assert a.wedge(b).is_zero()

    def test_wedge_of_odd_form_with_itself_vanishes(self):
        lam3 = g2_three_form()
        assert lam3.wedge(lam3).is_zero()

    def test_wedge_graded_commutative(self):
        lam3, lam4 = g2_three_form(), g2_four_form()
        assert lam3.wedge(lam4) == lam4.wedge(lam3)  # 3*4 even

    def test_proportionality(self):
        lam4 = g2_four_form()
        c = lam4.scale(ps(3, 7, 5, -2)).proportionality(lam4)
        assert c == ps(3, 7, 5, -2)
        assert lam4.proportionality(g2_three_form().wedge(g2_four_form())) is None

    def test_unsupported_coefficient_is_a_type_error(self):
        with pytest.raises(TypeError, match="not a scalar"):
            AltForm(1, {(0,): object()})


class TestInvariantForms:
    def test_three_form_coefficients(self):
        expected = {(0, 1, 3): 1, (0, 2, 6): 1, (0, 4, 5): 1, (1, 2, 4): 1,
                    (1, 5, 6): 1, (2, 3, 5): 1, (3, 4, 6): 1}
        assert g2_three_form().coeffs == {k: PiScalar.of(v)
                                          for k, v in expected.items()}

    def test_four_form_has_seven_unit_terms(self):
        lam4 = g2_four_form()
        assert len(lam4.coeffs) == 7
        for v in lam4.coeffs.values():
            assert v in (PiScalar.of(1), PiScalar.of(-1))

    def test_four_form_spot_value(self):
        # the i=4 summand e4^e5^e6^e2 sorts with a 3-cycle
        assert g2_four_form().evaluate((1, 3, 4, 5)) == PiScalar.of(-1)

    def test_product_is_seven_volumes(self):
        prod = g2_three_form().wedge(g2_four_form())
        assert prod == volume_form().scale(7)

    def test_h_invariance(self):
        assert is_h_invariant(g2_three_form())
        assert is_h_invariant(g2_four_form())
        assert not is_h_invariant(AltForm(2, {(0, 1): F(1)}))


class TestCurvature:
    def test_vanishes_when_bracket_stays_tangential(self):
        assert curvature(1, 4).is_zero()

    def test_nonzero_for_e2_e4(self):
        assert not curvature(1, 3).is_zero()

    def test_antisymmetry(self):
        assert curvature(3, 1) == -curvature(1, 3)
        assert curvature(2, 2).is_zero()


class TestPontryagin:
    def test_normalization_anchor(self):
        # on (e2, e4, e5, e6) only one pairing survives and the value
        # reduces to -(1/(4 pi^2)) tr(R(e2,e4) R(e5,e6))
        tr = (curvature(1, 3) @ curvature(4, 5)).trace()
        expected = PiScalar.of(tr * F(-1, 4), -2)
        assert pontryagin_form().evaluate((1, 3, 4, 5)) == expected

    def test_spot_value(self):
        assert pontryagin_form().evaluate((1, 3, 4, 5)) == ps(-21, 25, 1, -2)

    def test_proportional_to_four_form(self):
        c = pontryagin_form().proportionality(g2_four_form())
        assert c == ps(21, 25, 1, -2)

    def test_h_invariant(self):
        assert is_h_invariant(pontryagin_form())


class TestDifferential:
    def test_d_three_form(self):
        lam3, lam4 = g2_three_form(), g2_four_form()
        assert invariant_d(lam3) == lam4.scale(ps(6, 5, 5))  # 6/sqrt5
        assert invariant_d(lam3, d_sign=-1) == lam4.scale(ps(-6, 5, 5))

    def test_d_squared_zero(self):
        dlam3 = invariant_d(g2_three_form())
        assert invariant_d(dlam3).is_zero()

    def test_d_of_top_degree(self):
        assert invariant_d(volume_form()).is_zero()


class TestPrimitive:
    def test_primitive_of_pontryagin(self):
        h = solve_primitive(pontryagin_form())
        # 7/(10 sqrt5 pi^2) = (7 sqrt5 / 50) pi^{-2}
        assert h == g2_three_form().scale(ps(7, 50, 5, -2))
        assert invariant_d(h) == pontryagin_form()

    def test_sign_configuration_flips_primitive(self):
        h = solve_primitive(pontryagin_form())
        assert solve_primitive(pontryagin_form(), d_sign=-1) == h.scale(-1)

    def test_linearity(self):
        p1 = pontryagin_form()
        assert solve_primitive(p1.scale(2)) == solve_primitive(p1).scale(2)

    def test_rejects_primitive_with_wrong_differential(self):
        with pytest.raises(CertificateError, match="d h == p"):
            solve_primitive(_SkewedForm(4, pontryagin_form().coeffs))

    def test_rejects_non_proportional_form(self):
        with pytest.raises(ValueError):
            solve_primitive(AltForm(4, {(0, 1, 2, 3): F(1)}))


class TestIntegration:
    def test_volumes(self):
        assert vol_so3() == PiScalar.of(8, 2)
        assert vol_so5() == PiScalar.of(F(128, 3), 6)
        assert vol_h() == ps(40, 1, 5, 2)
        assert vol_m() == ps(16, 75, 5, 4)   # 16 pi^4 / (3 * 5^(3/2))

    def test_volume_certificate_rejects_mixed_pi_degrees(self, monkeypatch):
        monkeypatch.setattr(forms, "vol_so3",
                            lambda: PiScalar.of(8, 2) + PiScalar.of(1, 3))
        with pytest.raises(CertificateError, match="mixes powers of pi"):
            vol_m()

    def test_product_coefficient(self):
        prod = pontryagin_form().wedge(solve_primitive(pontryagin_form()))
        # 3 * 7^3 / (2 * 5^(7/2) pi^4) = (1029 sqrt5 / 1250) pi^{-4}
        assert prod == volume_form().scale(ps(1029, 1250, 5, -4))

    def test_integral_of_product_is_rational(self):
        prod = pontryagin_form().wedge(solve_primitive(pontryagin_form()))
        assert integrate_invariant(prod) == PiScalar.of(F(2744, 3125))

    def test_secondary_integral(self):
        assert secondary_integral() == F(-49, 50000)

    def test_secondary_integral_rejects_a_power_of_pi_left_over(
            self, monkeypatch, capsys):
        # negative control: with a wrong volume, pi^-4 * pi^3 stays pi^-1
        monkeypatch.setattr(forms, "vol_m", lambda: PiScalar.of(1, 3))
        with pytest.raises(CertificateError, match="not rational"):
            secondary_integral()
        assert cli.main(["forms", "--show", "integral"]) == 1
        assert "not rational" in capsys.readouterr().err

    def test_secondary_integral_tracks_sign_configuration(self):
        # the two differential conventions give opposite values; the
        # shipped default is the one matching -49/50000
        assert secondary_integral(d_sign=-1) == F(49, 50000)
        assert forms.DEFAULT_D_SIGN == 1
