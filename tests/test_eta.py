"""Eta-defect Weyl sums: exact values, stability, and cancellation."""
import functools
from fractions import Fraction as F

import pytest

from berger import eta

ALPHA0_TERM = F(-12923, 281250)
ALPHA3_TERM = F(-277961, 281250)
ETA_SIGNATURE = F(-4817, 140625)


class TestLocalTerms:
    def test_untwisted_term(self):
        assert eta.local_term(0) == ALPHA0_TERM

    def test_twisted_term(self):
        assert eta.local_term(3) == ALPHA3_TERM

    def test_dirac_defect(self):
        assert eta.eta_dirac() == ALPHA0_TERM

    def test_signature_defect(self):
        assert eta.eta_signature() == ETA_SIGNATURE
        assert ETA_SIGNATURE == 1 + ALPHA0_TERM + ALPHA3_TERM
        assert ETA_SIGNATURE == F(-4817, 3 ** 2 * 5 ** 6)

    def test_direction_independence(self):
        for direction in ((7, 2), (4, 1), (11, 3)):
            assert eta.local_term(0, direction) == ALPHA0_TERM
            assert eta.local_term(3, direction) == ALPHA3_TERM

    def test_order_stability(self):
        for direction in ((5, 1), (7, 2)):
            for order in (6, 12, 14, 20, 24, 40, 60):
                assert eta.local_term(0, direction, order) == ALPHA0_TERM
                assert eta.local_term(3, direction, order) == ALPHA3_TERM

    def test_order_120(self):
        assert eta.local_term(0, (7, 2), 120) == ALPHA0_TERM
        assert eta.local_term(3, (7, 2), 120) == ALPHA3_TERM

    def test_lowest_order_above_pole_depth(self):
        assert eta.local_term(0, order=eta.POLE_DEPTH + 1) == ALPHA0_TERM
        for order in (eta.POLE_DEPTH, 0, -3):
            with pytest.raises(ValueError, match="pole depth"):
                eta.weyl_sum(0, order=order)

    def test_rejects_unknown_twist(self):
        with pytest.raises(ValueError):
            eta.local_term(1)
        with pytest.raises(ValueError):
            eta.boundary_weight(2)


class TestPoleCancellation:
    def test_signed_sum_has_no_polar_part(self):
        for k in (0, 3):
            assert eta.weyl_sum(k).polar_coefficients() == {}

    def test_unsigned_sum_fails_to_cancel(self):
        polar = eta.weyl_sum(0, signed=False).polar_coefficients()
        assert polar == {-4: F(-2, 75), -2: F(52, 375)}

    def test_unsigned_sum_raises_through_local_term(self, monkeypatch):
        # same failure surfaced as an exception, never a wrong number
        monkeypatch.setattr(eta, "weyl_sum",
                            functools.partial(eta.weyl_sum, signed=False))
        with pytest.raises(eta.PoleCancellationError):
            eta.local_term(3)


class TestMemo:
    def test_repeated_input_shares_one_sum(self):
        first = eta.weyl_sum(3, [5, 1], 14)
        assert eta.weyl_sum(3, (F(5), F(1)), 14) is first
        assert eta.weyl_sum(3, (5, 1), 14, signed=False) is not first

    def test_key_distinguishes_every_argument(self):
        base = eta.weyl_sum(0, (5, 1), 14)
        for other in (eta.weyl_sum(3, (5, 1), 14), eta.weyl_sum(0, (7, 2), 14),
                      eta.weyl_sum(0, (5, 1), 15)):
            assert other != base

    def test_invalid_direction_is_checked_on_every_call(self):
        eta.weyl_sum(0, (5, 1), 14)
        with pytest.raises(ValueError, match="root hyperplane"):
            eta.weyl_sum(0, (1, 1), 14)


class TestDirections:
    def test_root_hyperplane_rejected(self):
        for bad in ((1, 1), (1, -1), (1, 0), (0, 1), (3, 3)):
            with pytest.raises(ValueError):
                eta.validate_direction(bad)

    def test_singular_ray_orbit_rejected(self):
        # images of the ray weight under the Weyl group
        for bad in ((1, -2), (1, 2), (2, 1), (2, -1)):
            with pytest.raises(ValueError):
                eta.validate_direction(bad)

    def test_generic_direction_accepted(self):
        assert eta.validate_direction((5, 1)) == (F(5), F(1))


class TestWeights:
    def test_boundary_weights(self):
        assert eta.boundary_weight(0) == (F(1, 5), F(1, 10))
        assert eta.boundary_weight(3) == (F(7, 5), F(7, 10))

    def test_bulk_shifts(self):
        assert eta.bulk_shift(0) == (F(0), F(1, 2))
        assert eta.bulk_shift(3) == (F(1), F(3, 2))
