"""Eta-defect Weyl sums: exact values, stability, and cancellation."""
import functools
from fractions import Fraction as F

import pytest

from berger import eta
from berger.series import LaurentSeries, _ahat, ahat_series

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


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def act(m, v):
    return tuple(dot(row, v) for row in m)


def _direct_weyl_sum(group, k, x0, order, signed):
    """The Weyl sum over ``group`` with every factor rebuilt at each w,
    term by term as the module docstring writes it: the oracle for the
    hoisted sum, given the test-side closure of W(B2)."""
    shift, bweight = eta.bulk_shift(k), eta.boundary_weight(k)
    pos = eta.POSITIVE_ROOTS
    total = LaurentSeries.zero(order)
    for w, sign in group:
        y = act(w, x0)
        dy = dot(eta.DELTA, y)
        bulk = ahat_series(dy, order)
        for b in pos:
            bulk = bulk * ahat_series(dot(b, y), order)
        bulk = bulk * LaurentSeries.monomial(dot(shift, y), 1, order).exp()
        z = eta.restrict_to_s(y)
        boundary = LaurentSeries.monomial(dot(bweight, z), 1, order).exp()
        for b in pos:
            boundary = boundary * ahat_series(dot(b, z), order)
        contrib = LaurentSeries.monomial(dy, 1, order).reciprocal() \
            * (bulk - boundary)
        total = total + (contrib.scale(sign) if signed else contrib)
    for b in pos:
        total = total * LaurentSeries.monomial(dot(b, x0), 1, order).reciprocal()
    return total.scale(2)


def _root_products(group, series, x, order):
    """prod_b series(<b, wX>, order) over the positive roots, one per w."""
    out = []
    for w, _ in group:
        y = act(w, x)
        p = LaurentSeries.one(order)
        for b in eta.POSITIVE_ROOTS:
            p = p * series(dot(b, y), order)
        out.append(p)
    return out


HOIST_DIRECTIONS = ((5, 1), (7, 2), (1, 4), (-3, 1))


class TestHoistedFactors:
    @pytest.mark.parametrize("order", (6, 16, 60))
    @pytest.mark.parametrize("direction", HOIST_DIRECTIONS)
    def test_sum_equals_the_direct_sum(self, order, direction, weyl):
        group, x0 = weyl(eta.POSITIVE_ROOTS), eta.validate_direction(direction)
        for k in eta.VALID_TERMS:
            for signed in (True, False):
                fast = eta._weyl_sum.__wrapped__(k, x0, order, signed)
                # == compares the window and every coefficient
                assert fast == _direct_weyl_sum(group, k, x0, order, signed)

    @pytest.mark.parametrize("direction", HOIST_DIRECTIONS)
    def test_root_product_is_the_same_for_every_w(self, direction, weyl):
        x = eta.validate_direction(direction)
        products = _root_products(weyl(eta.POSITIVE_ROOTS), ahat_series, x, 24)
        assert len(products) == 8
        assert all(p == products[0] for p in products)

    def test_odd_series_breaks_the_invariance(self, weyl):
        # exp is not even: prod_b exp(<b, wX> t) = exp(<2 rho, wX> t)
        # moves with w, so the invariance test can fail
        def exp_series(c, order):
            return LaurentSeries.monomial(c, 1, order).exp()
        for direction in HOIST_DIRECTIONS:
            products = _root_products(weyl(eta.POSITIVE_ROOTS), exp_series,
                                      eta.validate_direction(direction), 24)
            assert any(p != products[0] for p in products)

    def test_ahat_is_the_rescaled_base_series(self):
        for c in (1, 3, F(7, 5), -2, F(-3, 11)):
            for n in (0, 1, 16, 60):
                assert ahat_series(c, n) == _ahat(n).rescale(c)
