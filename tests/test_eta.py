"""Eta-defect Weyl sums: exact values, stability, and cancellation."""
import functools
from collections import Counter
from fractions import Fraction as F

import pytest

from berger import eta
from berger.series import DEFAULT_ORDER, LaurentSeries, _ahat, ahat_series

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
            for order in (6, 12, 14, 16, 20, 24, 40, 60):
                assert eta.local_term(0, direction, order) == ALPHA0_TERM
                assert eta.local_term(3, direction, order) == ALPHA3_TERM

    def test_order_120(self):
        assert eta.local_term(0, (7, 2), 120) == ALPHA0_TERM
        assert eta.local_term(3, (7, 2), 120) == ALPHA3_TERM

    def test_default_order_is_the_least_above_the_pole_depth(self):
        assert DEFAULT_ORDER == eta.POLE_DEPTH + 1
        assert eta.weyl_sum(0).order >= 0  # the window reaches t^0

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

    def test_twist_constants_are_built_once_per_twist(self):
        for f in (eta._weyl_sum, eta._twist):
            f.cache_clear()
        for order in (6, 9, 12):
            eta.eta_signature((7, 2), order)
        info = eta._twist.cache_info()
        assert info.misses == len(eta.VALID_TERMS) and info.hits >= 4, info

    @pytest.mark.parametrize("order", [9, 16])
    def test_boundary_root_product_is_built_once_per_order(self, order):
        # both twists of the signature defect share the ray's root product
        for f in (eta._weyl_sum, eta._boundary_roots):
            f.cache_clear()
        eta.eta_signature(order=order)
        info = eta._boundary_roots.cache_info()
        assert info.misses == 1 and info.hits >= 1, info

    @pytest.mark.parametrize("order", [9, 16])
    def test_odd_exponential_is_built_once_per_order(self, order):
        # every wave and edge of both twists is a rescale of one e^t - e^-t
        for f in (eta._weyl_sum, eta._odd_exp):
            f.cache_clear()
        eta.eta_signature(order=order)
        info = eta._odd_exp.cache_info()
        assert info.misses == 1 and info.hits >= 1, info


class TestDirections:
    def test_root_hyperplane_rejected(self):
        for bad in ((1, 1), (1, -1), (1, 0), (0, 1), (3, 3)):
            with pytest.raises(ValueError):
                eta.validate_direction(bad)

    def test_singular_ray_orbit_rejected(self):
        # images of the ray weight under the Weyl group, integral and
        # rational; only each pair's kept image is tested, d(-wX) = -d(wX)
        for bad in ((1, -2), (1, 2), (2, 1), (2, -1), (-2, 1), (-1, -2),
                    (F(1, 3), F(-2, 3)), (F(2, 7), F(1, 7))):
            with pytest.raises(ValueError, match="singular-ray"):
                eta.validate_direction(bad)

    def test_generic_direction_accepted(self):
        assert eta.validate_direction((5, 1)) == (F(5), F(1))

    def test_direction_keeps_its_exact_type(self):
        # ints stay ints, so the sum's 2-vector steps run on ints
        for direction in ((5, 1), [5, 1], (F(5), F(1))):
            x = eta.validate_direction(direction)
            assert x == (5, 1) and all(type(c) is int for c in x)
        x = eta.validate_direction((F(7, 2), 1))
        assert x == (F(7, 2), 1) and [type(c) for c in x] == [F, int]


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


def _direct_weyl_sum(group, k, x0, order, signed, edge_series=ahat_series):
    """The Weyl sum over ``group`` with every factor rebuilt at each w,
    term by term as the module docstring writes it: the oracle for the
    hoisted sum, given the test-side closure of W(B2).  ``edge_series``
    stands for A-hat in the boundary's root product."""
    shift, bweight = eta.bulk_shift(k), eta.boundary_weight(k)
    pos = eta.POSITIVE_ROOTS
    total = LaurentSeries({}, 0, order)
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
            boundary = boundary * edge_series(dot(b, z), order)
        contrib = LaurentSeries.monomial(dy, 1, order).reciprocal() \
            * (bulk + boundary.rescale((-1, 1)))
        total = total + (contrib.rescale((sign, 1)) if signed else contrib)
    for b in pos:
        total = total * LaurentSeries.monomial(dot(b, x0), 1, order).reciprocal()
    return total.rescale((2, 1))


def _hoisted_sum(k, direction, order, signed):
    """The module's sum on a validated direction, past its memo."""
    _, kept, roots = eta._validated(direction)
    return eta._weyl_sum.__wrapped__(k, kept, roots, order, signed)


def _root_products(group, series, x, order):
    """prod_b series(<b, wX>, order) over the positive roots, one per w."""
    out = []
    for w, _ in group:
        y = act(w, x)
        p = LaurentSeries.monomial(1, 0, order)
        for b in eta.POSITIVE_ROOTS:
            p = p * series(dot(b, y), order)
        out.append(p)
    return out


HOIST_DIRECTIONS = ((5, 1), (7, 2), (1, 4), (-3, 1))

#: int and rational directions: the int ones take the sum's int route, the
#: others its Fraction route, and the reference runs on Fractions for all
ORACLE_DIRECTIONS = ((7, 2), (-3, 1), (F(7, 2), 1), (F(-5, 3), F(1, 2)),
                     (3, F(2, 5)))


class TestHoistedFactors:
    @pytest.mark.parametrize("order", (6, 16, 60))
    @pytest.mark.parametrize("direction", HOIST_DIRECTIONS)
    def test_sum_equals_the_direct_sum(self, order, direction, weyl):
        group, x0 = weyl(eta.POSITIVE_ROOTS), eta.validate_direction(direction)
        for k in eta.VALID_TERMS:
            for signed in (True, False):
                fast = _hoisted_sum(k, direction, order, signed)
                # == compares the window and every coefficient
                assert fast == _direct_weyl_sum(group, k, x0, order, signed)

    @pytest.mark.parametrize("order", (6, 24, 60))
    @pytest.mark.parametrize("direction", ORACLE_DIRECTIONS)
    def test_weyl_sum_is_exact_on_int_and_rational_directions(self, order,
                                                               direction, weyl):
        group = weyl(eta.POSITIVE_ROOTS)
        for k in eta.VALID_TERMS:
            for signed in (True, False):
                assert eta.weyl_sum(k, direction, order, signed) \
                    == _direct_weyl_sum(group, k, direction, order, signed)

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

    @pytest.mark.parametrize("order", (6, 60))
    def test_boundary_root_product_is_even(self, order):
        # the premise of taking E's odd part before the product
        r = eta._boundary_roots(order)
        assert r.coefficient(2) and r.order >= order
        assert not any(r.coefficient(e) for e in range(r.low, r.order + 1) if e % 2)

    def test_odd_boundary_factor_breaks_the_hoisted_sum(self, monkeypatch, weyl):
        # exp(c u) in place of A-hat(c u), in both sums: the product is
        # exp(<2 rho, iota> u), not even, so the odd part cannot go first
        def exp_series(c, order):
            return LaurentSeries.monomial(c, 1, order).exp()
        group, x0 = weyl(eta.POSITIVE_ROOTS), eta.validate_direction((7, 2))
        for series, agree in ((ahat_series, True), (exp_series, False)):
            monkeypatch.setattr(eta, "_boundary_roots", lambda order: functools.reduce(
                LaurentSeries.__mul__, (series(eta.dot(b, eta.IOTA), order)
                                        for b in eta.POSITIVE_ROOTS)))
            fast = _hoisted_sum(3, (7, 2), 16, True)
            assert (fast == _direct_weyl_sum(group, 3, x0, 16, True, series)) is agree

    def test_warm_order_60_sum_takes_three_products_and_two_fused_sums(self, monkeypatch):
        # the four bulk products are one four-term dot and the four boundary
        # rescalings of E one four-pair rescale; each * is a one-term dot,
        # the four waves and the edge's odd exponential are one-pair
        # rescales of the shared e^t - e^-t, A-hat(c t) is memoized, and
        # R(t) is one exponential of power sums: the three * are the edge's,
        # R(t) times the bulk, and the poles
        _hoisted_sum(3, (7, 2), 60, True)  # builds O, R_iota and each A-hat(c t)
        calls = Counter()
        sizes = {"__mul__": None, "reciprocal": None, "exp": None, "odd_difference": None,
                 "dot": lambda terms: len(terms), "rescale": lambda s, *pairs: len(pairs)}
        for name, size in sizes.items():
            def counting(*args, _f=getattr(LaurentSeries, name), _name=name, _size=size):
                calls[_name if _size is None else (_name, _size(*args))] += 1
                return _f(*args)
            monkeypatch.setattr(LaurentSeries, name, counting)
        _hoisted_sum(3, (7, 2), 60, True)
        assert calls == {"__mul__": 3, "reciprocal": 1, ("dot", 1): 3, ("dot", 4): 1,
                         ("rescale", 1): 5, ("rescale", 4): 1}
        assert calls["exp"] == calls["odd_difference"] == 0

    def test_ahat_is_the_rescaled_base_series(self):
        for c in (1, 3, F(7, 5), -2, F(-3, 11)):
            for n in (0, 1, 16, 60):
                assert ahat_series(c, n) == _ahat(n).rescale((1, c))
