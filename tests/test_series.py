"""Exact truncated Laurent series: window algebra, reciprocal, exp, A-hat,
and the refusal of inexact coefficients."""
import math
from decimal import Decimal
from fractions import Fraction as F

import pytest

from berger import series
from berger.series import (DEFAULT_ORDER, LaurentSeries, _ahat, ahat_product,
                           ahat_series)
from conftest import series_reciprocal, valuation


def S(coeffs, low=0, order=12):
    return LaurentSeries(coeffs, low, order)


def agree(a, b):
    """Equal coefficients on the common knowledge window."""
    window = range(max(a.low, b.low), min(a.order, b.order) + 1)
    return all(a.coefficient(e) == b.coefficient(e) for e in window)


class TestRingOps:
    def test_product_of_binomials(self):
        a = S({0: 1, 1: 1})
        b = S({0: 1, 1: -1})
        p = a * b
        assert p.coefficient(0) == 1
        assert p.coefficient(1) == 0
        assert p.coefficient(2) == -1

    def test_inverse_monomials_cancel(self):
        a = LaurentSeries({-1: F(1)}, -1, 10)
        b = S({1: 1}, 0, 10)
        p = a * b
        assert p.coefficient(0) == 1
        assert valuation(p) == 0

    def test_mul_window_bookkeeping(self):
        a = S({0: 1}, 0, 5)
        b = S({0: 1}, 0, 9)
        assert (a * b).order == 5
        c = LaurentSeries({-2: F(3)}, -2, 7)
        assert (a * c).order == 3  # min(5 + (-2), 7 + 0)
        assert (a * c).low == -2

    def test_add_window(self):
        a = S({1: 2}, 0, 5)
        b = LaurentSeries({-1: F(1)}, -1, 8)
        s = a + b
        assert s.low == -1 and s.order == 5
        assert s.coefficient(-1) == 1 and s.coefficient(1) == 2

    def test_scale_and_shift(self):
        a = S({0: 1, 2: 3})
        assert a.rescale((F(1, 3), 1)).coefficient(2) == 1

    def test_coefficient_outside_window_raises(self):
        a = S({0: 1}, 0, 4)
        with pytest.raises(ValueError):
            a.coefficient(5)
        assert a.coefficient(-3) == 0  # below low: exactly zero


class TestReciprocal:
    def test_linear_monomial(self):
        s = LaurentSeries({1: F(3)}, 1, 10)
        r = s.reciprocal()
        assert r.coefficient(-1) == F(1, 3)
        assert all(r.coefficient(k) == 0 for k in range(0, 5))

    def test_geometric(self):
        s = LaurentSeries({1: F(1), 2: F(1)}, 1, 10)  # t(1+t)
        # 1/(t(1+t)) = t^-1 (1 - t + t^2 - ...) by the test-side recurrence;
        # the library takes the reciprocal of one term only
        r = series_reciprocal(s)
        for k in range(-1, 6):
            assert r.coefficient(k) == (-1) ** (k + 1)
        with pytest.raises(ValueError, match="one term"):
            s.reciprocal()

    def test_reciprocal_roundtrip(self):
        s = LaurentSeries({3: F(5, 7)}, 0, 14)
        p = s * s.reciprocal()
        assert p.coefficient(0) == 1
        assert all(p.coefficient(k) == 0 for k in range(1, p.order + 1))

    def test_zero_series_raises(self):
        with pytest.raises(ZeroDivisionError):
            LaurentSeries({}, 0, 4).reciprocal()


class TestExp:
    def test_exp_of_linear(self):
        s = LaurentSeries({1: F(1)}, 1, 8)
        e = s.exp()
        for k in range(0, 9):
            assert e.coefficient(k) == F(1, math.factorial(k))

    def test_exp_additivity(self):
        # one term each, of one exponent, so a + b is one term or zero
        for e in (1, 2, 3):
            for p, q in ((F(2), F(1, 3)), (F(-1), F(1, 2)), (F(3, 4), F(-3, 4))):
                a, b = LaurentSeries({e: p}, 0, 10), LaurentSeries({e: q}, 0, 10)
                assert (a + b).exp() == a.exp() * b.exp()

    def test_exp_needs_positive_valuation(self):
        with pytest.raises(ValueError):
            S({0: 1}).exp()
        with pytest.raises(ValueError):
            LaurentSeries({1: 1}, -1, 6).exp()

    def test_exp_of_more_than_one_term_raises(self):
        with pytest.raises(ValueError, match="one term"):
            S({1: 1, 2: F(1, 3)}).exp()


_SOME = S({0: 1, 1: F(1, 3)}, 0, 6)

#: every door through which a coefficient, weight or argument enters a series
_DOORS = {
    "dot-weight": lambda w: LaurentSeries.dot([(w, _SOME, _SOME)]),
    "rescale-weight": lambda w: _SOME.rescale((w, 1)),
    "rescale-argument": lambda c: _SOME.rescale((1, 2), (1, c)),
    "coefficient": lambda q: S({0: 1, 2: q}),
    "monomial": lambda q: LaurentSeries.monomial(q, 1, 6),
    "ahat": lambda c: ahat_series(c, 6),
    "ahat-product": lambda c: ahat_product((1, c), 6),
}


class TestExactCoefficients:
    # a float has as_integer_ratio too: read silently, 0.1 would be the
    # binary fraction 3602879701896397/2^55, so every door refuses it
    @pytest.mark.parametrize("door", _DOORS)
    @pytest.mark.parametrize("value", [0.1, 0.5, 2.0, Decimal("0.5")])
    def test_inexact_value_raises_type_error(self, door, value):
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            _DOORS[door](value)

    def test_zero_coefficients_are_dropped(self):
        assert S({0: 1, 2: 0, 3: F(0)}) == S({0: 1})


class TestAhat:
    def test_leading_coefficients_at_c1(self):
        a = ahat_series(1, order=10)
        assert a.coefficient(0) == 1
        assert a.coefficient(2) == F(-1, 24)
        assert a.coefficient(4) == F(7, 5760)
        assert a.coefficient(6) == F(-31, 967680)

    def test_even_series(self):
        a = ahat_series(F(3, 2), order=11)
        assert all(a.coefficient(k) == 0 for k in range(1, 12, 2))

    def test_zero_argument_is_one(self):
        a = ahat_series(0, order=8)
        assert a.coefficient(0) == 1
        assert all(a.coefficient(k) == 0 for k in range(1, 9))

    def test_scaling_substitution(self):
        # A(z) at z = 2t: coefficient of t^2 is -4/24 = -1/6, of t^4 is 7*16/5760
        a = ahat_series(2, order=8)
        assert a.coefficient(2) == F(-1, 6)
        assert a.coefficient(4) == F(7, 360)

    def test_matches_defining_quotient(self):
        # the reciprocal of sinh(t/2) / (t/2), by the test-side recurrence
        for n in (0, 1, 2, 12, 16, 60, 61, 120, 240):
            sinh_over_t = {2 * k: F(1, 4 ** k * math.factorial(2 * k + 1))
                           for k in range((n + 1) // 2 + 1)}
            assert _ahat(n) == series_reciprocal(LaurentSeries(sinh_over_t, 0, n + 1)), n

    def test_matches_the_quotient_through_its_pole(self):
        # t / (2 sinh(t/2)), with the pole of 1/sinh cancelled by t
        n = 12
        sinh2 = {2 * k + 1: F(1) / (F(4) ** k * math.factorial(2 * k + 1))
                 for k in range(0, 7)}
        q = LaurentSeries({1: F(1)}, 1, n + 3) * series_reciprocal(
            LaurentSeries(sinh2, 1, n + 2))
        assert agree(ahat_series(1, order=n), q)

    def test_default_order(self):
        assert ahat_series(1).order >= DEFAULT_ORDER

    def test_window_is_one_past_the_order(self):
        for c in (0, 1, 3, F(7, 5), -2):
            for n in (0, 1, 2, 16, 30, 60, 61):
                a = ahat_series(c, n)
                assert (a.low, a.order) == (0, n + 1)

    def test_empty_product_is_one(self):
        for n in (-1, 0, 7, 60):
            assert ahat_product((), n) == LaurentSeries({0: 1}, 0, n + 1)

    def test_product_refuses_an_empty_window(self):
        with pytest.raises(ValueError, match="empty window"):
            ahat_product((1, 2), -2)

    def test_product_of_one_factor_is_the_rescaled_base_series(self):
        # A-hat(t) is the product's one-factor case; a rational c is run on
        # its numerator and rescaled by 1/q once
        for c in (1, 3, F(7, 5), -2, F(-3, 11), 0):
            for n in (0, 1, 16, 61):
                assert ahat_product([c], n) == _ahat(n).rescale((1, c))

    def test_memo_stays_within_its_bound(self):
        # a sweep over distinct rational c evicts, it does not grow for good
        memo = series._ahat_at
        memo.cache_clear()
        bound = memo.cache_info().maxsize
        assert bound is not None, "the A-hat memo is unbounded"
        for q in range(1, 2 * bound):
            ahat_series(F(q, 7), 8)
        info = memo.cache_info()
        assert info.misses > bound >= info.currsize, info
