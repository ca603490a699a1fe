"""Exact truncated Laurent series: window algebra, reciprocal, exp, A-hat."""
from fractions import Fraction as F

import pytest

from berger.series import DEFAULT_ORDER, LaurentSeries, ahat_series


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
        assert p.valuation() == 0

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
        assert a.scale(F(1, 3)).coefficient(2) == 1

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
        r = s.reciprocal()
        # 1/(t(1+t)) = t^-1 (1 - t + t^2 - ...)
        for k in range(-1, 6):
            assert r.coefficient(k) == (-1) ** (k + 1)

    def test_reciprocal_roundtrip(self):
        s = LaurentSeries({0: F(2), 1: F(-1), 3: F(5, 7)}, 0, 14)
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
        import math
        for k in range(0, 9):
            assert e.coefficient(k) == F(1, math.factorial(k))

    def test_exp_additivity(self):
        a = LaurentSeries({1: F(2), 2: F(1, 3)}, 1, 10)
        b = LaurentSeries({1: F(-1), 3: F(1, 2)}, 1, 10)
        assert agree((a + b).exp(), a.exp() * b.exp())

    def test_exp_needs_positive_valuation(self):
        with pytest.raises(ValueError):
            S({0: 1}).exp()


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
        # t / (2 sinh(t/2)) computed directly from the sinh series
        import math
        n = 12
        sinh2 = {2 * k + 1: F(1) / (F(4) ** k * math.factorial(2 * k + 1))
                 for k in range(0, 7)}
        q = LaurentSeries({1: F(1)}, 1, n + 3) * LaurentSeries(sinh2, 1, n + 2).reciprocal()
        assert agree(ahat_series(1, order=n), q)

    def test_default_order(self):
        assert ahat_series(1).order >= DEFAULT_ORDER

    def test_window_is_one_past_the_order(self):
        for c in (1, 3, F(7, 5), -2):
            for n in (0, 1, 2, 16, 30):
                a = ahat_series(c, n)
                assert (a.low, a.order) == (0, n + 1)
        assert (ahat_series(0, 5).low, ahat_series(0, 5).order) == (0, 5)
