"""Series kernels against independent oracles: sympy for A-hat and for
the substitution t -> c t, a term-by-term recurrence for reciprocals (the
one-term closed form included), and hypothesis properties for products,
reciprocal and exp at random orders, valuations and sparsities."""
from fractions import Fraction as F

import pytest

from berger.series import LaurentSeries, ahat_series

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)


@pytest.mark.parametrize("c", [1, 3, F(7, 5), -2])
def test_ahat_matches_sympy_series(c):
    t = sympy.Symbol("t")
    z = sympy.Rational(F(c).numerator, F(c).denominator) * t
    a = ahat_series(c, 16)
    poly = sympy.series(z / (2 * sympy.sinh(z / 2)), t, 0, a.order + 1).removeO()
    for k in range(a.order + 1):
        q = sympy.Rational(poly.coeff(t, k))
        assert a.coefficient(k) == F(int(q.p), int(q.q)), k


_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def series(draw, min_valuation=-4, min_low=-6):
    """A series with a nonzero coefficient at a random valuation v, sparse
    terms above it, and a window of random length starting at or below v."""
    v = draw(st.integers(min_valuation, 4))
    length = draw(st.integers(0, 14))
    lead = draw(_coeff.filter(lambda q: q != 0))
    rest = draw(st.dictionaries(st.integers(v + 1, v + length), _coeff,
                                max_size=length)) if length else {}
    low = max(min_low, v - draw(st.integers(0, 2)))
    return LaurentSeries({v: lead, **rest}, low, v + length)


@PROPERTY
@hypothesis.given(series())
def test_reciprocal_roundtrip_is_one(s):
    p = s * s.reciprocal()
    for e in range(p.low, p.order + 1):
        assert p.coefficient(e) == (1 if e == 0 else 0)


def _reference_reciprocal(s):
    """1/s by the recurrence b_0 = 1/a_0, b_m = -(a_1 b_(m-1) + ... + a_m b_0)/a_0
    on the unit part, coefficient by coefficient in Fractions."""
    v = s.valuation()
    a = [s.coefficient(v + e) for e in range(s.order - v + 1)]
    b = [1 / a[0]]
    for m in range(1, len(a)):
        b.append(-sum(a[e] * b[m - e] for e in range(1, m + 1)) / a[0])
    return LaurentSeries({m - v: q for m, q in enumerate(b)}, -v, s.order - 2 * v)


@PROPERTY
@hypothesis.given(series())
def test_reciprocal_matches_the_recurrence(s):
    assert s.reciprocal() == _reference_reciprocal(s)


@pytest.mark.parametrize("v", [-1, 0, 1, 2])
@pytest.mark.parametrize("order", [2, 16, 60])
def test_one_term_reciprocal_matches_the_recurrence(v, order):
    for c in (1, -3, F(2, 7), F(-5, 2)):
        for low in {v - 1, min(v, 0)}:
            s = LaurentSeries({v: c}, low, order)
            r = s.reciprocal()
            assert r == _reference_reciprocal(s)
            assert r == LaurentSeries({-v: 1 / F(c)}, -v, order - 2 * v)


@PROPERTY
@hypothesis.given(series())
def test_reciprocal_window(s):
    v = s.valuation()
    r = s.reciprocal()
    assert (r.low, r.order) == (-v, s.order - 2 * v)


@PROPERTY
@hypothesis.given(series(min_valuation=1, min_low=0),
                  series(min_valuation=1, min_low=0))
def test_exp_turns_sums_into_products(a, b):
    assert (a + b).exp() == a.exp() * b.exp()


@PROPERTY
@hypothesis.given(series(min_valuation=1, min_low=0))
def test_exp_matches_power_sum(f):
    # sum of f^k / k! by ring operations; f^k vanishes on the window
    # once k exceeds the order
    total = power = LaurentSeries.monomial(1, 0, f.order)
    for k in range(1, f.order + 1):
        power = (power * f).scale(F(1, k))
        total = total + power
    assert f.exp() == total


def _reference_product(a, b):
    """The product term by term in Fraction arithmetic, on the window
    [la+lb, min(oa+lb, ob+la)]."""
    low, order = a.low + b.low, min(a.order + b.low, b.order + a.low)
    acc = {}
    for ea in range(a.low, a.order + 1):
        for eb in range(b.low, min(b.order, order - ea) + 1):
            q = a.coefficient(ea) * b.coefficient(eb)
            acc[ea + eb] = acc.get(ea + eb, F(0)) + q
    return LaurentSeries(acc, low, order)


# pairwise coprime, up to 61 bits, so common denominators grow large
_PRIMES = (1, 2, 3, 7, 10007, 999983, 2 ** 31 - 1, 2 ** 61 - 1)
_wide_coeff = st.builds(F, st.integers(-10 ** 6, 10 ** 6),
                        st.sampled_from(_PRIMES))


@st.composite
def windows(draw, max_low=3):
    """Any series: possibly empty, negative ``low``, independent orders,
    small or wide coefficients."""
    low = draw(st.integers(-8, max_low))
    order = low + draw(st.integers(0, 12))
    coeffs = draw(st.dictionaries(st.integers(low, order),
                                  st.one_of(_coeff, _wide_coeff),
                                  max_size=order - low + 1))
    return LaurentSeries(coeffs, low, order)


@PROPERTY
@hypothesis.given(windows(), windows())
@hypothesis.example(LaurentSeries({}, -3, 2), LaurentSeries({0: 5}, 0, 4))
@hypothesis.example(LaurentSeries({-1: 1, 0: 1}, -1, 4),
                    LaurentSeries({1: 1, 2: -1}, 0, 6))
@hypothesis.example(LaurentSeries({-2: F(1, 2 ** 61 - 1), 3: F(-4, 999983)}, -2, 9),
                    LaurentSeries({1: F(7, 2 ** 31 - 1), 2: F(1, 10007)}, 1, 3))
def test_product_matches_fraction_reference(a, b):
    p = a * b
    ref = _reference_product(a, b)
    # ref, from the constructor, keeps no zero coefficient, and == compares
    # the stored form, so the product keeps none either
    assert p == ref
    nonzero = [e for e in range(p.low, p.order + 1) if p.coefficient(e)]
    assert p.valuation() == min(nonzero, default=None)


@PROPERTY
@hypothesis.given(windows(), _coeff.filter(lambda q: q != 0))
@hypothesis.example(LaurentSeries({-3: F(2, 7), 0: 1, 5: F(-1, 2)}, -3, 6), F(-5, 3))
def test_rescale_matches_sympy_substitution(s, c):
    t = sympy.Symbol("t")
    q = sympy.Rational(c.numerator, c.denominator)
    coeffs = {e: s.coefficient(e) for e in range(s.low, s.order + 1)}
    poly = sympy.Add(*(sympy.Rational(a.numerator, a.denominator) * t ** e
                       for e, a in coeffs.items()))
    sub = sympy.expand(poly.subs(t, q * t))
    r = s.rescale(c)
    assert (r.low, r.order) == (s.low, s.order)
    for e in range(s.low, s.order + 1):
        want = sympy.Rational(sub.coeff(t, e))
        assert r.coefficient(e) == F(int(want.p), int(want.q)), e


def test_cancelled_coefficients_are_dropped():
    # (1 + t)(1 - t) = 1 - t^2: the t coefficient cancels to 0
    p = LaurentSeries({0: 1, 1: 1}, 0, 5) * LaurentSeries({0: 1, 1: -1}, 0, 5)
    expected = LaurentSeries({0: 1, 2: -1}, 0, 5)
    assert p == expected
    assert p.coefficient(1) == 0
    # a cancelled lowest coefficient is gone, not a stored zero
    s = LaurentSeries({0: 1, 1: 1}, 0, 5) + LaurentSeries({0: -1, 1: 1}, 0, 5)
    assert s.valuation() == 1


@PROPERTY
@hypothesis.given(windows(max_low=-1), _coeff.filter(lambda q: q != 0))
@hypothesis.example(LaurentSeries({-3: F(2, 7), 0: 1, 5: F(-1, 2)}, -3, 6), F(-5, 3))
def test_rescale_and_scale_round_trip(s, c):
    # one canonical form: undoing a rescale or a scale gives an equal series
    assert s.rescale(c).rescale(1 / c) == s
    assert s.scale(c).scale(1 / c) == s
