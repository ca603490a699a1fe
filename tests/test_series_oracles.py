"""Series kernels against independent oracles: sympy for A-hat and for
the substitution t -> c t, the product of A-hat(c t) over c for their one
exponential of power sums, the term-by-term recurrence of
``conftest.series_reciprocal`` for the one-term reciprocal, the
ring-operation power sum for the one-term exp, s - s(-t) for the odd
difference, and hypothesis properties for products, reciprocal and exp at
random orders, valuations and sparsities."""
from fractions import Fraction as F
from functools import reduce
from operator import mul

import pytest

from berger.series import LaurentSeries, ahat_product, ahat_series
from conftest import series_reciprocal, valuation

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


_ahat_argument = st.one_of(st.integers(-9, 9),
                           st.fractions(min_value=-9, max_value=9, max_denominator=9))


@PROPERTY
@hypothesis.given(st.lists(_ahat_argument, min_size=1, max_size=5), st.integers(0, 80))
@hypothesis.example([0], 0)
@hypothesis.example([5, 2, 7, 9], 60)  # the root values <b, X> at X = (7, 2)
@hypothesis.example([1, 1, 2, 3], 61)  # the root values <b, iota>
@hypothesis.example([F(-7, 3), 0, F(1, 2), F(-7, 3), -4], 80)
def test_ahat_product_is_the_product_of_ahats(cs, order):
    # window and every coefficient: the product route, kept here as the
    # reference, against the one exponential of power sums that replaced it
    want = reduce(mul, (ahat_series(c, order) for c in cs))
    assert ahat_product(cs, order) == want
    assert ahat_product(reversed(cs), order) == want


_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def series(draw):
    """A series with a nonzero coefficient at a random valuation v, sparse
    terms above it, and a window of random length starting at or below v."""
    v = draw(st.integers(-4, 4))
    length = draw(st.integers(0, 14))
    lead = draw(_coeff.filter(lambda q: q != 0))
    rest = draw(st.dictionaries(st.integers(v + 1, v + length), _coeff,
                                max_size=length)) if length else {}
    low = max(-6, v - draw(st.integers(0, 2)))
    return LaurentSeries({v: lead, **rest}, low, v + length)


def leading_term(s):
    """The lowest term of s alone, on the window of s."""
    v = valuation(s)
    return LaurentSeries({v: s.coefficient(v)}, s.low, s.order)


@PROPERTY
@hypothesis.given(series().map(leading_term))
def test_reciprocal_roundtrip_is_one(s):
    p = s * s.reciprocal()
    for e in range(p.low, p.order + 1):
        assert p.coefficient(e) == (1 if e == 0 else 0)


@PROPERTY
@hypothesis.given(series().map(leading_term))
def test_reciprocal_matches_the_recurrence(s):
    assert s.reciprocal() == series_reciprocal(s)


@PROPERTY
@hypothesis.given(series().filter(lambda s: s != leading_term(s)))
def test_reciprocal_of_more_than_one_term_raises(s):
    with pytest.raises(ValueError, match="one term"):
        s.reciprocal()
    p = s * series_reciprocal(s)  # the test-side quotient is still exact
    for e in range(p.low, p.order + 1):
        assert p.coefficient(e) == (1 if e == 0 else 0)


@pytest.mark.parametrize("v", [-1, 0, 1, 2])
@pytest.mark.parametrize("order", [2, 16, 60])
def test_one_term_reciprocal_matches_the_recurrence(v, order):
    for c in (1, -3, F(2, 7), F(-5, 2)):
        for low in {v - 1, min(v, 0)}:
            s = LaurentSeries({v: c}, low, order)
            r = s.reciprocal()
            assert r == series_reciprocal(s)
            assert r == LaurentSeries({-v: 1 / F(c)}, -v, order - 2 * v)


@PROPERTY
@hypothesis.given(series().map(leading_term))
def test_reciprocal_window(s):
    v = valuation(s)
    r = s.reciprocal()
    assert (r.low, r.order) == (-v, s.order - 2 * v)


@st.composite
def terms(draw, e=None):
    """One term c t^e with e >= 1 on a window [low, order] from 0 <= low <=
    e; the zero series when c = 0 or e lies past the order."""
    e = draw(st.integers(1, 4)) if e is None else e
    order = draw(st.integers(0, 30))
    low = draw(st.integers(0, min(e, order)))
    return LaurentSeries({e: draw(_coeff)} if e <= order else {}, low, order)


@PROPERTY
@hypothesis.given(st.integers(1, 4).flatmap(lambda e: st.tuples(terms(e), terms(e))))
def test_exp_turns_sums_into_products(pair):
    a, b = pair  # of one exponent, so a + b is one term or zero
    assert (a + b).exp() == a.exp() * b.exp()


def _power_sum_exp(f):
    """The sum of f^k / k! by ring operations; f^k vanishes on the window
    once k exceeds the order."""
    total = power = LaurentSeries.monomial(1, 0, f.order)
    for k in range(1, f.order + 1):
        power = (power * f).rescale((F(1, k), 1))
        total = total + power
    return total


@PROPERTY
@hypothesis.given(terms())
def test_exp_matches_power_sum(f):
    assert f.exp() == _power_sum_exp(f)


@pytest.mark.parametrize("e", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 16, 60])
def test_one_term_exp_matches_the_power_sum(e, order):
    for c in (1, -3, F(2, 7), F(-5, 2), 0):
        for low in {0, min(e, order)}:
            f = LaurentSeries({e: c} if e <= order else {}, low, order)
            assert f.exp() == _power_sum_exp(f)


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


def _sympy_rescale(s, pairs):
    """The sum of w s(c t) over the pairs (w, c), by sympy substitution."""
    t = sympy.Symbol("t")
    poly = sympy.Add(*(sympy.Rational(a.numerator, a.denominator) * t ** e
                       for e in range(s.low, s.order + 1) if (a := s.coefficient(e))))
    return t, sympy.expand(sympy.Add(*(
        sympy.Rational(w.numerator, w.denominator)
        * poly.subs(t, sympy.Rational(c.numerator, c.denominator) * t) for w, c in pairs)))


def _agrees_with_sympy(r, s, pairs):
    t, sub = _sympy_rescale(s, pairs)
    assert (r.low, r.order) == (s.low, s.order)
    for e in range(s.low, s.order + 1):
        want = sympy.Rational(sub.coeff(t, e))
        assert r.coefficient(e) == F(int(want.p), int(want.q)), e


@PROPERTY
@hypothesis.given(windows(), _coeff.filter(lambda q: q != 0))
@hypothesis.example(LaurentSeries({-3: F(2, 7), 0: 1, 5: F(-1, 2)}, -3, 6), F(-5, 3))
def test_rescale_matches_sympy_substitution(s, c):
    _agrees_with_sympy(s.rescale((1, c)), s, [(F(1), c)])


@PROPERTY
@hypothesis.given(windows(), st.lists(st.tuples(st.one_of(_coeff, _wide_coeff), _coeff),
                                      min_size=1, max_size=4))
@hypothesis.example(LaurentSeries({-3: F(2, 7), -1: 5, 0: 1, 5: F(-1, 2)}, -3, 6),
                    [(F(1, 3), F(-5, 3)), (F(-2), F(7, 2)), (F(0), F(1))])
@hypothesis.example(LaurentSeries({0: 3, 2: F(1, 10007), 4: 1}, 0, 8),
                    [(F(1), F(0)), (F(-1, 2), F(2, 3))])
@hypothesis.example(LaurentSeries({-1: 1, 1: 1}, -2, 3), [(F(1), F(1)), (F(2), F(0))])
def test_weighted_rescale_is_the_sum_of_rescalings(s, pairs):
    # c = 0 is allowed on a power series and raises against a pole
    if any(c == 0 for _, c in pairs) and s.polar_coefficients():
        with pytest.raises(ZeroDivisionError, match="polar part by 0"):
            s.rescale(*pairs)
        return
    _agrees_with_sympy(s.rescale(*pairs), s, pairs)


def _reference_dot(terms):
    """The sum of w a b term by term in Fraction arithmetic, on the
    narrowest of the products' windows."""
    products = [(w, _reference_product(a, b)) for w, a, b in terms]
    low, order = min(p.low for _, p in products), min(p.order for _, p in products)
    acc = {}
    for w, p in products:
        for e in range(p.low, order + 1):
            acc[e] = acc.get(e, F(0)) + w * p.coefficient(e)
    return LaurentSeries(acc, low, order)


@PROPERTY
@hypothesis.given(st.lists(st.tuples(st.one_of(st.just(F(0)), _coeff, _wide_coeff),
                                     windows(), windows()), min_size=1, max_size=4))
@hypothesis.example([(F(1, 3), LaurentSeries({0: 1, 1: 2}, 0, 9), LaurentSeries({1: 1}, 0, 4)),
                     (F(0), LaurentSeries({-2: 7}, -2, 3), LaurentSeries({0: 1}, 0, 2)),
                     (F(-5, 2 ** 61 - 1), LaurentSeries({-1: F(1, 7)}, -1, 6),
                      LaurentSeries({0: 1, 3: F(2, 999983)}, 0, 12))])
def test_dot_is_the_weighted_sum_of_products(terms):
    # windows of different order give the narrowest; a zero weight adds no
    # term but its window
    assert LaurentSeries.dot(terms) == _reference_dot(terms)


@PROPERTY
@hypothesis.given(windows())
@hypothesis.example(LaurentSeries({-3: F(2, 7), -2: 1, 0: 1, 5: F(-1, 2)}, -3, 6))
def test_odd_difference_is_s_minus_its_reflection(s):
    d = s.odd_difference()
    assert d == s + s.rescale((-1, -1)) == s.rescale((1, 1), (-1, -1))
    assert (d.low, d.order) == (s.low, s.order)


def test_cancelled_coefficients_are_dropped():
    # (1 + t)(1 - t) = 1 - t^2: the t coefficient cancels to 0
    p = LaurentSeries({0: 1, 1: 1}, 0, 5) * LaurentSeries({0: 1, 1: -1}, 0, 5)
    expected = LaurentSeries({0: 1, 2: -1}, 0, 5)
    assert p == expected
    assert p.coefficient(1) == 0
    # a cancelled lowest coefficient is gone, not a stored zero
    s = LaurentSeries({0: 1, 1: 1}, 0, 5) + LaurentSeries({0: -1, 1: 1}, 0, 5)
    assert s == LaurentSeries({1: 2}, 0, 5)


@PROPERTY
@hypothesis.given(windows(max_low=-1), _coeff.filter(lambda q: q != 0))
@hypothesis.example(LaurentSeries({-3: F(2, 7), 0: 1, 5: F(-1, 2)}, -3, 6), F(-5, 3))
def test_rescale_and_scale_round_trip(s, c):
    # one canonical form: undoing a rescale or a scale gives an equal series
    assert s.rescale((1, c)).rescale((1, 1 / c)) == s
    assert s.rescale((c, 1)).rescale((1 / c, 1)) == s
