"""Eta Weyl sums under scaling of the direction: hypothesis properties.

The sum depends on X and t only through t X, so for rational lambda != 0
the sum at lambda X is the sum at X rescaled, t -> lambda t, on the same
window, and the local term, its t^0 coefficient, is the same at both.  X
is integral, so ``weyl_sum`` takes its int route there, and lambda X is
mostly not, so it takes the Fraction route: each route is checked against
the other, coefficient by coefficient.

The factors the sums share are checked against what they stand for: the
per-order O(t) = e^t - e^-t rescaled by a is the odd part of e^(at), and
the memoized A-hat(c t) is A-hat(t) rescaled, at c and -c alike; a float
c is refused even when the equal exact c is in the memo."""
from fractions import Fraction as F

import pytest

from berger import eta
from berger.series import LaurentSeries, _ahat, ahat_series

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=40, deadline=None,
                               derandomize=True, database=None)


def _generic(x) -> bool:
    try:
        eta.validate_direction(x)
    except ValueError:
        return False
    return True


_direction = st.tuples(st.integers(-9, 9), st.integers(-9, 9)).filter(_generic)
_scalar = st.builds(F, st.integers(-7, 7).filter(bool), st.integers(1, 7))


@PROPERTY
@hypothesis.given(_direction, _scalar, st.sampled_from(eta.VALID_TERMS),
                  st.integers(6, 12), st.booleans())
@hypothesis.example((7, 2), F(1, 3), 3, 6, True)
@hypothesis.example((5, 1), F(-5, 2), 0, 12, False)
def test_scaled_direction_is_the_rescaled_sum(x, lam, k, order, signed):
    lx = tuple(lam * c for c in x)
    assert all(type(c) is int for c in eta.validate_direction(x))
    assert eta.weyl_sum(k, lx, order, signed) \
        == eta.weyl_sum(k, x, order, signed).rescale((1, lam))


@PROPERTY
@hypothesis.given(_direction, _scalar, st.sampled_from(eta.VALID_TERMS),
                  st.integers(6, 12))
@hypothesis.example((7, 2), F(3, 7), 3, 6)
def test_local_term_is_the_same_at_a_scaled_direction(x, lam, k, order):
    lx = tuple(lam * c for c in x)
    assert eta.local_term(k, lx, order) == eta.local_term(k, x, order)


_rational = st.one_of(st.integers(-9, 9),
                      st.fractions(min_value=-9, max_value=9, max_denominator=9))


@PROPERTY
@hypothesis.given(_rational, st.integers(6, 60))
@hypothesis.example(0, 6)
@hypothesis.example(F(-7, 2), 60)
def test_shared_odd_exponential_rescales_to_every_wave(a, order):
    # window and every coefficient, so no sum needs an exp of its own
    want = LaurentSeries.monomial(a, 1, order).exp().odd_difference()
    assert eta._odd_exp(order).rescale((1, a)) == want


@PROPERTY
@hypothesis.given(_rational, st.integers(6, 60))
@hypothesis.example(0, 6)
@hypothesis.example(3, 60)
def test_ahat_memo_is_even_and_exact(c, order):
    # c, -c and an int c and its equal Fraction share one memo entry
    want = _ahat(order).rescale((1, c))
    assert ahat_series(c, order) == ahat_series(-c, order) == want
    assert ahat_series(F(c), order) == ahat_series(-F(c), order) == want
    if F(c).denominator == 1:
        assert ahat_series(int(c), order) == want


@PROPERTY
@hypothesis.given(st.integers(-18, 18).map(lambda n: n / 2), st.integers(6, 60))
def test_float_ahat_argument_is_refused(c, order):
    ahat_series(F(c), order)  # the equal exact key, which c would hash to
    with pytest.raises(TypeError, match="is not an int or a Fraction"):
        ahat_series(c, order)
