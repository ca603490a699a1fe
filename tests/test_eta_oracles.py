"""Eta Weyl sums under scaling of the direction: hypothesis properties.

The sum depends on X and t only through t X, so for rational lambda != 0
the sum at lambda X is the sum at X rescaled, t -> lambda t, on the same
window, and the local term, its t^0 coefficient, is the same at both.  X
is integral, so ``weyl_sum`` takes its int route there, and lambda X is
mostly not, so it takes the Fraction route: each route is checked against
the other, coefficient by coefficient."""
from fractions import Fraction as F

import pytest

from berger import eta

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
