"""``Octonion``'s graded int kernel against right multiplication by matrices.

x * y must equal y_0 x + sum_k y_k (R_k x), R_k from ``unit_cliffords()``
applied by ``SqrtMatrix.apply`` (``conftest.right_product``).  Both routes
read ``product_table``, so this test checks the kernel's loops, its grade
products sqrt(r) sqrt(s) = g sqrt(t) and its one reduction, not the table:
``octonion-laws`` certifies the table, and ``test_negative_controls`` flips
a sign in it.  Coordinates are drawn from Q and from Q sqrt(r), r in {2, 3,
5, 6, 7}, so products meet g = 1, 2 and 3 and land on new radicands.  Also:
``norm2`` is multiplicative, one value built from ints, Fractions and
``SqrtField`` elements has one stored form, scaling a factor by 2 and the
other by 1/2 lands on the same product, and zero times anything is zero.
"""
from fractions import Fraction as F

import pytest

from berger.octonion import Octonion, unit_cliffords
from berger.scalar import SqrtField
from conftest import right_product

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)

ZERO = Octonion([0] * 8)

_rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)
# a coordinate in Q or in Q sqrt(r); zeros included, so grades come and go
_coord = st.one_of(_rational, st.builds(SqrtField.term, _rational,
                                        st.sampled_from((2, 3, 5, 6, 7))))
octonions = st.lists(_coord, min_size=8, max_size=8).map(Octonion)


@PROPERTY
@hypothesis.given(octonions, octonions)
def test_product_is_right_multiplication_by_the_clifford_matrices(x, y):
    assert x * y == right_product(x, y, unit_cliffords())


@PROPERTY
@hypothesis.given(octonions, octonions)
def test_norm2_is_multiplicative(x, y):
    assert (x * y).norm2() == x.norm2() * y.norm2()
    assert x.norm2() == sum((c * c for c in x.coords), SqrtField())


@PROPERTY
@hypothesis.given(octonions, octonions)
def test_rescaled_factors_give_one_stored_product(x, y):
    # the unreduced numerators differ by a factor 4 in each route
    twice = Octonion([c * 2 for c in x.coords])
    half = Octonion([c * F(1, 2) for c in y.coords])
    assert twice * half == x * y
    assert Octonion((x * y).coords) == x * y


@PROPERTY
@hypothesis.given(st.lists(_coord, min_size=7, max_size=7))
def test_one_value_from_int_fraction_and_field_is_one_octonion(rest):
    forms = [F(2, 4), F(1, 2), SqrtField.term(F(1, 2))]
    built = [Octonion([c, *rest]) for c in forms]
    assert built[0] == built[1] == built[2]
    assert built[0].coords[0] == SqrtField.term(F(1, 2))


@PROPERTY
@hypothesis.given(octonions)
def test_zero_times_anything_is_zero(x):
    assert ZERO * x == ZERO
    assert x * ZERO == ZERO
    assert ZERO == Octonion([SqrtField()] * 8)
    assert all(c.is_zero() for c in (ZERO * x).coords)
