"""SqrtField arithmetic against sympy's exact radicals, on hypothesis
elements with one to four mixed radicands."""
import pytest

from berger.scalar import RADICANDS, SqrtField

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)

_coeff = st.fractions(min_value=-5, max_value=5, max_denominator=7)

# coordinates may be 0, so some elements have fewer radicands or are zero
elements = st.dictionaries(st.sampled_from(RADICANDS), _coeff,
                           min_size=1, max_size=4).map(SqrtField)
nonzero = elements.filter(lambda x: not x.is_zero())


def to_sympy(x):
    return sum((sympy.Rational(q.numerator, q.denominator) * sympy.sqrt(r)
                for r, q in x._c.items()), sympy.Integer(0))


def is_sympy_zero(expr):
    return sympy.expand(expr) == 0


@PROPERTY
@hypothesis.given(elements, elements)
def test_ring_operations_match_sympy(a, b):
    sa, sb = to_sympy(a), to_sympy(b)
    assert is_sympy_zero(to_sympy(a + b) - (sa + sb))
    assert is_sympy_zero(to_sympy(a - b) - (sa - sb))
    assert is_sympy_zero(to_sympy(a * b) - sa * sb)
    assert is_sympy_zero(to_sympy(-a) + sa)


@PROPERTY
@hypothesis.given(elements, nonzero)
def test_division_and_inverse_match_sympy(a, b):
    sb = to_sympy(b)
    assert is_sympy_zero(to_sympy(b.inverse()) * sb - 1)
    assert is_sympy_zero(to_sympy(a / b) * sb - to_sympy(a))


@PROPERTY
@hypothesis.given(elements, st.data())
def test_is_zero_matches_sympy(a, data):
    # b is sometimes a itself, so a - b is sometimes exactly zero
    b = data.draw(st.one_of(st.just(a), elements))
    for x in (a, a - b):
        assert x.is_zero() == is_sympy_zero(to_sympy(x))

