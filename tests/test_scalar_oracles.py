"""SqrtField arithmetic and its ``dot`` kernel against sympy's exact
radicals, on hypothesis elements with mixed radicands, the one stored
form of equal values reached by different routes, the closed-form inverse
of a one-term element against the Galois-norm route, the PiScalar
monomials c * pi^k built on the field, and the power of pi a form
carries."""
from fractions import Fraction as F

import pytest

from berger.forms import AltForm, g2_three_form
from berger.scalar import RADICANDS, PiScalar, SqrtField

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
# the only divisors the field inverts: c sqrt(r) with c != 0
one_term = st.builds(SqrtField.term, _coeff.filter(bool), st.sampled_from(RADICANDS))


def to_sympy(x):
    # through the printed form, so no test depends on the storage format
    return sympy.sympify(str(x))


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
@hypothesis.given(elements, one_term)
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



# denominators from distinct primes, so terms meet coprime denominators
_prime_den = st.builds(F, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 7, 11)))
coprime_elements = st.dictionaries(st.sampled_from(RADICANDS), _prime_den,
                                   max_size=3).map(SqrtField)
pairs = st.lists(st.tuples(coprime_elements, coprime_elements), max_size=6)


def termwise(ps):
    return sum((a * b for a, b in ps), SqrtField())


@PROPERTY
@hypothesis.given(pairs)
def test_dot_matches_the_termwise_sum(ps):
    assert SqrtField.dot(ps) == termwise(ps)
    assert is_sympy_zero(to_sympy(SqrtField.dot(ps))
                         - sum(to_sympy(a) * to_sympy(b) for a, b in ps))


@PROPERTY
@hypothesis.given(pairs)
def test_dot_of_pairs_that_cancel_is_exactly_zero(ps):
    total = SqrtField.dot(ps + [(-a, b) for a, b in ps])
    assert total.is_zero() and total == SqrtField()


def test_dot_of_nothing_is_zero():
    assert SqrtField.dot([]) == SqrtField() and SqrtField.dot([]).is_zero()


def assert_same(x, y):
    assert x == y and hash(x) == hash(y) and str(x) == str(y)


@PROPERTY
@hypothesis.given(coprime_elements, coprime_elements, one_term)
def test_equal_values_have_one_form(a, b, c):
    assert_same((a + b) - b, a)
    assert_same(a * c * c.inverse(), a)
    assert_same(SqrtField.dot([(a, b), (a, c)]), a * (b + c))


def conjugate(x, p):
    """The Galois conjugate of x sending sqrt(p) to -sqrt(p)."""
    c, d = x.numerators()
    return SqrtField.over({r: -n if r % p == 0 else n for r, n in c.items()}, d)


def norm_route_inverse(x):
    """1/x by successive Galois norms: one conjugate per prime."""
    num, cur = SqrtField.term(1), x
    for p in (2, 3, 5, 7):
        conj = conjugate(cur, p)
        num, cur = num * conj, cur * conj
    return num * (1 / cur.as_rational())


@pytest.mark.parametrize("r", RADICANDS)
def test_one_term_inverse_matches_the_norm_route(r):
    for c in (1, -1, 3, F(-2, 7), F(35, 4), F(-6, 5)):
        x = SqrtField.term(c, r)
        assert_same(x.inverse(), norm_route_inverse(x))
        assert x * x.inverse() == SqrtField.term(1)


def test_unreduced_coordinates_are_canonical():
    assert_same(SqrtField({1: F(2, 4)}), SqrtField.term(F(1, 2)))
    assert_same(SqrtField({5: F(6, 4), 7: F(-3, 9)}),
                SqrtField.term(F(3, 2), 5) - SqrtField.term(F(1, 3), 7))


powers = st.integers(-6, 6)


@PROPERTY
@hypothesis.given(nonzero, nonzero, powers, powers)
def test_exponents_add_under_products(a, b, j, k):
    product = PiScalar.of(a, j) * PiScalar.of(b, k)
    assert product.k == j + k and product == PiScalar.of(a * b, j + k)


@PROPERTY
@hypothesis.given(elements, powers)
def test_zero_times_any_power_is_the_zero_monomial(a, k):
    for zero in (PiScalar.of(0, k), PiScalar.of(a, k) * 0):
        assert zero == PiScalar() and zero.k == 0 and str(zero) == "0"


@PROPERTY
@hypothesis.given(st.integers(0, 7), powers, powers)
def test_zero_forms_are_equal_whatever_power_they_were_built_with(degree, j, k):
    # a form with no coefficients carries pi^0, as the zero monomial does
    key = tuple(range(degree))
    zeros = (AltForm(degree, None, j), AltForm(degree, {key: 0}, k),
             AltForm(degree, {key: 1}, j).scale(PiScalar.of(0, k)))
    for zero in zeros:
        assert zero == AltForm(degree) and zero.pi == 0 and zero.is_zero()
    # a nonzero form's power of pi is part of its value
    assert (AltForm(degree, {key: 1}, j) == AltForm(degree, {key: 1}, k)) == (j == k)
    phi = g2_three_form()
    # phi ^ phi = 0: the powers j + k of its factors do not survive
    square = phi.scale(PiScalar.of(1, j)).wedge(phi.scale(PiScalar.of(1, k)))
    assert square == AltForm(6) and square.pi == 0


@PROPERTY
@hypothesis.given(one_term, powers)
def test_inverse_is_the_multiplicative_inverse(a, k):
    x = PiScalar.of(a, k)
    assert x * x.inverse() == PiScalar.of(1)


@PROPERTY
@hypothesis.given(elements, powers)
def test_printed_monomial_matches_sympy(a, k):
    # sympy reads pi as its constant and ^ as a power
    printed = sympy.sympify(str(PiScalar.of(a, k)))
    assert is_sympy_zero(printed - to_sympy(a) * sympy.pi ** k)


def test_coefficient_with_two_radicands_is_parenthesised():
    one, sqrt = SqrtField.term(1), lambda r: SqrtField.term(1, r)
    assert str(PiScalar.of(one - sqrt(5), 2)) == "(1 - sqrt(5))*pi^2"
    assert str(PiScalar.of(sqrt(2) + sqrt(3), 1)) == "(sqrt(2) + sqrt(3))*pi"
    assert str(PiScalar.of(-sqrt(5), -2)) == "-sqrt(5)*pi^-2"
    assert str(PiScalar.of(one - sqrt(5))) == "1 - sqrt(5)"
