"""Matrix kernels against a dense term-by-term reference.

The reference works on plain lists of ``SqrtField`` entries with the
field's own ring operations only, so it shares no code with the matrix
storage.  Inputs are derandomized hypothesis draws: shapes up to 5 (1 x k
and k x 1 included), at least half of the entries zero, and entries that
mix several radicands.  ``trace_product`` is also checked against the
product's trace on every pair of so(5) basis matrices.  Products whose
grade pairs collapse onto one radicand, and rows of the 64x64 operator's
products, are checked against the same reference; round trips through
``+``/``-``, ``scale`` and ``transpose`` must land on the same stored
form.  ``scale`` takes scalars over up to three radicands of either sign,
``shift(c)`` must equal subtracting a scaled identity, ``det`` is checked
on 2 x 2 matrices, the only size it takes, and ``is_symmetric`` and
``is_skew`` must agree with the transpose on symmetric, skew, one-sided,
perturbed and non-square draws.  Bad shapes and arguments raise
``ValueError``.
"""
from fractions import Fraction as F

import pytest

from berger import liealg, octonion
from berger.matrix import SqrtMatrix, det
from berger.scalar import SqrtField
from conftest import ref_det

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)

ZERO = SqrtField()

_coeff = st.builds(F, st.integers(-4, 4), st.integers(1, 5))
_term = st.builds(SqrtField.term, st.builds(F, st.sampled_from([-3, -1, 1, 2]),
                                            st.integers(1, 5)),
                  st.sampled_from([1, 2, 3, 5, 6, 35, 210]))
_nonzero = st.lists(_term, min_size=1, max_size=2).map(
    lambda ts: sum(ts, ZERO)).filter(bool)
_scalar = st.one_of(st.just(ZERO), _nonzero)
_dim = st.integers(1, 5)
#: sum_r c_r sqrt(r) over 0 to 3 distinct radicands r, each c_r nonzero and
#: of either sign
_radicands = st.lists(st.sampled_from([1, 2, 3, 5, 6, 35, 210]), unique=True,
                      max_size=3)
_multi = _radicands.flatmap(lambda rs: st.lists(
    st.builds(F, st.integers(-4, 4).filter(bool), st.integers(1, 5)),
    min_size=len(rs), max_size=len(rs)).map(
        lambda cs: sum((SqrtField.term(c, r) for c, r in zip(cs, rs)), ZERO)))


@st.composite
def entries(draw, n, m):
    """An n x m list of lists with at least half of its entries zero."""
    cells = [ZERO] * (n * m)
    values = draw(st.lists(_nonzero, max_size=n * m // 2))
    for pos, value in zip(draw(st.permutations(range(n * m))), values):
        cells[pos] = value
    return [cells[i * m:(i + 1) * m] for i in range(n)]


@st.composite
def shaped(draw, n=None, m=None):
    n = draw(_dim) if n is None else n
    m = draw(_dim) if m is None else m
    return draw(entries(n, m))


def total(values):
    s = ZERO
    for v in values:
        s = s + v
    return s


def dense(m):
    """The entries of ``m`` read one by one through indexing."""
    return [[m[i, j] for j in range(m.ncols)] for i in range(m.nrows)]


def agrees(m, rows):
    """``m`` has the shape and every entry of the reference ``rows``."""
    assert (m.nrows, m.ncols) == (len(rows), len(rows[0]))
    assert dense(m) == rows
    assert m == SqrtMatrix(rows)


def ref_matmul(a, b):
    return [[total(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def ref_tensor(a, b):
    n2, m2 = len(b), len(b[0])
    return [[a[r // n2][c // m2] * b[r % n2][c % m2]
             for c in range(len(a[0]) * m2)] for r in range(len(a) * n2)]


@st.composite
def product_pair(draw):
    n, k, m = draw(_dim), draw(_dim), draw(_dim)
    return draw(entries(n, k)), draw(entries(k, m))


@st.composite
def same_shape_pair(draw):
    n, m = draw(_dim), draw(_dim)
    return draw(entries(n, m)), draw(entries(n, m))


@PROPERTY
@hypothesis.given(product_pair())
@hypothesis.example(([[SqrtField.sqrt(2), ZERO, SqrtField.sqrt(3)]],
                     [[SqrtField.sqrt(2)], [ZERO], [SqrtField.sqrt(3)]]))
@hypothesis.example(([[SqrtField.sqrt(2)], [SqrtField.rational(1)]],
                     [[SqrtField.sqrt(2), ZERO]]))
@hypothesis.example(([[SqrtField.sqrt(2), SqrtField.sqrt(3)]],
                     [[SqrtField.sqrt(3)], [-SqrtField.sqrt(2)]]))
def test_product(pair):
    a, b = pair
    agrees(SqrtMatrix(a) @ SqrtMatrix(b), ref_matmul(a, b))


@PROPERTY
@hypothesis.given(same_shape_pair())
def test_sum_and_difference(pair):
    a, b = pair
    ma, mb = SqrtMatrix(a), SqrtMatrix(b)
    agrees(ma + mb, [[x + y for x, y in zip(ra, rb)]
                            for ra, rb in zip(a, b)])
    agrees(ma - mb, [[x - y for x, y in zip(ra, rb)]
                            for ra, rb in zip(a, b)])
    agrees(-ma, [[-x for x in r] for r in a])


@PROPERTY
@hypothesis.given(shaped(), st.one_of(_scalar, st.integers(-3, 3),
                                      _coeff))
def test_scale(a, c):
    agrees(SqrtMatrix(a).scale(c), [[x * c for x in r] for r in a])


@PROPERTY
@hypothesis.given(shaped(), _multi)
@hypothesis.example([[SqrtField.sqrt(2), SqrtField.sqrt(3)]],
                    SqrtField.sqrt(6) - SqrtField.sqrt(2) + SqrtField.rational(3))
def test_scale_by_several_radicands(a, c):
    # each grade of the matrix meets each numerator of c, and grade pairs
    # that land on one radicand must add up
    agrees(SqrtMatrix(a).scale(c), [[x * c for x in r] for r in a])


@st.composite
def mirror_candidates(draw):
    """A matrix that is symmetric, skew, one-sided (every entry's mirror
    zero) or drawn as is, non-square shapes included, over several
    radicands; a symmetric or skew draw may have one entry changed in one
    of its grades."""
    n, m = draw(_dim), draw(_dim)
    a = draw(entries(n, m))
    if n != m:
        return a
    t = [list(c) for c in zip(*a)]
    kind = draw(st.sampled_from(["as drawn", "symmetric", "skew", "upper"]))
    if kind == "symmetric":
        a = [[x + y for x, y in zip(ra, rt)] for ra, rt in zip(a, t)]
    elif kind == "skew":
        a = [[x - y for x, y in zip(ra, rt)] for ra, rt in zip(a, t)]
    elif kind == "upper":
        a = [[x if j > i else ZERO for j, x in enumerate(r)] for i, r in enumerate(a)]
    if kind != "as drawn" and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        a[i][j] = a[i][j] + draw(_term)
    return a


_S2, _S3 = SqrtField.sqrt(2), SqrtField.sqrt(3)


@PROPERTY
@hypothesis.given(mirror_candidates())
@hypothesis.example([[ZERO, _S2 + _S3], [_S2 + _S3, ZERO]])
@hypothesis.example([[ZERO, _S2 + _S3], [_S2 - _S3, ZERO]])
@hypothesis.example([[ZERO, _S2 + _S3], [-_S2 - _S3, ZERO]])
@hypothesis.example([[ZERO, _S2], [ZERO, ZERO]])
@hypothesis.example([[ZERO, ZERO], [_S2, ZERO]])
@hypothesis.example([[_S2, ZERO], [ZERO, ZERO]])
@hypothesis.example([[ZERO, ZERO]])
def test_symmetry_and_skewness_against_the_transpose(a):
    m, t = SqrtMatrix(a), [list(c) for c in zip(*a)]
    assert m.is_symmetric() == (t == a) == (m == m.transpose())
    assert m.is_skew() == (t == [[-x for x in r] for r in a]) == (m == -m.transpose())


@PROPERTY
@hypothesis.given(_dim.flatmap(lambda n: shaped(n, n)), _multi)
@hypothesis.example([[SqrtField.sqrt(5), ZERO], [ZERO, -SqrtField.sqrt(5)]],
                    SqrtField.sqrt(5))
def test_shift(a, c):
    m, n = SqrtMatrix(a), len(a)
    assert m.shift(c) == m - SqrtMatrix.identity(n).scale(c)
    agrees(m.shift(c), [[x - c if i == j else x for j, x in enumerate(r)]
                        for i, r in enumerate(a)])


@PROPERTY
@hypothesis.given(shaped())
def test_transpose_and_str(a):
    m = SqrtMatrix(a)
    agrees(m.transpose(), [list(c) for c in zip(*a)])
    assert str(m) == "\n".join("[" + ", ".join(str(x) for x in r) + "]"
                               for r in a)


@PROPERTY
@hypothesis.given(_dim.flatmap(lambda n: shaped(n, n)))
def test_trace(a):
    assert SqrtMatrix(a).trace() == total(a[i][i] for i in range(len(a)))


@st.composite
def trace_pair(draw):
    """An n x k and a k x n matrix, each with its own zero pattern."""
    n, k = draw(_dim), draw(_dim)
    return draw(entries(n, k)), draw(entries(k, n))


@PROPERTY
@hypothesis.given(trace_pair())
@hypothesis.example(([[SqrtField.sqrt(2), ZERO]], [[ZERO], [SqrtField.sqrt(3)]]))
@hypothesis.example(([[SqrtField.sqrt(2), SqrtField.sqrt(3)]],
                     [[SqrtField.sqrt(3)], [-SqrtField.sqrt(2)]]))
def test_trace_product(pair):
    a, b = pair
    ma, mb = SqrtMatrix(a), SqrtMatrix(b)
    expected = total(r[i] for i, r in enumerate(ref_matmul(a, b)))
    assert ma.trace_product(mb) == (ma @ mb).trace() == expected


def test_trace_product_on_so5_basis():
    basis = liealg.g_basis()
    for a in basis:
        for b in basis:
            assert a.trace_product(b) == (a @ b).trace()


@PROPERTY
@hypothesis.given(shaped(), shaped())
def test_tensor(a, b):
    agrees(SqrtMatrix(a).tensor(SqrtMatrix(b)), ref_tensor(a, b))


@PROPERTY
@hypothesis.given(_dim.flatmap(lambda m: st.tuples(shaped(m=m),
                                                   shaped(1, m))))
def test_apply(pair):
    a, (vec,) = pair
    assert SqrtMatrix(a).apply(vec) == [total(x * y for x, y in zip(r, vec))
                                        for r in a]


@PROPERTY
@hypothesis.given(shaped(2, 2))
@hypothesis.example([[SqrtField.sqrt(2), SqrtField.rational(1)],
                     [SqrtField.rational(2), SqrtField.sqrt(2)]])
@hypothesis.example([[ZERO, SqrtField.sqrt(2)], [SqrtField.sqrt(3), ZERO]])
def test_det(a):
    assert det(SqrtMatrix(a)) == ref_det(a)


@PROPERTY
@hypothesis.given(shaped())
def test_cancellation_is_canonical(a):
    m = SqrtMatrix(a)
    n, k = len(a), len(a[0])
    assert m - m == SqrtMatrix.zeros(n, k)
    assert (m + (-m)).is_zero()
    assert (m + (-m)) == SqrtMatrix([[ZERO] * k for _ in range(n)])
    assert m.scale(0) == SqrtMatrix.zeros(n, k)
    assert m.is_zero() == all(x.is_zero() for r in a for x in r)


@PROPERTY
@hypothesis.given(same_shape_pair(), _nonzero)
def test_round_trips_keep_the_stored_form(pair, c):
    a, b = SqrtMatrix(pair[0]), SqrtMatrix(pair[1])
    assert (a + b) - b == a
    assert a.scale(c).scale(c.inverse()) == a
    assert a.transpose().transpose() == a
    assert ((a + b) - (b + a)).is_zero()


_S = SqrtField.sqrt


@pytest.mark.parametrize("a, b, product", [
    # sqrt6 sqrt15 = 3 sqrt10 and sqrt35 sqrt35 = 35: two grade pairs, two
    # collapsed radicands
    ([[_S(6), _S(35)]], [[_S(15)], [_S(35)]],
     [[SqrtField.term(3, 10) + SqrtField.rational(35)]]),
    # sqrt2 sqrt3 and sqrt6 * 1 land on one radicand and cancel
    ([[_S(2), _S(6)], [ZERO, _S(35)]], [[_S(3), ZERO], [-SqrtField.rational(1), _S(35)]],
     [[ZERO, SqrtField.term(1, 210)], [-_S(35), SqrtField.rational(35)]]),
], ids=["collapse", "cancel"])
def test_products_that_collapse_radicands(a, b, product):
    ma, mb = SqrtMatrix(a), SqrtMatrix(b)
    assert ref_matmul(a, b) == product
    agrees(ma @ mb, product)
    agrees(ma.tensor(mb), ref_tensor(a, b))
    assert ma.trace_product(mb) == total(product[i][i] for i in range(len(product)))


def test_operator_product_rows_match_the_field_reference():
    b0 = octonion.deformation_operator()
    eye, spin = SqrtMatrix.identity(8), octonion.tangent_bracket_spinor(7)
    lift = spin.tensor(eye) + eye.tensor(spin)
    rows = dense(b0)
    for m in (b0, lift):
        prod, cols = b0 @ m, dense(m)
        for i in (0, 27, 63):
            assert [prod[i, j] for j in range(64)] == [
                total(x * cols[k][j] for k, x in enumerate(rows[i]) if x)
                for j in range(64)], i


def test_zero_shapes_differ():
    assert SqrtMatrix.zeros(2, 3) != SqrtMatrix.zeros(3, 2)
    assert SqrtMatrix.zeros(2, 3) != SqrtMatrix.zeros(2, 2)
    assert SqrtMatrix.zeros(2, 3) == SqrtMatrix.zeros(2, 3)
    assert SqrtMatrix.zeros(2, 3).is_zero()
    assert not SqrtMatrix.identity(3).is_zero()
    assert SqrtMatrix.identity(3) == SqrtMatrix(
        [[SqrtField.rational(int(i == j)) for j in range(3)] for i in range(3)])
    assert SqrtMatrix.identity(2).trace() == SqrtField.rational(F(2))


@pytest.mark.parametrize("call, message", [
    (lambda: SqrtMatrix([[_S2, _S2], [_S2]]), "ragged rows"),
    (lambda: SqrtMatrix.zeros(2, 3) @ SqrtMatrix.zeros(2, 3), "inner dimensions"),
    (lambda: SqrtMatrix.identity(3).apply([_S2, _S2]), "length 2"),
    (lambda: det(SqrtMatrix.zeros(2, 3)), "non-square"),
    (lambda: det(SqrtMatrix.identity(3)), "determinant of a 3x3 matrix"),
    (lambda: SqrtMatrix.zeros(2, 3).shift(_S2), "shape mismatch"),
    (lambda: _S2.conjugate(6), "primes"),
    (lambda: SqrtMatrix.zeros(2, 3) + SqrtMatrix.zeros(3, 2), "shape mismatch"),
    (lambda: SqrtMatrix.zeros(2, 3).trace_product(SqrtMatrix.zeros(2, 3)),
     "trace of a 2x3 @ 2x3"),
], ids=["ragged", "matmul", "apply", "det", "det-size", "shift", "conjugate", "add",
        "trace_product"])
def test_bad_shapes_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
