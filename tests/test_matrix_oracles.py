"""Matrix kernels against a dense term-by-term reference.

The reference works on plain lists of ``SqrtField`` entries with the
field's own ring operations only, so it shares no code with the matrix
storage.  Inputs are derandomized hypothesis draws: shapes up to 5 (1 x k
and k x 1 included), at least half of the entries zero, and entries that
mix several radicands.  ``trace_product`` is also checked against the
product's trace on every pair of so(5) basis matrices.  Bad shapes and
arguments raise ``ValueError``.
"""
from fractions import Fraction as F
from itertools import permutations

import pytest

from berger import liealg
from berger.matrix import SqrtMatrix, det
from berger.scalar import SqrtField

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


def ref_det(a):
    """Leibniz expansion over all permutations."""
    out = ZERO
    for perm in permutations(range(len(a))):
        inversions = sum(1 for i in range(len(perm))
                         for j in range(i + 1, len(perm)) if perm[i] > perm[j])
        term = SqrtField.rational(-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * a[i][j]
        out = out + term
    return out


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
@hypothesis.given(st.integers(1, 3).flatmap(lambda n: shaped(n, n)))
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


def test_zero_shapes_differ():
    assert SqrtMatrix.zeros(2, 3) != SqrtMatrix.zeros(3, 2)
    assert SqrtMatrix.zeros(2, 3) != SqrtMatrix.zeros(2, 2)
    assert SqrtMatrix.zeros(2, 3) == SqrtMatrix.zeros(2, 3)
    assert SqrtMatrix.zeros(2, 3).is_zero()
    assert not SqrtMatrix.identity(3).is_zero()
    assert SqrtMatrix.identity(3) == SqrtMatrix(
        [[SqrtField.rational(int(i == j)) for j in range(3)] for i in range(3)])
    assert SqrtMatrix.identity(2).trace() == SqrtField.rational(F(2))


_S2 = SqrtField.sqrt(2)


@pytest.mark.parametrize("call, message", [
    (lambda: SqrtMatrix([[_S2, _S2], [_S2]]), "ragged rows"),
    (lambda: SqrtMatrix.zeros(2, 3) @ SqrtMatrix.zeros(2, 3), "inner dimensions"),
    (lambda: SqrtMatrix.identity(3).apply([_S2, _S2]), "length 2"),
    (lambda: det(SqrtMatrix.zeros(2, 3)), "non-square"),
    (lambda: _S2.conjugate(6), "primes"),
    (lambda: SqrtMatrix.zeros(2, 3) + SqrtMatrix.zeros(3, 2), "shape mismatch"),
    (lambda: SqrtMatrix.zeros(2, 3).trace_product(SqrtMatrix.zeros(2, 3)),
     "trace of a 2x3 @ 2x3"),
], ids=["ragged", "matmul", "apply", "det", "conjugate", "add", "trace_product"])
def test_bad_shapes_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
