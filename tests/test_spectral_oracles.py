"""``octonion.multiplicities`` against Lagrange over the field itself.

The integer Lagrange step writes every eigenvalue as nu_j sqrt(r)/D and
works on the integers nu_j and the rational power sums.  The reference,
``conftest.field_multiplicities``, knows nothing of that form: it takes
the traces of repeated matrix products and the Lagrange basis
polynomials with ``SqrtField`` coefficients.  Inputs are derandomized
hypothesis draws of diagonal matrices with up to five distinct
eigenvalues over Q and over Q sqrt5, zero among them at times, in any
order, each of multiplicity 1 to 4, with denominators up to 6.  The
operator's own spectrum and the (2, 27, 21, 7, 7) diagonal are compared
with the same reference in ``test_octonion``.
"""
from fractions import Fraction as F

import pytest

from berger.octonion import multiplicities, shift_product
from berger.scalar import SqrtField
from conftest import diagonal_matrix, field_multiplicities

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=40, deadline=None,
                               derandomize=True, database=None)


@st.composite
def spectra(draw):
    """(eigenvalues, multiplicities): distinct numerators nu_j over one
    denominator, times sqrt(r) for r = 1 or 5."""
    r = draw(st.sampled_from([1, 5]))
    den = draw(st.integers(1, 6))
    nus = draw(st.lists(st.integers(-7, 7), min_size=1, max_size=5,
                        unique=True))
    counts = draw(st.lists(st.integers(1, 4), min_size=len(nus),
                           max_size=len(nus)))
    return (tuple(SqrtField.term(F(nu, den), r) for nu in nus),
            tuple(counts))


@PROPERTY
@hypothesis.given(spectra())
def test_random_diagonals(drawn):
    eigs, counts = drawn
    d = diagonal_matrix([lam for lam, m in zip(eigs, counts)
                         for _ in range(m)])
    sq = d @ d
    assert shift_product(d, sq, eigs).is_zero()
    assert multiplicities(d, sq, eigs) == counts
    assert field_multiplicities(d, eigs) == counts

