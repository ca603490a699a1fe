"""``forms``' scattered kernels against their dense gathers.

``invariant_d`` and ``is_h_invariant`` walk the stored nonzero coefficients
only; ``conftest.dense_invariant_d`` and ``conftest.dense_is_h_invariant``
gather every key of the result through ``conftest.form_coefficient``, with
the field's own + and *.  Both routes read ``structure_constants`` and
``isotropy_generator``, so this checks the scatter's keys, positions and
signs, not the tables: ``jacobi-identity`` and ``structure-constants``
certify those.  Forms of degree 0..7 are drawn with coefficients in Q and
in Q sqrt(r), r in {2, 3, 5, 6, 7}, under both ``d_sign``.  The known
invariant forms pass H-invariance in both routes, and every one-coefficient
rescaling of phi, psi and p1 fails it in both.
"""
from fractions import Fraction as F
from itertools import combinations

import pytest

from berger.forms import (AltForm, g2_four_form, g2_three_form, invariant_d,
                          is_h_invariant, pontryagin_form, volume_form)
from berger.scalar import SqrtField
from conftest import dense_invariant_d, dense_is_h_invariant

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

PROPERTY = hypothesis.settings(max_examples=60, deadline=None,
                               derandomize=True, database=None)

_rational = st.fractions(min_value=-5, max_value=5, max_denominator=6)
_coeff = st.one_of(_rational, st.builds(SqrtField.term, _rational,
                                        st.sampled_from((2, 3, 5, 6, 7))))


@st.composite
def forms(draw):
    """A k-form, k in 0..7, on a few of its keys, times a power of pi."""
    k = draw(st.integers(0, 7))
    keys = draw(st.lists(st.sampled_from(list(combinations(range(7), k))),
                         max_size=8, unique=True))
    return AltForm(k, {key: draw(_coeff) for key in keys}, draw(st.integers(-2, 2)))


@PROPERTY
@hypothesis.given(forms())
def test_invariant_d_is_the_dense_gather(form):
    for d_sign in (1, -1):
        assert invariant_d(form, d_sign) == dense_invariant_d(form, d_sign)


@PROPERTY
@hypothesis.given(forms())
def test_is_h_invariant_is_the_dense_gather(form):
    assert is_h_invariant(form) == dense_is_h_invariant(form)


def invariant_forms():
    phi, psi, p1 = g2_three_form(), g2_four_form(), pontryagin_form()
    return {"phi": phi, "psi": psi, "p1": p1, "vol": volume_form(),
            "constant": AltForm(0, {(): F(3, 7)}), "zero-2-form": AltForm(2),
            "d-phi": invariant_d(phi), "sqrt-multiple-of-phi": AltForm(
                3, {k: v * SqrtField.term(F(2, 3), 5) for k, v in phi.coeffs.items()})}


@pytest.mark.parametrize("name", list(invariant_forms()))
def test_invariant_forms_pass_in_both_routes(name):
    form = invariant_forms()[name]
    assert is_h_invariant(form) and dense_is_h_invariant(form)
    for d_sign in (1, -1):
        assert invariant_d(form, d_sign) == dense_invariant_d(form, d_sign)


#: (form, key, factor): each stored coefficient of phi, psi and p1 rescaled
RESCALED = [(name, key, factor) for name in ("phi", "psi", "p1")
            for key in sorted(invariant_forms()[name].coeffs) for factor in (0, 2)]


@pytest.mark.parametrize("name, key, factor", RESCALED,
                         ids=["%s-%s-x%d" % (n, "".join(map(str, k)), f)
                              for n, k, f in RESCALED])
def test_one_rescaled_coefficient_fails_in_both_routes(name, key, factor):
    form = invariant_forms()[name]
    coeffs = form.coeffs | {key: form.coeffs[key] * factor}
    bad = AltForm(form.degree, coeffs, form.pi)
    assert not is_h_invariant(bad)
    assert not dense_is_h_invariant(bad)
