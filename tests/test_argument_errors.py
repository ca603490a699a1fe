"""Bad argument shapes raise ValueError, and float coefficients
TypeError, also under ``python -O``: no shape or type check may be an
``assert``, and CI runs this module with ``python -O -m pytest``."""
from decimal import Decimal

import pytest

from berger.eta import local_term, validate_direction
from berger.forms import (AltForm, g2_four_form, g2_three_form,
                          integrate_invariant, invariant_d, solve_primitive)
from berger.liealg import so5
from berger.matrix import SqrtMatrix
from berger.octonion import Octonion, tangent_bracket_spinor
from berger.scalar import SqrtField
from berger.series import LaurentSeries

_CALLS = {
    "form-degree": (lambda: AltForm(8), r"degree 8 outside 0\.\.7"),
    "form-key-range": (lambda: AltForm(2, {(0, 7): 1}),
                       r"not 2 indices in 0\.\.6"),
    "form-key-order": (lambda: AltForm(2, {(1, 0): 1}), "not ascending"),
    "wedge": (lambda: g2_four_form().wedge(g2_four_form()),
              "degrees 4 and 4 exceeds 7"),
    "d-sign": (lambda: invariant_d(g2_three_form(), d_sign=0),
               "d_sign must be 1 or -1"),
    "primitive": (lambda: solve_primitive(g2_three_form()), "needs a 4-form"),
    "integrate": (lambda: integrate_invariant(g2_three_form()),
                  "needs a 7-form"),
    "octonion": (lambda: Octonion([1] * 7), "needs 8 coordinates, got 7"),
    "bracket-spinor": (lambda: tangent_bracket_spinor(10),
                       r"generator index 10 outside 0\.\.9"),
    "so5": (lambda: so5(2, 1), r"got \(2, 1\)"),
    # the field and the series invert one term only
    "inverse": (lambda: (SqrtField.term(1) + SqrtField.term(1, 5)).inverse(),
                r"inverse needs one term c sqrt\(r\), got 1 \+ sqrt\(5\)"),
    "reciprocal": (lambda: LaurentSeries({1: 1, 2: 1}, 1, 6).reciprocal(),
                   r"reciprocal needs one term c t\^v"),
    # a direction's coordinates are ints or Fractions: a float's binary
    # value is not the direction meant, and no other type is taken either
    "direction-float": (lambda: validate_direction((0.1, 1)),
                        r"direction needs rational coordinates: \(0\.1, 1\)"),
    "direction-float-sum": (lambda: local_term(3, (7, 2.0), 12),
                            r"rational coordinates: \(7, 2\.0\)"),
    "direction-decimal": (lambda: validate_direction((Decimal("0.5"), 3)),
                          r"rational coordinates: \(Decimal\('0\.5'\), 3\)"),
    "direction-str": (lambda: validate_direction(("5", 1)),
                      r"rational coordinates: \('5', 1\)"),
}


@pytest.mark.parametrize("call, message", list(_CALLS.values()),
                         ids=list(_CALLS))
def test_bad_argument_raises_value_error_under_optimize_flag(call, message):
    with pytest.raises(ValueError, match=message):
        call()


#: a float's binary value is not the number meant: 0.1 would be read as
#: 3602879701896397/36028797018963968, so every exact layer refuses it
_FLOATS = {
    "field-term": lambda: SqrtField.term(0.1),
    "matrix-scale": lambda: SqrtMatrix.identity(2).scale(0.1),
    "octonion": lambda: Octonion([0.1, 0, 0, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("call", list(_FLOATS.values()), ids=list(_FLOATS))
def test_float_coefficient_raises_type_error_under_optimize_flag(call):
    with pytest.raises(TypeError,
                       match=r"^coefficient 0\.1 is not an int or a Fraction$"):
        call()
