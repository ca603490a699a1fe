"""Bad argument shapes raise ValueError, also under ``python -O``."""
import os
import re
import subprocess
import sys

import pytest

_CALLS = {
    "form-degree": ("AltForm(8)", r"degree 8 outside 0\.\.7"),
    "form-key-range": ("AltForm(2, {(0, 7): 1})", r"not 2 indices in 0\.\.6"),
    "form-key-order": ("AltForm(2, {(1, 0): 1})", "not ascending"),
    "evaluate": ("g2_three_form().evaluate((0, 1))", "do not fit a 3-form"),
    "wedge": ("g2_four_form().wedge(g2_four_form())",
              "degrees 4 and 4 exceeds 7"),
    "d-sign": ("invariant_d(g2_three_form(), d_sign=0)",
               "d_sign must be 1 or -1"),
    "primitive": ("solve_primitive(g2_three_form())", "needs a 4-form"),
    "integrate": ("integrate_invariant(g2_three_form())", "needs a 7-form"),
    "octonion": ("Octonion([1] * 7)", "needs 8 coordinates, got 7"),
    "unit": ("Octonion.unit(8)", r"unit index 8 outside 0\.\.7"),
    "imaginary": ("Octonion.imaginary([1] * 8)",
                  "needs 7 coordinates, got 8"),
    "bracket-spinor": ("tangent_bracket_spinor(10)",
                       r"generator index 10 outside 0\.\.9"),
    "so5": ("so5(2, 1)", r"got \(2, 1\)"),
}

_PRELUDE = ("import sys\n"
            "from berger.forms import (AltForm, g2_four_form, g2_three_form,\n"
            "                          integrate_invariant, invariant_d,\n"
            "                          solve_primitive)\n"
            "from berger.liealg import so5\n"
            "from berger.octonion import Octonion, tangent_bracket_spinor\n")


@pytest.mark.parametrize("call, message", list(_CALLS.values()),
                         ids=list(_CALLS))
def test_bad_argument_raises_value_error_under_optimize_flag(call, message):
    code = _PRELUDE + ("try:\n"
                       "    %s\n"
                       "except ValueError as err:\n"
                       "    print(sys.flags.optimize, err)\n" % call)
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    flag, _, text = out.stdout.partition(" ")
    assert flag == "1", out.stdout
    assert re.search(message, text), text
