"""The package's import graph, seen from a fresh interpreter.

``import berger`` loads no layer, and a layer loads only the layers it
uses: the eta sums need the series kernel and nothing else, not even the
scalar field.  A ``berger`` subcommand likewise loads only the layers it
runs, and ``berger classify``, which prints static facts, loads none.
Each case runs in its own interpreter, since this process has already
imported every layer.
"""
import ast
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

PROBE = ("import json, sys\n"
         "before = set(sys.modules)\n"
         "import {module}\n"
         "print(json.dumps(sorted(m for m in set(sys.modules) - before\n"
         "                        if m.split('.')[0] == 'berger')))\n")


#: the berger modules and json after one ``berger`` command, on the last line
CLI_PROBE = ("import sys\n"
             "from berger.cli import main\n"
             "code = main({argv!r})\n"
             "print(sorted(m for m in sys.modules\n"
             "             if m.split('.')[0] in ('berger', 'json')))\n"
             "sys.exit(code)\n")

LAYERS = ["berger.assembly", "berger.eta", "berger.forms", "berger.invariant",
          "berger.liealg", "berger.matrix", "berger.octonion", "berger.rep",
          "berger.scalar", "berger.series"]


def run(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter on ``src``."""
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module, expected", [
    ("berger", ["berger"]),
    ("berger.eta", ["berger", "berger.eta", "berger.series"]),
])
def test_import_loads_only_what_it_uses(module, expected):
    assert json.loads(run(PROBE.format(module=module))) == expected


def test_version_is_a_string():
    code = "import berger; print(type(berger.__version__).__name__)"
    assert run(code) == "str\n"


def loaded_by(*argv: str) -> list:
    """The berger modules, and json, that ``berger argv`` loads."""
    return ast.literal_eval(
        run(CLI_PROBE.format(argv=list(argv))).splitlines()[-1])


def test_eta_loads_only_the_eta_sums_and_their_kernels():
    assert loaded_by("eta", "--term", "dirac") == [
        "berger", "berger.cli", "berger.eta", "berger.series"]


def test_classify_loads_no_layer():
    # the classification is static, so it lives in the package root
    assert loaded_by("classify") == ["berger", "berger.cli"]


def test_classification_is_read_through_the_layers_too():
    code = ("import berger\n"
            "from berger import assembly, invariant\n"
            "print(assembly.CONGRUENCES is berger.CONGRUENCES,\n"
            "      assembly.classify is berger.classify,\n"
            "      invariant.EULER_CLASS == berger.EULER_CLASS == 10)\n")
    assert run(code) == "True True True\n"


def test_rep_loads_only_the_rep_kernel():
    assert loaded_by("rep", "--dim", "0,1") == ["berger", "berger.cli", "berger.rep"]


@pytest.mark.parametrize("argv", [("ek",), ("ek", "--json")])
def test_ek_loads_no_rep_kernel(argv):
    loaded = loaded_by(*argv)
    assert "berger.invariant" in loaded
    assert "berger.assembly" not in loaded and "berger.rep" not in loaded
    assert ("json" in loaded) == ("--json" in argv)


def test_verify_loads_every_layer():
    loaded = loaded_by("verify", "--suite", "fast")
    assert [m for m in loaded if m in LAYERS] == LAYERS


@pytest.mark.parametrize("command", ["spectrum", "forms"])
def test_spectrum_and_forms_load_no_eta_sums(command):
    loaded = loaded_by(command)
    assert "berger.octonion" in loaded
    assert "berger.eta" not in loaded and "berger.series" not in loaded
