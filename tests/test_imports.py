"""The package's import graph, seen from a fresh interpreter.

``import berger`` loads no layer, and a layer loads only the layers it
uses: the eta sums need the series and scalar kernels and nothing above
them.  A ``berger`` subcommand likewise loads only the layers it runs.
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

LAYERS = ["berger.assembly", "berger.eta", "berger.forms", "berger.liealg",
          "berger.matrix", "berger.octonion", "berger.rep", "berger.scalar",
          "berger.series"]


def run(code: str) -> str:
    """The stdout of ``code`` in a fresh interpreter on ``src``."""
    out = subprocess.run([sys.executable, "-c", code],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return out.stdout


@pytest.mark.parametrize("module, expected", [
    ("berger", ["berger"]),
    ("berger.eta", ["berger", "berger.eta", "berger.scalar", "berger.series"]),
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
        "berger", "berger.cli", "berger.eta", "berger.scalar", "berger.series"]


@pytest.mark.parametrize("argv", [("ek",), ("ek", "--json")])
def test_ek_loads_no_rep_kernel(argv):
    loaded = loaded_by(*argv)
    assert "berger.assembly" in loaded and "berger.rep" not in loaded
    assert ("json" in loaded) == ("--json" in argv)


def test_verify_loads_every_layer():
    loaded = loaded_by("verify", "--suite", "fast")
    assert [m for m in loaded if m in LAYERS] == LAYERS
