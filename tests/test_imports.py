"""The package's import graph, seen from a fresh interpreter.

``import berger`` loads no layer, and a layer loads only the layers it
uses: the eta sums need the series and scalar kernels and nothing above
them.  Each case runs in its own interpreter, since this process has
already imported every layer.
"""
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
