"""Byte-for-byte CLI outputs against committed golden files.

Each case runs ``cli.main`` in process and compares its stdout and exit
code with ``tests/golden/<name>.txt``, whose first line is the expected
exit code.  Regenerate the files with
``PYTHONPATH=src python tests/test_golden.py``
after a deliberate change of output, and review the diff.
"""
import contextlib
import io
import os

import pytest

from berger import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = {
    "ek": ["ek"],
    "ek-reversed-json": ["ek", "--orientation", "reversed", "--json"],
    "spectrum": ["spectrum"],
    "forms": ["forms"],
    "classify": ["classify"],
    "rep-verify-split": ["rep", "--verify-split"],
    "verify-fast": ["verify", "--suite", "fast"],
    "verify-all-json": ["verify", "--suite", "all", "--json"],
    "eta-local3-72-order60": ["eta", "--term", "local3", "--direction", "7,2",
                              "--order", "60"],
}


def render(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return "%d\n%s" % (code, out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_is_byte_identical(name):
    with open(os.path.join(GOLDEN, name + ".txt"), encoding="utf-8",
              newline="") as fh:
        expected = fh.read()
    assert render(CASES[name]) == expected


if __name__ == "__main__":
    for name, argv in sorted(CASES.items()):
        with open(os.path.join(GOLDEN, name + ".txt"), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(render(argv))
