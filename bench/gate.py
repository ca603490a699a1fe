"""The benchmark's correctness gate.

Every expected value is a literal written here, not imported from the
program, so a change that breaks the program cannot also move the
reference it is checked against.  Every comparison is an explicit
``==`` whose outcome is counted, never an ``assert``, so the gate holds
under ``python -O``.

``REFERENCES`` is passed to every check; the benchmark test swaps one
literal for a wrong one to show that the gate can fail.
"""
import json
from fractions import Fraction as F

REFERENCES = {
    "ek": F(-27, 1120),
    "ek_reversed": F(27, 1120),
    "s1": F(13, 40),
    "s1_reversed": F(-13, 40),
    "eta_dirac": F(-12923, 281250),
    "local3": F(-277961, 281250),
    "eta_signature": F(-4817, 140625),
    "secondary": F(-49, 50000),
    "intermediate": F(-16189, 700000),
    "fast_checks": 16,
    "all_checks": 17,
}


class Tally:
    """Checked results of one pass: attempted, failed, and why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, name: str, ok: bool, why: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append("%s: %s" % (name, why or "wrong result"))
        return ok

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors.extend(other.errors)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "errors": self.errors[:20]}


# -- the command-line outputs of the cli-session workload -------------------


def _text_fields(stdout: str) -> dict:
    fields = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            fields[key.strip()] = value.strip()
    return fields


def _json_rational(obj) -> F:
    return F(int(obj["num"]), int(obj["den"]))


def check_ek_text(stdout: str, refs: dict) -> str:
    """'' if the text report of ``berger ek`` is right, else the reason."""
    f = _text_fields(stdout)
    want = {
        "ek invariant": refs["ek"],
        "PL invariant, 28*ek mod 1": refs["s1"],
        "eta defect, Dirac operator": refs["eta_dirac"],
        "eta defect, signature operator": refs["eta_signature"],
        "secondary integral": refs["secondary"],
        "spectral stage": refs["intermediate"],
    }
    for key, value in want.items():
        if key not in f or F(f[key]) != value:
            return "%s is %r, expected %s" % (key, f.get(key), value)
    if f.get("orientation") != "standard":
        return "orientation is %r" % (f.get("orientation"),)
    return ""


def _check_payload(payload: dict, refs: dict, reversed_: bool) -> str:
    flip = -1 if reversed_ else 1
    want = {
        "ek": refs["ek_reversed"] if reversed_ else refs["ek"],
        "s1_mod1": refs["s1_reversed"] if reversed_ else refs["s1"],
        "eta_dirac": flip * refs["eta_dirac"],
        "eta_signature": flip * refs["eta_signature"],
        "secondary_integral": flip * refs["secondary"],
        "intermediate": flip * refs["intermediate"],
    }
    for key, value in want.items():
        if _json_rational(payload[key]) != value:
            return "%s is %s, expected %s" % (
                key, _json_rational(payload[key]), value)
    if payload["harmonic_spinors"] != 0:
        return "harmonic_spinors is %r" % (payload["harmonic_spinors"],)
    expected = "reversed" if reversed_ else "standard"
    if payload["orientation"] != expected:
        return "orientation is %r" % (payload["orientation"],)
    return ""


def check_ek_reversed_json(stdout: str, refs: dict) -> str:
    return _check_payload(json.loads(stdout), refs, reversed_=True)


def check_verify_fast_text(stdout: str, refs: dict) -> str:
    lines = stdout.splitlines()
    if not lines or lines[-1] != "suite 'fast': pass":
        return "last line is %r" % (lines[-1] if lines else "",)
    checks = lines[:-1]
    if len(checks) != refs["fast_checks"]:
        return "%d checks ran, expected %d" % (len(checks), refs["fast_checks"])
    bad = [line for line in checks if line.split()[1:2] != ["ok"]]
    if bad:
        return "failing check: %s" % bad[0]
    return ""


def check_verify_all_json(stdout: str, refs: dict) -> str:
    payload = json.loads(stdout)
    suites = payload["suites"]
    if len(suites) != refs["all_checks"]:
        return "%d checks ran, expected %d" % (len(suites), refs["all_checks"])
    bad = [s["name"] for s in suites if s["passed"] is not True]
    if bad:
        return "failing checks: %s" % ", ".join(bad)
    return _check_payload(payload, refs, reversed_=False)


def check_eta_dirac_text(stdout: str, refs: dict) -> str:
    lines = stdout.splitlines()
    value = lines[-1].rpartition(":")[2].strip() if lines else ""
    if not value or F(value) != refs["eta_dirac"]:
        return "value is %r, expected %s" % (value, refs["eta_dirac"])
    return ""
