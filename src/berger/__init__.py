"""Exact computation of the Eells-Kuiper invariant of the Berger space.

The layers, bottom up: exact scalars (``scalar``), truncated Laurent
series (``series``), sparse exact matrices (``matrix``), the so(5)
splitting and structure constants (``liealg``), the representation kernel
(``rep``), the eta-defect Weyl sums (``eta``), the octonion model and the
deformed operator's spectrum (``octonion``), characteristic forms and the
secondary integral (``forms``), the invariant (``invariant``), and the
verification suites (``assembly``, ``cli``).  ``import berger`` loads none
of them, only what they share: ``CertificateError``, ``require``, ``dot``,
and the paper's classification of M, which ``berger classify`` prints.
"""
from operator import mul

__version__ = "0.1.0"


class CertificateError(ArithmeticError):
    """A failed exact certificate; raised explicitly, so ``python -O`` keeps it."""


def require(holds: bool, reason: str) -> None:
    """An ``assert`` that ``python -O`` keeps: a named certificate error."""
    if not holds:
        raise CertificateError(reason)


def dot(u, v):
    """Inner product of two equal-length vectors, integral or rational."""
    return sum(map(mul, u, v))


#: H^4(M) = Z/EULER_CLASS, so 2^5 7 EULER_CLASS ek is an integer
EULER_CLASS = 10

#: the paper's classification of M among the S^3-bundles M_{m,n} over S^4
#: with n = EULER_CLASS: (condition, m as the paper lists them, modulus)
CONGRUENCES = (
    ("PL-equivalent to the Euler-number-%d bundle, preserving orientation,"
     % EULER_CLASS, (2, -2), 10),
    ("PL-equivalent reversing orientation", (1, -1), 10),
    ("diffeomorphic (reversing)", (-1, -9, -29, 19), 140),
)


def classify() -> list[str]:
    """Each congruence verbatim with its canonical residues, then the headline
    bundle and the vector fields, static facts recorded, not recomputed."""
    fmt = lambda xs: "{%s}" % ", ".join(map(str, xs))
    return ["%s iff m in %s mod %d (residues %s)"
            % (condition, fmt(ms), modulus, fmt(sorted(m % modulus for m in ms)))
            for condition, ms, modulus in CONGRUENCES] + [
        "headline: the m = -1 bundle, first Pontryagin class 16 times the generator",
        "admits exactly 4 independent vector fields"]
