"""Exact computation of the Eells-Kuiper invariant of the Berger space.

The layers, bottom up: exact scalars (``scalar``), truncated Laurent
series (``series``), sparse exact matrices (``matrix``), the so(5)
splitting and structure constants (``liealg``), the representation kernel
(``rep``), the eta-defect Weyl sums (``eta``), the octonion model and the
deformed operator's spectrum (``octonion``), characteristic forms and the
secondary integral (``forms``), the invariant (``invariant``), and the
verification suites (``assembly``, ``cli``).  ``import berger`` loads none
of them, only what they share: ``CertificateError``, ``require``, ``dot``.
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
