"""Exact computation of the Eells-Kuiper invariant of the Berger space.

The packages' layers, bottom up: exact scalars (``scalar``), truncated
Laurent series (``series``), the Lie-algebra splitting and structure
constants (``liealg``), the octonion model of the tangent space and the
deformed operator spectrum (``octonion``), the eta-defect Weyl sums
and their weights on the rank-two group pair (``eta``), invariant
characteristic forms and the secondary integral (``forms``), the
representation kernel (``rep``), and the final assembly with its named
verification suites (``assembly``, ``cli``).
"""
from .assembly import (ClassificationReport, InvariantReport,
                       VerificationReport, classify, compute_ek, mod_one,
                       verify)

__all__ = [
    "ClassificationReport",
    "InvariantReport",
    "VerificationReport",
    "classify",
    "compute_ek",
    "mod_one",
    "verify",
]

__version__ = "0.1.0"
