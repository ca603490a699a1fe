"""Exact computation of the Eells-Kuiper invariant of the Berger space.

The layers, bottom up: exact scalars (``scalar``), truncated Laurent
series (``series``), sparse exact matrices (``matrix``), the so(5)
splitting and structure constants (``liealg``), the representation kernel
(``rep``), the eta-defect Weyl sums (``eta``), the octonion model and the
deformed operator's spectrum (``octonion``), characteristic forms and the
secondary integral (``forms``), and the assembly with its named
verification suites (``assembly``, ``cli``).  ``import berger`` loads none
of them: ``from berger import eta`` gets that layer and those below it.
"""

__version__ = "0.1.0"
