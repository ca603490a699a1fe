"""Exact computation of the Eells-Kuiper invariant of the Berger space.

The package's layers, bottom up: exact scalars (``scalar``), truncated
Laurent series (``series``), sparse exact matrices (``matrix``), the
Lie-algebra splitting and structure constants (``liealg``), the
representation kernel (``rep``), the eta-defect Weyl sums and their
weights on the rank-two group pair (``eta``), the octonion model of the
tangent space and the deformed operator spectrum (``octonion``),
invariant characteristic forms and the secondary integral (``forms``),
and the final assembly with its named verification suites
(``assembly``, ``cli``).

``import berger`` loads none of them: a caller imports the layer it
uses, as ``from berger import assembly`` or ``from berger import eta``,
and gets that layer and the layers below it.
"""

__version__ = "0.1.0"
