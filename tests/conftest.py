import os
import sys
from fractions import Fraction as F

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def reflect(v, root):
    """v reflected in the hyperplane orthogonal to ``root``."""
    c = F(2 * sum(x * r for x, r in zip(v, root)), sum(r * r for r in root))
    return tuple(x - c * r for x, r in zip(v, root))


def weyl_closure(simple):
    """The Weyl group of the simple roots ``simple`` as a set of
    (matrix, det) pairs, closed from the simple reflections here in the
    tests: the oracle for ``eta.WEYL_GROUP`` and for the lattice's signs.
    A matrix is a tuple of rows; reflections are symmetric, so the rows
    of m s are m's rows reflected, and each reflection flips the det."""
    n = len(simple[0])
    start = (tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n)), 1)
    seen, stack = {start}, [start]
    while stack:
        m, det = stack.pop()
        for a in simple:
            w = (tuple(reflect(row, a) for row in m), -det)
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


@pytest.fixture(scope="session")
def weyl():
    """``weyl(simple)``: the test-side Weyl group, see :func:`weyl_closure`."""
    return weyl_closure

