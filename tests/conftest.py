import os
import sys
from collections import namedtuple
from fractions import Fraction as F
from itertools import permutations

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


#: A1, B2 and G2 realized by explicit rational vectors, the oracle for
#: ``rep``'s Cartan-matrix model: simple roots in ``rep``'s order, all
#: positive roots, and the fundamental weights omega_i dual to the simple
#: coroots.  G2 lives in the plane x + y + z = 0 of Q^3.
Ambient = namedtuple("Ambient", "simple positive omega")
AMBIENT = {
    "A1": Ambient(((1,),), ((1,),), ((F(1, 2),),)),
    "B2": Ambient(((1, -1), (0, 1)), ((1, -1), (0, 1), (1, 0), (1, 1)),
                  ((1, 0), (F(1, 2), F(1, 2)))),
    "G2": Ambient(((1, -1, 0), (-1, 2, -1)),
                  ((1, -1, 0), (-1, 2, -1), (0, 1, -1), (1, 0, -1),
                   (2, -1, -1), (1, 1, -2)),
                  ((1, 0, -1), (1, 1, -2))),
}


def inner(u, v):
    return sum(x * y for x, y in zip(u, v))


def to_dynkin(v, simple):
    """Dynkin labels 2 (v, alpha_i) / (alpha_i, alpha_i) of an ambient
    vector, each an integer or the vector is not an integral weight."""
    labels = [F(2 * inner(v, a), inner(a, a)) for a in simple]
    if any(c.denominator != 1 for c in labels):
        raise ValueError("%r is not an integral weight" % (v,))
    return tuple(int(c) for c in labels)


def to_ambient(lam, omega):
    """The ambient vector sum_i lam_i omega_i of Dynkin labels ``lam``."""
    return tuple(inner(lam, column) for column in zip(*omega))


def reflect(v, root):
    """v reflected in the hyperplane orthogonal to ``root``."""
    c = F(2 * sum(x * r for x, r in zip(v, root)), sum(r * r for r in root))
    return tuple(x - c * r for x, r in zip(v, root))


def weyl_closure(simple):
    """The Weyl group of the roots ``simple`` (any roots whose reflections
    generate it) as a set of (matrix, det) pairs, closed from their
    reflections here in the tests: the oracle for ``eta.WEYL_GROUP`` and
    for the lattice's signs.  A matrix is a tuple of rows; reflections
    are symmetric, so the rows of m s are m's rows reflected, and each
    reflection flips the det."""
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


def lagrange_basis(nodes, j):
    """Coefficients, constant term first, of the Lagrange basis polynomial
    prod_{i != j} (x - x_i)/(x_j - x_i) on distinct nodes of one field
    (Fractions or SqrtFields): the field-arithmetic reference for the
    integer Lagrange step of ``octonion.multiplicities``."""
    xj = nodes[j]
    zero = xj - xj
    coeffs = [zero + 1]
    for xi in nodes[:j] + nodes[j + 1:]:
        w = (zero + 1) / (xj - xi)
        coeffs = [(a - xi * c) * w
                  for a, c in zip([zero, *coeffs], [*coeffs, zero])]
    return coeffs


def field_multiplicities(b, eigs):
    """Multiplicities of the distinct eigenvalues eigs of a diagonalizable
    ``SqrtMatrix`` b by Lagrange over the field itself: sum_k c_jk tr(b^k),
    with the traces from repeated products and sum_k c_jk x^k the basis
    polynomial of the j-th eigenvalue."""
    from berger.matrix import SqrtMatrix
    from berger.scalar import SqrtField
    traces, power = [], SqrtMatrix.identity(b.nrows)
    for _ in eigs:
        traces.append(power.trace())
        power = power @ b
    return tuple(SqrtField.dot(zip(lagrange_basis(tuple(eigs), j), traces))
                 for j in range(len(eigs)))


def diagonal_matrix(values):
    """The diagonal ``SqrtMatrix`` with these ``SqrtField`` entries."""
    from berger.matrix import SqrtMatrix
    zero = values[0] - values[0]
    return SqrtMatrix([[x if i == j else zero for j in range(len(values))]
                       for i, x in enumerate(values)])


def ref_det(a):
    """Determinant of a square list of lists of field elements by the
    Leibniz expansion over all permutations."""
    out = zero = a[0][0] - a[0][0]
    for perm in permutations(range(len(a))):
        inversions = sum(1 for i in range(len(perm))
                         for j in range(i + 1, len(perm)) if perm[i] > perm[j])
        term = zero + (-1 if inversions % 2 else 1)
        for i, j in enumerate(perm):
            term = term * a[i][j]
        out = out + term
    return out


@pytest.fixture(scope="session")
def weyl():
    """``weyl(simple)``: the test-side Weyl group, see :func:`weyl_closure`."""
    return weyl_closure

