import os
import sys
from collections import namedtuple
from fractions import Fraction as F
from itertools import combinations, permutations

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


def right_product(x, y, cliffords):
    """The octonion x * y as y_0 x + sum_k y_k (R_k x), with R_k =
    cliffords[k - 1] the matrix of s -> s * e_k: applied by
    ``SqrtMatrix.apply`` and summed with the field's own ring operations,
    so no step but the matrices' entries is the product kernel's."""
    xs, ys = list(x.coords), y.coords
    total = [ys[0] * c for c in xs]
    for yk, rk in zip(ys[1:], cliffords):
        total = [t + yk * c for t, c in zip(total, rk.apply(xs))]
    return type(x)(total)


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


def valuation(s):
    """The least exponent of a nonzero coefficient of the series s in its
    window, None for zero."""
    return next((e for e in range(s.low, s.order + 1) if s.coefficient(e)), None)


def freudenthal(system, label):
    """The weight multiset of the irreducible of ``system`` with this
    label, the weights as Dynkin labels in sorted order."""
    return dict(sorted(system._freudenthal(system._weight(label))))


def flip_bracket_entry(f, abc):
    """The so(5) bracket table f with f[a][b][c] negated together with its
    five antisymmetric partners, so the table stays antisymmetric."""
    g = [[list(row) for row in fa] for fa in f]
    for i, j, k in permutations(abc):
        g[i][j][k] = -g[i][j][k]
    return tuple(tuple(map(tuple, fa)) for fa in g)


def form_coefficient(form, indices):
    """The coefficient of the alternating form on the basis vectors with
    these indices, in any order: the stored one of their ascending key times
    the sign of the sorting permutation, zero at a repeated index.  The
    test-side reading of an ``AltForm``, which stores ascending keys only."""
    from berger.scalar import SqrtField
    key = tuple(sorted(indices))
    if len(set(key)) < len(key):
        return SqrtField()
    c = form.coeffs.get(key, SqrtField())
    return -c if sum(a > b for a, b in combinations(indices, 2)) % 2 else c


def dense_invariant_d(form, d_sign=1):
    """d of an invariant form gathered densely: on every key K of degree
    k + 1, s sum_{i<j} (-1)^{i+j} sum_m c[K_i][K_j][m] a(e_m, K - {K_i, K_j}),
    each term read through ``form_coefficient`` and summed with the field's
    own + and *.  The reference for ``forms.invariant_d``, which scatters
    from the nonzero coefficients only."""
    from berger.forms import AltForm
    from berger.liealg import structure_constants
    from berger.scalar import SqrtField
    k, c = form.degree, structure_constants()
    if k >= 7:
        return AltForm(min(k + 1, 7))
    acc = {}
    for key in combinations(range(7), k + 1):
        total = SqrtField()
        for i, j in combinations(range(k + 1), 2):
            rest = key[:i] + key[i + 1:j] + key[j + 1:]
            for m in range(7):
                total = total + (c[key[i]][key[j]][m] * (d_sign * (-1) ** (i + j))
                                 * form_coefficient(form, (m,) + rest))
        acc[key] = total
    return AltForm(k + 1, acc, form.pi)


def dense_is_h_invariant(form):
    """Whether every isotropy generator X annihilates the form, gathered
    densely: on every key K, sum_s sum_rep X[rep, K_s] a(.., e_rep, ..) with
    e_rep in slot s, read through ``form_coefficient``.  The reference for
    ``forms.is_h_invariant``, which scatters from the nonzero coefficients."""
    from berger.liealg import isotropy_generator
    from berger.scalar import SqrtField
    k = form.degree
    for m in range(3):
        iso = isotropy_generator(m)
        for key in combinations(range(7), k):
            total = SqrtField()
            for slot in range(k):
                for rep in range(7):
                    total = total + iso[rep, key[slot]] * form_coefficient(
                        form, key[:slot] + (rep,) + key[slot + 1:])
            if total:
                return False
    return True


def series_reciprocal(s):
    """1/s for a series whose leading term a_0 t^v is nonzero, by the
    recurrence b_0 = 1/a_0, b_m = -(a_1 b_(m-1) + ... + a_m b_0)/a_0 on the
    unit part (Knuth, TAOCP vol. 2, 4.7), over the nonzero a_e in
    Fractions: the test-side quotient of series, as
    ``LaurentSeries.reciprocal`` takes one term only."""
    from berger.series import LaurentSeries
    v = valuation(s)
    a0, n = s.coefficient(v), s.order - v
    a = [(e, q) for e in range(1, n + 1) if (q := s.coefficient(v + e))]
    b = [1 / a0]
    for m in range(1, n + 1):
        b.append(-sum(q * b[m - e] for e, q in a if e <= m) / a0)
    return LaurentSeries({m - v: q for m, q in enumerate(b)}, -v, s.order - 2 * v)


@pytest.fixture(scope="session")
def weyl():
    """``weyl(simple)``: the test-side Weyl group, see :func:`weyl_closure`."""
    return weyl_closure

