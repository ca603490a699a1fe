"""The Lie algebra so(5), its irreducible so(3) subalgebra, and the
orthogonal splitting  so(5) = h (+) p  underlying the homogeneous space.

Conventions:

* ``so5(i, j)`` (1 <= i < j <= 5) is the skew matrix sending the j-th
  coordinate vector to the i-th and the i-th to minus the j-th; these 21
  matrices are orthonormal for the inner product <A, B> = -tr(A B)/2.
* ``h_basis()`` returns the orthonormal basis f1, f2, f3 of the subalgebra h,
  the image of so(3) under its unique 5-dimensional irreducible
  representation.
* ``p_basis()`` returns the orthonormal basis e1, ..., e7 of the orthogonal
  complement p, numbered so that the full bracket satisfies the cyclic rule
  [e_i, e_{i+1}] = (1/sqrt5) e_{i+3} (indices mod 7).

``structure_constants()`` is the one table of brackets against p: the
isotropy generators are its h rows, and ``forms.curvature`` reads it too.
tr([A, B] C) = tr(A [B, C]) makes <[A, B], C> cyclic in A, B, C, so the 21
brackets [e_j, e_k], j < k, give the table as <g_i, [e_j, e_k]>, and as
<[f, e], f'> = <[f', f], e>, h preserves p iff [h, h] has no p-component.
All indices in this module's public API are 0-based offsets into these bases.
"""
from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

from .matrix import SqrtMatrix
from .scalar import CertificateError, SqrtField

_MINUS_HALF = SqrtField.rational(-1, 2)


def so5(i: int, j: int) -> SqrtMatrix:
    """Skew basis matrix with +1 in row i, column j (1-based, i < j <= 5)."""
    if not 1 <= i < j <= 5:
        raise ValueError(f"so5 needs 1 <= i < j <= 5, got ({i!r}, {j!r})")
    rows = [[SqrtField()] * 5 for _ in range(5)]
    rows[i - 1][j - 1] = SqrtField.rational(1)
    rows[j - 1][i - 1] = SqrtField.rational(-1)
    return SqrtMatrix(rows)


def inner(a: SqrtMatrix, b: SqrtMatrix) -> SqrtField:
    """<A, B> = -tr(A B)/2; makes the so5(i, j) orthonormal."""
    return a.trace_product(b) * _MINUS_HALF


def bracket(a: SqrtMatrix, b: SqrtMatrix) -> SqrtMatrix:
    return a @ b - b @ a


def _sf(p, q=1, rad=1):
    return SqrtField.term(F(p, q), rad)


@lru_cache(maxsize=None)
def iota_images() -> tuple[SqrtMatrix, SqrtMatrix, SqrtMatrix]:
    """Images iota_12, iota_23, iota_13 of the standard so(3) generators
    under the irreducible embedding into so(5); pairwise orthogonal of
    squared norm 5."""
    s3 = SqrtField.sqrt(3)
    i12 = so5(1, 2).scale(2) + so5(3, 4)
    i23 = so5(2, 3) - so5(1, 4) + so5(4, 5).scale(s3)
    i13 = so5(1, 3) + so5(2, 4) + so5(3, 5).scale(s3)
    return i12, i23, i13


@lru_cache(maxsize=None)
def h_basis() -> tuple[SqrtMatrix, ...]:
    """Orthonormal basis f1, f2, f3 = iota_12, iota_23, iota_13 / sqrt5 of h."""
    return tuple(i.scale(_sf(1, 5, 5)) for i in iota_images())


@lru_cache(maxsize=None)
def p_basis() -> tuple[SqrtMatrix, ...]:
    """Orthonormal basis e1..e7 of p = orthogonal complement of h."""
    c15 = _sf(1, 5, 5)    # 1/sqrt5
    c25 = _sf(2, 5, 5)    # 2/sqrt5
    c10 = _sf(1, 5, 10)   # sqrt2/sqrt5
    c30 = _sf(1, 10, 30)  # sqrt3/sqrt10
    c2 = _sf(1, 2, 2)     # 1/sqrt2
    e1 = so5(1, 2).scale(c15) - so5(3, 4).scale(c25)
    e2 = so5(4, 5).scale(c10) - (so5(2, 3) - so5(1, 4)).scale(c30)
    e3 = so5(2, 5)
    e4 = so5(3, 5).scale(c10) - (so5(1, 3) + so5(2, 4)).scale(c30)
    e5 = (so5(2, 4) - so5(1, 3)).scale(c2)
    e6 = -(so5(2, 3) + so5(1, 4)).scale(c2)
    e7 = so5(1, 5)
    return (e1, e2, e3, e4, e5, e6, e7)


@lru_cache(maxsize=None)
def g_basis() -> tuple[SqrtMatrix, ...]:
    """Orthonormal basis of so(5): e1..e7 of p followed by f1..f3 of h."""
    return p_basis() + h_basis()


def project_p(a: SqrtMatrix) -> list[SqrtField]:
    """Coordinates of the p-component with respect to e1..e7."""
    return [inner(a, e) for e in p_basis()]


@lru_cache(maxsize=None)
def structure_constants() -> tuple:
    """c[i][j][k] = < [g_i, e_j]_p , e_k > = < g_i, [e_j, e_k] >  for the
    basis g_i of so(5), 0..6 from p and 7..9 from h, which must preserve p."""
    gs, es = g_basis(), p_basis()
    if any(any(project_p(bracket(f, f2))) for f, f2 in combinations(gs[7:], 2)):
        raise CertificateError("h does not preserve p")
    c = [[[SqrtField()] * 7 for _ in es] for _ in gs]
    for j, k in combinations(range(7), 2):
        br = bracket(es[j], es[k])
        for ci, g in zip(c, gs):
            ci[j][k] = inner(g, br)
            ci[k][j] = -ci[j][k]
    return tuple(tuple(map(tuple, ci)) for ci in c)


@lru_cache(maxsize=None)
def isotropy_generator(m: int) -> SqrtMatrix:
    """Isotropy action v -> [f_{m+1}, v] on p in the e-basis, m in
    {0, 1, 2}: the transpose of row 7 + m of the structure constants."""
    return SqrtMatrix(structure_constants()[7 + m]).transpose()


def check_jacobi(triples):
    """The first index triple into the so(5) basis at which ``bracket``
    fails the Jacobi identity, or None if every triple passes."""
    basis = g_basis()
    # [g_k, g_i] = -[g_i, g_k]: 45 inner brackets for all 120 triples
    pair = lru_cache(maxsize=None)(lambda i, j: bracket(basis[i], basis[j]))
    for (i, j, k) in triples:
        total = (bracket(basis[i], pair(j, k))
                 - bracket(basis[j], pair(i, k))
                 + bracket(basis[k], pair(i, j)))
        if not total.is_zero():
            return (i, j, k)
    return None
