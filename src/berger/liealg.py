"""The Lie algebra so(5), its irreducible so(3) subalgebra, and the
orthogonal splitting  so(5) = h (+) p  underlying the homogeneous space.

``so5(i, j)`` (1 <= i < j <= 5) is the skew matrix sending the j-th
coordinate vector to the i-th and the i-th to minus the j-th; these 10
matrices are orthonormal for <A, B> = -tr(A B)/2.  ``h_basis()`` is the
orthonormal basis f1, f2, f3 of h, the image of so(3) under its
5-dimensional irreducible representation, and ``p_basis()`` the
orthonormal basis e1..e7 of its complement p, numbered so that
[e_i, e_{i+1}]_p = (1/sqrt5) e_{i+3} (indices mod 7).

``bracket_table()`` is the one table of brackets: f[a][b][c] =
<g_a, [g_b, g_c]> on g = e1..e7, f1..f3.  tr([A, B] C) = tr(A [B, C])
makes it totally antisymmetric, so the 36 brackets [g_b, g_c], 0 < b < c,
give it.  Its p-slice is ``structure_constants()``, which the isotropy
generators, ``forms`` and ``octonion`` read; h preserves p iff f is zero at
one p and two h indices; and as [g_b, g_c] = sum_d f[d][b][c] g_d, Jacobi
is checked on f itself, over its nonzero entries only.  Indices in the
public API are 0-based.
"""
from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations

from . import require
from .matrix import SqrtMatrix
from .scalar import SqrtField

_MINUS_HALF = SqrtField.term(F(-1, 2))


def so5(i: int, j: int) -> SqrtMatrix:
    """Skew basis matrix with +1 in row i, column j (1-based, i < j <= 5)."""
    if not 1 <= i < j <= 5:
        raise ValueError(f"so5 needs 1 <= i < j <= 5, got ({i!r}, {j!r})")
    rows = [[SqrtField()] * 5 for _ in range(5)]
    rows[i - 1][j - 1] = SqrtField.term(1)
    rows[j - 1][i - 1] = SqrtField.term(-1)
    return SqrtMatrix(rows)


def inner(a: SqrtMatrix, b: SqrtMatrix) -> SqrtField:
    """<A, B> = -tr(A B)/2; makes the so5(i, j) orthonormal."""
    return a.trace_product(b) * _MINUS_HALF


def bracket(a: SqrtMatrix, b: SqrtMatrix) -> SqrtMatrix:
    return a @ b - b @ a


def h_basis() -> tuple[SqrtMatrix, ...]:
    """Orthonormal basis f1, f2, f3 of h: the images iota_12, iota_23, iota_13
    of the standard so(3) generators under the irreducible embedding into
    so(5), pairwise orthogonal of squared norm 5, over sqrt5."""
    s3 = SqrtField.term(1, 3)
    iotas = (so5(1, 2).scale(2) + so5(3, 4),
             so5(2, 3) - so5(1, 4) + so5(4, 5).scale(s3),
             so5(1, 3) + so5(2, 4) + so5(3, 5).scale(s3))
    return tuple(i.scale(SqrtField.term(F(1, 5), 5)) for i in iotas)


def p_basis() -> tuple[SqrtMatrix, ...]:
    """Orthonormal basis e1..e7 of p = orthogonal complement of h."""
    c15 = SqrtField.term(F(1, 5), 5)    # 1/sqrt5
    c25 = SqrtField.term(F(2, 5), 5)    # 2/sqrt5
    c10 = SqrtField.term(F(1, 5), 10)   # sqrt2/sqrt5
    c30 = SqrtField.term(F(1, 10), 30)  # sqrt3/sqrt10
    c2 = SqrtField.term(F(1, 2), 2)     # 1/sqrt2
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


@lru_cache(maxsize=None)
def bracket_table() -> tuple:
    """f[a][b][c] = <g_a, [g_b, g_c]> for the basis g_a of so(5), 0..6 from
    p and 7..9 from h: each entry a < b < c once, the rest by antisymmetry."""
    gs = g_basis()
    f = [[[SqrtField()] * 10 for _ in gs] for _ in gs]
    for b, c in combinations(range(1, 10), 2):
        br = bracket(gs[b], gs[c])
        for a in range(b):
            x = inner(gs[a], br)
            f[a][b][c] = f[b][c][a] = f[c][a][b] = x
            f[b][a][c] = f[a][c][b] = f[c][b][a] = -x
    return tuple(tuple(map(tuple, fa)) for fa in f)


@lru_cache(maxsize=None)
def structure_constants() -> tuple:
    """c[i][j][k] = < [g_i, e_j]_p , e_k > = f[i][j][k] for j, k < 7, the
    slice of ``bracket_table`` against p; h must preserve p."""
    f = bracket_table()
    require(not any(f[j][m][n] for j in range(7)
                    for m, n in combinations(range(7, 10), 2)), "h does not preserve p")
    return tuple(tuple(row[:7] for row in fi[:7]) for fi in f)


@lru_cache(maxsize=None)
def isotropy_generator(m: int) -> SqrtMatrix:
    """Isotropy action v -> [f_{m+1}, v] on p in the e-basis, m in
    {0, 1, 2}: the transpose of row 7 + m of the structure constants."""
    return SqrtMatrix(structure_constants()[7 + m]).transpose()


def check_jacobi(triples):
    """The first index triple (a, b, c) into the so(5) basis at which the
    table fails the Jacobi identity, or None if every triple passes: the
    g_e-component sum_d f[d][b][c] f[e][a][d] + cyclic must vanish; each
    product of two nonzero entries goes to the bucket of its e."""
    f = bracket_table()
    # the nonzero f[d][b][c], d = 0..9, of each pair (b, c)
    pair = [[[(d, f[d][b][c]) for d in range(10) if f[d][b][c]]
             for c in range(10)] for b in range(10)]
    for (a, b, c) in triples:
        buckets: dict[int, list] = {}
        for i, j, k in ((a, b, c), (b, c, a), (c, a, b)):
            for d, x in pair[j][k]:
                for e, y in pair[i][d]:
                    buckets.setdefault(e, []).append((x, y))
        if any(map(SqrtField.dot, buckets.values())):
            return (a, b, c)
    return None
