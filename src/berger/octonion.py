"""Cayley octonions, Clifford multiplication on them, and the exact
spectrum of the deformation part of the odd signature operator family.

The octonion product is generated by the seven index triples
(i, i+1, i+3) mod 7: within each triple the product of two consecutive
units is the third.  The spinor module of Spin(7) is identified with the
octonions so that Clifford multiplication by a tangent vector v becomes
right Cayley multiplication s -> s * v; the volume element c_1 ... c_7
then acts as +1, which pins the orientation.

The deformation operator lives on the 64-dimensional space O (x) O
(basis e_a (x) e_b -> index 8a + b) and is assembled from the spinor
lifts of the tangential bracket operators.  Its exact eigenvalues are
7/sqrt5, +-1/sqrt5 and +-sqrt5, certified here by an exact minimal
polynomial identity and by the restriction to explicit isotypic blocks:
for a 64 x n matrix V of orthonormal vectors spanning an invariant
subspace, the block of the deformation operator B is V^T (B V).  With
S = B @ B, a pair +-lam of eigenvalues is one factor S - lam^2 of the
minimal polynomial.  Its distinct roots make B diagonalizable, so
tr(B^k) = sum_j m_j lam_j^k and, by Lagrange, the multiplicities are
m_j = sum_k c_jk tr(B^k), k = 0..4, with sum_k c_jk x^k equal to
prod_{i != j} (x - lam_i)/(lam_j - lam_i).  As B is symmetric and each
isotropy lift L skew, B L - L B = B L + (B L)^T: B commutes with L iff
B L is skew.

Each certificate here holds (the two identity checks return True) or
raises ``CertificateError`` with the reason it failed.
"""
from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache, reduce
from typing import Sequence

from . import eta, liealg
from .matrix import SqrtMatrix
from .rep import B2, _add, _dot
from .scalar import ONE, ZERO, CertificateError, SqrtField

#: the seven multiplication triples (1-based imaginary unit indices)
TRIPLES = tuple((i, i % 7 + 1, (i + 2) % 7 + 1) for i in range(1, 8))


@lru_cache(maxsize=None)
def _product_table() -> dict[tuple[int, int], tuple[int, int]]:
    """(i, j) -> (k, sign) with e_i * e_j = sign * e_k; k = 0 is the real
    unit (the case i = j)."""
    table = {}
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = (z, 1)
            table[(y, x)] = (z, -1)
    for i in range(1, 8):
        table[(i, i)] = (0, -1)
    return table


@lru_cache(maxsize=None)
def _product_terms() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each k in 0..7, the (i, j, neg) over all 64 index pairs with
    e_i * e_j = (-1)**neg * e_k (e_0 = 1 included)."""
    terms = [[(0, 0, 0)]] + [[(0, k, 0), (k, 0, 0)] for k in range(1, 8)]
    for (i, j), (k, s) in _product_table().items():
        terms[k].append((i, j, int(s < 0)))
    return tuple(map(tuple, terms))


def _sf(x) -> SqrtField:
    if isinstance(x, SqrtField):
        return x
    return SqrtField.rational(F(x))


class Octonion:
    """Element of the Cayley algebra, 8 exact coordinates (e_0 = 1)."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence):
        coords = tuple(_sf(c) for c in coords)
        if len(coords) != 8:
            raise ValueError(f"an octonion needs 8 coordinates, got {len(coords)}")
        self.coords = coords

    @classmethod
    def unit(cls, i: int) -> "Octonion":
        if not 0 <= i <= 7:
            raise ValueError(f"unit index {i!r} outside 0..7")
        return cls([1 if k == i else 0 for k in range(8)])

    @classmethod
    def imaginary(cls, coords: Sequence) -> "Octonion":
        coords = list(coords)
        if len(coords) != 7:
            raise ValueError(f"an imaginary octonion needs 7 coordinates, "
                             f"got {len(coords)}")
        return cls([0] + coords)

    def __add__(self, other: "Octonion") -> "Octonion":
        return Octonion([a + b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Octonion":
        return Octonion([-a for a in self.coords])

    def scale(self, c) -> "Octonion":
        return Octonion([a * c for a in self.coords])

    def __mul__(self, other: "Octonion") -> "Octonion":
        a, b = self.coords, other.coords
        signed = (a, [-x for x in a])
        return Octonion([SqrtField.dot((signed[neg][i], b[j])
                                       for i, j, neg in terms)
                         for terms in _product_terms()])

    def imaginary_coords(self) -> tuple[SqrtField, ...]:
        return self.coords[1:]

    def norm2(self) -> SqrtField:
        return SqrtField.dot((c, c) for c in self.coords)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Octonion):
            return NotImplemented
        return self.coords == other.coords

    def __repr__(self):
        return "Octonion(" + ", ".join(str(c) for c in self.coords) + ")"


# -- Clifford action ----------------------------------------------------------


def clifford_right(coords: Sequence) -> SqrtMatrix:
    """Right Cayley multiplication s -> s * v as an 8x8 matrix, for the
    tangent vector v with the given 7 imaginary coordinates."""
    v = Octonion.imaginary(list(coords))
    cols = [(Octonion.unit(a) * v).coords for a in range(8)]
    return SqrtMatrix([[cols[a][i] for a in range(8)] for i in range(8)])


@lru_cache(maxsize=None)
def unit_cliffords() -> tuple[SqrtMatrix, ...]:
    """The seven operators of right multiplication by e_1, ..., e_7."""
    return tuple(clifford_right([1 if k == i else 0 for k in range(7)])
                 for i in range(7))


def clifford_volume() -> SqrtMatrix:
    """c_1 c_2 ... c_7 (rightmost factor applied first)."""
    return reduce(SqrtMatrix.__matmul__, unit_cliffords())


@lru_cache(maxsize=None)
def tangent_bracket_spinor(i: int) -> SqrtMatrix:
    """Spinor lift (1/4) sum_{j,k} <[g_i,e_j]_p, e_k> c_j c_k of the skew
    operator v -> [g_i, v]_p.  For the three indices beyond the tangent
    space this is the differential of the lifted isotropy representation."""
    if not 0 <= i <= 9:
        raise ValueError(f"generator index {i!r} outside 0..9")
    c = liealg.structure_constants()[i]
    cl = unit_cliffords()
    acc = SqrtMatrix.zeros(8)
    for j in range(7):
        row = c[j]
        for k in range(7):
            coeff = row[k]
            if coeff.is_zero():
                continue
            acc = acc + (cl[j] @ cl[k]).scale(coeff * F(1, 4))
    return acc


# -- the deformation operator on O (x) O ---------------------------------------


@lru_cache(maxsize=None)
def deformation_operator() -> SqrtMatrix:
    """The deformation term of the odd signature operator family, on the
    64-dimensional space O (x) O: the sum over tangent directions of
    Clifford multiplication on the first factor composed with one third
    of the bracket lift there plus the bracket lift on the second factor."""
    eye = SqrtMatrix.identity(8)
    cl = unit_cliffords()
    total = SqrtMatrix.zeros(64)
    for i in range(7):
        a = tangent_bracket_spinor(i)
        total = total + (cl[i] @ a).scale(F(1, 3)).tensor(eye) + cl[i].tensor(a)
    return total


def tensor_unit(a: int, b: int) -> list[SqrtField]:
    """The basis 64-vector e_a (x) e_b."""
    v = [SqrtField() for _ in range(64)]
    v[8 * a + b] = SqrtField.rational(1)
    return v


def operator_block(vectors: Sequence[Sequence[SqrtField]]) -> SqrtMatrix:
    """Matrix of the deformation operator on the span of the given
    orthonormal vectors; certifies that the span is exactly invariant."""
    v = SqrtMatrix(vectors).transpose()
    image = deformation_operator() @ v
    block = v.transpose() @ image
    if not (image - v @ block).is_zero():
        raise CertificateError("span is not invariant")
    return block


@lru_cache(maxsize=None)
def trivial_component_block() -> SqrtMatrix:
    """2x2 block on the span of 1 (x) 1 and (1/sqrt7) sum e_i (x) e_i."""
    u1 = tensor_unit(0, 0)
    u2 = [SqrtField() for _ in range(64)]
    c = SqrtField.term(F(1, 7), 7)
    for i in range(1, 8):
        u2[8 * i + i] = c
    return operator_block((u1, u2))


@lru_cache(maxsize=None)
def standard_component_block() -> SqrtMatrix:
    """3x3 block on the three embeddings of the 7-dimensional component,
    evaluated at e_1: the vectors e_1 (x) 1, 1 (x) e_1 and
    (1/sqrt6) sum_{i>=2} e_i (x) (e_1 * e_i)."""
    v1 = tensor_unit(1, 0)
    v2 = tensor_unit(0, 1)
    v3 = [SqrtField() for _ in range(64)]
    table = _product_table()
    c = SqrtField.term(F(1, 6), 6)
    for i in range(2, 8):
        k, s = table[(1, i)]
        v3[8 * i + k] = c if s == 1 else -c
    return operator_block((v1, v2, v3))


# -- sample vectors of the two remaining component types -----------------------


def cross_product_matrix() -> SqrtMatrix:
    """The 7x64 equivariant contraction x (x) y -> im(x * y) of the
    imaginary (x) imaginary part of a 64-vector.  Its transpose is the
    insertion, and the two compose to 6 times the identity."""
    rows = [[SqrtField()] * 64 for _ in range(7)]
    for (i, j), (k, s) in _product_table().items():
        if k:
            rows[k - 1][8 * i + j] = SqrtField.rational(s)
    return SqrtMatrix(rows)


def adjoint_sample_vector() -> list[SqrtField]:
    """A vector in the 14-dimensional component: an antisymmetric tensor
    with its 7-dimensional cross-product part projected away."""
    t = [a - b for a, b in zip(tensor_unit(1, 2), tensor_unit(2, 1))]
    cross = cross_product_matrix()
    correction = cross.transpose().apply(cross.apply(t))
    return [a - c * F(1, 6) for a, c in zip(t, correction)]


def traceless_sample_vectors() -> tuple[list[SqrtField], list[SqrtField]]:
    """Two vectors in the 27-dimensional component: a symmetrized pair and
    a traceless diagonal difference."""
    s = [a + b for a, b in zip(tensor_unit(1, 2), tensor_unit(2, 1))]
    d = [a - b for a, b in zip(tensor_unit(1, 1), tensor_unit(2, 2))]
    return s, d


def action_scalar(vec: Sequence[SqrtField]) -> SqrtField:
    """The scalar by which the deformation operator acts on the line
    through vec; certifies exact proportionality."""
    image = deformation_operator().apply(list(vec))
    pivot = next(k for k, c in enumerate(vec) if not c.is_zero())
    lam = image[pivot] / vec[pivot]
    if any(a != b * lam for a, b in zip(image, vec)):
        raise CertificateError("vector is not an eigenvector")
    return lam


# -- exact spectral certificates -----------------------------------------------


def spectrum() -> tuple[SqrtField, ...]:
    """The five eigenvalues of the deformation operator."""
    t = SqrtField.term
    return (t(F(7, 5), 5), t(F(-1, 5), 5), t(F(1, 5), 5), t(1, 5), t(-1, 5))


#: the multiplicities of the eigenvalues of ``spectrum()``, in its order
MULTIPLICITIES = (1, 28, 21, 7, 7)


def shift_product(b: SqrtMatrix, sq: SqrtMatrix,
                  eigs: Sequence[SqrtField]) -> SqrtMatrix:
    """The product of the shifts b - lam over eigs, given sq = b @ b: a pair
    +-lam != 0 is one factor sq - lam^2; unpaired shifts multiply last."""
    eye = SqrtMatrix.identity(b.nrows)
    paired = [lam for lam in eigs if lam and -lam in eigs]
    squares = dict.fromkeys(lam * lam for lam in paired)
    return reduce(SqrtMatrix.__matmul__, [sq - eye.scale(s) for s in squares]
                  + [b - eye.scale(lam) for lam in eigs if lam not in paired])


def multiplicities(b: SqrtMatrix, sq: SqrtMatrix,
                   eigs: Sequence[SqrtField]) -> tuple[SqrtField, ...]:
    """Multiplicities of at most five eigenvalues eigs of a matrix b that
    their shift product annihilates, given sq = b @ b: Lagrange on tr(b^k)."""
    traces = (SqrtField.rational(b.nrows), b.trace(), sq.trace(),
              b.trace_product(sq), sq.trace_product(sq))
    out = []
    for j, lj in enumerate(eigs):
        coeffs = [ONE]
        for li in eigs[:j] + eigs[j + 1:]:
            w = (lj - li).inverse()
            coeffs = [(a - li * c) * w
                      for a, c in zip([ZERO, *coeffs], [*coeffs, ZERO])]
        out.append(SqrtField.dot(zip(coeffs, traces)))
    return tuple(out)


def minimal_polynomial_check() -> bool:
    """Exact check that the five eigenvalue shifts of the deformation
    operator multiply to zero, and that the eigenvalues occur with the
    integral, nonnegative multiplicities MULTIPLICITIES (sum 64)."""
    b0, eigs = deformation_operator(), spectrum()
    sq = b0 @ b0
    if not shift_product(b0, sq, eigs).is_zero():
        raise CertificateError("the eigenvalue shifts do not multiply to zero")
    found = multiplicities(b0, sq, eigs)
    if found != MULTIPLICITIES:
        raise CertificateError("eigenvalue multiplicities are (%s), not %s"
                               % (", ".join(map(str, found)), MULTIPLICITIES))
    return True


def commutes_with_lifted_isotropy() -> bool:
    """The deformation operator commutes with the lifted isotropy action
    on both tensor factors (exact matrix identity), by one product per
    lift once the operator's symmetry and the lift's skewness hold."""
    eye = SqrtMatrix.identity(8)
    b0 = deformation_operator()
    if not b0.is_symmetric():
        raise CertificateError("the deformation operator is not symmetric")
    for i in (7, 8, 9):
        a = tangent_bracket_spinor(i)
        lifted = a.tensor(eye) + eye.tensor(a)
        prod = b0 @ lifted
        if lifted.transpose() != -lifted or prod.transpose() != -prod:
            raise CertificateError("isotropy lift %d is not skew or does not "
                                   "commute with the operator" % i)
    return True


# -- the operator family on the trivial component ------------------------------


@lru_cache(maxsize=None)
def _base_block() -> SqrtMatrix:
    # undeformed reductive operator on the trivial component,
    # (1/(2 sqrt5)) diag(7, -1)
    t = SqrtField.term
    z = SqrtField()
    return SqrtMatrix([[t(F(7, 10), 5), z], [z, t(F(-1, 10), 5)]])


def trivial_family_matrix(mu) -> SqrtMatrix:
    """The deformed odd signature operator family restricted to the
    trivial isotypic component: base point plus mu times the computed
    deformation block."""
    return _base_block() + trivial_component_block().scale(F(mu))


def casimir_eigenvalue(p: int, q: int, factor: str) -> F:
    """Square of the reductive operator on the isotypic block of the
    highest weight (p, q): the shifted-norm difference
    |gamma + rho_G|^2 - |lambda_H + rho_H|^2, where lambda_H is trivial
    for factor="real" and the 7-dimensional weight for factor="imaginary"."""
    if not (isinstance(p, int) and isinstance(q, int) and p >= q >= 0):
        raise ValueError(f"weight ({p}, {q}) is not dominant")
    if factor == "real":
        lam = eta.kappa_weight(0)
    elif factor == "imaginary":
        lam = eta.kappa_weight(3)
    else:
        raise ValueError(f"unknown factor {factor!r}")
    up = _add((F(p), F(q)), B2.rho)
    down = _add(lam, eta.RHO_H)
    return _dot(up, up) - _dot(down, down)
