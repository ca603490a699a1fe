"""Cayley octonions, Clifford multiplication on them, and the exact
spectrum of the deformation part of the odd signature operator family.

The product convention is written once, as the seven index triples
(i, i+1, i+3) mod 7 in ``TRIPLES``: within each triple the product of two
consecutive units is the third.  ``product_table`` turns them into the
signed product of all 64 pairs of units, e_0 = 1 included, and every
reader uses that one table: ``Octonion.__mul__``, the Clifford matrices,
the ``octonion-laws`` check and the G2 forms of ``forms``.  The spinor
module of Spin(7) is identified with the octonions so that Clifford
multiplication by a tangent vector v becomes right Cayley multiplication
s -> s * v; the volume element c_1 ... c_7 then acts as +1, which pins
the orientation.

The deformation operator lives on the 64-dimensional space O (x) O
(basis e_a (x) e_b -> index 8a + b).  From the spinor lifts a_i of the
tangential bracket operators it is (sum_i c_i a_i / 3) (x) 1 +
sum_i c_i (x) a_i, one product with 1 as (x) is bilinear.
Its exact eigenvalues are 7/sqrt5, +-1/sqrt5 and +-sqrt5, certified here
by an exact minimal polynomial identity and by the restriction to
explicit isotypic blocks: for a 64 x n matrix V of orthonormal vectors
spanning an invariant subspace, the block of the deformation operator B
is V^T (B V).  With S = B @ B, a pair +-lam of eigenvalues is one factor
S - lam^2 of the minimal polynomial.  Its distinct roots make B
diagonalizable, so with lam_j = nu_j sqrt(r)/D for integers nu_j (for
B: r = D = 5, nu = 7, -1, 1, 5, -5) the power sums s_k =
tr(B^k) (D/sqrt r)^k = sum_j m_j nu_j^k are rational, and by Lagrange
m_j = sum_k p_jk s_k / prod_{i != j} (nu_j - nu_i), k = 0..4, with
sum_k p_jk x^k = prod_{i != j} (x - nu_i).  As B is symmetric and each
isotropy lift L skew, B L - L B = B L + (B L)^T: B commutes with L iff
B L is skew, read off the stored entries with no transpose built.

Each certificate here holds (the two identity checks return True) or
raises ``CertificateError`` with the reason it failed.
"""
from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache, reduce
from itertools import combinations
from math import lcm
from typing import Sequence

from . import eta, liealg
from .matrix import SqrtMatrix
from .scalar import ZERO, CertificateError, SqrtField

#: the seven multiplication triples (1-based imaginary unit indices)
TRIPLES = tuple((i, i % 7 + 1, (i + 2) % 7 + 1) for i in range(1, 8))


@lru_cache(maxsize=None)
def product_table() -> dict[tuple[int, int], tuple[int, int]]:
    """(i, j) -> (k, sign) with e_i * e_j = sign * e_k, for all 64 pairs of
    units e_0 = 1, e_1, ..., e_7."""
    table = {(i, 0): (i, 1) for i in range(8)}
    table.update({(0, i): (i, 1) for i in range(8)})
    table.update({(i, i): (0, -1) for i in range(1, 8)})
    for a, b, c in TRIPLES:
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
            table[(x, y)] = (z, 1)
            table[(y, x)] = (z, -1)
    return table


@lru_cache(maxsize=None)
def _product_terms() -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """For each k in 0..7, the (i, j, neg) over all 64 index pairs with
    e_i * e_j = (-1)**neg * e_k."""
    terms = [[] for _ in range(8)]
    for (i, j), (k, s) in product_table().items():
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


@lru_cache(maxsize=None)
def unit_cliffords() -> tuple[SqrtMatrix, ...]:
    """The seven operators s -> s * e_k of right multiplication by e_1, ...,
    e_7, read off the table: e_a * e_k = s * e_c puts s at entry (c, a)."""
    rows = [[[ZERO] * 8 for _ in range(8)] for _ in range(7)]
    for (a, k), (c, s) in product_table().items():
        if k:
            rows[k - 1][c][a] = SqrtField.rational(s)
    return tuple(map(SqrtMatrix, rows))


def clifford_volume() -> SqrtMatrix:
    """c_1 c_2 ... c_7 (rightmost factor applied first)."""
    return reduce(SqrtMatrix.__matmul__, unit_cliffords())


@lru_cache(maxsize=None)
def tangent_bracket_spinor(i: int) -> SqrtMatrix:
    """Spinor lift (1/4) sum_{j,k} <[g_i,e_j]_p, e_k> c_j c_k of the skew
    operator v -> [g_i, v]_p.  For the three indices beyond the tangent
    space this is the differential of the lifted isotropy representation.
    The coefficient is skew in (j, k), and so is c_j c_k for j != k: the
    sum is (1/2) sum_{j<k}, one Clifford product per pair."""
    if not 0 <= i <= 9:
        raise ValueError(f"generator index {i!r} outside 0..9")
    c = liealg.structure_constants()[i]
    cl = unit_cliffords()
    acc = SqrtMatrix.zeros(8)
    for j, k in combinations(range(7), 2):
        if c[j][k]:
            acc = acc + (cl[j] @ cl[k]).scale(c[j][k] * F(1, 2))
    return acc


# -- the deformation operator on O (x) O ---------------------------------------


@lru_cache(maxsize=None)
def deformation_operator() -> SqrtMatrix:
    """The deformation term of the odd signature operator family, on the
    64-dimensional space O (x) O: the sum over tangent directions of
    Clifford multiplication on the first factor composed with one third
    of the bracket lift there plus the bracket lift on the second factor."""
    pairs = [(c, tangent_bracket_spinor(i)) for i, c in enumerate(unit_cliffords())]
    first = reduce(SqrtMatrix.__add__, (c @ a for c, a in pairs)).scale(F(1, 3))
    return reduce(SqrtMatrix.__add__, (c.tensor(a) for c, a in pairs),
                  first.tensor(SqrtMatrix.identity(8)))


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
    c, u2 = SqrtField.term(F(1, 7), 7), [ZERO] * 64
    for i in range(1, 8):
        u2[8 * i + i] = c
    return operator_block((tensor_unit(0, 0), u2))


@lru_cache(maxsize=None)
def standard_component_block() -> SqrtMatrix:
    """3x3 block on the three embeddings of the 7-dimensional component,
    evaluated at e_1: the vectors e_1 (x) 1, 1 (x) e_1 and
    (1/sqrt6) sum_{i>=2} e_i (x) (e_1 * e_i)."""
    c, v3 = SqrtField.term(F(1, 6), 6), [ZERO] * 64
    for i in range(2, 8):
        k, s = product_table()[(1, i)]
        v3[8 * i + k] = c if s == 1 else -c
    return operator_block((tensor_unit(1, 0), tensor_unit(0, 1), v3))


# -- sample vectors of the two remaining component types -----------------------


def cross_product_matrix() -> SqrtMatrix:
    """The 7x64 equivariant contraction x (x) y -> im(x * y) of the
    imaginary (x) imaginary part of a 64-vector.  Its transpose is the
    insertion, and the two compose to 6 times the identity."""
    rows = [[SqrtField()] * 64 for _ in range(7)]
    for (i, j), (k, s) in product_table().items():
        if i and j and k:
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
    paired = [lam for lam in eigs if lam and -lam in eigs]
    squares = dict.fromkeys(lam * lam for lam in paired)
    return reduce(SqrtMatrix.__matmul__, [sq.shift(s) for s in squares]
                  + [b.shift(lam) for lam in eigs if lam not in paired])


def multiplicities(b: SqrtMatrix, sq: SqrtMatrix,
                   eigs: Sequence[SqrtField]) -> tuple[F, ...]:
    """Multiplicities of at most five distinct eigenvalues nu_j sqrt(r)/D of
    a matrix b that their shift product annihilates, given sq = b @ b."""
    nums = [lam.numerators() for lam in eigs]
    rads = {r for c, _ in nums for r in c}
    if len(eigs) > 5:
        raise CertificateError("%d eigenvalues; tr(B^0..B^4) fix only five" % len(eigs))
    if len(rads) > 1:
        raise CertificateError("eigenvalue radicands %s, not one" % sorted(rads))
    if len(set(eigs)) < len(eigs):
        raise CertificateError("the eigenvalues are not distinct")
    r, den = next(iter(rads), 1), lcm(*(d for _, d in nums))
    nus = [c.get(r, 0) * (den // d) for c, d in nums]
    traces = [t.numerators() for t in (SqrtField.rational(b.nrows), b.trace(), sq.trace(),
                                       b.trace_product(sq), sq.trace_product(sq))]
    bad = [k for k, (c, _) in enumerate(traces) if set(c) - {r ** (k % 2)}]
    if bad:
        raise CertificateError("tr(B^k) is not in Q*sqrt(%d)^k for k in %s" % (r, bad))
    sums = [F(c.get(r ** (k % 2), 0) * den ** k, d * r ** (k // 2))  # s_k
            for k, (c, d) in enumerate(traces)]
    found = []
    for j, nu in enumerate(nus):
        coeffs, divisor = [1], 1  # prod_{i != j} (x - nu_i) and its value at nu
        for mu in nus[:j] + nus[j + 1:]:
            coeffs = [a - mu * c for a, c in zip([0, *coeffs], [*coeffs, 0])]
            divisor *= nu - mu
        found.append(sum(a * c for a, c in zip(coeffs, sums)) / divisor)
    return tuple(found)


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
    eye, b0 = SqrtMatrix.identity(8), deformation_operator()
    if not b0.is_symmetric():
        raise CertificateError("the deformation operator is not symmetric")
    for i in (7, 8, 9):
        a = tangent_bracket_spinor(i)
        lifted = a.tensor(eye) + eye.tensor(a)
        if not (lifted.is_skew() and (b0 @ lifted).is_skew()):
            raise CertificateError("isotropy lift %d is not skew or does not "
                                   "commute with the operator" % i)
    return True


# -- the operator family on the trivial component ------------------------------


@lru_cache(maxsize=None)
def _base_block() -> SqrtMatrix:
    # undeformed reductive operator on the trivial component,
    # (1/(2 sqrt5)) diag(7, -1)
    t, z = SqrtField.term, ZERO
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
    up = eta.add((F(p), F(q)), eta.RHO)
    down = eta.add(lam, eta.RHO_H)
    return eta.dot(up, up) - eta.dot(down, down)
