"""Cayley octonions, Clifford multiplication on them, and the exact
spectrum of the deformation part of the odd signature operator family.

The product convention is written once, as the seven index triples
(i, i+1, i+3) mod 7 in ``TRIPLES``: within each triple the product of two
consecutive units is the third.  ``product_table`` turns them into the
signed product of all 64 pairs of units, e_0 = 1 included, which the
Clifford matrices, the ``octonion-laws`` check, the G2 forms of ``forms``
and ``Octonion.__mul__`` all read.  An ``Octonion`` is a ``matrix`` row:
int 8-vectors, one per radicand, over one denominator; x * y runs the 64
table entries as int multiply-adds for each pair of grades and reduces
once.  The spinor module of Spin(7) is the octonions, Clifford
multiplication by a tangent vector v right Cayley multiplication
s -> s * v; the volume element c_1 ... c_7 then acts as +1, which pins the
orientation.

The deformation operator B lives on O (x) O (basis e_a (x) e_b -> index
8a + b): from the spinor lifts a_i of the tangential bracket operators it
is (sum_i c_i a_i / 3) (x) 1 + sum_i c_i (x) a_i.  Its eigenvalues 7/sqrt5,
+-1/sqrt5 and +-sqrt5 are certified by an exact minimal polynomial, a pair
+-lam one factor B^2 - lam^2, with the multiplicities read off tr(B^k)
(``multiplicities``), and by the blocks V^T (B V) on the spans of explicit
orthonormal 64 x n matrices V.  As B is symmetric and each isotropy lift L
skew, B commutes with L iff B L is skew.  Each certificate holds (the two
identity checks return True) or raises ``CertificateError`` with its reason.
"""
from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache, reduce
from itertools import chain, combinations, product
from math import gcd, lcm
from typing import Sequence

from . import dot, liealg, require
from .matrix import SqrtMatrix
from .scalar import MUL_TABLE, ZERO, SqrtField

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


class Octonion:
    """Element of the Cayley algebra on e_0 = 1, e_1, ..., e_7, stored as
    ``matrix`` stores a row: sum_r sqrt(r) N_r / d, int 8-vectors N_r over
    one int d > 0, in the canonical form of ``matrix``, so == is equality."""

    __slots__ = ("_g", "_d")

    def __init__(self, coords: Sequence):
        # ints and Fractions are read directly, and term() refuses the rest
        parts = [({1: c.numerator} if c else {}, c.denominator)
                 if isinstance(c, (int, F)) else
                 (c if isinstance(c, SqrtField) else SqrtField.term(c)).numerators()
                 for c in coords]
        if len(parts) != 8:
            raise ValueError(f"an octonion needs 8 coordinates, got {len(parts)}")
        self._d, self._g = lcm(*(d for _, d in parts)), {}
        for i, (c, d) in enumerate(parts):
            for r, n in c.items():
                self._g.setdefault(r, [0] * 8)[i] = n * (self._d // d)

    @property
    def coords(self) -> tuple[SqrtField, ...]:
        return tuple(SqrtField.over({r: v[i] for r, v in self._g.items()}, self._d)
                     for i in range(8))

    def __mul__(self, other: "Octonion") -> "Octonion":
        """Per grade pair, sqrt(r) sqrt(s) = g sqrt(t), the 64 unit products
        e_i e_j = sign e_k accumulate ints into N_t; one gcd reduces them."""
        acc: dict[int, list[int]] = {}
        table = product_table().items()
        for r, a in self._g.items():
            for s, b in other._g.items():
                g, t = MUL_TABLE[r, s]
                out = acc.get(t) or acc.setdefault(t, [0] * 8)
                for (i, j), (k, sign) in table:
                    if (x := a[i]) and (y := b[j]):
                        out[k] += sign * g * x * y
        f = gcd(d := self._d * other._d, *chain.from_iterable(acc.values()))
        prod = object.__new__(Octonion)
        prod._d, prod._g = d // f, {t: [n // f for n in v]
                                    for t, v in acc.items() if any(v)}
        return prod

    def norm2(self) -> SqrtField:
        acc: dict[int, int] = {}
        for (r, a), (s, b) in product(self._g.items(), repeat=2):
            g, t = MUL_TABLE[r, s]
            acc[t] = acc.get(t, 0) + g * dot(a, b)
        return SqrtField.over(acc, self._d * self._d)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Octonion):
            return NotImplemented
        return self._d == other._d and self._g == other._g

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
            rows[k - 1][c][a] = SqrtField.term(s)
    return tuple(map(SqrtMatrix, rows))


def clifford_volume() -> SqrtMatrix:
    """c_1 c_2 ... c_7 (rightmost factor applied first)."""
    return reduce(SqrtMatrix.__matmul__, unit_cliffords())


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
    return tensor_vector({(a, b): 1})


def tensor_vector(entries) -> list[SqrtField]:
    """The 64-vector sum of c e_a (x) e_b over the entries (a, b): c."""
    vec = [ZERO] * 64
    for (a, b), c in entries.items():
        vec[8 * a + b] = ZERO + c
    return vec


def operator_block(vectors: Sequence[Sequence[SqrtField]]) -> SqrtMatrix:
    """Matrix of the deformation operator on the span of the given
    orthonormal vectors; certifies that the span is exactly invariant."""
    v = SqrtMatrix(vectors).transpose()
    image = deformation_operator() @ v
    block = v.transpose() @ image
    require((image - v @ block).is_zero(), "span is not invariant")
    return block


@lru_cache(maxsize=None)
def trivial_component_block() -> SqrtMatrix:
    """2x2 block on the span of 1 (x) 1 and (1/sqrt7) sum e_i (x) e_i."""
    c = SqrtField.term(F(1, 7), 7)
    u2 = tensor_vector({(i, i): c for i in range(1, 8)})
    return operator_block((tensor_unit(0, 0), u2))


def standard_component_block() -> SqrtMatrix:
    """3x3 block on the three embeddings of the 7-dimensional component,
    evaluated at e_1: the vectors e_1 (x) 1, 1 (x) e_1 and
    (1/sqrt6) sum_{i>=2} e_i (x) (e_1 * e_i)."""
    c, table = SqrtField.term(F(1, 6), 6), product_table()
    v3 = tensor_vector({(i, table[1, i][0]): c * table[1, i][1] for i in range(2, 8)})
    return operator_block((tensor_unit(1, 0), tensor_unit(0, 1), v3))


# -- sample vectors of the two remaining component types -----------------------


def adjoint_sample_vector() -> list[SqrtField]:
    """A vector in the 14-dimensional component: e_1 ^ e_2 - e_5 ^ e_7.  As
    e_1 e_2 = e_5 e_7 = e_4 in the table, its cross-product part
    x (x) y -> im(x y) cancels."""
    return tensor_vector({(1, 2): 1, (2, 1): -1, (5, 7): -1, (7, 5): 1})


def traceless_sample_vectors() -> tuple[list[SqrtField], list[SqrtField]]:
    """Two vectors in the 27-dimensional component: a symmetrized pair and
    a traceless diagonal difference."""
    return tensor_vector({(1, 2): 1, (2, 1): 1}), tensor_vector({(1, 1): 1, (2, 2): -1})


def action_scalar(vec: Sequence[SqrtField]) -> SqrtField:
    """The scalar by which the deformation operator acts on the line
    through vec; certifies exact proportionality."""
    image = deformation_operator().apply(list(vec))
    pivot = next(k for k, c in enumerate(vec) if not c.is_zero())
    lam = image[pivot] / vec[pivot]
    require(all(a == b * lam for a, b in zip(image, vec)),
            "vector is not an eigenvector")
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
    a matrix b that their shift product annihilates, given sq = b @ b: b is
    diagonalizable, so the s_k = tr(b^k) (D/sqrt r)^k = sum_j m_j nu_j^k are
    rational, and m_j = sum_k p_jk s_k / prod_{i != j} (nu_j - nu_i), k = 0..4,
    with sum_k p_jk x^k = prod_{i != j} (x - nu_i) (Lagrange)."""
    nums = [lam.numerators() for lam in eigs]
    rads = {r for c, _ in nums for r in c}
    require(len(eigs) <= 5, "%d eigenvalues; tr(B^0..B^4) fix only five" % len(eigs))
    require(len(rads) <= 1, "eigenvalue radicands %s, not one" % sorted(rads))
    require(len(set(eigs)) == len(eigs), "the eigenvalues are not distinct")
    r, den = next(iter(rads), 1), lcm(*(d for _, d in nums))
    nus = [c.get(r, 0) * (den // d) for c, d in nums]
    traces = [t.numerators() for t in (SqrtField.term(b.nrows), b.trace(), sq.trace(),
                                       b.trace_product(sq), sq.trace_product(sq))]
    bad = [k for k, (c, _) in enumerate(traces) if set(c) - {r ** (k % 2)}]
    require(not bad, "tr(B^k) is not in Q*sqrt(%d)^k for k in %s" % (r, bad))
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
    require(shift_product(b0, sq, eigs).is_zero(),
            "the eigenvalue shifts do not multiply to zero")
    found = multiplicities(b0, sq, eigs)
    require(found == MULTIPLICITIES, "eigenvalue multiplicities are (%s), not %s"
            % (", ".join(map(str, found)), MULTIPLICITIES))
    return True


def commutes_with_lifted_isotropy() -> bool:
    """The deformation operator commutes with the lifted isotropy action
    on both tensor factors (exact matrix identity), by one product per
    lift once the operator's symmetry and the lift's skewness hold."""
    eye, b0 = SqrtMatrix.identity(8), deformation_operator()
    require(b0.is_symmetric(), "the deformation operator is not symmetric")
    for i in (7, 8, 9):
        a = tangent_bracket_spinor(i)
        lifted = a.tensor(eye) + eye.tensor(a)
        require(lifted.is_skew() and (b0 @ lifted).is_skew(), "isotropy lift %d is "
                "not skew or does not commute with the operator" % i)
    return True


# -- the operator family on the trivial component ------------------------------


def trivial_family_matrix(mu) -> SqrtMatrix:
    """The deformed odd signature operator family restricted to the trivial
    isotypic component: the undeformed reductive operator (1/(2 sqrt5))
    diag(7, -1) plus mu times the computed deformation block."""
    t = SqrtField.term
    base = SqrtMatrix([[t(F(7, 10), 5), ZERO], [ZERO, t(F(-1, 10), 5)]])
    return base + trivial_component_block().scale(mu)
