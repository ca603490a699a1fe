"""Exact representation arithmetic for the three rank <= 2 groups in play.

Each root system is realized by explicit rational vectors:

* ``A1``  -- ambient Q^1 with root (1), so the irreducible of spin k
  (any half-integer) has highest weight (k) and weights k, k-1, ..., -k.
* ``B2``  -- ambient Q^2 with simple roots (1,-1), (0,1).  Irreducibles
  are labelled by their highest weight (p, q), p >= q >= 0 with p - q
  and 2q integral; (1,0) is the 5-dimensional standard module, (1,1)
  the adjoint, (1/2, 1/2) the 4-dimensional spin module.
* ``G2``  -- ambient Q^3 restricted to the plane x + y + z = 0, with
  short simple root (1,-1,0) and long simple root (-1,2,-1).  Labels
  (a, b) mean a copies of the long fundamental weight (the adjoint
  direction) plus b copies of the short one (the 7-dimensional
  direction), so (0,1) is 7-dimensional and (1,0) is 14-dimensional.

Labels come in and weights go out as ambient vectors, and the ambient
``simple``, ``positive`` and ``rho`` define each system; ``eta`` and
``octonion`` read B2's, and ``eta`` owns the Weyl group W(B2) its sums
need.  Everything else runs on the integer weight lattice (``_lattice``,
read off the ambient roots once): a weight is its Dynkin labels <lam,
alpha_i^vee>, dominant when all are >= 0, a simple reflection subtracts
lam_i times row i of the Cartan matrix, and inner products use one
integer-scaled Gram matrix.  Weyl dimensions, Freudenthal multiplicities
and label integrality are exact integer divisions whose remainder
raises, and tensor products are an alternating-sign walk into the
dominant chamber.  Both branchings (the principal three-dimensional
subgroup of G2, the irreducible SO(3) in SO(5), which is B2's principal
one) are one principal branching: each weight goes to its doubled
principal level <lam, 2 rho^vee>, an integer functional on Dynkin labels
derived with the lattice ((6, 10) for G2, (4, 3) for B2), and the spin
strings are read off differences of the level counts.
"""
from collections import Counter, namedtuple
from fractions import Fraction as F
from functools import cached_property, lru_cache
from itertools import product
from math import lcm, prod
from operator import mul, sub
from typing import Callable, Sequence

from .scalar import CertificateError

Vector = tuple[F, ...]
Weight = tuple[int, ...]  # Dynkin labels


def _vec(*coords) -> Vector:
    return tuple(F(c) for c in coords)


def dot(u, v):
    """Inner product of two equal-length vectors, integral or rational."""
    return sum(map(mul, u, v))


def _combine(coeffs, vectors: Sequence[Vector]) -> Vector:
    return tuple(dot(coeffs, column) for column in zip(*vectors))


def format_label(label) -> str:
    """A label as printed: (1/2, 0) for a tuple, 1/4 for a spin."""
    return ("(%s)" % ", ".join(map(str, label)) if isinstance(label, tuple)
            else str(label))


def _closure(start, moves) -> set:
    """Everything reachable from ``start`` by repeated ``moves``."""
    seen, stack = set(start), list(start)
    while stack:
        for w in moves(stack.pop()):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


#: a root system's integer data, see ``RootSystem._lattice``
_Lattice = namedtuple("_Lattice",
                      "cartan positive rho2 gram gram_positive omega level")


class RootSystem:
    """A realized root system plus label conventions for its irreducibles."""

    def __init__(self, name: str, simple: Sequence[Vector], positive: Sequence[Vector],
                 to_ambient: Callable[..., Vector], from_ambient: Callable):
        self.name = name
        self.simple = tuple(simple)
        self.positive = tuple(positive)
        self.rho = tuple(sum(c) / 2 for c in zip(*self.positive))
        self._to_ambient = to_ambient
        self._from_ambient = from_ambient

    @cached_property
    def _lattice(self) -> _Lattice:
        """Integer data from the ambient roots: Cartan rows (the labels of
        each alpha_i), positive roots and 2 rho in labels, gram[i][j] =
        s (omega_i, omega_j) for one s > 0, gram times each positive root,
        the ambient fundamental weights omega_i, and the doubled principal
        level <omega_i, 2 rho^vee>: each simple root has level 1, so
        cartan times it is (2, ..., 2)."""
        cartan = tuple(self._labels(a) for a in self.simple)
        positive = tuple(self._labels(b) for b in self.positive)
        # alpha_i = sum_j cartan[i][j] omega_j, and the rank is at most 2
        if len(cartan) == 1:
            inverse = ((F(1, cartan[0][0]),),)
        else:
            (a, b), (c, d) = cartan
            det = a * d - b * c
            inverse = ((F(d, det), F(-b, det)), (F(-c, det), F(a, det)))
        omega = tuple(_combine(row, self.simple) for row in inverse)
        gram = [[dot(u, w) for w in omega] for u in omega]
        s = lcm(*(x.denominator for row in gram for x in row))
        gram = tuple(tuple(int(x * s) for x in row) for row in gram)
        level = [2 * sum(row) for row in inverse]
        if any(x.denominator != 1 for x in level):
            raise CertificateError("%s has a fractional principal level %s" % (
                self.name, format_label(tuple(level))))
        return _Lattice(cartan, positive, tuple(map(sum, zip(*positive))), gram,
                        tuple(tuple(dot(row, b) for row in gram)
                              for b in positive), omega, tuple(map(int, level)))

    def _labels(self, v: Vector, label=None) -> Weight:
        """Dynkin labels of an ambient weight, each an exact division;
        given a label, v is its highest weight and must be dominant."""
        qr = [divmod(2 * dot(v, a), dot(a, a)) for a in self.simple]
        for q, r in qr:
            if r or (label is not None and q < 0):
                raise ValueError("%s label %s is not %s" % (
                    self.name, format_label(v if label is None else label),
                    "dominant" if label is not None and q < 0 else "an integral weight"))
        return tuple(int(q) for q, _ in qr)

    def _weight(self, label) -> Weight:
        return self._labels(self._to_ambient(label), label)

    def _label(self, lam: Weight):  # the label of a Dynkin tuple, for messages
        return self._from_ambient(_combine(lam, self._lattice.omega))

    def _dominate(self, v: Weight) -> tuple[Weight, int, bool]:
        """Dynkin labels moved into the closed chamber: (image, sign of
        the Weyl element used, whether the image lies on a wall)."""
        cartan = self._lattice.cartan
        sign = 1
        while True:
            for c, row in zip(v, cartan):
                if c < 0:
                    v = tuple(x - c * y for x, y in zip(v, row))
                    sign = -sign
                    break
            else:
                return v, sign, 0 in v

    def weyl_dimension(self, label) -> int:
        return self._dim(self._weight(label))

    def _dim(self, lam: Weight) -> int:
        """prod <lam + rho, beta> / <rho, beta> over the positive roots."""
        rho2, gram_positive = self._lattice.rho2, self._lattice.gram_positive
        lam_rho2 = [2 * x + r for x, r in zip(lam, rho2)]
        num = prod(dot(lam_rho2, g) for g in gram_positive)
        den = prod(dot(rho2, g) for g in gram_positive)
        d, r = divmod(num, den)
        if r or d <= 0:
            raise CertificateError(
                "Weyl dimension of %s label %s is %s, not a positive integer"
                % (self.name, format_label(self._label(lam)), F(num, den)))
        return d

    def freudenthal(self, label) -> dict[Vector, int]:
        """Full weight multiset of the irreducible with this label."""
        return dict(sorted((_combine(v, self._lattice.omega), m)
                           for v, m in self._freudenthal(self._weight(label))))

    @lru_cache(maxsize=None)
    def _freudenthal(self, lam: Weight) -> tuple[tuple[Weight, int], ...]:
        cartan, positive, rho2, gram, gram_positive, *_ = self._lattice
        # the dominant weights below lam, by descent through dominant
        # weights mu - beta, beta a positive root (Stembridge 1998)
        dominants = _closure([lam], lambda mu: (
            nu for nu in (tuple(map(sub, mu, b)) for b in positive)
            if min(nu) >= 0))

        def norm(mu):  # 4 s |mu + rho|^2
            u = [2 * x + r for x, r in zip(mu, rho2)]
            return dot(u, [dot(row, u) for row in gram])

        bound = norm(lam)
        rho_gram = [dot(row, rho2) for row in gram]
        mult = {lam: 1}
        # increasing <lam - mu, rho>: every weight above mu comes first
        for mu in sorted(dominants - {lam},
                         key=lambda mu: dot(map(sub, lam, mu), rho_gram)):
            denom = bound - norm(mu)
            acc = 0  # s * sum of mult(nu) <nu, beta>, nu = mu + k beta
            for b, g in zip(positive, gram_positive):
                mb, bb = dot(mu, g), dot(b, g)
                ub = 2 * mb + dot(rho2, g)
                k = 1
                # norm(nu) = norm(mu) + 4k ub + 4k^2 bb stays <= bound
                while 4 * k * (ub + k * bb) <= denom:
                    nu = tuple(x + k * y for x, y in zip(mu, b))
                    acc += mult.get(self._dominate(nu)[0], 0) * (mb + k * bb)
                    k += 1
            m, r = divmod(8 * acc, denom)
            if r or m < 0:
                raise CertificateError(
                    "Freudenthal multiplicity %s of weight %r is not a "
                    "nonnegative integer" % (F(8 * acc, denom),
                                             _combine(mu, self._lattice.omega)))
            if m:
                mult[mu] = m
        full = {v: m for mu, m in mult.items() for v in _closure([mu], lambda u: (
            tuple(x - c * y for x, y in zip(u, row)) for c, row in zip(u, cartan)))}
        if sum(full.values()) != self._dim(lam):
            raise CertificateError(
                "Freudenthal multiplicities of %s label %s do not sum to its "
                "Weyl dimension" % (self.name, format_label(self._label(lam))))
        return tuple(full.items())

    def klimyk_tensor(self, a, b) -> list[tuple[object, int]]:
        """Decompose the tensor product of two labelled irreducibles."""
        lam_a, lam_b = self._weight(a), self._weight(b)
        if self._dim(lam_a) > self._dim(lam_b):
            a, b, lam_a, lam_b = b, a, lam_b, lam_a
        rho2, omega = self._lattice.rho2, self._lattice.omega
        # xi = 2 (lam_b + rho + mu): rho itself need not be integral
        shift = [2 * x + r for x, r in zip(lam_b, rho2)]
        out: Counter = Counter()
        for mu, m in self._freudenthal(lam_a):
            dom, sign, wall = self._dominate(
                tuple(s + 2 * x for s, x in zip(shift, mu)))
            if not wall:
                out[tuple((d - r) // 2 for d, r in zip(dom, rho2))] += sign * m
        result, total = [], 0
        # the summands in the order of their ambient highest weights
        for v, lam, m in sorted((_combine(lam, omega), lam, m)
                                for lam, m in out.items() if m):
            if m < 0:
                raise CertificateError(
                    "negative Klimyk multiplicity %d in %s %r x %r"
                    % (m, self.name, a, b))
            result.append((self._from_ambient(v), m))
            total += m * self._dim(lam)
        if total != self._dim(lam_a) * self._dim(lam_b):
            raise CertificateError(
                "Klimyk summands of %s %r x %r do not multiply the dimensions"
                % (self.name, a, b))
        return result


# -- the three systems ----------------------------------------------------

A1 = RootSystem("A1", [_vec(1)], [_vec(1)], lambda k: _vec(k), lambda v: v[0])

B2 = RootSystem("B2", [_vec(1, -1), _vec(0, 1)],
                [_vec(1, -1), _vec(0, 1), _vec(1, 0), _vec(1, 1)],
                lambda pq: _vec(*pq), lambda v: v)

G2 = RootSystem("G2", [_vec(1, -1, 0), _vec(-1, 2, -1)],
                [_vec(1, -1, 0), _vec(-1, 2, -1), _vec(0, 1, -1),
                 _vec(1, 0, -1), _vec(2, -1, -1), _vec(1, 1, -2)],
                lambda ab: _combine(ab, (_vec(1, 1, -2), _vec(1, 0, -1))),
                lambda v: (v[1], v[0] - v[1]))

def string_peel(levels: Counter) -> list[tuple[F, int]]:
    """Spin strings of a module from its weight counts n(t) at doubled
    integer levels t: the strings with top t >= 0 number n(t) - n(t + 2).
    The counts are computed, so asymmetric counts or a negative
    difference are a failed certificate."""
    strings = [(t, levels[t] - levels[t + 2])
               for t in range(max(levels, default=-1) + 1)]
    if any(m != levels[-t] for t, m in levels.items()) \
            or any(m < 0 for _, m in strings):
        raise CertificateError("level counts %r are not symmetric and "
                               "unimodal" % (dict(levels),))
    return [(F(t, 2), m) for t, m in strings if m]


def _branch(system: RootSystem, label) -> list[tuple[F, int]]:
    """Spin content under the principal three-dimensional subgroup: each
    weight lands at its doubled principal level, a doubled spin."""
    lam, level = system._weight(label), system._lattice.level
    levels: Counter = Counter()
    for v, m in system._freudenthal(lam):
        levels[dot(v, level)] += m
    peeled = string_peel(levels)
    if sum(m * (2 * k + 1) for k, m in peeled) != system._dim(lam):
        raise CertificateError("branching dimensions of %s label %s do not add "
                               "up" % (system.name, format_label(label)))
    return peeled


def branch_principal_sl2(label) -> list[tuple[F, int]]:
    """Spin content of a G2 irreducible under the principal subgroup."""
    return _branch(G2, label)


def branch_so5_to_so3(p, q) -> list[tuple[F, int]]:
    """Spin content of the (p, q) irreducible under the maximal SO(3),
    which is B2's principal three-dimensional subgroup."""
    return _branch(B2, (p, q))


# -- derived splittings used by the verification layer ---------------------

SPINOR_FACTOR_SPINS = (F(0), F(3))  # the 8-dimensional factor is spin 0 + spin 3


def spinor_square_two_ways() -> tuple[Counter, Counter]:
    """Spin content of the 64-dimensional tensor square, twice over.

    Once by Clebsch-Gordan on the spin-(0 + 3) factor squared, once by
    decomposing the square of (real + imaginary octonions) over G2 and
    branching every summand along the principal subgroup.  Agreement of
    the two Counters is the cross-check the verification layer runs.
    """
    direct: Counter = Counter()
    for j1, j2 in product(SPINOR_FACTOR_SPINS, repeat=2):
        for k, m in A1.klimyk_tensor(j1, j2):
            direct[k] += m

    via_g2: Counter = Counter()
    for a, b in product(((0, 0), (0, 1)), repeat=2):  # 1 + 7 octonions
        for piece, mult in G2.klimyk_tensor(a, b):
            for k, m in branch_principal_sl2(piece):
                via_g2[k] += mult * m
    return direct, via_g2


def imaginary_square_pieces() -> list[tuple[tuple[int, int], int]]:
    """G2 decomposition of the square of the 7-dimensional module."""
    return G2.klimyk_tensor((0, 1), (0, 1))


def disjoint_spin_content(labels=((0, 0), (0, 1), (1, 0), (0, 2))) -> bool:
    """Whether the listed G2 irreducibles share no principal spin."""
    spins = [k for label in labels for k, _ in branch_principal_sl2(label)]
    return len(spins) == len(set(spins))
