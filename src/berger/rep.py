"""Exact representation arithmetic for the three rank <= 2 groups in play.

Each root system is its Cartan matrix, row i the Dynkin labels
<alpha_i, alpha_j^vee> of the simple root alpha_i, plus one fixed map
from the labels its irreducibles are named by to Dynkin labels:

* ``A1``  -- [[2]]: the spin k (any half-integer) is (2k).
* ``B2``  -- [[2, -2], [-1, 2]], long simple root first: (p, q), with
  p >= q >= 0 and p - q and 2q integral, is (p - q, 2q); (1, 0) is the
  5-dimensional standard module, (1, 1) the adjoint, (1/2, 1/2) the
  4-dimensional spin module.
* ``G2``  -- [[2, -1], [-3, 2]], short simple root first: (a, b), a
  copies of the long fundamental weight (the adjoint direction) plus b
  of the short one (the 7-dimensional direction), is (b, a); (0, 1) is
  7-dimensional and (1, 0) is 14-dimensional.

A label is valid when its Dynkin labels are integers >= 0; tensor
summands go back to labels, in the order of the label, for G2 of
(a + b, a).  Everything else runs on the integer weight lattice that
``_lattice`` derives from the Cartan matrix: a weight is its Dynkin
labels, dominant when all are >= 0, and a simple reflection subtracts
lam_i times row i.  The positive roots are the simple roots' closure
under these reflections with simple-root coordinates >= 0, and inner
products use one integer Gram matrix from the symmetrized Cartan matrix;
a matrix not of finite type, whose closure would not end, is refused
first.  Weyl dimensions and Freudenthal multiplicities are exact integer
divisions whose remainder raises, and tensor products are an
alternating-sign walk into the dominant chamber.  Both branchings (the
principal three-dimensional subgroup of G2, the irreducible SO(3) in
SO(5), which is B2's principal one) are one principal branching: each
weight goes to its doubled principal level <lam, 2 rho^vee>, an integer
functional on Dynkin labels derived with the lattice ((6, 10) for G2,
(4, 3) for B2), and the spin strings are read off differences of the
level counts.  B2's ambient roots and rho are ``eta``'s.
"""
from collections import Counter, namedtuple
from fractions import Fraction as F
from functools import cached_property, lru_cache
from itertools import product
from math import prod
from operator import mul, sub
from typing import Callable, Sequence

from .scalar import CertificateError

Weight = tuple[int, ...]  # Dynkin labels


def dot(u, v):
    """Inner product of two equal-length vectors, integral or rational."""
    return sum(map(mul, u, v))


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
_Lattice = namedtuple("_Lattice", "positive rho2 gram gram_positive level")


class RootSystem:
    """A root system given by its Cartan matrix, plus the maps between the
    labels of its irreducibles and their Dynkin labels; ``order`` is the
    sort key of tensor summands' labels, the label itself if None."""

    def __init__(self, name: str, cartan: Sequence[Weight],
                 to_dynkin: Callable, to_label: Callable, order=None):
        self.name = name
        self.cartan = tuple(map(tuple, cartan))
        self._to_dynkin, self._to_label, self._order = to_dynkin, to_label, order

    @cached_property
    def _lattice(self) -> _Lattice:
        """Integer data from the Cartan matrix: positive roots and 2 rho in
        labels, gram[i][j] = s (omega_i, omega_j) for one s > 0, gram times
        each positive root, and the doubled principal level
        <omega_i, 2 rho^vee>: each simple root has level 1, so cartan
        times it is (2, ..., 2)."""
        cartan, n = self.cartan, len(self.cartan)
        # the rank is at most 2: cartan^-1 = adj / det, and d_i, a
        # multiple of (alpha_i, alpha_i), makes cartan[i][j] d_j symmetric
        if n == 1:
            det, adj, d = cartan[0][0], ((1,),), (1,)
        else:
            (a, b), (c, e) = cartan
            det, adj = a * e - b * c, ((e, -b), (-c, a))
            d = (abs(b) or 1, abs(c) or 1)
        # a positive definite symmetrization makes the reflection group
        # finite, and with it every closure below
        if det <= 0 or any(cartan[i][i] != 2
                           or cartan[i][j] * d[j] != cartan[j][i] * d[i]
                           for i, j in product(range(n), repeat=2)):
            raise CertificateError("%s Cartan matrix %r is not of finite type"
                                   % (self.name, cartan))
        level = [F(2 * sum(row), det) for row in adj]
        if any(x.denominator != 1 for x in level):
            raise CertificateError("%s has a fractional principal level %s" % (
                self.name, format_label(tuple(level))))
        # beta = sum_j c_j alpha_j has simple-root coordinates c = beta adj / det
        positive = tuple(sorted(b for b in _closure(cartan, self._reflections)
                                if min(dot(b, col) for col in zip(*adj)) >= 0))
        # (omega_i, omega_j) = d_i cartan^-1[j][i], up to the scale det
        gram = tuple(tuple(di * x for x in col) for di, col in zip(d, zip(*adj)))
        return _Lattice(positive, tuple(map(sum, zip(*positive))), gram,
                        tuple(tuple(dot(row, b) for row in gram)
                              for b in positive), tuple(map(int, level)))

    def _reflections(self, v: Weight):
        """The images of v under the simple reflections."""
        return (tuple(x - c * y for x, y in zip(v, row))
                for c, row in zip(v, self.cartan))

    def _weight(self, label) -> Weight:
        """The Dynkin labels of a label, which must be integers >= 0."""
        lam = self._to_dynkin(label)
        for c in lam:
            if c < 0 or c % 1:
                raise ValueError("%s label %s is not %s" % (
                    self.name, format_label(label),
                    "dominant" if c < 0 else "an integral weight"))
        return tuple(map(int, lam))

    def _dominate(self, v: Weight) -> tuple[Weight, int, bool]:
        """Dynkin labels moved into the closed chamber: (image, sign of
        the Weyl element used, whether the image lies on a wall)."""
        sign = 1
        while True:
            for c, row in zip(v, self.cartan):
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
                % (self.name, format_label(self._to_label(lam)), F(num, den)))
        return d

    def freudenthal(self, label) -> dict[Weight, int]:
        """Full weight multiset of the irreducible with this label, the
        weights as Dynkin labels."""
        return dict(sorted(self._freudenthal(self._weight(label))))

    @lru_cache(maxsize=None)
    def _freudenthal(self, lam: Weight) -> tuple[tuple[Weight, int], ...]:
        positive, rho2, gram, gram_positive, _ = self._lattice
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
                    "Freudenthal multiplicity %s of Dynkin weight %r is not a "
                    "nonnegative integer" % (F(8 * acc, denom), mu))
            if m:
                mult[mu] = m
        full = {v: m for mu, m in mult.items()
                for v in _closure([mu], self._reflections)}
        if sum(full.values()) != self._dim(lam):
            raise CertificateError(
                "Freudenthal multiplicities of %s label %s do not sum to its "
                "Weyl dimension" % (self.name, format_label(self._to_label(lam))))
        return tuple(full.items())

    def klimyk_tensor(self, a, b) -> list[tuple[object, int]]:
        """Decompose the tensor product of two labelled irreducibles."""
        lam_a, lam_b = self._weight(a), self._weight(b)
        if self._dim(lam_a) > self._dim(lam_b):
            a, b, lam_a, lam_b = b, a, lam_b, lam_a
        rho2 = self._lattice.rho2
        # xi = 2 (lam_b + rho + mu): rho itself need not be integral
        shift = [2 * x + r for x, r in zip(lam_b, rho2)]
        out: Counter = Counter()
        for mu, m in self._freudenthal(lam_a):
            dom, sign, wall = self._dominate(
                tuple(s + 2 * x for s, x in zip(shift, mu)))
            if not wall:
                out[tuple((d - r) // 2 for d, r in zip(dom, rho2))] += sign * m
        summands = {self._to_label(lam): (lam, m) for lam, m in out.items() if m}
        result, total = [], 0
        for label in sorted(summands, key=self._order):
            lam, m = summands[label]
            if m < 0:
                raise CertificateError(
                    "negative Klimyk multiplicity %d in %s %r x %r"
                    % (m, self.name, a, b))
            result.append((label, m))
            total += m * self._dim(lam)
        if total != self._dim(lam_a) * self._dim(lam_b):
            raise CertificateError(
                "Klimyk summands of %s %r x %r do not multiply the dimensions"
                % (self.name, a, b))
        return result


# -- the three systems ----------------------------------------------------

A1 = RootSystem("A1", [[2]], lambda k: (2 * k,), lambda lam: F(lam[0], 2))

B2 = RootSystem("B2", [[2, -2], [-1, 2]], lambda pq: (pq[0] - pq[1], 2 * pq[1]),
                lambda lam: (lam[0] + F(lam[1], 2), F(lam[1], 2)))

G2 = RootSystem("G2", [[2, -1], [-3, 2]], lambda ab: (ab[1], ab[0]),
                lambda lam: (F(lam[1]), F(lam[0])),
                order=lambda ab: (ab[0] + ab[1], ab[0]))

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
