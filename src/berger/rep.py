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

All weight bookkeeping is done with Fractions; dimensions, weight
multiplicities (Freudenthal), and tensor products (the alternating-sign
dominance walk) come out exact.  Each system builds its Weyl group once,
as (matrix, det) pairs in ``weyl_group``; orbits and the eta layer's
alternating sums read it.  The two branchings used downstream --
the principal three-dimensional subgroup of G2 and the irreducible
SO(3) inside SO(5) -- both work the same way: push every weight through
a level functional that is 1 on each simple-root direction, then peel
spin strings greedily from the top.
"""
from collections import Counter
from fractions import Fraction as F
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .scalar import CertificateError

Vector = tuple[F, ...]


def _vec(*coords) -> Vector:
    return tuple(F(c) for c in coords)


def _add(u: Vector, v: Vector) -> Vector:
    return tuple(a + b for a, b in zip(u, v))


def _sub(u: Vector, v: Vector) -> Vector:
    return tuple(a - b for a, b in zip(u, v))


def _scale(u: Vector, c) -> Vector:
    return tuple(a * c for a in u)


def _dot(u: Vector, v: Vector) -> F:
    return sum((a * b for a, b in zip(u, v)), F(0))


def act(m: Sequence[Vector], v: Vector) -> Vector:
    """Image of v under the matrix m (a tuple of rows)."""
    return tuple(_dot(row, v) for row in m)


def format_label(label) -> str:
    """A label as printed: (1/2, 0) for a tuple, 1/4 for a spin."""
    if isinstance(label, tuple):
        return "(%s)" % ", ".join(str(c) for c in label)
    return str(label)


class RootSystem:
    """A realized root system plus label conventions for its irreducibles."""

    def __init__(self, name: str, simple: Sequence[Vector],
                 positive: Sequence[Vector],
                 to_ambient: Callable[..., Vector],
                 from_ambient: Callable[[Vector], object]):
        self.name = name
        self.simple = tuple(simple)
        self.positive = tuple(positive)
        self.rho = _scale(_add_all(positive), F(1, 2))
        self._to_ambient = to_ambient
        self._from_ambient = from_ambient

    # -- basic geometry --------------------------------------------------

    def coroot_pairing(self, v: Vector, root: Vector) -> F:
        return 2 * _dot(v, root) / _dot(root, root)

    def reflect(self, v: Vector, root: Vector) -> Vector:
        return _sub(v, _scale(root, self.coroot_pairing(v, root)))

    @cached_property
    def weyl_group(self) -> tuple[tuple[tuple[Vector, ...], int], ...]:
        """The Weyl group as (matrix, det) pairs, by closure under the
        simple reflections; a matrix is a tuple of rows acting on vectors
        by :func:`act`, and each simple reflection flips the det."""
        n = len(self.rho)
        ident = tuple(tuple(F(int(i == j)) for j in range(n)) for i in range(n))
        group = {ident: 1}
        frontier = [ident]
        while frontier:
            nxt = []
            for m in frontier:
                for a in self.simple:
                    # reflections are symmetric, so the rows of m*s are
                    # the reflected rows of m
                    composed = tuple(self.reflect(row, a) for row in m)
                    if composed not in group:
                        group[composed] = -group[m]
                        nxt.append(composed)
            frontier = nxt
        return tuple(group.items())

    # -- labels ------------------------------------------------------------

    def highest_weight(self, label) -> Vector:
        """Ambient vector of a dominant label; rejects anything else."""
        v = self._to_ambient(label)
        for a in self.simple:
            p = self.coroot_pairing(v, a)
            if p < 0 or p.denominator != 1:
                raise ValueError("%s label %s is not %s" % (
                    self.name, format_label(label),
                    "dominant" if p < 0 else "an integral weight"))
        return v

    def label_of(self, v: Vector):
        return self._from_ambient(v)

    def make_dominant(self, v: Vector) -> tuple[Vector, int, bool]:
        """Weyl-translate into the closed chamber.

        Returns (dominant image, sign of the element used, wall flag);
        the wall flag is True when the image has a zero pairing, i.e.
        the orbit meets a chamber wall and the sign is not well defined.
        """
        sign = 1
        while True:
            for a in self.simple:
                if self.coroot_pairing(v, a) < 0:
                    v = self.reflect(v, a)
                    sign = -sign
                    break
            else:
                wall = any(self.coroot_pairing(v, a) == 0 for a in self.simple)
                return v, sign, wall

    def orbit(self, v: Vector) -> set[Vector]:
        return {act(m, v) for m, _ in self.weyl_group}

    # -- representation data -----------------------------------------------

    def weyl_dimension(self, label) -> int:
        lam = self.highest_weight(label)
        num = den = F(1)
        for b in self.positive:
            num *= _dot(_add(lam, self.rho), b)
            den *= _dot(self.rho, b)
        d = num / den
        if d.denominator != 1 or d <= 0:
            raise CertificateError("Weyl dimension of %s label %s is %s, not a "
                                   "positive integer"
                                   % (self.name, format_label(label), d))
        return int(d)

    def freudenthal(self, label) -> dict[Vector, int]:
        """Full weight multiset of the irreducible with this label."""
        return dict(self._freudenthal(self.highest_weight(label)))

    @lru_cache(maxsize=None)
    def _freudenthal(self, lam: Vector) -> tuple[tuple[Vector, int], ...]:
        rho = self.rho
        lam_rho = _add(lam, rho)
        bound = _dot(lam_rho, lam_rho)
        # the dominant weights below lam, by descent through dominant
        # weights mu - beta, beta a positive root (Stembridge 1998)
        dominants = {lam}
        stack = [lam]
        while stack:
            mu = stack.pop()
            for b in self.positive:
                nu = _sub(mu, b)
                if nu not in dominants and all(
                        self.coroot_pairing(nu, a) >= 0 for a in self.simple):
                    dominants.add(nu)
                    stack.append(nu)

        mult = {lam: 1}
        # increasing <lam - mu, rho>: every weight above mu comes first
        for mu in sorted(dominants - {lam},
                         key=lambda mu: _dot(_sub(lam, mu), rho)):
            acc = F(0)
            for b in self.positive:
                k = 1
                while True:
                    nu = _add(mu, _scale(b, k))
                    nu_rho = _add(nu, rho)
                    if _dot(nu_rho, nu_rho) > bound:
                        break
                    dom, _, _ = self.make_dominant(nu)
                    m = mult.get(dom, 0)
                    if m:
                        acc += m * _dot(nu, b)
                    k += 1
            mu_rho = _add(mu, rho)
            denom = bound - _dot(mu_rho, mu_rho)
            m = 2 * acc / denom
            if m.denominator != 1 or m < 0:
                raise CertificateError(
                    "Freudenthal multiplicity %s of weight %r is not a "
                    "nonnegative integer" % (m, mu))
            if m:
                mult[mu] = int(m)

        full: dict[Vector, int] = {}
        for mu, m in mult.items():
            for v in self.orbit(mu):
                full[v] = m
        if sum(full.values()) != self.weyl_dimension(self.label_of(lam)):
            raise CertificateError(
                "Freudenthal multiplicities of %s label %s do not sum to its "
                "Weyl dimension" % (self.name, format_label(self.label_of(lam))))
        return tuple(sorted(full.items()))

    def klimyk_tensor(self, a, b) -> list[tuple[object, int]]:
        """Decompose the tensor product of two labelled irreducibles."""
        if self.weyl_dimension(a) > self.weyl_dimension(b):
            a, b = b, a
        nu = self.highest_weight(b)
        out: Counter = Counter()
        for mu, m in self._freudenthal(self.highest_weight(a)):
            xi = _add(_add(nu, self.rho), mu)
            dom, sign, wall = self.make_dominant(xi)
            if wall:
                continue
            out[_sub(dom, self.rho)] += sign * m
        result = []
        total = 0
        for v in sorted(out):
            m = out[v]
            if m < 0:
                raise CertificateError(
                    "negative Klimyk multiplicity %d in %s %r x %r"
                    % (m, self.name, a, b))
            if m:
                label = self.label_of(v)
                result.append((label, m))
                total += m * self.weyl_dimension(label)
        if total != self.weyl_dimension(a) * self.weyl_dimension(b):
            raise CertificateError(
                "Klimyk summands of %s %r x %r do not multiply the dimensions"
                % (self.name, a, b))
        return result


def _add_all(vectors: Sequence[Vector]) -> Vector:
    total = vectors[0]
    for v in vectors[1:]:
        total = _add(total, v)
    return total


# -- the three systems ----------------------------------------------------

A1 = RootSystem(
    "A1",
    simple=[_vec(1)],
    positive=[_vec(1)],
    to_ambient=lambda k: _vec(k),
    from_ambient=lambda v: v[0],
)

B2 = RootSystem(
    "B2",
    simple=[_vec(1, -1), _vec(0, 1)],
    positive=[_vec(1, -1), _vec(0, 1), _vec(1, 0), _vec(1, 1)],
    to_ambient=lambda pq: _vec(*pq),
    from_ambient=lambda v: v,
)

_G2_LONG_FW = _vec(1, 1, -2)
_G2_SHORT_FW = _vec(1, 0, -1)

G2 = RootSystem(
    "G2",
    simple=[_vec(1, -1, 0), _vec(-1, 2, -1)],
    positive=[_vec(1, -1, 0), _vec(-1, 2, -1), _vec(0, 1, -1),
              _vec(1, 0, -1), _vec(2, -1, -1), _vec(1, 1, -2)],
    to_ambient=lambda ab: _add(_scale(_G2_LONG_FW, F(ab[0])),
                               _scale(_G2_SHORT_FW, F(ab[1]))),
    from_ambient=lambda v: (v[1], v[0] - v[1]),
)

#: level functional of G2's principal three-dimensional subgroup:
#: value 1 on both simple roots, so the 7-dimensional module lands on
#: the string 3, 2, ..., -3.
PRINCIPAL_LEVEL = _vec(F(4, 3), F(1, 3), F(-5, 3))

#: level functional of the irreducible SO(3) inside SO(5): a weight
#: (a, b) restricts to 2a + b.
SUBGROUP_LEVEL = _vec(2, 1)


def string_peel(levels: Counter) -> list[tuple[F, int]]:
    """Greedy decomposition of a level multiset into spin strings.

    Restriction multiplicities are symmetric and unimodal in the level,
    so repeatedly removing the string of the current top level is exact;
    a negative count on the way down means the input was not the level
    multiset of an actual module.
    """
    remaining = Counter({F(k): m for k, m in levels.items() if m})
    out: Counter = Counter()
    while remaining:
        top = max(remaining)
        if top < 0:
            raise ValueError("level multiset is not symmetric: %r" % (levels,))
        level = top
        while level >= -top:
            remaining[level] -= 1
            if remaining[level] < 0:
                raise ValueError(
                    "level multiset is not unimodal: %r" % (levels,))
            if remaining[level] == 0:
                del remaining[level]
            level -= 1
        out[top] += 1
    return sorted(out.items())


def _branch(system: RootSystem, label, functional: Vector) -> list[tuple[F, int]]:
    levels: Counter = Counter()
    for v, m in system.freudenthal(label).items():
        levels[_dot(v, functional)] += m
    peeled = string_peel(levels)
    if sum(m * (2 * k + 1) for k, m in peeled) != system.weyl_dimension(label):
        raise CertificateError("branching dimensions of %s label %s do not add "
                               "up" % (system.name, format_label(label)))
    return peeled


def branch_principal_sl2(label) -> list[tuple[F, int]]:
    """Spin content of a G2 irreducible under the principal subgroup."""
    return _branch(G2, label, PRINCIPAL_LEVEL)


def branch_so5_to_so3(p, q) -> list[tuple[F, int]]:
    """Spin content of the (p, q) irreducible under the maximal SO(3)."""
    return _branch(B2, (p, q), SUBGROUP_LEVEL)


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
    for j1 in SPINOR_FACTOR_SPINS:
        for j2 in SPINOR_FACTOR_SPINS:
            for k, m in A1.klimyk_tensor(j1, j2):
                direct[k] += m

    via_g2: Counter = Counter()
    octonion_summands = ((0, 0), (0, 1))
    for a in octonion_summands:
        for b in octonion_summands:
            for piece, mult in G2.klimyk_tensor(a, b):
                for k, m in branch_principal_sl2(piece):
                    via_g2[k] += mult * m
    return direct, via_g2


def imaginary_square_pieces() -> list[tuple[tuple[int, int], int]]:
    """G2 decomposition of the square of the 7-dimensional module."""
    return G2.klimyk_tensor((0, 1), (0, 1))


def disjoint_spin_content(labels=((0, 0), (0, 1), (1, 0), (0, 2))) -> bool:
    """Whether the listed G2 irreducibles share no principal spin."""
    seen: set[F] = set()
    for label in labels:
        spins = {k for k, _ in branch_principal_sl2(label)}
        if spins & seen:
            return False
        seen |= spins
    return True
