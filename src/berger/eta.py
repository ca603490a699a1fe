"""Spectral-asymmetry local terms for the twisted Dirac operators.

The eta defect of each relevant operator is computed from a single
alternating sum over the Weyl group W(B2) of SO(5).  For a generic
direction X in the Cartan algebra, every group element w contributes

    sign(w) / (2 sinh(d(wX) t / 2))  *  (bulk(wX, t) - boundary(wX, t)),

where d is the weight cutting out the singular ray, the bulk factor
collects one z/(2 sinh(z/2)) per positive root together with an
exponential carrying the operator's boundary weight shifted off the
ray, and the boundary factor is the same product restricted to the
subgroup ray.  The alternating sum is then divided by the positive-root
sinh product at X itself and doubled.

This module owns B2's data in the Cartan coordinates: ``POSITIVE_ROOTS``,
their half sum ``RHO``, and W(B2) as ``WEYL_GROUP``, the eight signed
permutations with their determinants.  The sum is exact, so the order of
the group elements does not matter.  The rational 2-vector helpers
``dot`` (``rep``'s one inner product), ``add`` and ``scale``
serve this module and ``octonion``'s Casimir values.

Two factors are the same for every w and are built once per sum.  A-hat
is even and W permutes the roots up to sign, so the root product at wX
equals the one at X.  The boundary lives on the ray R iota: at wX it is
one series E(u) = exp(<beta, iota> u) prod_b A-hat(<b, iota> u), taken
at u = c t with c iota the projection of wX.

Each summand has a pole of order five at t = 0; the poles cancel in the
alternating sum (this is checked, not assumed), and the t^0 coefficient
of what remains is the rational defect.  The result is independent of
the choice of generic direction and stable once the truncation order
exceeds the pole depth; both facts are exercised by the tests rather
than relied on silently.
"""
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from .rep import dot
from .series import DEFAULT_ORDER, LaurentSeries, ahat_series

DEFAULT_DIRECTION = (5, 1)

#: boundary-weight labels accepted by the sum: 0 marks the untwisted
#: (Dirac) defect, 3 the top twist entering the signature defect.
VALID_TERMS = (0, 3)

#: order of the pole of every summand at t = 0; a truncation order must
#: exceed it for the constant coefficient to be known.
POLE_DEPTH = 5

# Weights are pairs (a, b), the functional a e12* + b e34* on the Cartan
# subalgebra t = span{e12, e34}; Cartan vectors (x, y) mean x e12 + y e34.
# The embedded so(3) meets t in the line s through iota_12 = 2 e12 + e34.

#: the weight (1, -2) annihilating s; the same pair is the direction
#: E = e12 - 2 e34 complementary to s, unnormalized (which never affects
#: a sign or a window test).
DELTA = (Fraction(1), Fraction(-2))

#: iota_12 as a Cartan vector, spanning s
IOTA = (Fraction(2), Fraction(1))

#: half of iota_12* = (2 e12* + e34*)/5, as a functional on t
RHO_H = (Fraction(1, 5), Fraction(1, 10))

#: the positive roots of B2 in these coordinates, and their half sum rho
POSITIVE_ROOTS = tuple((Fraction(a), Fraction(b))
                       for a, b in ((1, -1), (0, 1), (1, 0), (1, 1)))
RHO = (Fraction(3, 2), Fraction(1, 2))

#: W(B2) as (matrix, det) pairs, a matrix a tuple of rows: the eight
#: signed permutations (x, y) -> (s x, t y) and (s y, t x)
WEYL_GROUP = tuple(w for s in (1, -1) for t in (1, -1) for w in (
    (((s, 0), (0, t)), s * t), (((0, s), (t, 0)), -s * t)))


def add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def scale(u, c):
    return tuple(a * c for a in u)


def kappa_weight(k: int) -> tuple[Fraction, Fraction]:
    """Highest weight of the (2k+1)-dimensional representation of the
    embedded so(3), written as a functional on t via iota_12*."""
    return (Fraction(2 * k, 5), Fraction(k, 5))


def restrict_to_s(x) -> tuple[Fraction, Fraction]:
    """Orthogonal projection c iota of a Cartan vector onto s."""
    return scale(IOTA, dot(IOTA, x) / dot(IOTA, IOTA))


def determine_alpha(k: int) -> tuple[Fraction, Fraction]:
    """The unique spinorial weight (half-integer coordinates) restricting
    to kappa_k + rho_h on s and landing in the half-open fundamental
    window 0 <= alpha(E) < delta(E).

    The solutions of the restriction condition form the affine line
    base + t*delta with base = (1/2, k - 1/2); the window picks one t.
    """
    if k not in VALID_TERMS:
        raise ValueError("unsupported twist label: %r" % (k,))
    base = (Fraction(1, 2), Fraction(k) - Fraction(1, 2))
    step = dot(DELTA, DELTA)
    alpha = add(base, scale(DELTA, -(dot(base, DELTA) // step)))
    if not 0 <= dot(alpha, DELTA) < step:
        raise ArithmeticError("weight %r misses the fundamental window" % (alpha,))
    return alpha


class PoleCancellationError(ArithmeticError):
    """Raised when the alternating sum fails to kill the sinh poles."""

    def __init__(self, polar: dict[int, Fraction]):
        self.polar = polar
        super().__init__(
            "polar part survives the alternating sum: %s" % (polar,))


def validate_direction(direction) -> tuple[Fraction, Fraction]:
    """Check that no sinh factor degenerates along ``direction``.

    The sum needs beta(X) != 0 for every positive root beta and
    d(wX) != 0 for every Weyl image of X; either failure would place a
    zero-divisor inside a reciprocal.
    """
    u, v = direction
    x = (Fraction(u), Fraction(v))
    if any(dot(b, x) == 0 for b in POSITIVE_ROOTS):
        raise ValueError("direction lies on a root hyperplane: %r" % (direction,))
    for w, _ in WEYL_GROUP:
        if dot(DELTA, tuple(dot(row, x) for row in w)) == 0:
            raise ValueError(
                "direction degenerates the singular-ray factor: %r" % (direction,))
    return x


def boundary_weight(k: int) -> tuple[Fraction, Fraction]:
    """Weight carried by the boundary exponential for twist label ``k``."""
    if k not in VALID_TERMS:
        raise ValueError("unsupported twist label: %r" % (k,))
    return add(kappa_weight(k), RHO_H)


def bulk_shift(k: int) -> tuple[Fraction, Fraction]:
    """Weight carried by the bulk exponential: the half-spin weight on
    the twist-``k`` line, shifted off the singular ray by -d/2."""
    return add(determine_alpha(k), scale(DELTA, Fraction(-1, 2)))


def weyl_sum(k: int, direction=DEFAULT_DIRECTION, order: int = DEFAULT_ORDER,
             signed: bool = True) -> LaurentSeries:
    """The full alternating sum as a Laurent series in t.

    With ``signed=False`` the Weyl signs are dropped; the poles then
    survive, which the tests use as a negative control on the
    cancellation check.  Sums are memoized on the validated direction.
    """
    if order <= POLE_DEPTH:
        raise ValueError("truncation order %d does not exceed the pole depth %d"
                         % (order, POLE_DEPTH))
    return _weyl_sum(k, validate_direction(direction), order, signed)


def _ahat_product(y, order: int) -> LaurentSeries:
    """The product over the positive roots b of A-hat(<b, y> t)."""
    return reduce(mul, (ahat_series(dot(b, y), order) for b in POSITIVE_ROOTS))


@lru_cache(maxsize=64)  # bounded: a direction sweep would grow it for good
def _weyl_sum(k: int, x0: tuple[Fraction, Fraction], order: int,
              signed: bool) -> LaurentSeries:
    shift = bulk_shift(k)
    # built once, see the module docstring: A-hat is even and W permutes
    # +-roots; at wX the boundary is E(c t), restrict_to_s(wX) = (2c, c)
    roots = _ahat_product(x0, order)
    edge = LaurentSeries.monomial(dot(boundary_weight(k), IOTA), 1, order).exp() \
        * _ahat_product(IOTA, order)

    total = LaurentSeries.zero(order)
    for w, sign in WEYL_GROUP:
        y = tuple(dot(row, x0) for row in w)
        dy = dot(DELTA, y)
        bulk = ahat_series(dy, order) * roots \
            * LaurentSeries.monomial(dot(shift, y), 1, order).exp()
        boundary = edge.rescale(restrict_to_s(y)[1])
        contrib = LaurentSeries.monomial(dy, 1, order).reciprocal() \
            * (bulk - boundary)
        total = total + (contrib.scale(sign) if signed else contrib)
    for b in POSITIVE_ROOTS:
        total = total * LaurentSeries.monomial(dot(b, x0), 1, order).reciprocal()
    return total.scale(2)


def local_term(k: int, direction=DEFAULT_DIRECTION,
               order: int = DEFAULT_ORDER) -> Fraction:
    """Constant coefficient of the alternating sum for twist ``k``.

    Raises :class:`PoleCancellationError` if any polar coefficient
    survives, so a silent truncation artefact cannot masquerade as an
    answer.
    """
    series = weyl_sum(k, direction, order)
    polar = series.polar_coefficients()
    if polar:
        raise PoleCancellationError(polar)
    return series.coefficient(0)


def eta_dirac(direction=DEFAULT_DIRECTION, order: int = DEFAULT_ORDER) -> Fraction:
    """Eta defect of the untwisted Dirac operator (no harmonic spinors)."""
    return local_term(0, direction, order)


def eta_signature(direction=DEFAULT_DIRECTION,
                  order: int = DEFAULT_ORDER) -> Fraction:
    """Eta defect of the odd signature operator.

    One copy of the constant function survives on the boundary side, so
    the defect is 1 plus the two twisted local terms.
    """
    return 1 + local_term(0, direction, order) + local_term(3, direction, order)
