"""Spectral-asymmetry local terms for the twisted Dirac operators.

The eta defect of each relevant operator is one alternating sum over the
Weyl group W(B2) of SO(5).  For a generic direction X in the Cartan
algebra, every group element w contributes

    sign(w) / (2 sinh(d(wX) t / 2))  *  (bulk(wX, t) - boundary(wX, t)),

d the weight cutting out the singular ray, the bulk factor one
z/(2 sinh(z/2)) per positive root times an exponential of the operator's
boundary weight shifted off the ray, the boundary factor the same product
restricted to the subgroup ray.  The sum is divided by the positive-root
sinh product at X itself and doubled.  B2's data in Cartan coordinates
(``POSITIVE_ROOTS``, ``DELTA``, ``IOTA``, ``RHO``, ``WEYL_GROUP``) lives here.

A-hat is even and W permutes the roots up to sign, so the root product
R(t) is the same at every wX: one exponential of power sums,
``series.ahat_product``.  The boundary at wX is E(u) = exp(<beta, iota> u)
R_iota(u) at u = c t, c iota the projection of wX on the ray.  -1 is in
W(B2) with det +1 and flips delta = d(wX), a = <shift, wX> and c, so the
pair {w, -w} adds sign(w) [A-hat(delta t) R(t) (e^(at) - e^(-at)) -
(E(ct) - E(-ct))] / (delta t).  Weighted sign(w)/delta, the bulk terms are
one ``LaurentSeries.dot`` times R(t) once; R_iota is even, so the boundary
terms are one rescale of R_iota(u) times the odd part of E's exponential.
Each e^(at) - e^(-at) is the rescale O(a t) of O(t) = e^t - e^-t, and O and
R_iota are built once per order.  The pairs' common 1/t, the root poles
1/(<b, X> t) and the factor 2 are one reciprocal of c t^5 per sum.

Each call validates its direction on its exact type (ints stay ints, each
division a ``Fraction``) and reads the pairs off ``WEYL_GROUP``: a group
without some -w of the sign of w raises ``CertificateError``.  The poles of
order five at t = 0 cancel (checked, not assumed); the t^0 coefficient is
the rational defect, independent of the generic direction and stable
above the pole depth.
"""
from fractions import Fraction
from functools import lru_cache, reduce
from operator import mul

from . import CertificateError, dot
from .series import DEFAULT_ORDER, LaurentSeries, ahat_product, ahat_series

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
DELTA = (1, -2)

#: iota_12 as a Cartan vector, spanning s
IOTA = (2, 1)

#: half of iota_12* = (2 e12* + e34*)/5, as a functional on t
RHO_H = (Fraction(1, 5), Fraction(1, 10))

#: the positive roots of B2 in these coordinates, and their half sum rho
POSITIVE_ROOTS = ((1, -1), (0, 1), (1, 0), (1, 1))
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
    return scale(IOTA, Fraction(dot(IOTA, x), dot(IOTA, IOTA)))


def determine_alpha(k: int) -> tuple[Fraction, Fraction]:
    """The unique spinorial weight (half-integer coordinates) restricting
    to kappa_k + rho_h on s in the window 0 <= alpha(E) < delta(E): the
    restrictions form the line (1/2, k - 1/2) + t delta, the window picks t."""
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
        super().__init__("polar part survives the alternating sum: %s" % (polar,))


def validate_direction(direction) -> tuple:
    """X = ``direction``, ints where integral, once no sinh factor along it
    degenerates: beta(X) != 0 for every positive root beta and d(wX) != 0
    for every Weyl image of X; its coordinates must be ints or Fractions."""
    return _validated(direction)[0]


def _validated(direction):
    """X, each pair's kept (sign(w), wX, d(wX)) and the root values <b, X>."""
    u, v = direction
    if not (isinstance(u, (int, Fraction)) and isinstance(v, (int, Fraction))):
        raise ValueError("direction needs rational coordinates: %r" % (direction,))
    x = tuple(c.numerator if c.denominator == 1 else c for c in (u, v))
    roots = tuple(dot(b, x) for b in POSITIVE_ROOTS)
    if 0 in roots:
        raise ValueError("direction lies on a root hyperplane: %r" % (direction,))
    signs, kept = dict(WEYL_GROUP), []
    for w, sign in WEYL_GROUP:  # -w pairs with w, see the module docstring
        neg = tuple(tuple(-a for a in row) for row in w)
        if signs.get(neg) != sign:
            raise CertificateError("Weyl element %r of sign %d has no negative "
                                   "of that sign" % (w, sign))
        if w > neg:
            y = tuple(dot(row, x) for row in w)
            kept.append((sign, y, dot(DELTA, y)))
    if any(dy == 0 for _, _, dy in kept):  # d(-wX) = -d(wX): all eight checked
        raise ValueError(
            "direction degenerates the singular-ray factor: %r" % (direction,))
    return x, tuple(kept), roots


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
    """The full alternating sum as a Laurent series in t, memoized on the
    direction's Weyl data.  With ``signed=False`` the Weyl signs are dropped
    and the poles survive: the negative control of the cancellation check."""
    if order <= POLE_DEPTH:
        raise ValueError("truncation order %d does not exceed the pole depth %d"
                         % (order, POLE_DEPTH))
    return _weyl_sum(k, *_validated(direction)[1:], order, signed)


@lru_cache(maxsize=None)
def _boundary_roots(order: int) -> LaurentSeries:
    """prod_b A-hat(<b, iota> u), shared by every sum at one order."""
    return ahat_product((dot(b, IOTA) for b in POSITIVE_ROOTS), order)


@lru_cache(maxsize=None)
def _odd_exp(order: int) -> LaurentSeries:
    """O(t) = e^t - e^-t: every e^(at) - e^(-at) at one order is O(a t)."""
    return LaurentSeries.monomial(1, 1, order).exp().odd_difference()


@lru_cache(maxsize=None)  # twice the shift (half-integral) as ints, and <beta, iota>
def _twist(k: int):
    return tuple(int(2 * a) for a in bulk_shift(k)), dot(boundary_weight(k), IOTA)


@lru_cache(maxsize=64)  # bounded: a direction sweep would grow it for good
def _weyl_sum(k: int, kept, roots, order: int, signed: bool) -> LaurentSeries:
    (shift, edge_weight), odd = _twist(k), _odd_exp(order)
    # E(u) - E(-u), built once per sum, see the module docstring
    edge = odd.rescale((1, edge_weight)) * _boundary_roots(order)
    bulk, boundary = [], []
    for sign, y, dy in kept:
        pole = Fraction(sign if signed else 1, dy)
        wave = odd.rescale((1, Fraction(dot(shift, y), 2)))
        bulk.append((pole, ahat_series(dy, order), wave))
        boundary.append((-pole, restrict_to_s(y)[1]))
    # 2 / (prod_b <b, X>) t^-5, see the module docstring, on [-5, order - 6]
    poles = LaurentSeries.monomial(Fraction(reduce(mul, roots), 2),
                                   POLE_DEPTH, order + POLE_DEPTH - 1).reciprocal()
    rt = ahat_product(roots, order)  # R(t), see the module docstring
    return (rt * LaurentSeries.dot(bulk) + edge.rescale(*boundary)) * poles


def local_term(k: int, direction=DEFAULT_DIRECTION,
               order: int = DEFAULT_ORDER) -> Fraction:
    """Constant coefficient of the alternating sum for twist ``k``; raises
    :class:`PoleCancellationError` if any polar coefficient survives, so a
    silent truncation artefact cannot masquerade as an answer."""
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
