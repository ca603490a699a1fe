"""Invariant alternating forms on the 7-dimensional tangent space, the
first Pontryagin form of the canonical connection, its invariant primitive,
and the secondary characteristic integral.

An ``AltForm`` of degree k stores ``SqrtField`` coefficients on the dual
orthonormal basis e^1, ..., e^7, keyed by ascending 0-based index tuples,
and one power of pi for all of them, so no sum mixes powers: pi^0 for phi,
psi and the volume form, pi^-2 for the Pontryagin form and its primitive,
and the volume's pi^4 cancels them in the rational secondary integral.
phi(x, y, z) = <xy, z> is read off the octonion product table, psi = *phi
is its Hodge dual; both have unit coefficients, and phi ^ psi is 7 vol.

The exterior differential of an invariant form reduces to a sum over
brackets; its global sign is configurable (``d_sign``) because both sign
conventions appear in the literature.  It and the H-invariance test scatter
each nonzero coefficient to the keys it reaches, one ``SqrtField.dot`` per
key.  The shipped default ``d_sign=+1`` alone puts ek on its lattice
(1/2240) Z, as ``secondary-sign-sweep`` checks.
"""
from __future__ import annotations

from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from . import CertificateError, liealg, octonion, require
from .matrix import SqrtMatrix
from .scalar import ZERO, PiScalar, SqrtField

#: shipped sign convention of the invariant exterior differential
DEFAULT_D_SIGN = 1

N = 7  # dimension of the tangent space


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Ascending tuple and permutation sign (the parity of the inversions);
    a repeated index gives sign 0."""
    key = tuple(sorted(indices))
    if len(set(key)) < len(key):
        return key, 0
    return key, (-1) ** sum(a > b for a, b in combinations(indices, 2))


class AltForm:
    """Alternating k-form: exact SqrtField coefficients, all times pi^self.pi."""

    __slots__ = ("degree", "coeffs", "pi")

    def __init__(self, degree: int, coeffs: Mapping | None = None, pi: int = 0):
        if not 0 <= degree <= N:
            raise ValueError(f"degree {degree!r} outside 0..{N}")
        clean: dict[tuple[int, ...], SqrtField] = {}
        if coeffs:
            for key, c in coeffs.items():
                key = tuple(key)
                if len(key) != degree or not all(0 <= i < N for i in key):
                    raise ValueError(f"key {key} is not {degree} indices in 0..{N - 1}")
                if not all(a < b for a, b in zip(key, key[1:])):
                    raise ValueError(f"key {key} not ascending")
                c = SqrtField._coerce(c)
                if c is None:
                    raise TypeError(f"coefficient of {key} is not a scalar")
                if c:
                    clean[key] = c
        self.degree, self.coeffs, self.pi = degree, clean, pi if clean else 0

    # -- linear structure ---------------------------------------------------

    def scale(self, c: PiScalar) -> "AltForm":
        return AltForm(self.degree, {k: v * c.c for k, v in self.coeffs.items()},
                       self.pi + c.k)

    def wedge(self, other: "AltForm") -> "AltForm":
        deg = self.degree + other.degree
        if deg > N:
            raise ValueError(f"wedge of degrees {self.degree} and "
                             f"{other.degree} exceeds {N}")
        acc: dict[tuple[int, ...], SqrtField] = {}
        for ka, va in self.coeffs.items():
            sa = set(ka)
            for kb, vb in other.coeffs.items():
                if sa & set(kb):
                    continue
                key, sign = _sort_with_sign(ka + kb)
                term = va * vb
                acc[key] = acc.get(key, ZERO) + (term if sign == 1 else -term)
        return AltForm(deg, acc, self.pi + other.pi)

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AltForm):
            return NotImplemented
        return (self.degree == other.degree and self.pi == other.pi
                and self.coeffs == other.coeffs)

    def proportionality(self, other: "AltForm") -> PiScalar | None:
        """The scalar c with self = c * other, or None if there is none."""
        if self.degree != other.degree:
            return None
        if other.is_zero():
            return PiScalar() if self.is_zero() else None
        key, base = next(iter(other.coeffs.items()))
        mine = self.coeffs.get(key)
        if mine is None:
            return None
        c = PiScalar.of(mine / base, self.pi - other.pi)
        return c if self == other.scale(c) else None

    def __repr__(self) -> str:
        return f"AltForm({self.degree}, {self.coeffs!r}, pi={self.pi})"


# -- the distinguished invariant forms --------------------------------------


@lru_cache(maxsize=None)
def g2_three_form() -> AltForm:
    """phi(x, y, z) = <xy, z>: e_a e_b = s e_c with 0 < a < b < c in the
    octonion table gives the term s e^{a-1} ^ e^{b-1} ^ e^{c-1}."""
    return AltForm(3, {(a - 1, b - 1, c - 1): s
                       for (a, b), (c, s) in octonion.product_table().items()
                       if 0 < a < b < c})


@lru_cache(maxsize=None)
def g2_four_form() -> AltForm:
    """psi = *phi, the Hodge dual: e^I goes to sign(I, I^c) e^{I^c}."""
    acc = {}
    for key, c in g2_three_form().coeffs.items():
        rest = tuple(i for i in range(N) if i not in key)
        acc[rest] = c * _sort_with_sign(key + rest)[1]
    return AltForm(4, acc)


def volume_form() -> AltForm:
    return AltForm(7, {tuple(range(7)): 1})


# -- curvature and the Pontryagin form ---------------------------------------


@lru_cache(maxsize=None)
def curvature(i: int, j: int) -> SqrtMatrix:
    """Curvature operator of the canonical connection on basis vectors:
    R(e_i, e_j) = -isotropy action of the h-component of [e_i, e_j].
    By invariance <[e_i, e_j], f_m> = -<[f_m, e_j], e_i>, so the
    coefficient of the m-th generator is c[7+m][j][i]."""
    c = liealg.structure_constants()
    total = SqrtMatrix.zeros(N)
    for m in range(3):
        coeff = c[7 + m][j][i]
        if not coeff.is_zero():
            total = total + liealg.isotropy_generator(m).scale(coeff)
    return total


@lru_cache(maxsize=None)
def pontryagin_form() -> AltForm:
    """First Pontryagin form of the canonical connection, as an invariant
    4-form; normalized with the -1/(8 pi^2) convention on tr(R^2)."""
    acc: dict[tuple[int, ...], SqrtField] = {}
    for key in combinations(range(7), 4):
        a, b, c, d = key
        val = (curvature(a, b).trace_product(curvature(c, d))
               - curvature(a, c).trace_product(curvature(b, d))
               + curvature(a, d).trace_product(curvature(b, c)))
        if not val.is_zero():
            acc[key] = val * F(-1, 4)
    return AltForm(4, acc, -2)


# -- invariant exterior differential and H-invariance ----------------------


def invariant_d(form: AltForm, d_sign: int = DEFAULT_D_SIGN) -> AltForm:
    """Exterior differential of an invariant form on the quotient:
    (da)(v_0..v_k) = s * sum_{i<j} (-1)^{i+j} a([v_i, v_j]_p, ..rest..),
    scattered: a_K sends s c[p][q][m] a_K, m in K, to K - {m} + {p, q}."""
    if d_sign not in (1, -1):
        raise ValueError(f"d_sign must be 1 or -1, got {d_sign!r}")
    c = liealg.structure_constants()
    # each m's pairs p < q with c[p][q][m] != 0, and (s c, -s c); a 7-form's d is 0
    return AltForm(min(form.degree + 1, N), _scatter(form, [
        [((p, q), (x, -x)[::d_sign]) for p, q in combinations(range(N), 2)
         if (x := c[p][q][m])] for m in range(N)]), form.pi)


def is_h_invariant(form: AltForm) -> bool:
    """True when every isotropy generator X annihilates the form: (X a)(e_L) =
    sum_s a(.., X e_{L[s]}, ..), scattered: a_K sends X[m, j] a_K to K - {m} + {j}."""
    def rows(iso):  # each row's nonzero entries (j, (x, -x))
        return [[((j,), (x, -x)) for j in range(N) if (x := iso[i, j])] for i in range(N)]
    return not any(_scatter(form, rows(liealg.isotropy_generator(m))) for m in range(3))


def _scatter(form: AltForm, moves: Sequence) -> dict:
    """The nonzero sums per key of the terms that each nonzero a_K sends
    through its t-th index m: for each (new, (x, -x)) in moves[m], new
    ascending and outside rest = K - {m}, (-1)^(t + the positions of new in
    rest + new) x a_K to the key rest + new.  Each sum is one dot."""
    acc: dict[tuple[int, ...], list] = {}
    for key, a in form.coeffs.items():
        for t, m in enumerate(key):
            rest = key[:t] + key[t + 1:]
            for new, xs in moves[m]:
                if not any(n in rest for n in new):
                    # the positions of new in rest + new: the r below each, plus 0, 1
                    at = sum(r < n for n in new for r in rest) + len(new) // 2
                    acc.setdefault(tuple(sorted(rest + new)), []).append(
                        (a, xs[(t + at) % 2]))
    return {key: total for key in sorted(acc) if (total := SqrtField.dot(acc[key]))}


def solve_primitive(p: AltForm, d_sign: int = DEFAULT_D_SIGN) -> AltForm:
    """Invariant primitive h of a 4-form proportional to the invariant
    4-form: h is the multiple of the invariant 3-form with d h = p."""
    if p.degree != 4:
        raise ValueError(f"primitive needs a 4-form, got degree {p.degree}")
    lam3 = g2_three_form()
    dlam3 = invariant_d(lam3, d_sign)
    ratio = p.proportionality(dlam3)
    require(ratio is not None, "form is not in the image of the invariant "
            "differential on the line of invariant 3-forms")
    h = lam3.scale(ratio)
    require(invariant_d(h, d_sign) == p, "d h == p fails for the invariant primitive")
    return h


# -- volumes and integration ---------------------------------------------------


def vol_so3() -> PiScalar:
    """Volume of SO(3) with the bi-invariant metric from <A,B> = -tr(AB)/2."""
    return PiScalar.of(8, 2)


def vol_so5() -> PiScalar:
    """Volume of SO(5) with the same normalization."""
    return PiScalar.of(F(128, 3), 6)


def vol_h() -> PiScalar:
    """Volume of the embedded so(3) subgroup: the irreducible embedding
    scales lengths by sqrt5, so this is 5^(3/2) times vol(SO(3))."""
    return vol_so3() * PiScalar.of(SqrtField.term(5, 5))


def vol_m() -> PiScalar:
    """Volume of the quotient: vol(SO(5)) / vol(H)."""
    return vol_so5() * vol_h().inverse()


def integrate_invariant(form: AltForm) -> PiScalar:
    """Integral over the quotient of an invariant 7-form: its coefficient
    against the volume form times the total volume."""
    if form.degree != 7:
        raise ValueError(f"integration needs a 7-form, got degree {form.degree}")
    coeff = form.coeffs.get(tuple(range(7)), ZERO)
    return PiScalar.of(coeff, form.pi) * vol_m()


def secondary_integral(d_sign: int = DEFAULT_D_SIGN) -> F:
    """-1/(2^7 * 7) times the integral of p1 ^ h, as an exact rational;
    a power of pi or a square root left in it is a certificate failure."""
    value = integrate_invariant(_p1_wedge_primitive(d_sign)) * PiScalar.of(F(-1, 128 * 7))
    if value.k or not value.c.is_rational():
        raise CertificateError(f"secondary integral {value} is not rational")
    return value.c.as_rational()


@lru_cache(maxsize=None)
def _p1_wedge_primitive(d_sign: int) -> AltForm:
    """p1 ^ h, h the primitive of p1 under ``d_sign``: solved once per sign,
    the default and its explicit value sharing one entry."""
    p1 = pontryagin_form()
    return p1.wedge(solve_primitive(p1, d_sign))
