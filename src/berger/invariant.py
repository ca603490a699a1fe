"""The invariant and the certificates it rests on: all that ``berger ek`` runs.

ek is the two spectral-asymmetry defects, weighted 1/(2^5*7) and 1/2, plus
the secondary integral; the Dirac defect needs no harmonic term once the
spectral gap certifies an empty kernel, and ek is that of an S^3-bundle.
"""
from fractions import Fraction as F
from math import ceil
from typing import NamedTuple

from . import EULER_CLASS, dot, eta, forms, octonion, require
from .matrix import det

SIGNATURE_WEIGHT = F(1, 2 ** 5 * 7)
DIRAC_WEIGHT = F(1, 2)
PL_INVARIANT_FACTOR = 28

#: H^4(M) = Z/EULER_CLASS, so 2^5 7 EULER_CLASS ek is an integer
EK_LATTICE = SIGNATURE_WEIGHT / EULER_CLASS


def mod_one(x) -> F:
    """Canonical representative of x in Q/Z, taken in (-1/2, 1/2]."""
    x = F(x)
    return x - ceil(x - F(1, 2))


class InvariantReport(NamedTuple):
    """The assembled invariant and every ingredient that built it."""
    eta_dirac: F
    eta_signature: F
    harmonic_spinors: int
    secondary_integral: F
    intermediate: F
    ek: F
    s1: F
    orientation: str


def spectral_gap_certificate() -> bool:
    """Certify that the untwisted Dirac operator has no kernel (True), or
    raise ``CertificateError`` naming the step that fails.

    The square of the deformed operator acts on each isotypic block as a
    Casimir eigenvalue minus a perturbation whose spectral radius on the
    path mu in [0, 1/2] is at most half the largest |eigenvalue| in
    ``octonion.spectrum()`` (``minimal_polynomial_check`` certifies it):
    7/(2 sqrt5).  So there is no kernel once every nontrivial Casimir
    eigenvalue clears 49/20.  That of the block (p, q) increases in p and
    in q on the dominant cone p >= q >= 0 (``spectral_gap_bounds``
    certifies it), where every nontrivial (p, q) has p >= 1: the minimum
    over both factors is at (1, 0), 81/20.  The trivial block's family
    matrix is 2x2 and affine in mu, so its determinant, of degree <= 2 in
    mu, is -(7/20)(1 - 2 mu)^2 once it agrees with it at three points; its
    only root is the endpoint mu = 1/2.
    """
    radius_sq, gap = spectral_gap_bounds()
    require(gap == F(81, 20) and radius_sq < gap,
            "kernel-freeness: squared deformation radius %s does not clear "
            "the Casimir gap %s" % (radius_sq, gap))
    for mu in (F(0), F(1, 4), F(3, 8)):
        m = octonion.trivial_family_matrix(mu)
        d = det(m)
        require((m.nrows, m.ncols) == (2, 2) and d.is_rational(),
                "kernel-freeness: the trivial family at mu = %s is not 2x2 "
                "with a rational determinant" % mu)
        require(d.as_rational() == F(-7, 20) * (1 - 2 * mu) ** 2,
                "kernel-freeness: the trivial-family determinant at mu = %s "
                "is not -(7/20)(1 - 2 mu)^2" % mu)
    return True


def spectral_gap_bounds() -> tuple[F, F]:
    """(squared deformation radius, Casimir gap): a quarter of the largest
    squared eigenvalue in ``octonion.spectrum()``, and the smaller Casimir
    eigenvalue C(1, 0) over both factors, once each factor's C increases on
    p >= q >= 0.  C is quadratic, so its differences in p, C(p + 1, q) - C(p, q),
    and in q, C(p + 1, q + 1) - C(p + 1, q) (both weights dominant), are affine:
    positive on the cone once at its apex and not falling along (1, 0), (1, 1)."""
    gaps, cone = [], ((0, 0), (1, 0), (1, 1))  # the apex, a step along each edge
    for factor in ("real", "imaginary"):
        c = {(p, q): casimir_eigenvalue(p, q, factor)
             for p in range(3) for q in range(p + 1)}
        dp = [c[p + 1, q] - c[p, q] for p, q in cone]
        dq = [c[p + 1, q + 1] - c[p + 1, q] for p, q in cone]
        for var, (apex, *edges) in (("p", dp), ("q", dq)):
            require(apex > 0 and min(edges) >= apex, "kernel-freeness: the %s "
                    "Casimir does not increase in %s on p >= q >= 0" % (factor, var))
        gaps.append(c[1, 0])
    return max((lam * lam).as_rational() for lam in octonion.spectrum()) / 4, min(gaps)


def casimir_eigenvalue(p: int, q: int, factor: str) -> F:
    """Square of the reductive operator on the isotypic block of the highest
    weight (p, q), |gamma + rho_G|^2 - |lambda_H + rho_H|^2, where lambda_H is
    trivial for factor="real" and the 7-dimensional weight for "imaginary"."""
    if not (isinstance(p, int) and isinstance(q, int) and p >= q >= 0):
        raise ValueError(f"weight ({p}, {q}) is not dominant")
    k = {"real": 0, "imaginary": 3}.get(factor)
    if k is None:
        raise ValueError(f"unknown factor {factor!r}")
    up = eta.add((F(p), F(q)), eta.RHO)
    down = eta.add(eta.kappa_weight(k), eta.RHO_H)
    return dot(up, up) - dot(down, down)


def on_lattice(ek) -> bool:
    """Whether ek lies in EK_LATTICE Z = (1/2240) Z, as every ek of M does."""
    return (ek / EK_LATTICE).denominator == 1


def bundle_parameters(mu) -> list[int]:
    """The m mod 2^4 7 n with mu(M_{m,n}) = ((n + 2m)^2 - n)/(2^5 7 n) = mu mod 1
    for the S^3-bundle M_{m,n} over S^4 of Euler class n = EULER_CLASS
    (Crowley-Escher); none unless mu is on_lattice, as every such mu is."""
    d, n = EK_LATTICE.denominator, EULER_CLASS
    x2 = n + F(mu) * d  # (n + 2m)^2 mod d
    return [m for m in range(d // 2 if x2.denominator == 1 else 0)
            if ((n + 2 * m) ** 2 - x2.numerator) % d == 0]


def compute_ek(orientation: str = "standard") -> InvariantReport:
    """Assemble the invariant from its three exact ingredients.  ek must be
    on_lattice, and minus its standard value the mu of a bundle M_{m,n}, as
    M is orientation-reversing diffeomorphic to M_{-1,n} (the bundle route)."""
    if orientation not in ("standard", "reversed"):
        raise ValueError("unknown orientation: %r" % (orientation,))
    spectral_gap_certificate()  # else a harmonic term would be needed
    flip = 1 if orientation == "standard" else -1
    eta_dirac = flip * eta.eta_dirac()
    eta_signature = flip * eta.eta_signature()
    secondary = flip * forms.secondary_integral()
    harmonic = 0  # certified empty kernel feeds a zero harmonic term
    intermediate = eta_signature * SIGNATURE_WEIGHT + (eta_dirac + harmonic) * DIRAC_WEIGHT
    ek = intermediate + secondary
    require(on_lattice(ek), "ek = %s is not in (%s) Z" % (ek, EK_LATTICE))
    require(bundle_parameters(-flip * ek), "bundle route: ek = %s needs mu(M_{m,%d})"
            " = %s mod 1, which no m gives" % (ek, EULER_CLASS, -flip * ek))
    return InvariantReport(eta_dirac, eta_signature, harmonic, secondary, intermediate,
                           ek, mod_one(PL_INVARIANT_FACTOR * ek), orientation)
