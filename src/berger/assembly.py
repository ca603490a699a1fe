"""Final assembly of the invariant and the named verification suites.

The headline number combines three independently computed exact pieces:
the two spectral-asymmetry defects, weighted 1/(2^5*7) and 1/2, and the
secondary characteristic integral.  Everything else in this module is
reporting: the classification consequences of the value, and a battery
of named cross-checks that exercise each layer of the computation and
surface failures with enough detail to locate them.
"""
import random
from dataclasses import dataclass
from fractions import Fraction as F
from itertools import combinations
from math import ceil
from typing import Callable, NamedTuple

from . import eta, forms, liealg, octonion, rep
from .matrix import SqrtMatrix, det
from .scalar import PiScalar, SqrtField
from .series import DEFAULT_ORDER

SIGNATURE_WEIGHT = F(1, 2 ** 5 * 7)
DIRAC_WEIGHT = F(1, 2)
PL_INVARIANT_FACTOR = 28

#: the exact values the named checks compare against
EXPECTED_EK = F(-27, 1120)
EXPECTED_S1 = F(13, 40)
EXPECTED_INTERMEDIATE = F(-16189, 700000)
EXPECTED_SECONDARY = F(-49, 50000)
EXPECTED_LOCAL_TERMS = {0: F(-12923, 281250), 3: F(-277961, 281250)}
EXPECTED_ETA_SIGNATURE = F(-4817, 140625)
#: coefficients of det(trivial_family_matrix(mu)) = -(7/20)(1 - 2 mu)^2
TRIVIAL_FAMILY_DET = (F(-7, 20), F(7, 5), F(-7, 5))
#: the seeded random octonion pairs of the octonion-laws check
OCTONION_SAMPLES = 60
OCTONION_SEED = 20


def mod_one(x) -> F:
    """Canonical representative of x in Q/Z, taken in (-1/2, 1/2]."""
    x = F(x)
    return x - ceil(x - F(1, 2))


@dataclass(frozen=True)
class InvariantReport:
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
    """Certify that the untwisted Dirac operator has no kernel.

    The square of the deformed operator acts on each isotypic block as a
    Casimir eigenvalue minus a perturbation whose spectral radius on the
    path mu in [0, 1/2] is at most half the largest |eigenvalue| in
    ``octonion.spectrum()``, which ``minimal_polynomial_check``
    certifies: 7/(2*sqrt(5)).  Kernel freeness follows once every
    nontrivial Casimir eigenvalue clears 49/20.  The eigenvalue of the
    block (p, q) depends on (p, q) only through (p + 3/2)^2 + (q + 1/2)^2,
    which increases in p and in q on the dominant cone p >= q >= 0; every
    nontrivial integral (p, q) there has p >= 1, so the minimum over
    both factors is attained at (1, 0), where it is 81/20.  The trivial
    block is handled by the explicit family matrix: it is 2x2 and affine
    in mu, so its determinant is a polynomial of degree <= 2 in mu,
    fixed by its exact values at three points.  Interpolated, it is
    -(7/20)(1 - 2 mu)^2, whose only root is the endpoint mu = 1/2.
    """
    radius_sq = max((lam * lam).as_rational() for lam in octonion.spectrum()) / 4
    gap = min(octonion.casimir_eigenvalue(1, 0, factor)
              for factor in ("real", "imaginary"))
    if gap != F(81, 20) or radius_sq >= gap:
        return False
    points = []
    for mu in (F(0), F(1, 4), F(3, 8)):
        m = octonion.trivial_family_matrix(mu)
        d = det(m)
        if (m.nrows, m.ncols) != (2, 2) or not d.is_rational():
            return False
        points.append((mu, d.as_rational()))
    return _quadratic_through(points) == TRIVIAL_FAMILY_DET


def _quadratic_through(points) -> tuple[F, F, F]:
    """Coefficients (c0, c1, c2) of the polynomial of degree <= 2 through
    three points with distinct abscissae (Newton's divided differences)."""
    (x0, y0), (x1, y1), (x2, y2) = points
    d01 = (y1 - y0) / (x1 - x0)
    c2 = ((y2 - y1) / (x2 - x1) - d01) / (x2 - x0)
    return (y0 - d01 * x0 + c2 * x0 * x1, d01 - c2 * (x0 + x1), c2)


def compute_ek(orientation: str = "standard",
               order: int = DEFAULT_ORDER) -> InvariantReport:
    """Assemble the invariant from its three exact ingredients."""
    if orientation not in ("standard", "reversed"):
        raise ValueError("unknown orientation: %r" % (orientation,))
    if not spectral_gap_certificate():
        raise ArithmeticError("kernel-freeness certificate failed; "
                              "the Dirac defect would need a harmonic term")
    flip = 1 if orientation == "standard" else -1
    eta_dirac = flip * eta.eta_dirac(order=order)
    eta_signature = flip * eta.eta_signature(order=order)
    secondary = flip * forms.secondary_integral()
    harmonic = 0  # certified empty kernel feeds a zero harmonic term
    intermediate = (eta_signature * SIGNATURE_WEIGHT
                    + (eta_dirac + harmonic) * DIRAC_WEIGHT)
    ek = intermediate + secondary
    return InvariantReport(
        eta_dirac=eta_dirac,
        eta_signature=eta_signature,
        harmonic_spinors=harmonic,
        secondary_integral=secondary,
        intermediate=intermediate,
        ek=ek,
        s1=mod_one(PL_INVARIANT_FACTOR * ek),
        orientation=orientation,
    )


@dataclass(frozen=True)
class ClassificationReport:
    """Consequences of the invariant for the unit sphere bundles over S^4.

    The congruence sets are reported verbatim alongside their canonical
    residues.  The space itself is the total space of such a bundle with
    Euler number 10; the last two fields are static facts recorded for
    completeness rather than recomputed here.
    """
    pl_preserving: tuple[int, ...] = (2, -2)
    pl_reversing: tuple[int, ...] = (1, -1)
    pl_modulus: int = 10
    diffeo_reversing: tuple[int, ...] = (-1, -9, -29, 19)
    diffeo_modulus: int = 140
    headline_euler_class: int = 10
    headline_bundle_parameter: int = -1
    headline_pontryagin_multiple: int = 16
    independent_vector_fields: int = 4

    def pl_preserving_residues(self) -> tuple[int, ...]:
        return tuple(sorted(m % self.pl_modulus for m in self.pl_preserving))

    def pl_reversing_residues(self) -> tuple[int, ...]:
        return tuple(sorted(m % self.pl_modulus for m in self.pl_reversing))

    def diffeo_residues(self) -> tuple[int, ...]:
        return tuple(sorted(m % self.diffeo_modulus
                            for m in self.diffeo_reversing))

    def lines(self) -> list[str]:
        fmt = lambda xs: "{" + ", ".join(str(x) for x in xs) + "}"
        return [
            "PL-equivalent to the Euler-number-%d bundle, preserving "
            "orientation, iff m in %s mod %d (residues %s)"
            % (self.headline_euler_class, fmt(self.pl_preserving),
               self.pl_modulus, fmt(self.pl_preserving_residues())),
            "PL-equivalent reversing orientation iff m in %s mod %d "
            "(residues %s)"
            % (fmt(self.pl_reversing), self.pl_modulus,
               fmt(self.pl_reversing_residues())),
            "diffeomorphic (reversing) iff m in %s mod %d (residues %s)"
            % (fmt(self.diffeo_reversing), self.diffeo_modulus,
               fmt(self.diffeo_residues())),
            "headline: the m = %d bundle, first Pontryagin class %d times "
            "the generator" % (self.headline_bundle_parameter,
                               self.headline_pontryagin_multiple),
            "admits exactly %d independent vector fields"
            % self.independent_vector_fields,
        ]


def classify() -> ClassificationReport:
    return ClassificationReport()


# -- named verification checks ---------------------------------------------

class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


def check_jacobi_closure(bracket_fn: Callable = liealg.bracket) -> Check:
    triples = combinations(range(10), 3)
    bad = liealg.check_jacobi(triples, bracket_fn)
    if bad is None:
        return Check("jacobi-identity", True, "all 120 basis triples close")
    return Check("jacobi-identity", False,
                 "fails at basis triple %r" % (bad,))


def check_structure_constants() -> Check:
    c = liealg.structure_constants()
    for i in range(7):
        for j in range(7):
            for k in range(7):
                perms = (c[i][j][k], -c[j][i][k], -c[i][k][j])
                if len({s for s in perms}) != 1:
                    return Check("structure-constants", False,
                                 "antisymmetry fails at (%d, %d, %d)" % (i, j, k))
    return Check("structure-constants", True,
                 "tangential coefficients are totally antisymmetric")


def check_octonion_laws() -> Check:
    rng = random.Random(OCTONION_SEED)
    for n in range(OCTONION_SAMPLES):
        coords = [[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(8)]
                  for _ in range(2)]
        x, y = (octonion.Octonion(c) for c in coords)
        if (x * x) * y != x * (x * y):
            return Check("octonion-laws", False,
                         "alternativity fails at sample %d" % n)
        if (x * y).norm2() != x.norm2() * y.norm2():
            return Check("octonion-laws", False,
                         "composition law fails at sample %d" % n)
    return Check("octonion-laws", True,
                 "alternativity and composition hold on %d samples"
                 % OCTONION_SAMPLES)


def check_clifford_relations() -> Check:
    cl = octonion.unit_cliffords()
    eye = SqrtMatrix.identity(8)
    for i in range(7):
        for j in range(i, 7):
            anti = cl[i] @ cl[j] + cl[j] @ cl[i]
            expected = eye.scale(-2) if i == j else SqrtMatrix.zeros(8)
            if anti != expected:
                return Check("clifford-relations", False,
                             "anticommutator fails at pair (%d, %d)" % (i, j))
    return Check("clifford-relations", True,
                 "anticommutation relations hold on all 28 basis pairs")


def check_volume_element() -> Check:
    ok = octonion.clifford_volume() == SqrtMatrix.identity(8)
    return Check("volume-element", ok,
                 "product of the seven generators is the identity" if ok
                 else "volume element is not the identity")


def check_bracket_cayley() -> Check:
    es = liealg.p_basis()
    inv5 = SqrtField.term(F(1, 5), 5)
    for i, j in combinations(range(7), 2):
        prod = octonion.Octonion.unit(i + 1) * octonion.Octonion.unit(j + 1)
        expected = [c * inv5 for c in prod.imaginary_coords()]
        if liealg.project_p(liealg.bracket(es[i], es[j])) != expected:
            return Check("bracket-cayley", False,
                         "tangential bracket disagrees with the Cayley "
                         "product at pair (%d, %d)" % (i, j))
    return Check("bracket-cayley", True,
                 "tangential bracket matches the scaled Cayley product "
                 "on all 21 pairs")


def check_operator_blocks() -> Check:
    t = SqrtField.term
    expected_trivial = SqrtMatrix(
        [[t(F(7, 10), 5), t(F(-3, 10), 35)],
         [t(F(-3, 10), 35), t(F(1, 2), 5)]])
    expected_standard = SqrtMatrix(
        [[t(F(-1, 10), 5), t(F(3, 10), 5), t(F(3, 10), 30)],
         [t(F(3, 10), 5), t(F(7, 10), 5), t(F(1, 10), 30)],
         [t(F(3, 10), 30), t(F(1, 10), 30), t(F(-2, 5), 5)]])
    if octonion.trivial_component_block() != expected_trivial:
        return Check("operator-blocks", False, "trivial-component block differs")
    if octonion.standard_component_block() != expected_standard:
        return Check("operator-blocks", False, "standard-component block differs")
    plus, minus = t(F(1, 5), 5), t(F(-1, 5), 5)
    if octonion.action_scalar(octonion.adjoint_sample_vector()) != plus:
        return Check("operator-blocks", False, "adjoint-component scalar differs")
    if any(octonion.action_scalar(v) != minus
           for v in octonion.traceless_sample_vectors()):
        return Check("operator-blocks", False, "traceless-component scalar differs")
    return Check("operator-blocks", True,
                 "isotypic blocks and scalar actions match their closed forms")


def check_minimal_polynomial() -> Check:
    ok = octonion.minimal_polynomial_check()
    return Check("minimal-polynomial", ok,
                 "shifted product over the five eigenvalues vanishes on all "
                 "64 dimensions" if ok else "shift product or multiplicities wrong")


def check_isotropy_commutation() -> Check:
    ok = octonion.commutes_with_lifted_isotropy()
    return Check("isotropy-commutation", ok,
                 "deformed operator commutes with the lifted isotropy "
                 "generators" if ok else "commutator with an isotropy lift "
                 "is nonzero")


def check_spectral_gap() -> Check:
    ok = spectral_gap_certificate()
    return Check("spectral-gap", ok,
                 "deformation radius 49/20 clears every nontrivial Casimir "
                 "eigenvalue (min 81/20)" if ok
                 else "kernel-freeness certificate failed")


def check_eta_cancellation(order: int) -> Check:
    for k in eta.VALID_TERMS:
        if eta.weyl_sum(k, order=order).polar_coefficients():
            return Check("eta-pole-cancellation", False,
                         "polar part survives for twist %d" % k)
    if not eta.weyl_sum(0, order=order, signed=False).polar_coefficients():
        return Check("eta-pole-cancellation", False,
                     "negative control failed: unsigned sum cancelled")
    return Check("eta-pole-cancellation", True,
                 "poles cancel exactly; unsigned control fails as expected")


def check_eta_values(order: int, directions=((5, 1),),
                     stability=None) -> Check:
    """Local terms at ``order`` along each direction, the signature
    defect, and, if ``stability`` is a (direction, order) pair, the local
    terms again at that higher truncation order."""
    cases = [(direction, order) for direction in directions]
    if stability is not None:
        cases.append(stability)
    for direction, n in cases:
        for k, expected in EXPECTED_LOCAL_TERMS.items():
            if eta.local_term(k, direction, n) != expected:
                return Check("eta-values", False,
                             "local term for twist %d differs at direction %r, "
                             "order %d" % (k, direction, n))
    if eta.eta_signature(order=order) != EXPECTED_ETA_SIGNATURE:
        return Check("eta-values", False, "signature defect differs")
    detail = ("local terms and signature defect match at %d direction(s)"
              % len(directions))
    if stability is not None:
        detail += (" at order %d; local terms also at order %d along %r"
                   % (order, stability[1], stability[0]))
    return Check("eta-values", True, detail)


def check_characteristic_form() -> Check:
    p1 = forms.pontryagin_form()
    if not forms.is_h_invariant(p1):
        return Check("characteristic-form", False,
                     "Pontryagin form is not H-invariant")
    coeff = p1.proportionality(forms.g2_four_form())
    if coeff != PiScalar.of(SqrtField.term(F(21, 25)), -2):
        return Check("characteristic-form", False,
                     "Pontryagin form is not (21/25) pi^-2 times the "
                     "invariant four-form")
    product = forms.g2_three_form().wedge(forms.g2_four_form())
    if product.proportionality(forms.volume_form()) != PiScalar.of(SqrtField.term(7)):
        return Check("characteristic-form", False,
                     "three-form wedge four-form is not 7 times the volume form")
    expected_vol = PiScalar.of(SqrtField.term(F(16, 75), 5), 4)
    if forms.vol_m() != expected_vol:
        return Check("characteristic-form", False, "total volume differs")
    return Check("characteristic-form", True,
                 "Pontryagin form is H-invariant; its normalization, the "
                 "wedge identity, and the volume agree")


def check_secondary_value(d_sign: int = forms.DEFAULT_D_SIGN) -> Check:
    got = forms.secondary_integral(d_sign)
    if got != EXPECTED_SECONDARY:
        return Check("secondary-integral", False,
                     "got %s, expected %s" % (got, EXPECTED_SECONDARY))
    return Check("secondary-integral", True,
                 "secondary integral = %s" % (got,))


def check_secondary_sign_sweep() -> Check:
    plus = forms.secondary_integral(1)
    minus = forms.secondary_integral(-1)
    if plus != -minus:
        return Check("secondary-sign-sweep", False,
                     "the two differential conventions do not negate "
                     "each other: %s vs %s" % (plus, minus))
    shipped = forms.secondary_integral()
    if shipped != EXPECTED_SECONDARY:
        return Check("secondary-sign-sweep", False,
                     "shipped convention yields %s" % (shipped,))
    return Check("secondary-sign-sweep", True,
                 "conventions negate each other; shipped default "
                 "yields %s" % (shipped,))


def check_tensor_split() -> Check:
    pieces = rep.imaginary_square_pieces()
    if pieces != [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((0, 2), 1)]:
        return Check("tensor-split", False,
                     "square of the 7-dimensional module decomposes as %r"
                     % (pieces,))
    direct, via_g2 = rep.spinor_square_two_ways()
    if direct != via_g2:
        return Check("tensor-split", False,
                     "the two spin-content routes disagree")
    if not rep.disjoint_spin_content():
        return Check("tensor-split", False,
                     "summands share a spin constituent")
    return Check("tensor-split", True,
                 "tensor square splits into four summands with pairwise "
                 "disjoint spin content; both content routes agree")


def check_invariant_value(report: InvariantReport) -> Check:
    if report.intermediate != EXPECTED_INTERMEDIATE:
        return Check("invariant-value", False,
                     "intermediate stage is %s" % (report.intermediate,))
    if report.ek != EXPECTED_EK:
        return Check("invariant-value", False, "value is %s" % (report.ek,))
    if report.s1 != EXPECTED_S1:
        return Check("invariant-value", False,
                     "PL invariant is %s" % (report.s1,))
    return Check("invariant-value", True,
                 "ek = %s, s1 = %s mod 1" % (report.ek, report.s1))


@dataclass(frozen=True)
class VerificationReport:
    suite: str
    checks: tuple[Check, ...]
    #: the order-12 invariant that the invariant-value check examined
    invariant: InvariantReport | None = None

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        width = max(len(c.name) for c in self.checks)
        out = ["%-*s  %s  %s" % (width, c.name,
                                 "ok " if c.passed else "FAIL", c.detail)
               for c in self.checks]
        out.append("suite %r: %s" % (self.suite,
                                     "pass" if self.passed else "FAIL"))
        return out


def verify(suite: str = "all") -> VerificationReport:
    """Run the named cross-checks; "fast" skips the 64-dimensional
    minimal-polynomial product, the second-direction defect
    recomputation and the order-60 stability check."""
    if suite not in ("fast", "all"):
        raise ValueError("unknown suite: %r" % (suite,))
    full = suite == "all"
    order = 16 if full else 12
    invariant = compute_ek(order=12)
    checks = [
        check_jacobi_closure(),
        check_structure_constants(),
        check_octonion_laws(),
        check_clifford_relations(),
        check_volume_element(),
        check_bracket_cayley(),
        check_operator_blocks(),
        check_isotropy_commutation(),
        check_spectral_gap(),
        check_eta_cancellation(order),
        check_eta_values(order, ((5, 1), (7, 2)), ((7, 2), 60)) if full
        else check_eta_values(order),
        check_characteristic_form(),
        check_secondary_value(),
        check_secondary_sign_sweep(),
        check_tensor_split(),
        check_invariant_value(invariant),
    ]
    if full:
        checks.insert(8, check_minimal_polynomial())
    return VerificationReport(suite, tuple(checks), invariant)
