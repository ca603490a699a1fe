"""Final assembly of the invariant and the named verification suites.

The headline number combines three independently computed exact pieces:
the two spectral-asymmetry defects, weighted 1/(2^5*7) and 1/2, and the
secondary characteristic integral.  Everything else in this module is
reporting: the classification consequences of the value, and a battery
of named cross-checks that exercise each layer of the computation.

Every certificate, here and in the layers below, holds or raises
``CertificateError`` with its reason.  ``named_check`` turns a check
body's detail string or raised error into one ``Check``, so a failing
certificate is one FAIL line with its reason and the other checks run,
and records the check in ``REGISTRY`` for the suites it belongs to.
``verify`` runs a suite from that registry alone, in definition order.
"""
from fractions import Fraction as F
from functools import wraps
from itertools import combinations, combinations_with_replacement, product
from math import ceil
from typing import Callable, NamedTuple

from . import eta, forms, liealg, octonion
from .matrix import SqrtMatrix, det
from .scalar import CertificateError, PiScalar, SqrtField
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


def _require(holds: bool, reason: str) -> None:
    """An ``assert`` that ``python -O`` keeps: a named certificate error."""
    if not holds:
        raise CertificateError(reason)


def spectral_gap_certificate() -> bool:
    """Certify that the untwisted Dirac operator has no kernel (True), or
    raise ``CertificateError`` naming the step that fails.

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
    in mu, so its determinant is a polynomial of degree <= 2 in mu.  One
    that agrees with -(7/20)(1 - 2 mu)^2 at three distinct points is that
    polynomial, whose only root is the endpoint mu = 1/2.
    """
    radius_sq, gap = spectral_gap_bounds()
    _require(gap == F(81, 20) and radius_sq < gap,
             "kernel-freeness: squared deformation radius %s does not clear "
             "the Casimir gap %s" % (radius_sq, gap))
    for mu in (F(0), F(1, 4), F(3, 8)):
        m = octonion.trivial_family_matrix(mu)
        d = det(m)
        _require((m.nrows, m.ncols) == (2, 2) and d.is_rational(),
                 "kernel-freeness: the trivial family at mu = %s is not 2x2 "
                 "with a rational determinant" % mu)
        _require(d.as_rational() == F(-7, 20) * (1 - 2 * mu) ** 2,
                 "kernel-freeness: the trivial-family determinant at mu = %s "
                 "is not -(7/20)(1 - 2 mu)^2" % mu)
    return True


def spectral_gap_bounds() -> tuple[F, F]:
    """(squared deformation radius, Casimir gap): a quarter of the largest
    squared eigenvalue in ``octonion.spectrum()``, and the smaller Casimir
    eigenvalue of the weight (1, 0) over both factors."""
    return (max((lam * lam).as_rational() for lam in octonion.spectrum()) / 4,
            min(octonion.casimir_eigenvalue(1, 0, factor)
                for factor in ("real", "imaginary")))


def compute_ek(orientation: str = "standard") -> InvariantReport:
    """Assemble the invariant from its three exact ingredients."""
    if orientation not in ("standard", "reversed"):
        raise ValueError("unknown orientation: %r" % (orientation,))
    spectral_gap_certificate()  # else a harmonic term would be needed
    flip = 1 if orientation == "standard" else -1
    eta_dirac = flip * eta.eta_dirac()
    eta_signature = flip * eta.eta_signature()
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


class ClassificationReport(NamedTuple):
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


SUITES = ("fast", "all")

#: (name, module attribute, suites) of every named check, in report order
REGISTRY: list[tuple[str, str, tuple[str, ...]]] = []


def named_check(name: str, suites: tuple[str, ...] = SUITES):
    """Make a check body into the check ``name`` of ``suites``: the detail
    it returns passes, and an ``ArithmeticError`` it raises fails with its
    message.  A body with a parameter is handed the suite it runs in."""
    def decorate(body: Callable[..., str]) -> Callable[..., Check]:
        takes_suite = body.__code__.co_argcount > 0

        @wraps(body)
        def run(suite: str = "all") -> Check:
            try:
                return Check(name, True, body(suite) if takes_suite else body())
            except ArithmeticError as err:
                return Check(name, False, str(err))
        REGISTRY.append((name, body.__name__, suites))
        return run
    return decorate


@named_check("jacobi-identity")
def check_jacobi_closure() -> str:
    bad = liealg.check_jacobi(combinations(range(10), 3))
    _require(bad is None, "fails at basis triple %r" % (bad,))
    return "all 120 basis triples close"


@named_check("structure-constants")
def check_structure_constants() -> str:
    basis = liealg.g_basis()
    for i, j in combinations_with_replacement(range(10), 2):
        _require(liealg.inner(basis[i], basis[j]) == int(i == j),
                 "basis elements %d and %d are not orthonormal" % (i, j))
    return "the basis of p and h is orthonormal on all 55 pairs"


@named_check("octonion-laws")
def check_octonion_laws() -> str:
    """Alternativity and composition, polarized to multilinear laws that
    hold everywhere once they hold on the eight units e_0 = 1, e_1..e_7:
    [a, c, b] + [c, a, b] = 0 and <ab, cd> + <ad, cb> = 2 <a, c> <b, d>."""
    table = octonion.product_table()  # e_a e_b = sign * e_k
    for a, c, b in product(range(8), repeat=3):
        total = [0] * 8  # the two associators (xy)b - x(yb)
        for x, y in ((a, c), (c, a)):
            (i, s), (j, t) = table[x, y], table[y, b]
            (k, u), (m, v) = table[i, b], table[x, j]
            total[k] += s * u
            total[m] -= t * v
        if any(total):
            raise CertificateError("alternativity fails at units (%d, %d, %d)"
                                   % (a, c, b))
    for a, b, c, d in product(range(8), repeat=4):
        (i, s), (j, t) = table[a, b], table[c, d]
        (k, u), (m, v) = table[a, d], table[c, b]
        if s * t * (i == j) + u * v * (k == m) != 2 * (a == c) * (b == d):
            raise CertificateError("composition law fails at units "
                                   "(%d, %d, %d, %d)" % (a, b, c, d))
    return ("polarized alternativity and composition hold on all 512 unit "
            "triples and 4096 unit quadruples")


@named_check("clifford-relations")
def check_clifford_relations() -> str:
    cl = octonion.unit_cliffords()
    minus_two, zero = SqrtMatrix.identity(8).scale(-2), SqrtMatrix.zeros(8)
    for i, j in combinations_with_replacement(range(7), 2):
        _require(cl[i] @ cl[j] + cl[j] @ cl[i] == (minus_two if i == j else zero),
                 "anticommutator fails at pair (%d, %d)" % (i, j))
    return "anticommutation relations hold on all 28 basis pairs"


@named_check("volume-element")
def check_volume_element() -> str:
    _require(octonion.clifford_volume() == SqrtMatrix.identity(8),
             "volume element is not the identity")
    return "product of the seven generators is the identity"


@named_check("bracket-cayley")
def check_bracket_cayley() -> str:
    c = liealg.structure_constants()  # the table `berger ek` builds on
    units = [octonion.Octonion.unit(k) for k in range(1, 8)]
    inv5 = SqrtField.term(F(1, 5), 5)
    for i, j in combinations(range(7), 2):
        prod = units[i] * units[j]
        _require(c[i][j] == tuple(x * inv5 for x in prod.imaginary_coords()),
                 "tangential bracket disagrees with the Cayley product at "
                 "pair (%d, %d)" % (i, j))
    return ("tangential bracket matches the scaled Cayley product "
            "on all 21 pairs")


@named_check("operator-blocks")
def check_operator_blocks() -> str:
    t = SqrtField.term
    _require(octonion.trivial_component_block() == SqrtMatrix(
        [[t(F(7, 10), 5), t(F(-3, 10), 35)],
         [t(F(-3, 10), 35), t(F(1, 2), 5)]]), "trivial-component block differs")
    _require(octonion.standard_component_block() == SqrtMatrix(
        [[t(F(-1, 10), 5), t(F(3, 10), 5), t(F(3, 10), 30)],
         [t(F(3, 10), 5), t(F(7, 10), 5), t(F(1, 10), 30)],
         [t(F(3, 10), 30), t(F(1, 10), 30), t(F(-2, 5), 5)]]),
        "standard-component block differs")
    _require(octonion.action_scalar(octonion.adjoint_sample_vector())
             == t(F(1, 5), 5), "adjoint-component scalar differs")
    _require(all(octonion.action_scalar(v) == t(F(-1, 5), 5)
                 for v in octonion.traceless_sample_vectors()),
             "traceless-component scalar differs")
    return "isotypic blocks and scalar actions match their closed forms"


@named_check("isotropy-commutation")
def check_isotropy_commutation() -> str:
    octonion.commutes_with_lifted_isotropy()
    return "deformed operator commutes with the lifted isotropy generators"


@named_check("minimal-polynomial", suites=("all",))
def check_minimal_polynomial() -> str:
    octonion.minimal_polynomial_check()
    return ("shifted product over the five eigenvalues vanishes on all "
            "64 dimensions")


@named_check("spectral-gap")
def check_spectral_gap() -> str:
    spectral_gap_certificate()
    return ("deformation radius %s clears every nontrivial Casimir "
            "eigenvalue (min %s)" % spectral_gap_bounds())


@named_check("eta-pole-cancellation")
def check_eta_cancellation() -> str:
    for k in eta.VALID_TERMS:
        _require(not eta.weyl_sum(k).polar_coefficients(),
                 "polar part survives for twist %d" % k)
    _require(eta.weyl_sum(0, signed=False).polar_coefficients(),
             "negative control failed: unsigned sum cancelled")
    return "poles cancel exactly; unsigned control fails as expected"


@named_check("eta-values")
def check_eta_values(suite: str) -> str:
    """Local terms along (5, 1) and the signature defect; the full suite
    adds the direction (7, 2), and the local terms there at order 60."""
    full = suite == "all"
    directions = ((5, 1), (7, 2)) if full else ((5, 1),)
    cases = [(d, DEFAULT_ORDER) for d in directions] + [((7, 2), 60)] * full
    for direction, n in cases:
        for k, expected in EXPECTED_LOCAL_TERMS.items():
            _require(eta.local_term(k, direction, n) == expected,
                     "local term for twist %d differs at direction %r, "
                     "order %d" % (k, direction, n))
    _require(eta.eta_signature() == EXPECTED_ETA_SIGNATURE,
             "signature defect differs")
    detail = ("local terms and signature defect match at %d direction(s)"
              % len(directions))
    if full:
        detail += (" at order %d; local terms also at order 60 along (7, 2)"
                   % DEFAULT_ORDER)
    return detail


@named_check("characteristic-form")
def check_characteristic_form() -> str:
    p1 = forms.pontryagin_form()
    _require(forms.is_h_invariant(p1), "Pontryagin form is not H-invariant")
    _require(p1.proportionality(forms.g2_four_form())
             == PiScalar.of(SqrtField.term(F(21, 25)), -2),
             "Pontryagin form is not (21/25) pi^-2 times the invariant "
             "four-form")
    _require(forms.g2_three_form().wedge(forms.g2_four_form()).proportionality(
                 forms.volume_form()) == PiScalar.of(SqrtField.term(7)),
             "three-form wedge four-form is not 7 times the volume form")
    _require(forms.vol_m() == PiScalar.of(SqrtField.term(F(16, 75), 5), 4),
             "total volume differs")
    return ("Pontryagin form is H-invariant; its normalization, the "
            "wedge identity, and the volume agree")


@named_check("secondary-integral")
def check_secondary_value() -> str:
    got = forms.secondary_integral()
    _require(got == EXPECTED_SECONDARY,
             "got %s, expected %s" % (got, EXPECTED_SECONDARY))
    return "secondary integral = %s" % (got,)


@named_check("secondary-sign-sweep")
def check_secondary_sign_sweep() -> str:
    plus = forms.secondary_integral(1)
    minus = forms.secondary_integral(-1)
    _require(plus == -minus, "the two differential conventions do not "
             "negate each other: %s vs %s" % (plus, minus))
    shipped = forms.secondary_integral()
    _require(shipped == EXPECTED_SECONDARY,
             "shipped convention yields %s" % (shipped,))
    return "conventions negate each other; shipped default yields %s" % (shipped,)


@named_check("tensor-split")
def check_tensor_split() -> str:
    from . import rep  # only this check, so `berger ek` never loads it
    pieces = rep.imaginary_square_pieces()
    _require(pieces == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((0, 2), 1)],
             "square of the 7-dimensional module decomposes as %r" % (pieces,))
    direct, via_g2 = rep.spinor_square_two_ways()
    _require(direct == via_g2, "the two spin-content routes disagree")
    _require(rep.disjoint_spin_content(), "summands share a spin constituent")
    return ("tensor square splits into four summands with pairwise "
            "disjoint spin content; both content routes agree")


@named_check("invariant-value")
def check_invariant_value() -> str:
    """Assemble the invariant as ``berger ek`` does and compare it."""
    report = compute_ek()
    _require(report.intermediate == EXPECTED_INTERMEDIATE,
             "intermediate stage is %s" % (report.intermediate,))
    _require(report.ek == EXPECTED_EK, "value is %s" % (report.ek,))
    _require(report.s1 == EXPECTED_S1, "PL invariant is %s" % (report.s1,))
    return "ek = %s, s1 = %s mod 1" % (report.ek, report.s1)


class VerificationReport(NamedTuple):
    suite: str
    checks: tuple[Check, ...]
    #: the invariant as ``compute_ek`` assembles it; None if it cannot be
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
    """Run the checks ``REGISTRY`` lists for ``suite``, in its order; "fast"
    skips the 64-dimensional minimal-polynomial product, the second-direction
    defect recomputation and the order-60 stability check.  Each check is
    looked up in this module as it runs, so a rebound check is the one run."""
    if suite not in SUITES:
        raise ValueError("unknown suite: %r" % (suite,))
    checks = tuple(globals()[fn](suite) for _, fn, suites in REGISTRY
                   if suite in suites)
    try:
        invariant = compute_ek()
    except ArithmeticError:
        invariant = None
    return VerificationReport(suite, checks, invariant)
