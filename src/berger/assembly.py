"""The named verification suites.

The invariant and the certificates it rests on are ``invariant``'s, and
the paper's classification of M is the package root's; both are imported
here, where the checks read them.  The rest is reporting: the exact values
the checks compare against and named cross-checks of each layer.

Every certificate, here and in the layers below, holds or raises
``CertificateError`` with its reason.  ``named_check`` turns a check
body's detail or raised error into one ``Check`` (a failing certificate
is one FAIL line and the other checks run) and records it in ``REGISTRY``,
from which alone ``verify`` runs a suite, in definition order.
"""
from fractions import Fraction as F
from functools import wraps
from itertools import combinations, combinations_with_replacement, product
from typing import Callable, NamedTuple

from . import CONGRUENCES, classify  # re-exported from the package root
from . import CertificateError, eta, forms, liealg, octonion, require
from .invariant import (EK_LATTICE, InvariantReport, compute_ek, on_lattice,
                        spectral_gap_bounds, spectral_gap_certificate)
from .matrix import SqrtMatrix
from .scalar import PiScalar, SqrtField
from .series import DEFAULT_ORDER

#: the exact values the named checks compare against
EXPECTED_EK = F(-27, 1120)
EXPECTED_S1 = F(13, 40)
EXPECTED_INTERMEDIATE = F(-16189, 700000)
EXPECTED_SECONDARY = F(-49, 50000)
EXPECTED_LOCAL_TERMS = {0: F(-12923, 281250), 3: F(-277961, 281250)}
EXPECTED_ETA_SIGNATURE = F(-4817, 140625)


# -- named verification checks ---------------------------------------------

class Check(NamedTuple):
    name: str
    passed: bool
    detail: str


SUITES = ("fast", "all")

#: (name, module attribute, suites) of every named check, in report order
REGISTRY: list[tuple[str, str, tuple[str, ...]]] = []
#: the attributes of the checks that read ``report``, the invariant ``verify`` assembles
READS_REPORT: set[str] = set()


def named_check(name: str, suites: tuple[str, ...] = SUITES):
    """Make a check body into the check ``name`` of ``suites``: the detail it
    returns passes, and an ``ArithmeticError`` it raises fails with its message.
    Its one parameter gets the suite it runs in or, if named ``report``, the
    invariant (``verify``'s, else assembled here), whose error fails it."""
    def decorate(body: Callable[..., str]) -> Callable[..., Check]:
        params = body.__code__.co_varnames[:body.__code__.co_argcount]
        if params == ("report",):
            READS_REPORT.add(body.__name__)

        @wraps(body)
        def run(suite: str = "all", report=None) -> Check:
            try:
                arg = (report or compute_ek()) if params == ("report",) else suite
                if isinstance(arg, ArithmeticError):
                    raise arg
                return Check(name, True, body(arg) if params else body())
            except ArithmeticError as err:
                return Check(name, False, str(err))
        REGISTRY.append((name, body.__name__, suites))
        return run
    return decorate


@named_check("jacobi-identity")
def check_jacobi_closure() -> str:
    bad = liealg.check_jacobi(combinations(range(10), 3))
    require(bad is None, "fails at basis triple %r" % (bad,))
    return "all 120 basis triples close"


@named_check("structure-constants")
def check_structure_constants() -> str:
    """[g_b, g_c] = sum_d f[d][b][c] g_d on all 45 pairs, from the table as read;
    as f[d] is <g_d, .> and the brackets span so(5), the basis is orthonormal."""
    gs, f = liealg.g_basis(), liealg.bracket_table()
    for b, c in combinations(range(10), 2):
        terms = (gs[d].scale(f[d][b][c]) for d in range(10) if f[d][b][c])
        require(liealg.bracket(gs[b], gs[c]) == sum(terms, SqrtMatrix.zeros(5)),
                "the table does not rebuild [g_%d, g_%d]" % (b, c))
    return "the table rebuilds all 45 brackets of the basis of p and h"


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
        require(cl[i] @ cl[j] + cl[j] @ cl[i] == (minus_two if i == j else zero),
                "anticommutator fails at pair (%d, %d)" % (i, j))
    return "anticommutation relations hold on all 28 basis pairs"


@named_check("volume-element")
def check_volume_element() -> str:
    require(octonion.clifford_volume() == SqrtMatrix.identity(8),
            "volume element is not the identity")
    return "product of the seven generators is the identity"


@named_check("bracket-cayley")
def check_bracket_cayley() -> str:
    c = liealg.structure_constants()  # the table `berger ek` builds on
    units = [octonion.Octonion([int(m == k) for m in range(8)]) for k in range(1, 8)]
    inv5 = SqrtField.term(F(1, 5), 5)
    pairs = 0
    for i, j in combinations(range(7), 2):
        prod = units[i] * units[j]
        require(c[i][j] == tuple(x * inv5 for x in prod.coords[1:]),
                "tangential bracket disagrees with the Cayley product at "
                "pair (%d, %d)" % (i, j))
        pairs += 1
    require(pairs == 21, "compared %d pairs, not all 21" % pairs)
    return ("tangential bracket matches the scaled Cayley product "
            "on all 21 pairs")


@named_check("operator-blocks")
def check_operator_blocks() -> str:
    t = SqrtField.term
    require(octonion.trivial_component_block() == SqrtMatrix(
        [[t(F(7, 10), 5), t(F(-3, 10), 35)],
         [t(F(-3, 10), 35), t(F(1, 2), 5)]]), "trivial-component block differs")
    require(octonion.standard_component_block() == SqrtMatrix(
        [[t(F(-1, 10), 5), t(F(3, 10), 5), t(F(3, 10), 30)],
         [t(F(3, 10), 5), t(F(7, 10), 5), t(F(1, 10), 30)],
         [t(F(3, 10), 30), t(F(1, 10), 30), t(F(-2, 5), 5)]]),
        "standard-component block differs")
    require(octonion.action_scalar(octonion.adjoint_sample_vector())
            == t(F(1, 5), 5), "adjoint-component scalar differs")
    require(all(octonion.action_scalar(v) == t(F(-1, 5), 5)
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
        require(not eta.weyl_sum(k).polar_coefficients(),
                "polar part survives for twist %d" % k)
    require(eta.weyl_sum(0, signed=False).polar_coefficients(),
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
            require(eta.local_term(k, direction, n) == expected,
                    "local term for twist %d differs at direction %r, "
                    "order %d" % (k, direction, n))
    require(eta.eta_signature() == EXPECTED_ETA_SIGNATURE,
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
    require(forms.is_h_invariant(p1), "Pontryagin form is not H-invariant")
    require(p1.proportionality(forms.g2_four_form())
            == PiScalar.of(SqrtField.term(F(21, 25)), -2),
            "Pontryagin form is not (21/25) pi^-2 times the invariant "
            "four-form")
    require(forms.g2_three_form().wedge(forms.g2_four_form()).proportionality(
                forms.volume_form()) == PiScalar.of(SqrtField.term(7)),
            "three-form wedge four-form is not 7 times the volume form")
    require(forms.vol_m() == PiScalar.of(SqrtField.term(F(16, 75), 5), 4),
            "total volume differs")
    return ("Pontryagin form is H-invariant; its normalization, the "
            "wedge identity, and the volume agree")


@named_check("secondary-integral")
def check_secondary_value() -> str:
    got = forms.secondary_integral()
    require(got == EXPECTED_SECONDARY,
            "got %s, expected %s" % (got, EXPECTED_SECONDARY))
    return "secondary integral = %s" % (got,)


@named_check("secondary-sign-sweep")
def check_secondary_sign_sweep(report) -> str:
    """``invariant_d`` is linear in d_sign, so the two conventions negate the
    integral whatever the forms; only the shipped one may put ek on_lattice."""
    stage = report.intermediate
    signs = [s for s in (1, -1) if on_lattice(stage + forms.secondary_integral(s))]
    require(signs == [forms.DEFAULT_D_SIGN], "ek is in (%s) Z for d_sign in %s, "
            "not for the shipped %d alone" % (EK_LATTICE, signs, forms.DEFAULT_D_SIGN))
    return ("only the shipped convention puts ek in (%s) Z; it yields %s"
            % (EK_LATTICE, forms.secondary_integral()))


@named_check("tensor-split")
def check_tensor_split() -> str:
    from . import rep  # only this check, so `berger ek` never loads it
    pieces = rep.imaginary_square_pieces()
    require(pieces == [((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((0, 2), 1)],
            "square of the 7-dimensional module decomposes as %r" % (pieces,))
    direct, via_g2 = rep.spinor_square_two_ways()
    require(direct == via_g2, "the two spin-content routes disagree")
    require(rep.disjoint_spin_content(), "summands share a spin constituent")
    return ("tensor square splits into four summands with pairwise "
            "disjoint spin content; both content routes agree")


@named_check("invariant-value")
def check_invariant_value(report) -> str:
    """Compare the invariant as ``berger ek`` assembles it."""
    require(report.intermediate == EXPECTED_INTERMEDIATE,
            "intermediate stage is %s" % (report.intermediate,))
    require(report.ek == EXPECTED_EK, "value is %s" % (report.ek,))
    require(report.s1 == EXPECTED_S1, "PL invariant is %s" % (report.s1,))
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
    looked up in this module as it runs, so a rebound check is the one run.
    The invariant is assembled once, and the checks in READS_REPORT read it."""
    if suite not in SUITES:
        raise ValueError("unknown suite: %r" % (suite,))
    try:
        invariant = compute_ek()
    except ArithmeticError as err:
        invariant = err
    checks = tuple(globals()[fn](suite, *[invariant] * (fn in READS_REPORT))
                   for _, fn, suites in REGISTRY if suite in suites)
    failed = isinstance(invariant, ArithmeticError)
    return VerificationReport(suite, checks, None if failed else invariant)
