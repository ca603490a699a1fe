"""Negative controls: one corrupted input per named check of ``verify``.

Each row of ``CONTROLS`` corrupts something a check reads (a table, a
basis, an operator, a constant), never the comparison the check makes.
Under the corruption ``verify("all")`` must still report every check,
with the row's check failing, so a certificate failure is one FAIL line
and not an aborted run.  A new check cannot land without a row here.

The module also runs under ``python -O -m pytest``: neither the controls
nor the certificates they trip depend on ``assert`` in ``src/``.
"""
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest

from berger import (CertificateError, assembly, cli, eta, forms, invariant, liealg,
                    octonion, rep, series)
from berger.matrix import SqrtMatrix
from berger.scalar import PiScalar, SqrtField
from conftest import flip_bracket_entry, right_product, series_reciprocal

#: every cache a corrupted input can pass through, taken before any
#: corruption replaces a cached function
CACHES = [v for mod in (liealg, octonion, forms, eta, series, rep)
          for v in vars(mod).values() if hasattr(v, "cache_clear")] \
    + [rep.RootSystem._freudenthal]


@pytest.fixture
def fresh_caches():
    """Empty every cache before and after, so that no value built from a
    corrupted input outlives the test and no clean value hides it."""
    for f in CACHES:
        f.cache_clear()
    yield
    for f in CACHES:
        f.cache_clear()


def unit_matrix(n, pairs):
    """The n x n matrix with a 1 at each (row, column) in pairs."""
    rows = [[SqrtField()] * n for _ in range(n)]
    for i, j in pairs:
        rows[i][j] = SqrtField.term(1)
    return SqrtMatrix(rows)


def patch_result(mp, owner, name, change):
    """Make ``owner.name()`` return ``change`` of its original value."""
    original = getattr(owner, name)
    mp.setattr(owner, name, lambda: change(original()))


def replace(seq, i, value):
    return tuple(value if k == i else x for k, x in enumerate(seq))


def flip_table_sign(mp):
    def flip(table):
        table = dict(table)
        k, s = table[(1, 2)]
        table[(1, 2)] = (k, -s)  # e_1 e_2 = -e_4, and still e_2 e_1 = -e_4
        return table
    patch_result(mp, octonion, "product_table", flip)


def wrong_spectrum_entry(value):
    # the first eigenvalue 7/sqrt5 replaced
    return lambda mp: patch_result(mp, octonion, "spectrum",
                                   lambda eigs: replace(eigs, 0, value))


def perturb_operator(pairs):
    return lambda mp: patch_result(mp, octonion, "deformation_operator",
                                   lambda b0: b0 + unit_matrix(64, pairs))


def flip_weyl_sign(mp):
    w, sign = eta.WEYL_GROUP[1]
    mp.setattr(eta, "WEYL_GROUP", replace(eta.WEYL_GROUP, 1, (w, -sign)))


def a_hat_at_double_argument(mp):
    # still even, so the poles cancel; only the values move
    ahat = eta.ahat_series
    mp.setattr(eta, "ahat_series", lambda c, order: ahat(2 * c, order))


def sign_blind_differential(mp):
    d = forms.invariant_d
    mp.setattr(forms, "invariant_d", lambda form, d_sign=1: d(form))


#: check name -> (corruption of an input, applied through monkeypatch)
CONTROLS = {
    # <e1, [e2, e4]> negated with its partners: still antisymmetric
    "jacobi-identity": lambda mp: patch_result(
        mp, liealg, "bracket_table", lambda f: flip_bracket_entry(f, (0, 1, 3))),
    "structure-constants": lambda mp: patch_result(
        mp, liealg, "p_basis", lambda es: replace(es, 2, es[2].scale(2))),
    "octonion-laws": flip_table_sign,
    "clifford-relations": lambda mp: patch_result(
        mp, octonion, "unit_cliffords",
        lambda cl: replace(cl, 1, cl[1].scale(2))),
    # -c_1 keeps every Clifford relation but reverses the orientation
    "volume-element": lambda mp: patch_result(
        mp, octonion, "unit_cliffords", lambda cl: replace(cl, 0, -cl[0])),
    # e_1, e_2 swapped: still orthonormal, but the Cayley rule breaks
    "bracket-cayley": lambda mp: patch_result(
        mp, liealg, "p_basis", lambda es: (es[1], es[0]) + es[2:]),
    # E_00: every isotropy lift kills 1 (x) 1, so only the blocks see it
    "operator-blocks": perturb_operator([(0, 0)]),
    "isotropy-commutation": perturb_operator([(0, 1), (1, 0)]),
    # 8/sqrt5 is still inside the spectral gap; 2 sqrt5 is not
    "minimal-polynomial": wrong_spectrum_entry(SqrtField.term(F(8, 5), 5)),
    "spectral-gap": wrong_spectrum_entry(SqrtField.term(2, 5)),
    "eta-pole-cancellation": flip_weyl_sign,
    "eta-values": a_hat_at_double_argument,
    "characteristic-form": lambda mp: patch_result(
        mp, forms, "pontryagin_form", lambda p1: p1.scale(PiScalar.of(2))),
    "secondary-integral": lambda mp: patch_result(
        mp, forms, "vol_so5", lambda v: v * 2),
    "secondary-sign-sweep": sign_blind_differential,
    # the 8-dimensional spinor factor as spin 0 + spin 2
    "tensor-split": lambda mp: mp.setattr(
        rep, "SPINOR_FACTOR_SPINS", (F(0), F(2))),
    "invariant-value": lambda mp: mp.setattr(invariant, "DIRAC_WEIGHT", F(1, 4)),
}


#: the names of the full suite, from the registry ``verify`` runs
ALL_CHECKS = [name for name, _, suites in assembly.REGISTRY if "all" in suites]


@pytest.mark.parametrize("name", sorted(CONTROLS))
def test_corrupted_input_fails_its_check(name, monkeypatch, fresh_caches):
    CONTROLS[name](monkeypatch)
    report = assembly.verify("all")
    checks = {c.name: c for c in report.checks}
    assert list(checks) == ALL_CHECKS
    assert not checks[name].passed, checks[name]
    assert checks[name].detail


def test_every_check_has_a_control():
    names = {name for name, _, _ in assembly.REGISTRY}
    assert names - set(CONTROLS) == set(), "checks without a negative control"
    assert set(CONTROLS) - names == set(), "controls for no check"


def test_pontryagin_form_at_the_wrong_power_of_pi_fails(monkeypatch, fresh_caches,
                                                        capsys):
    # the coefficients are right and pi^-3 is wrong: the form's one power
    # of pi reaches the normalization check, the integral and ek
    patch_result(monkeypatch, forms, "pontryagin_form",
                 lambda p1: forms.AltForm(4, p1.coeffs, -3))
    check = assembly.check_characteristic_form()
    assert not check.passed and "(21/25) pi^-2" in check.detail
    with pytest.raises(CertificateError, match="not rational"):
        forms.secondary_integral()
    assert cli.main(["ek"]) == 1
    assert "not rational" in capsys.readouterr().err


def test_bare_product_halves_the_table_and_only_bracket_cayley_sees_it(
        monkeypatch, fresh_caches):
    # the inner product keeps the skew part of a b, half of [a, b]; Jacobi
    # is homogeneous in the table, so the scale shows only against Cayley
    f = liealg.bracket_table()
    liealg.bracket_table.cache_clear()
    monkeypatch.setattr(liealg, "bracket", lambda a, b: a @ b)
    half = liealg.bracket_table()
    assert half == tuple(tuple(tuple(x * F(1, 2) for x in row) for row in fa)
                         for fa in f)
    assert assembly.check_jacobi_closure().passed
    check = assembly.check_bracket_cayley()
    assert not check.passed
    assert check.detail.endswith("at pair (0, 1)"), check.detail


def test_flipped_weyl_sign_also_fails_eta_values(monkeypatch, fresh_caches):
    # the local terms sum over the same corrupted eta.WEYL_GROUP, whose
    # flipped element no longer pairs with its negative
    flip_weyl_sign(monkeypatch)
    check = assembly.check_eta_values("fast")
    assert not check.passed
    assert "has no negative of that sign" in check.detail


@pytest.mark.parametrize("i, j", list(combinations(range(7), 2)))
def test_each_negated_bracket_row_fails_bracket_cayley(i, j, monkeypatch,
                                                       fresh_caches):
    # one table row at a time, so a pair the check skips would pass
    def negate(c):
        return replace(c, i, replace(c[i], j, tuple(-x for x in c[i][j])))
    patch_result(monkeypatch, liealg, "structure_constants", negate)
    check = assembly.check_bracket_cayley()
    assert not check.passed
    assert check.detail.endswith("at pair (%d, %d)" % (i, j)), check.detail


@pytest.mark.parametrize("i, j", list(combinations(range(1, 8), 2)))
def test_flipped_product_sign_fails_bracket_cayley_and_the_oracle(
        i, j, monkeypatch, fresh_caches):
    # e_i e_j negated alone, in the table the product kernel iterates; the
    # Clifford matrices are built first, so the oracle keeps the clean table
    cliffords = octonion.unit_cliffords()
    patch_result(monkeypatch, octonion, "product_table", lambda table: {
        **table, (i, j): (table[i, j][0], -table[i, j][1])})
    check = assembly.check_bracket_cayley()
    assert not check.passed
    assert check.detail.endswith("at pair (%d, %d)" % (i - 1, j - 1)), check.detail
    unit = [octonion.Octonion([int(m == k) for m in range(8)]) for k in (i, j)]
    # no zero coordinate, so the flipped entry moves x y by 2 x_i y_j != 0
    dense = [octonion.Octonion([F(k + 1, 3) for k in range(8)]),
             octonion.Octonion([F(2 * k - 7, 5) for k in range(8)])]
    for x, y in (unit, dense):
        assert x * y != right_product(x, y, cliffords)


#: the nonzero entries f[a][b][c], a < b < c, of the so(5) bracket table
TABLE_ENTRIES = [(a, b, c) for a, b, c in combinations(range(10), 3)
                 if liealg.bracket_table()[a][b][c]]


def test_the_bracket_table_has_21_independent_entries():
    assert len(TABLE_ENTRIES) == 21


@pytest.mark.parametrize("abc", TABLE_ENTRIES)
def test_each_flipped_table_entry_fails_structure_constants(abc, monkeypatch,
                                                            fresh_caches):
    # negated with its partners the table stays antisymmetric, and the basis
    # stays orthonormal; only the brackets the table rebuilds differ
    patch_result(monkeypatch, liealg, "bracket_table",
                 lambda f: flip_bracket_entry(f, abc))
    check = assembly.check_structure_constants()
    assert not check.passed
    assert check.detail.startswith("the table does not rebuild [g_"), check.detail


@pytest.mark.parametrize("i", range(8))
def test_each_flipped_weyl_sign_fails_pole_cancellation(i, monkeypatch,
                                                         fresh_caches):
    # the pairing is read off the group as it is at call time, so a flip
    # of any one element, the identity and -1 included, is seen; the
    # detail names whichever of w and -w the sum reaches first
    w, sign = eta.WEYL_GROUP[i]
    monkeypatch.setattr(eta, "WEYL_GROUP", replace(eta.WEYL_GROUP, i, (w, -sign)))
    check = assembly.check_eta_cancellation()
    assert not check.passed
    neg = tuple(tuple(-a for a in row) for row in w)
    assert any("Weyl element %r" % (m,) in check.detail for m in (w, neg))


@pytest.mark.parametrize("i", range(8))
def test_weyl_group_missing_an_element_raises(i, monkeypatch, fresh_caches):
    group = eta.WEYL_GROUP
    monkeypatch.setattr(eta, "WEYL_GROUP", group[:i] + group[i + 1:])
    for signed in (True, False):
        with pytest.raises(CertificateError, match="has no negative"):
            eta.weyl_sum(3, (7, 2), 8, signed=signed)
    assert not assembly.check_eta_cancellation().passed


def test_zero_odd_exponential_cancels_the_unsigned_sum_too(monkeypatch,
                                                           fresh_caches, capsys):
    # every wave and edge is a rescale of the shared e^t - e^-t: as 0 it
    # zeroes every sum, so the signed sums cancel trivially, and only the
    # unsigned control, which must keep its poles, sees it
    monkeypatch.setattr(eta, "_odd_exp",
                        lambda order: series.LaurentSeries({}, 0, order))
    checks = {c.name: c for c in assembly.verify("all").checks}
    assert list(checks) == ALL_CHECKS
    check = checks["eta-pole-cancellation"]
    assert not check.passed
    assert check.detail == "negative control failed: unsigned sum cancelled"
    assert cli.main(["ek"]) == 1
    assert "is not in (1/2240) Z" in capsys.readouterr().err


def corrupt_odd_difference(mp, keep_even):
    """s(t) - s(-t) keeping the even terms, so 2 s, or with its factor 2
    dropped, so the odd part alone."""
    odd = series.LaurentSeries.odd_difference
    mp.setattr(series.LaurentSeries, "odd_difference",
               (lambda s: s.rescale((2, 1))) if keep_even
               else (lambda s: odd(s).rescale((F(1, 2), 1))))


@pytest.mark.parametrize("keep_even", [True, False])
def test_corrupted_odd_difference_fails_eta_values(keep_even, monkeypatch,
                                                   fresh_caches):
    # kept even terms leave poles; a dropped factor 2 halves every term,
    # which cancels its poles but not the values
    corrupt_odd_difference(monkeypatch, keep_even)
    assert not assembly.check_eta_values("all").passed
    assert assembly.check_eta_cancellation().passed is not keep_even


def test_odd_difference_keeping_even_terms_fails_ek(monkeypatch, fresh_caches,
                                                    capsys):
    corrupt_odd_difference(monkeypatch, keep_even=True)
    assert cli.main(["ek"]) == 1
    assert "polar part survives" in capsys.readouterr().err


def flip_a_fused_weight(mp, kernel, change=lambda w: -w):
    """Negate (or ``change``) the first weight of every call of
    ``LaurentSeries.dot`` or ``rescale`` with more than one term, that is of
    the eta sums' bulk or boundary, and leave the one-term products and
    A-hat(c t) alone."""
    cls = series.LaurentSeries
    if kernel == "dot":
        dot = cls.dot
        mp.setattr(cls, "dot", staticmethod(lambda terms: dot(
            [(change(w), a, b) if i == 0 and len(terms) > 1 else (w, a, b)
             for i, (w, a, b) in enumerate(terms)])))
    else:
        rescale = cls.rescale
        mp.setattr(cls, "rescale", lambda s, *pairs: rescale(
            s, *((change(w), c) if i == 0 and len(pairs) > 1 else (w, c)
                 for i, (w, c) in enumerate(pairs))))


@pytest.mark.parametrize("kernel", ["dot", "rescale"])
def test_flipped_fused_weight_leaves_a_pole(kernel, monkeypatch, fresh_caches):
    # both fused kernels carry the Weyl signs: one wrong sign, in the bulk
    # or in the boundary, and the poles no longer cancel
    flip_a_fused_weight(monkeypatch, kernel)
    for k in eta.VALID_TERMS:
        for direction in ((5, 1), (7, 2), (1, 4)):
            with pytest.raises(eta.PoleCancellationError):
                eta.local_term(k, direction, 12)
    assert not assembly.check_eta_cancellation().passed


@pytest.mark.parametrize("kernel", ["dot", "rescale"])
def test_float_fused_weight_raises(kernel, monkeypatch, fresh_caches):
    # an inexact pole weight, as sign / dy would give on int directions,
    # is refused by the kernel, never read as its binary fraction
    flip_a_fused_weight(monkeypatch, kernel, float)
    for k in eta.VALID_TERMS:
        for direction in ((5, 1), (F(7, 2), 1)):
            with pytest.raises(TypeError, match="is not an int or a Fraction"):
                eta.local_term(k, direction, 12)


class _TrueDivision(F):
    """``Fraction(n, d)`` computed as n / d: the float that the plain
    division of two ints gives."""

    def __new__(cls, n=0, d=None):
        return F(n) if d is None else n / d


def test_inexact_division_in_eta_raises(monkeypatch, fresh_caches):
    # every division of the sum's set-up on int directions is a Fraction;
    # written as /, the floats it makes reach a series and are refused
    monkeypatch.setattr(eta, "Fraction", _TrueDivision)
    for k in eta.VALID_TERMS:
        with pytest.raises(TypeError, match="is not an int or a Fraction"):
            eta.local_term(k, (7, 2), 12)


def flip_log_ahat(mp, k):
    """b_k of log A-hat = sum_k b_k z^2k / (2k)! negated: in every root
    product and in A-hat(t) itself, which is the product's one-factor case."""
    log_ahat = series._log_ahat

    def flipped(top):
        g, beta = log_ahat(top)
        return g, (replace(beta, k - 1, -beta[k - 1]) if k <= top else beta)
    mp.setattr(series, "_log_ahat", flipped)


def test_wrong_sign_of_b1_fails_eta_values_and_ek(monkeypatch, fresh_caches,
                                                 capsys):
    # +1/12 for -1/12 moves t^2 of A-hat(t) and of every root product; they
    # stay even, so the poles still cancel, and the local terms, and with
    # them ek, move off their values and the lattice
    flip_log_ahat(monkeypatch, 1)
    failed = {c.name for c in assembly.verify("all").checks if not c.passed}
    assert failed == {"eta-values", "secondary-sign-sweep", "invariant-value"}
    assert cli.main(["ek"]) == 1
    assert capsys.readouterr().err \
        == "error: ek = -20077/840000 is not in (1/2240) Z\n"


@pytest.mark.parametrize("k", [3, 4])
def test_wrong_high_log_coefficient_is_seen_by_the_ahat_oracle_alone(
        k, monkeypatch, fresh_caches):
    # b_k moves t^2k and up of A-hat(t) and of every root product, and a
    # local term, the t^0 coefficient of a series times t^-5, reads them only
    # through t^4: for k >= 3 every check passes, and only A-hat(t) against
    # the reciprocal of sinh(t/2) / (t/2) sees it
    flip_log_ahat(monkeypatch, k)
    assert assembly.verify("all").passed
    sinh_over_t = {2 * j: F(1, 4 ** j * math.factorial(2 * j + 1)) for j in range(k + 1)}
    want = series_reciprocal(series.LaurentSeries(sinh_over_t, 0, 2 * k + 1))
    got = series._ahat(2 * k)
    assert [got.coefficient(e) for e in range(2 * k)] \
        == [want.coefficient(e) for e in range(2 * k)]
    assert got.coefficient(2 * k) != want.coefficient(2 * k)


def secondary_at_the_other_sign(mp):
    secondary = forms.secondary_integral
    mp.setattr(forms, "secondary_integral", lambda d_sign=1: secondary(-d_sign))


@pytest.mark.parametrize("corrupt, ek", [
    (lambda mp: corrupt_odd_difference(mp, keep_even=False), "-3609/350000"),
    (secondary_at_the_other_sign, "-15503/700000")])
def test_ek_off_the_lattice_fails_ek_and_the_sign_sweep(corrupt, ek, monkeypatch,
                                                        fresh_caches, capsys):
    # poles cancel and every ingredient is rational, so only the lattice
    # 2240 ek in Z sees these
    corrupt(monkeypatch)
    assert cli.main(["ek"]) == 1
    assert capsys.readouterr().err == "error: ek = %s is not in (1/2240) Z\n" % ek
    check = assembly.check_secondary_sign_sweep()
    assert not check.passed and check.detail.startswith("ek = %s" % ek)


def negate_every_ingredient(mp):
    for owner, name in ((eta, "eta_dirac"), (eta, "eta_signature"),
                        (forms, "secondary_integral")):
        patch_result(mp, owner, name, lambda v: -v)


@pytest.mark.parametrize("corrupt, ek", [
    # eta_signature without its 1 +
    (lambda mp: patch_result(mp, eta, "eta_signature", lambda s: s - 1), "-1/35"),
    (lambda mp: patch_result(mp, forms, "secondary_integral",
                             lambda s: s + F(1, 2240)), "-53/2240"),
    # the reversed orientation's value, reported as the standard one
    (negate_every_ingredient, "27/1120")])
def test_ek_on_the_lattice_but_off_the_bundle_route_fails_ek(
        corrupt, ek, monkeypatch, fresh_caches, capsys):
    # 2240 ek stays an integer, so only mu(M_{m,10}) = -ek mod 1, which
    # wants 10 - 2240 ek to be the square of an even x mod 2240, sees these
    assert invariant.on_lattice(F(ek))
    corrupt(monkeypatch)
    assert cli.main(["ek"]) == 1
    assert capsys.readouterr().err == (
        "error: bundle route: ek = %s needs mu(M_{m,10}) = %s mod 1, which no "
        "m gives\n" % (ek, -F(ek)))
    check = assembly.check_invariant_value()
    assert not check.passed and check.detail.startswith("bundle route")


@pytest.mark.parametrize("drop, var", [
    (lambda p, q: 3 * q * q, "q"),  # negative at the apex (0, 0)
    (lambda p, q: 3 * (p - 1) ** 2, "p")])  # falling along the edge (1, 0)
def test_casimir_not_increasing_on_the_cone_fails_spectral_gap_and_ek(
        drop, var, monkeypatch, capsys):
    # C(1, 0) is unchanged, so the radius still clears the gap 81/20 there;
    # only the differences over the cone p >= q >= 0 see that C falls
    casimir = invariant.casimir_eigenvalue
    monkeypatch.setattr(invariant, "casimir_eigenvalue",
                        lambda p, q, factor: casimir(p, q, factor) - drop(p, q))
    assert invariant.casimir_eigenvalue(1, 0, "imaginary") == F(81, 20)
    message = ("kernel-freeness: the real Casimir does not increase in %s on "
               "p >= q >= 0" % var)
    check = assembly.check_spectral_gap()
    assert not check.passed and check.detail == message
    assert cli.main(["ek"]) == 1
    assert capsys.readouterr().err == "error: %s\n" % message


def test_flipped_table_sign_changes_the_forms(monkeypatch, fresh_caches):
    # the 3-form is read off the octonion table, so it sees the flip too
    phi, psi = forms.g2_three_form(), forms.g2_four_form()
    forms.g2_three_form.cache_clear()
    forms.g2_four_form.cache_clear()
    flip_table_sign(monkeypatch)
    assert forms.g2_three_form().coeffs[(0, 1, 3)] == -phi.coeffs[(0, 1, 3)]
    assert forms.g2_three_form() != phi
    assert forms.g2_four_form() != psi


def test_flipped_table_sign_reports_every_check_as_json(monkeypatch,
                                                       fresh_caches, capsys):
    flip_table_sign(monkeypatch)
    assert cli.main(["verify", "--suite", "all", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    # the invariant cannot be assembled, so only the suites are reported
    assert list(payload) == ["suites"]
    assert [s["name"] for s in payload["suites"]] == ALL_CHECKS
    failed = {s["name"] for s in payload["suites"] if not s["passed"]}
    assert {"octonion-laws", "invariant-value"} <= failed


def test_flipped_table_sign_under_optimize_flag():
    code = ("import runpy, sys\n"
            "from berger import octonion\n"
            "table = dict(octonion.product_table())\n"
            "k, s = table[(1, 2)]\n"
            "table[(1, 2)] = (k, -s)\n"
            "octonion.product_table = lambda: table\n"
            "sys.argv = ['berger', 'verify', '--suite', 'all']\n"
            "runpy.run_module('berger.cli', run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=os.path.join(
        os.path.dirname(__file__), "..", "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 1, out.stderr
    assert "Traceback" not in out.stderr, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == len(ALL_CHECKS) + 1
    assert lines[-1] == "suite 'all': FAIL"
    assert "octonion-laws          FAIL" in lines[2]
