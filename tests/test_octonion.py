"""Cayley algebra, Clifford action, and the deformation operator spectrum."""
import os
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import combinations

import pytest

from berger import CertificateError, liealg, octonion
from berger.invariant import casimir_eigenvalue
from berger.matrix import SqrtMatrix, det
from berger.octonion import (Octonion, TRIPLES, action_scalar,
                             adjoint_sample_vector, clifford_volume,
                             commutes_with_lifted_isotropy,
                             deformation_operator, minimal_polynomial_check,
                             multiplicities, operator_block, shift_product,
                             spectrum,
                             standard_component_block, tangent_bracket_spinor,
                             tensor_unit, traceless_sample_vectors,
                             trivial_component_block, trivial_family_matrix,
                             unit_cliffords)
from berger.scalar import SqrtField
from conftest import diagonal_matrix, field_multiplicities, ref_det


def t(p, q=1, rad=1):
    return SqrtField.term(F(p, q), rad)


def e(i, sign=1):
    return Octonion([sign if k == i else 0 for k in range(8)])


def clifford(coords):
    """Right multiplication by the imaginary octonion with these 7
    coordinates: the combination of the unit Clifford matrices."""
    total = SqrtMatrix.zeros(8)
    for c, m in zip(coords, unit_cliffords()):
        total = total + m.scale(c)
    return total


def sequential_shift_product(b, eigs):
    """The product of the shifts b - lam taken one factor at a time."""
    eye = SqrtMatrix.identity(b.nrows)
    prod = None
    for lam in eigs:
        shifted = b - eye.scale(lam)
        prod = shifted if prod is None else prod @ shifted
    return prod


def unit_matrix(n, pairs):
    """The n x n matrix with a 1 at each (row, column) in pairs."""
    rows = [[SqrtField()] * n for _ in range(n)]
    for i, j in pairs:
        rows[i][j] = SqrtField.term(1)
    return SqrtMatrix(rows)


@pytest.fixture
def fresh_caches():
    """Empty the caches a corrupted input passes through, before and after,
    so that no value built from it outlives the test."""
    deformation_operator.cache_clear()
    yield
    deformation_operator.cache_clear()


def random_octonion(rng):
    coords = [t(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(8)]
    if rng.random() < 0.3:
        i = rng.randint(0, 7)
        coords[i] = coords[i] + t(1, 1, rng.choice((2, 5)))
    return Octonion(coords)


class TestCayleyTable:
    def test_first_triple(self):
        assert e(1) * e(2) == e(4)
        assert e(2) * e(1) == e(4, -1)

    def test_triples_are_cyclic(self):
        assert TRIPLES[0] == (1, 2, 4)
        for a, b, c in TRIPLES:
            assert e(a) * e(b) == e(c)
            assert e(b) * e(c) == e(a)
            assert e(c) * e(a) == e(b)

    def test_imaginary_units_square_to_minus_one(self):
        for i in range(1, 8):
            assert e(i) * e(i) == e(0, -1)

    def test_anticommutativity(self):
        for i, j in combinations(range(1, 8), 2):
            ij, ji = (e(i) * e(j)).coords, (e(j) * e(i)).coords
            assert ij == tuple(-c for c in ji)

    def test_unit_element(self):
        x = Octonion([1, 2, 0, F(1, 3), 0, -1, 0, 5])
        assert e(0) * x == x
        assert x * e(0) == x

    def test_not_associative(self):
        assert (e(1) * e(2)) * e(3) != e(1) * (e(2) * e(3))


class TestAlgebraLaws:
    def test_alternativity_and_composition(self):
        rng = random.Random(83)
        for _ in range(200):
            x = random_octonion(rng)
            y = random_octonion(rng)
            assert (x * x) * y == x * (x * y)
            assert (y * x) * x == y * (x * x)
            assert (x * y).norm2() == x.norm2() * y.norm2()


class TestCliffordAction:
    def test_action_on_one(self):
        v = [F(1, 2), 0, -2, 0, 0, F(3), 0]
        m = clifford(v)
        assert [m[(i, 0)] for i in range(8)] == [0] + v

    def test_unit_cliffords_match_octonion_products(self):
        # oracle: column a of the k-th matrix is e_a * e_k, by Octonion.__mul__
        for k, m in enumerate(unit_cliffords(), start=1):
            for a in range(8):
                assert [m[(c, a)] for c in range(8)] == list((e(a) * e(k)).coords)

    def test_anticommutation_relations(self):
        # {c_i, c_j} = -2 delta_ij on all 28 unordered basis pairs
        cl = unit_cliffords()
        eye = SqrtMatrix.identity(8)
        for i in range(7):
            for j in range(i, 7):
                anti = cl[i] @ cl[j] + cl[j] @ cl[i]
                expected = eye.scale(-2) if i == j else SqrtMatrix.zeros(8)
                assert anti == expected

    def test_general_clifford_relation(self):
        rng = random.Random(17)
        for _ in range(5):
            v = [F(rng.randint(-2, 2)) for _ in range(7)]
            w = [F(rng.randint(-2, 2)) for _ in range(7)]
            cv, cw = clifford(v), clifford(w)
            pairing = sum(a * b for a, b in zip(v, w))
            assert cv @ cw + cw @ cv == SqrtMatrix.identity(8).scale(-2 * pairing)

    def test_volume_element_is_identity(self):
        assert clifford_volume() == SqrtMatrix.identity(8)

    def test_bracket_agrees_with_cayley_product(self):
        # [e_i, e_j]_p = (1/sqrt5) e_i * e_j on all 21 pairs
        es = liealg.p_basis()
        inv5 = t(1, 5, 5)
        for i, j in combinations(range(7), 2):
            prod = e(i + 1) * e(j + 1)
            assert prod.coords[0].is_zero()
            expected = [c * inv5 for c in prod.coords[1:]]
            br = liealg.bracket(es[i], es[j])
            assert [liealg.inner(br, ek) for ek in es] == expected


class TestBracketSpinor:
    def test_commutator_reproduces_bracket_action(self):
        # [lift(g_i), c_v] = c_{[g_i, v]_p} for every basis direction
        c = liealg.structure_constants()
        for i in range(10):
            a = tangent_bracket_spinor(i)
            for l in range(7):
                cl = unit_cliffords()[l]
                image = clifford(c[i][l])
                assert a @ cl - cl @ a == image

    def test_isotropy_lifts_are_skew(self):
        for i in (7, 8, 9):
            a = tangent_bracket_spinor(i)
            assert (a + a.transpose()).is_zero()

    def test_isotropy_lift_homomorphism(self):
        # [f1, f2] = (1/sqrt5) f3 carries over to the lifts
        a7, a8, a9 = (tangent_bracket_spinor(i) for i in (7, 8, 9))
        assert a7 @ a8 - a8 @ a7 == a9.scale(t(1, 5, 5))


class TestDeformationOperator:
    def test_symmetric(self):
        assert deformation_operator().is_symmetric()

    def test_trivial_component_block(self):
        expected = SqrtMatrix([[t(7, 10, 5), t(-3, 10, 35)],
                               [t(-3, 10, 35), t(1, 2, 5)]])
        assert trivial_component_block() == expected

    def test_standard_component_block(self):
        expected = SqrtMatrix([[t(-1, 10, 5), t(3, 10, 5), t(3, 10, 30)],
                               [t(3, 10, 5), t(7, 10, 5), t(1, 10, 30)],
                               [t(3, 10, 30), t(1, 10, 30), t(-2, 5, 5)]])
        assert standard_component_block() == expected

    def test_block_rejects_non_invariant_span(self):
        with pytest.raises(CertificateError, match="span is not invariant"):
            operator_block((tensor_unit(0, 0),))

    @staticmethod
    def run_optimized(call):
        """stdout and stderr of ``call`` run under ``python -O``, which
        prints the optimize flag and the CertificateError's message."""
        code = ("import sys\n"
                "from berger.octonion import (action_scalar, operator_block,\n"
                "                             tensor_unit)\n"
                "from berger import CertificateError\n"
                "try:\n"
                "    %s\n"
                "except CertificateError as err:\n"
                "    print(sys.flags.optimize, err)\n" % call)
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), "..", "src"))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        return out.stdout, out.stderr

    def test_block_certificate_survives_optimize_flag(self):
        out, err = self.run_optimized("operator_block((tensor_unit(0, 0),))")
        assert out == "1 span is not invariant\n", err

    def test_scalar_action_rejects_non_eigenvector(self):
        with pytest.raises(CertificateError, match="not an eigenvector"):
            action_scalar(tensor_unit(0, 0))

    def test_scalar_certificate_survives_optimize_flag(self):
        out, err = self.run_optimized("action_scalar(tensor_unit(0, 0))")
        assert out == "1 vector is not an eigenvector\n", err

    def test_scalar_action_on_adjoint_component(self):
        assert action_scalar(adjoint_sample_vector()) == t(1, 5, 5)

    def test_scalar_action_on_traceless_component(self):
        s, d = traceless_sample_vectors()
        assert action_scalar(s) == t(-1, 5, 5)
        assert action_scalar(d) == t(-1, 5, 5)

    def test_sample_vectors_are_the_sums_of_tensor_units(self):
        # e_1 ^ e_2 - e_5 ^ e_7, e_1 (x) e_2 + e_2 (x) e_1, e_1 (x) e_1 - e_2 (x) e_2
        def combine(*terms):
            return [sum((c * tensor_unit(a, b)[i] for (a, b), c in terms), SqrtField())
                    for i in range(64)]
        assert adjoint_sample_vector() == combine(((1, 2), 1), ((2, 1), -1),
                                                  ((5, 7), -1), ((7, 5), 1))
        assert list(traceless_sample_vectors()) == [
            combine(((1, 2), 1), ((2, 1), 1)), combine(((1, 1), 1), ((2, 2), -1))]
        assert all(type(c) is SqrtField for v in (adjoint_sample_vector(),
                                                  *traceless_sample_vectors()) for c in v)

    def test_adjoint_sample_has_no_cross_product_part(self):
        # the contraction x (x) y -> x * y, summed over the 64 unit pairs,
        # kills the vector, so it lies outside the 7- and 1-dimensional parts
        vec = adjoint_sample_vector()
        image = [SqrtField()] * 8
        for (a, b), (k, s) in octonion.product_table().items():
            image[k] = image[k] + vec[8 * a + b] * s
        assert all(c.is_zero() for c in image)
        assert any(not c.is_zero() for c in vec)

    def test_minimal_polynomial(self):
        assert minimal_polynomial_check()

    def test_every_listed_eigenvalue_occurs(self):
        # dropping any one shift leaves a nonzero product
        b0 = deformation_operator()
        eigs = spectrum()
        for skip in range(5):
            assert not sequential_shift_product(
                b0, eigs[:skip] + eigs[skip + 1:]).is_zero()

    def test_paired_product_equals_sequential_product(self):
        # without 7/sqrt5 both pairs remain and the product is nonzero
        b0 = deformation_operator()
        rest = spectrum()[1:]
        paired = shift_product(b0, b0 @ b0, rest)
        assert not paired.is_zero()
        assert paired == sequential_shift_product(b0, rest)

    def test_power_traces_and_multiplicities(self):
        b0 = deformation_operator()
        sq = b0 @ b0
        assert [b0.trace(), sq.trace(), b0.trace_product(sq),
                sq.trace_product(sq)] == [0, F(448, 5), t(336, 25, 5), 448]
        assert multiplicities(b0, sq, spectrum()) == (1, 28, 21, 7, 7)
        assert field_multiplicities(b0, spectrum()) == (1, 28, 21, 7, 7)

    @pytest.mark.parametrize("k", range(5))
    def test_wrong_eigenvalue_fails_minimal_polynomial(self, k, monkeypatch,
                                                      fresh_caches):
        eigs = list(spectrum())
        eigs[k] = eigs[k] * 2
        monkeypatch.setattr(octonion, "spectrum", lambda: tuple(eigs))
        with pytest.raises(CertificateError, match="shifts do not multiply to zero"):
            minimal_polynomial_check()

    def test_extra_eigenvalue_fails_only_by_multiplicities(self, monkeypatch,
                                                          fresh_caches):
        # a sixth listed value keeps the shift product zero; five power
        # traces cannot separate six values
        eigs = spectrum() + (t(3),)
        b0 = deformation_operator()
        assert shift_product(b0, b0 @ b0, eigs).is_zero()
        monkeypatch.setattr(octonion, "spectrum", lambda: eigs)
        with pytest.raises(CertificateError,
                           match=r"6 eigenvalues; tr\(B\^0..B\^4\) fix only five"):
            minimal_polynomial_check()

    # each premise of the integer Lagrange step fails by its own error,
    # on a diagonal operator whose listed eigenvalue shifts multiply to zero
    @pytest.mark.parametrize("values, eigs, match", [
        ((t(1), t(1, 1, 5)), (t(1), t(1, 1, 5)), r"radicands \[1, 5\], not one"),
        ((t(1), t(2)), (t(1), t(2), t(2)), "not distinct"),
        ((t(1, 2, 5), t(-1, 2, 5), t(3, 1, 5)),
         (t(1, 2, 5), t(-1, 2, 5), t(3, 1, 5), t(1, 1, 5), t(-1, 1, 5),
          t(2, 1, 5)), r"6 eigenvalues; tr\(B\^0..B\^4\) fix only five"),
    ], ids=["off-radical", "repeated", "six"])
    def test_broken_premise_fails_minimal_polynomial(self, values, eigs, match,
                                                    monkeypatch, fresh_caches):
        d = diagonal_matrix(values)
        assert shift_product(d, d @ d, eigs).is_zero()
        monkeypatch.setattr(octonion, "deformation_operator", lambda: d)
        monkeypatch.setattr(octonion, "spectrum", lambda: eigs)
        with pytest.raises(CertificateError, match=match):
            minimal_polynomial_check()

    def test_power_traces_off_the_radical_fail_multiplicities(self):
        # tr(b) = sqrt2 and tr(b^3) = 2 sqrt2 are no rational numbers, so
        # no multiplicities over the rational eigenvalues +-1 fit them
        d = diagonal_matrix((SqrtField.term(1, 2), SqrtField()))
        with pytest.raises(CertificateError,
                           match=r"tr\(B\^k\) is not in Q\*sqrt\(1\)\^k for k in \[1, 3\]"):
            multiplicities(d, d @ d, (t(1), t(-1)))

    def test_listed_value_that_is_no_eigenvalue_has_multiplicity_zero(self):
        # the shift product stays zero when a value is listed in vain; its
        # multiplicity comes out 0, for the minimal-polynomial check to reject
        d = diagonal_matrix((t(1), t(-2)))
        eigs = (t(1), t(-2), t(3))
        assert shift_product(d, d @ d, eigs).is_zero()
        assert multiplicities(d, d @ d, eigs) == field_multiplicities(d, eigs) == (1, 1, 0)

    def test_wrong_multiplicities_fail_minimal_polynomial(self, monkeypatch,
                                                         fresh_caches):
        # same five eigenvalues, multiplicities (2, 27, 21, 7, 7)
        eigs = spectrum()
        counts = (2, 27, 21, 7, 7)
        diagonal = [lam for lam, m in zip(eigs, counts) for _ in range(m)]
        d = SqrtMatrix([[diagonal[i] if i == j else SqrtField()
                         for j in range(64)] for i in range(64)])
        assert multiplicities(d, d @ d, eigs) == counts
        assert field_multiplicities(d, eigs) == counts
        assert shift_product(d, d @ d, eigs).is_zero()
        monkeypatch.setattr(octonion, "deformation_operator", lambda: d)
        with pytest.raises(CertificateError,
                           match=r"multiplicities are \(2, 27, 21, 7, 7\)"):
            minimal_polynomial_check()

    def test_commutes_with_lifted_isotropy(self):
        assert commutes_with_lifted_isotropy()

    # E_10 alone keeps B L skew, since each lift L kills 1 (x) 1: only the
    # symmetry premise rejects it
    @pytest.mark.parametrize("pairs, match", [
        (((0, 1), (1, 0)), "lift 8 is not skew or does not commute"),
        (((0, 1),), "not symmetric"),
        (((1, 0),), "not symmetric")],
        ids=["symmetric", "non-symmetric", "non-symmetric-skew-product"])
    def test_perturbed_operator_fails_commutation(self, pairs, match,
                                                  monkeypatch, fresh_caches):
        perturbed = deformation_operator() + unit_matrix(64, pairs)
        monkeypatch.setattr(octonion, "deformation_operator",
                            lambda: perturbed)
        with pytest.raises(CertificateError, match=match):
            commutes_with_lifted_isotropy()

    def test_non_skew_lift_fails_commutation(self, monkeypatch, fresh_caches):
        lift = tangent_bracket_spinor
        bump = unit_matrix(8, [(0, 0)])
        monkeypatch.setattr(octonion, "tangent_bracket_spinor",
                            lambda i: lift(i) + bump if i == 7 else lift(i))
        with pytest.raises(CertificateError, match="lift 7 is not skew"):
            commutes_with_lifted_isotropy()

    def test_does_not_commute_with_clifford(self):
        eye = SqrtMatrix.identity(8)
        c1 = unit_cliffords()[0]
        lifted = c1.tensor(eye) + eye.tensor(c1)
        b0 = deformation_operator()
        assert not (b0 @ lifted - lifted @ b0).is_zero()

    def test_block_eigenvalues_by_characteristic_polynomial(self):
        def charpoly_at(m, lam):
            shifted = m - SqrtMatrix.identity(m.nrows).scale(lam)
            return ref_det([[shifted[i, j] for j in range(m.ncols)]
                            for i in range(m.nrows)])

        tb = trivial_component_block()
        assert charpoly_at(tb, t(7, 5, 5)).is_zero()
        assert charpoly_at(tb, t(-1, 5, 5)).is_zero()
        assert not charpoly_at(tb, t(1, 5, 5)).is_zero()
        sb = standard_component_block()
        for lam in (t(1, 5, 5), t(1, 1, 5), t(-1, 1, 5)):
            assert charpoly_at(sb, lam).is_zero()
        assert not charpoly_at(sb, t(7, 5, 5)).is_zero()


class TestTrivialFamily:
    def test_base_point_is_diagonal(self):
        z = SqrtField()
        assert trivial_family_matrix(0) == SqrtMatrix(
            [[t(7, 10, 5), z], [z, t(-1, 10, 5)]])

    def test_closed_form(self):
        for mu in (F(0), F(1, 4), F(1, 2)):
            got = trivial_family_matrix(mu)
            expected = SqrtMatrix(
                [[t((7 + 7 * mu) / 10, 1, 5), t(-3 * mu / 10, 1, 35)],
                 [t(-3 * mu / 10, 1, 35), t((5 * mu - 1) / 10, 1, 5)]])
            assert got == expected

    def test_determinant_identity(self):
        for mu in (F(0), F(1, 4), F(1, 3), F(1, 2), F(2), F(-1)):
            d = det(trivial_family_matrix(mu))
            assert d.as_rational() == F(-7, 20) * (2 * mu - 1) ** 2

    def test_eigenvalue_sign_pattern(self):
        # negative determinant = one positive and one negative eigenvalue
        for mu in (F(0), F(1, 4)):
            assert det(trivial_family_matrix(mu)).as_rational() < 0
        assert det(trivial_family_matrix(F(1, 2))).is_zero()

    def test_discriminant_identity(self):
        # (6 mu + 3)^2 + 7 (2 mu - 1)^2 = 64 mu^2 + 8 mu + 16
        for mu in (F(0), F(1), F(-1), F(1, 2), F(1, 3)):
            lhs = (6 * mu + 3) ** 2 + 7 * (2 * mu - 1) ** 2
            assert lhs == 64 * mu ** 2 + 8 * mu + 16

    def test_deformation_radius_stays_below_gap(self):
        # at mu = 1/2 the deformation reaches 7/(2 sqrt5), below 9/(2 sqrt5)
        assert F(49, 4) < F(81, 4)
        radius_sq = max((lam * lam).as_rational() for lam in spectrum()) / 4
        assert radius_sq == F(49, 20)
        assert radius_sq < casimir_eigenvalue(1, 0, "imaginary")


class TestCasimir:
    def test_reference_values(self):
        assert casimir_eigenvalue(0, 0, "real") == F(49, 20)
        assert casimir_eigenvalue(1, 0, "imaginary") == F(81, 20)
        assert casimir_eigenvalue(1, 1, "imaginary") == F(121, 20)

    def test_closed_forms(self):
        for p in range(7):
            for q in range(p + 1):
                if p + q > 6:
                    continue
                base = p * p + 3 * p + q * q + q
                assert casimir_eigenvalue(p, q, "real") == base + F(49, 20)
                assert casimir_eigenvalue(p, q, "imaginary") == base + F(1, 20)

    def test_kernel_exclusion_sweep(self):
        gap = F(81, 20)
        for p in range(7):
            for q in range(p + 1):
                if p + q > 6 or (p, q) == (0, 0):
                    continue
                for factor in ("real", "imaginary"):
                    assert casimir_eigenvalue(p, q, factor) >= gap

    def test_monotone_differencing(self):
        for p in range(6):
            for q in range(p + 1):
                here = casimir_eigenvalue(p, q, "imaginary")
                assert casimir_eigenvalue(p + 1, q, "imaginary") - here == 2 * p + 4
                if q + 1 <= p:
                    step = casimir_eigenvalue(p, q + 1, "imaginary") - here
                    assert step == 2 * q + 2

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            casimir_eigenvalue(1, 2, "real")
        with pytest.raises(ValueError):
            casimir_eigenvalue(-1, -1, "real")
        with pytest.raises(ValueError):
            casimir_eigenvalue(1, 0, "spinor")
