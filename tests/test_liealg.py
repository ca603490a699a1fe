"""The so(5) = h (+) p splitting: bases, brackets, structure constants."""
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from berger import liealg
from berger.liealg import (bracket, check_jacobi, g_basis, h_basis, inner,
                           iota_images, isotropy_generator, p_basis,
                           project_p, so5, structure_constants)
from berger.scalar import CertificateError, SqrtField

ZERO = SqrtField()
ONE = SqrtField.rational(1)


def sf(p, q=1, rad=1):
    return SqrtField.term(F(p, q), rad)


def project_h(v):
    """Coordinates of the h-component of v with respect to f1..f3."""
    return [inner(v, f) for f in h_basis()]


class TestSkewBasis:
    def test_action_on_coordinate_vectors(self):
        # so5(i, j) sends the j-th coordinate vector to the i-th and the
        # i-th to minus the j-th.
        m = so5(2, 4)
        e = [[ONE if k == i else ZERO for k in range(5)] for i in range(5)]
        assert m.apply(e[3]) == e[1]
        assert m.apply(e[1]) == [-c for c in e[3]]
        assert m.apply(e[0]) == [ZERO] * 5

    def test_orthonormal_for_half_trace_form(self):
        basis = [so5(i, j) for i in range(1, 6) for j in range(i + 1, 6)]
        for a in range(len(basis)):
            for b in range(a, len(basis)):
                expected = ONE if a == b else ZERO
                assert inner(basis[a], basis[b]) == expected

    def test_bracket_chains_common_index(self):
        assert bracket(so5(1, 2), so5(2, 3)) == so5(1, 3)
        assert bracket(so5(1, 2), so5(3, 4)).is_zero()


class TestEmbeddedSubalgebra:
    def test_iota_norms_and_orthogonality(self):
        i12, i23, i13 = iota_images()
        for a in (i12, i23, i13):
            assert inner(a, a) == SqrtField.rational(5)
        assert inner(i12, i23).is_zero()
        assert inner(i12, i13).is_zero()
        assert inner(i23, i13).is_zero()

    def test_iota_is_a_homomorphism(self):
        # the images satisfy the same relations as the so(3) generators
        i12, i23, i13 = iota_images()
        assert bracket(i12, i23) == i13
        assert bracket(i13, i23) == -i12
        assert bracket(i12, i13) == -i23

    def test_h_closed_under_bracket(self):
        fs = h_basis()
        for a in fs:
            for b in fs:
                br = bracket(a, b)
                assert all(c.is_zero() for c in project_p(br))


class TestSplitting:
    def test_full_basis_orthonormal(self):
        basis = g_basis()
        assert len(basis) == 10
        for a in range(10):
            for b in range(a, 10):
                expected = ONE if a == b else ZERO
                assert inner(basis[a], basis[b]) == expected

    def test_project_reconstruct_roundtrip(self):
        rng = random.Random(11)
        basis = g_basis()
        coords = [SqrtField.term(F(rng.randint(-4, 4), rng.randint(1, 3)),
                                 rng.choice((1, 2, 5))) for _ in range(10)]
        v = None
        for c, g in zip(coords, basis):
            term = g.scale(c)
            v = term if v is None else v + term
        got = project_p(v) + project_h(v)
        assert got == coords

    def test_cyclic_bracket_rule_on_projections(self):
        # [e_i, e_{i+1}]_p = (1/sqrt5) e_{i+3}, indices mod 7
        es = p_basis()
        inv5 = sf(1, 5, 5)
        for i in range(7):
            got = project_p(bracket(es[i], es[(i + 1) % 7]))
            expected = [inv5 if k == (i + 3) % 7 else ZERO for k in range(7)]
            assert got == expected

    def test_some_brackets_leave_p(self):
        # the cyclic rule is about tangential projections: the full bracket
        # of consecutive basis vectors can have a component in h
        es = p_basis()
        assert any(not all(c.is_zero()
                           for c in project_h(bracket(es[i], es[(i + 1) % 7])))
                   for i in range(7))

    def test_e2_e5_bracket_stays_in_p(self):
        es = p_basis()
        assert all(c.is_zero() for c in project_h(bracket(es[1], es[4])))


class TestStructureConstants:
    def test_spot_values(self):
        c = structure_constants()
        inv5 = sf(1, 5, 5)
        assert c[0][1][3] == inv5        # <[e1, e2], e4>
        assert c[0][1][2] == ZERO
        assert c[7][1][3] == inv5        # <[f1, e2], e4>

    def test_total_antisymmetry_on_p(self):
        c = structure_constants()
        for i, j, k in combinations(range(7), 3):
            assert c[i][j][k] == -c[i][k][j]
            assert c[i][j][k] == -c[j][i][k]
            assert c[i][j][k] == c[j][k][i]

    def test_matches_the_direct_definition(self):
        # oracle: <[g_i, e_j], e_k> from bracket and inner, all 490 entries
        c, es = structure_constants(), p_basis()
        got, expected = [], []
        for i, g in enumerate(g_basis()):
            for j, e in enumerate(es):
                br = bracket(g, e)
                got += [c[i][j][k] for k in range(7)]
                expected += [inner(br, ek) for ek in es]
        assert len(got) == 490
        assert got == expected

    def test_pairing_antisymmetry_for_h_rows(self):
        c = structure_constants()
        for m in range(7, 10):
            for j in range(7):
                for k in range(7):
                    assert c[m][j][k] == -c[m][k][j]

    def test_rejects_isotropy_that_leaves_p(self, monkeypatch):
        # corrupted input: e1 in place of f1, whose brackets leave p
        es = p_basis()
        monkeypatch.setattr(liealg, "g_basis",
                            lambda: es + (es[0],) + h_basis()[1:])
        with pytest.raises(CertificateError, match="h does not preserve p"):
            structure_constants.__wrapped__()

    def test_invariance_of_inner_product(self):
        # <[x,y],z> = <x,[y,z]> on random triples
        rng = random.Random(23)
        basis = g_basis()
        for _ in range(8):
            x, y, z = (basis[rng.randrange(10)] for _ in range(3))
            assert inner(bracket(x, y), z) == inner(x, bracket(y, z))


class TestIsotropy:
    def test_trace_of_squared_generator(self):
        pi1 = isotropy_generator(0)
        assert (pi1 @ pi1).trace() == sf(-28, 5)

    def test_matrix_entry_e3_to_e7(self):
        # <pi_{f1} e3, e7> = 2/sqrt5
        pi1 = isotropy_generator(0)
        assert pi1[(6, 2)] == sf(2, 5, 5)

    def test_generators_are_skew(self):
        for m in range(3):
            pi = isotropy_generator(m)
            assert (pi + pi.transpose()).is_zero()

    def test_matches_structure_constant_rows(self):
        # reference: bracket with f_{m+1}, then project onto p
        for m in range(3):
            pi = isotropy_generator(m)
            for j, e in enumerate(p_basis()):
                br = bracket(h_basis()[m], e)
                assert all(c.is_zero() for c in project_h(br))
                assert [pi[(i, j)] for i in range(7)] == project_p(br)


def alpha_form(m):
    """Nonzero coefficients (i < j) of the invariant 2-form
    <f_{m+1}, [ . , . ]> on p."""
    f, es = h_basis()[m], p_basis()
    out = {}
    for i, j in combinations(range(7), 2):
        c = inner(f, bracket(es[i], es[j]))
        if not c.is_zero():
            out[(i, j)] = c
    return out


class TestAlphaForms:
    def test_alpha_1(self):
        assert alpha_form(0) == {(1, 3): sf(1, 5, 5), (2, 6): sf(2, 5, 5),
                                 (4, 5): sf(-3, 5, 5)}

    def test_alpha_2(self):
        assert alpha_form(1) == {(0, 3): sf(1, 5, 30), (1, 6): sf(-1, 2, 2),
                                 (2, 3): sf(-1, 2, 2), (2, 4): sf(1, 10, 30),
                                 (5, 6): sf(1, 10, 30)}

    def test_alpha_3(self):
        assert alpha_form(2) == {(0, 1): sf(-1, 5, 30), (1, 2): sf(1, 2, 2),
                                 (2, 5): sf(-1, 10, 30), (3, 6): sf(1, 2, 2),
                                 (4, 6): sf(1, 10, 30)}

    def test_alpha_agrees_with_structure_constants(self):
        c = structure_constants()
        for m in range(3):
            alpha = alpha_form(m)
            for i, j in combinations(range(7), 2):
                assert alpha.get((i, j), ZERO) == c[7 + m][i][j]


class TestJacobi:
    def test_all_basis_triples(self):
        triples = list(combinations(range(10), 3))
        assert len(triples) == 120
        assert check_jacobi(triples) is None

    def test_reports_first_offending_triple(self, monkeypatch):
        # a corrupted bracket is detected and localized
        triples = list(combinations(range(10), 3))
        monkeypatch.setattr(liealg, "bracket", lambda a, b: so5(1, 2))
        assert check_jacobi(triples) == (0, 1, 2)

    def test_inner_brackets_are_computed_once(self, monkeypatch):
        # 120 triples need 45 inner brackets, one per unordered pair, and
        # 360 outer ones
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return bracket(a, b)
        monkeypatch.setattr(liealg, "bracket", counting)
        assert check_jacobi(combinations(range(10), 3)) is None
        assert len(calls) == 405
