"""The so(5) = h (+) p splitting: bases, brackets, structure constants."""
import random
from fractions import Fraction as F
from itertools import combinations

import pytest

from berger import CertificateError, liealg
from berger.liealg import (bracket, bracket_table, check_jacobi, g_basis,
                           h_basis, inner, isotropy_generator,
                           p_basis, so5, structure_constants)
from berger.scalar import SqrtField
from conftest import flip_bracket_entry

ZERO = SqrtField()
ONE = SqrtField.term(1)


def sf(p, q=1, rad=1):
    return SqrtField.term(F(p, q), rad)


def iota_images():
    """iota_12, iota_23, iota_13, the images of the standard so(3)
    generators in so(5): sqrt5 times the orthonormal basis of h."""
    return tuple(f.scale(SqrtField.term(1, 5)) for f in h_basis())


def project_p(v):
    """Coordinates of the p-component of v with respect to e1..e7."""
    return [inner(v, e) for e in p_basis()]


def project_h(v):
    """Coordinates of the h-component of v with respect to f1..f3."""
    return [inner(v, f) for f in h_basis()]


@pytest.fixture
def fresh_table():
    """The bracket table rebuilt from what the test patches, and dropped
    again afterwards so no corrupted table outlives the test."""
    bracket_table.cache_clear()
    yield
    bracket_table.cache_clear()


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
            assert inner(a, a) == SqrtField.term(5)
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


class TestBracketTable:
    def test_matches_the_direct_definition(self):
        # oracle: <g_a, [g_b, g_c]> from bracket and inner, all 1000 entries
        gs = g_basis()
        expected = [[[None] * 10 for _ in gs] for _ in gs]
        for b in range(10):
            for c in range(10):
                br = bracket(gs[b], gs[c])
                for a, g in enumerate(gs):
                    expected[a][b][c] = inner(g, br)
        assert [[list(row) for row in fa] for fa in bracket_table()] == expected

    def test_total_antisymmetry(self):
        f = bracket_table()
        for a in range(10):
            for b in range(10):
                for c in range(10):
                    x = f[a][b][c]
                    assert x == f[b][c][a] == f[c][a][b]
                    assert -x == f[b][a][c] == f[a][c][b] == f[c][b][a]


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

    def test_rejects_isotropy_that_leaves_p(self, monkeypatch, fresh_table):
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


def first_jacobi_failure(f):
    """The first basis triple a < b < c of so(5) at which the table f fails
    Jacobi: sum_d f[d][b][c] f[e][a][d] + cyclic, summed densely over every
    d, is nonzero for some e.  None if every triple closes.  The reference
    for ``check_jacobi``, which sums over the nonzero entries only."""
    for a, b, c in combinations(range(10), 3):
        cyclic = ((a, b, c), (b, c, a), (c, a, b))
        for fe in f:
            total = ZERO
            for i, j, k in cyclic:
                for d in range(10):
                    total = total + f[d][j][k] * fe[i][d]
            if total:
                return (a, b, c)
    return None


#: the 21 nonzero entries a < b < c of the bracket table
NONZERO_ENTRIES = [abc for abc in combinations(range(10), 3)
                   if bracket_table()[abc[0]][abc[1]][abc[2]]]


class TestJacobi:
    def test_all_basis_triples(self):
        triples = list(combinations(range(10), 3))
        assert len(triples) == 120
        assert check_jacobi(triples) is None

    def test_reports_first_offending_triple(self, monkeypatch):
        # <f1, [e5, e6]> negated with its partners: the table is still
        # antisymmetric, and the first triple that sees it is (e2, e3, e6)
        flipped = flip_bracket_entry(bracket_table(), (4, 5, 7))
        monkeypatch.setattr(liealg, "bracket_table", lambda: flipped)
        triples = list(combinations(range(10), 3))
        assert check_jacobi(triples) == (1, 2, 5) == first_jacobi_failure(flipped)
        assert check_jacobi(triples[:triples.index((1, 2, 5))]) is None

    def test_inner_brackets_are_computed_once(self, monkeypatch, fresh_table):
        # the table build makes the 36 brackets [g_b, g_c], 0 < b < c, and
        # the Jacobi check reads the table alone
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return bracket(a, b)
        monkeypatch.setattr(liealg, "bracket", counting)
        bracket_table()
        assert len(calls) == 36
        assert check_jacobi(combinations(range(10), 3)) is None
        assert len(calls) == 36

    def test_each_component_is_checked_on_its_own(self, monkeypatch):
        # [g1, g2] = g3 and [g0, g3] = g4 - g5, all else zero: at (0, 1, 2)
        # the Jacobiator is g4 - g5, whose components sum to zero
        f = [[[ZERO] * 10 for _ in range(10)] for _ in range(10)]
        for (a, b, c), x in {(1, 2, 3): ONE, (0, 3, 4): ONE, (0, 3, 5): -ONE}.items():
            f[a][b][c] = f[b][c][a] = f[c][a][b] = x
            f[b][a][c] = f[a][c][b] = f[c][b][a] = -x
        table = tuple(tuple(map(tuple, fa)) for fa in f)
        monkeypatch.setattr(liealg, "bracket_table", lambda: table)
        assert check_jacobi(combinations(range(10), 3)) == (0, 1, 2)
        assert first_jacobi_failure(table) == (0, 1, 2)

    def test_table_has_21_nonzero_entries(self):
        assert len(NONZERO_ENTRIES) == 21
        assert (0, 1, 3) in NONZERO_ENTRIES and (7, 8, 9) in NONZERO_ENTRIES

    @pytest.mark.parametrize("abc", NONZERO_ENTRIES, ids=lambda abc: "%d-%d-%d" % abc)
    def test_each_flipped_entry_fails(self, abc, monkeypatch):
        # one sign flip at a time, partners included, so only Jacobi and
        # not antisymmetry can see it
        flipped = flip_bracket_entry(bracket_table(), abc)
        monkeypatch.setattr(liealg, "bracket_table", lambda: flipped)
        bad = check_jacobi(combinations(range(10), 3))
        assert bad is not None
        assert bad == first_jacobi_failure(flipped)
