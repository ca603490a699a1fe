"""Root-system kernel: dimensions, weight systems, tensors, branchings.

The ambient realizations in ``conftest.AMBIENT`` are the oracle for the
Cartan-matrix model: ``rep``'s weights are Dynkin labels, and the tests
take them to ambient vectors where a fact is stated there.
"""
import copy
import json
from collections import Counter
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest

from berger import cli, rep
from berger.rep import A1, B2, G2, RootSystem
from berger.scalar import CertificateError
from conftest import AMBIENT, to_ambient, to_dynkin


def clebsch_gordan(j1, j2):
    """Independent oracle: spin content of the product of two spins."""
    j1, j2 = F(j1), F(j2)
    out = Counter()
    j = abs(j1 - j2)
    while j <= j1 + j2:
        out[j] += 1
        j += 1
    return out


def determinant(m):
    """Cofactor expansion along the first row."""
    if len(m) == 1:
        return m[0][0]
    return sum((-1) ** j * m[0][j]
               * determinant([row[:j] + row[j + 1:] for row in m[1:]])
               for j in range(len(m)))


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def act(m, v):
    return tuple(dot(row, v) for row in m)


def matmul(a, b):
    return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


class TestRootSystemData:
    def test_cartan_matrices(self):
        def cartan(simple):
            return [[2 * dot(b, a) / dot(a, a) for b in simple] for a in simple]
        assert cartan(AMBIENT["A1"].simple) == [[2]]
        assert cartan(AMBIENT["B2"].simple) == [[2, -1], [-2, 2]]
        assert cartan(AMBIENT["G2"].simple) == [[2, -3], [-1, 2]]
        for system in (A1, B2, G2):  # rep stores the transpose
            assert [list(c) for c in zip(*system.cartan)] \
                == cartan(AMBIENT[system.name].simple)

    def test_fundamental_weights_are_dual_to_the_coroots(self):
        for name, (simple, _, omega) in AMBIENT.items():
            for i, w in enumerate(omega):
                assert to_dynkin(w, simple) == tuple(int(i == j)
                                                     for j in range(len(simple)))

    def test_derived_positive_roots_and_rho(self):
        for system in (A1, B2, G2):
            simple, positive, _ = AMBIENT[system.name]
            want = sorted(to_dynkin(b, simple) for b in positive)
            assert sorted(system._lattice.positive) == want
            twice_rho = tuple(map(sum, zip(*positive)))
            assert to_dynkin(twice_rho, simple) == system._lattice.rho2

    def test_weyl_group_orders(self, weyl):
        for system, order in ((A1, 2), (B2, 8), (G2, 12)):
            simple, positive, _ = AMBIENT[system.name]
            group = weyl(simple)
            assert len(group) == order
            assert len({m for m, _ in group}) == order
            twice_rho = tuple(map(sum, zip(*positive)))
            orbit = set()
            for m, sign in group:
                assert sign == determinant(m)
                # the lattice orbit of the regular weight 2 rho: each
                # image dominates back to 2 rho with the element's sign
                labels = to_dynkin(act(m, twice_rho), simple)
                assert system._dominate(labels) == (system._lattice.rho2, sign, False)
                orbit.add(labels)
            assert len(orbit) == order
            assert sum(sign for _, sign in group) == 0

    def test_closed_under_composition(self, weyl):
        v = (F(2), F(5), F(-7))
        for system in (A1, B2, G2):
            simple = AMBIENT[system.name].simple
            group = dict(weyl(simple))
            u = v[:len(simple[0])]
            for a, sa in group.items():
                for b, sb in group.items():
                    c = matmul(a, b)
                    assert group[c] == sa * sb
                    assert act(c, u) == act(a, act(b, u))

    def test_g2_roots_lie_in_trace_zero_plane(self):
        _, positive, omega = AMBIENT["G2"]
        for v in positive + omega:
            assert sum(v) == 0
        # each derived root, taken to Q^3, is one of the ambient roots
        assert {to_ambient(b, omega) for b in G2._lattice.positive} \
            == set(positive)

    def test_root_lengths(self):
        # three short and three long positive roots for G2, measured by
        # the derived Gram matrix: (beta, beta) = s |beta|^2
        lattice = G2._lattice
        lengths = sorted(dot(b, g) for b, g in zip(lattice.positive,
                                                   lattice.gram_positive))
        s = lengths[0] // 2
        assert lengths == [2 * s] * 3 + [6 * s] * 3

    def test_dominate_tracks_signs(self):
        # ambient (-1, 2) goes to (2, 1) by an even Weyl element
        simple = AMBIENT["B2"].simple
        dom, sign, wall = B2._dominate(to_dynkin((-1, 2), simple))
        assert dom == to_dynkin((2, 1), simple) and sign == 1 and not wall
        on_wall = B2._dominate(to_dynkin((1, 1), simple))
        assert on_wall[0] == to_dynkin((1, 1), simple) and on_wall[2]


class TestDimensions:
    def test_g2_dimensions(self):
        assert G2.weyl_dimension((0, 0)) == 1
        assert G2.weyl_dimension((0, 1)) == 7
        assert G2.weyl_dimension((1, 0)) == 14
        assert G2.weyl_dimension((0, 2)) == 27

    def test_b2_dimensions(self):
        assert B2.weyl_dimension((0, 0)) == 1
        assert B2.weyl_dimension((1, 0)) == 5
        assert B2.weyl_dimension((1, 1)) == 10
        assert B2.weyl_dimension((F(1, 2), F(1, 2))) == 4

    def test_a1_dimensions(self):
        for k in (0, F(1, 2), 1, F(3, 2), 3, 6):
            assert A1.weyl_dimension(k) == 2 * k + 1

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            G2.weyl_dimension((-1, 0))
        with pytest.raises(ValueError):
            B2.weyl_dimension((0, 1))  # q > p
        with pytest.raises(ValueError):
            A1.weyl_dimension(F(1, 4))  # not in the weight lattice


def ambient_weights(system, label):
    """The weight multiset of ``system.freudenthal`` in ambient vectors."""
    omega = AMBIENT[system.name].omega
    return {to_ambient(v, omega): m for v, m in system.freudenthal(label).items()}


class TestWeightSystems:
    def test_g2_standard_weights(self):
        wts = ambient_weights(G2, (0, 1))
        assert sum(wts.values()) == 7
        assert wts[(0, 0, 0)] == 1
        shorts = {v for v, m in wts.items() if v != (0, 0, 0)}
        assert len(shorts) == 6
        assert all(sum(c * c for c in v) == 2 for v in shorts)

    def test_g2_adjoint_weights(self):
        wts = G2.freudenthal((1, 0))
        assert wts[(0, 0)] == 2
        assert sum(wts.values()) == 14

    def test_b2_standard_weights(self):
        wts = ambient_weights(B2, (1, 0))
        assert wts == {(F(1), F(0)): 1, (F(-1), F(0)): 1,
                       (F(0), F(1)): 1, (F(0), F(-1)): 1, (F(0), F(0)): 1}
        # the same weights as Dynkin labels (p - q, 2q)
        assert B2.freudenthal((1, 0)) == {(1, 0): 1, (-1, 0): 1, (-1, 2): 1,
                                          (1, -2): 1, (0, 0): 1}

    def test_b2_adjoint_weights(self):
        wts = ambient_weights(B2, (1, 1))
        assert wts[(0, 0)] == 2
        assert sum(wts.values()) == 10
        nonzero = {v for v, m in wts.items() if m == 1}
        roots = set(AMBIENT["B2"].positive)
        assert nonzero == roots | {(-a, -b) for a, b in roots}

    def test_a1_string(self):
        assert ambient_weights(A1, 3) == {(F(k),): 1 for k in range(-3, 4)}
        assert A1.freudenthal(3) == {(2 * k,): 1 for k in range(-3, 4)}

    def test_weight_systems_are_weyl_invariant(self, weyl):
        assert sum(G2.freudenthal((0, 2)).values()) == 27
        grids = ((A1, [F(k, 2) for k in range(11)]),
                 (B2, [(F(p, 2), F(q, 2)) for p in range(7)
                       for q in range(p + 1) if (p - q) % 2 == 0]),
                 (G2, [(a, b) for a in range(4) for b in range(4 - a)]))
        for system, labels in grids:
            group = weyl(AMBIENT[system.name].simple)
            for label in labels:
                wts = ambient_weights(system, label)
                assert sum(wts.values()) == system.weyl_dimension(label)
                for w, _ in group:
                    assert {act(w, v): m for v, m in wts.items()} == wts

    def test_mass_matches_dimension_sweep(self):
        for label in ((0, 0), (1, 0), (1, 1), (2, 0), (2, 1), (2, 2),
                      (F(1, 2), F(1, 2)), (F(3, 2), F(1, 2))):
            wts = B2.freudenthal(label)
            assert sum(wts.values()) == B2.weyl_dimension(label)


class TestTensor:
    def test_g2_square_of_standard(self):
        assert G2.klimyk_tensor((0, 1), (0, 1)) == [
            ((0, 0), 1), ((0, 1), 1), ((1, 0), 1), ((0, 2), 1)]

    def test_tensor_with_trivial(self):
        assert G2.klimyk_tensor((0, 0), (1, 0)) == [((1, 0), 1)]
        assert B2.klimyk_tensor((0, 0), (1, 1)) == [((1, 1), 1)]
        assert A1.klimyk_tensor(0, F(5, 2)) == [(F(5, 2), 1)]

    def test_a1_matches_clebsch_gordan(self):
        for j1 in (0, F(1, 2), 1, F(3, 2), 2, 3):
            for j2 in (0, F(1, 2), 1, 3):
                got = Counter(dict(A1.klimyk_tensor(j1, j2)))
                assert got == clebsch_gordan(j1, j2)

    def test_b2_spinor_square(self):
        got = B2.klimyk_tensor((F(1, 2), F(1, 2)), (F(1, 2), F(1, 2)))
        assert got == [((0, 0), 1), ((1, 0), 1), ((1, 1), 1)]

    def test_dimension_bookkeeping(self):
        # 7*7 = 1 + 7 + 14 + 27 and 8*8 = 1 + 7 + 7 + 49
        pieces = rep.imaginary_square_pieces()
        dims = [G2.weyl_dimension(label) for label, _ in pieces]
        assert dims == [1, 7, 14, 27]
        assert sum(dims) == 49
        assert 8 * 8 == 1 + 7 + 7 + 49

    def test_dimension_sum_property(self):
        for a, b in (((0, 1), (1, 0)), ((0, 2), (0, 1)), ((1, 0), (1, 0))):
            total = sum(m * G2.weyl_dimension(label)
                        for label, m in G2.klimyk_tensor(a, b))
            assert total == G2.weyl_dimension(a) * G2.weyl_dimension(b)

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            G2.klimyk_tensor((0, 1), (0, -1))


class TestPrincipalBranching:
    def test_standard_is_one_string(self):
        assert rep.branch_principal_sl2((0, 1)) == [(3, 1)]

    def test_adjoint(self):
        assert rep.branch_principal_sl2((1, 0)) == [(1, 1), (5, 1)]

    def test_symmetric_piece(self):
        assert rep.branch_principal_sl2((0, 2)) == [(2, 1), (4, 1), (6, 1)]

    def test_trivial(self):
        assert rep.branch_principal_sl2((0, 0)) == [(0, 1)]

    def test_dimension_sums(self):
        for label in ((0, 1), (1, 0), (0, 2), (1, 1)):
            total = sum(m * (2 * k + 1)
                        for k, m in rep.branch_principal_sl2(label))
            assert total == G2.weyl_dimension(label)

    def test_level_multiset_equality(self):
        # the branched strings reproduce the weight multiset restricted
        # by an ambient level functional, 1 on each simple root: the
        # oracle for the lattice's derived level
        cases = ((G2, (F(4, 3), F(1, 3), F(-5, 3)), rep.branch_principal_sl2,
                  ((0, 1), (1, 0), (0, 2))),
                 (B2, (F(2), F(1)), lambda lab: rep.branch_so5_to_so3(*lab),
                  ((1, 0), (1, 1), (F(1, 2), F(1, 2)), (F(3, 2), F(1, 2)))))
        for system, functional, branch, labels in cases:
            assert all(dot(a, functional) == 1
                       for a in AMBIENT[system.name].simple)
            for label in labels:
                levels = Counter()
                for v, m in ambient_weights(system, label).items():
                    levels[dot(v, functional)] += m
                rebuilt = Counter()
                for k, m in branch(label):
                    for step in range(int(2 * k) + 1):
                        rebuilt[k - step] += m
                assert levels == rebuilt, (system.name, label)

    def test_derived_level(self):
        assert B2._lattice.level == (4, 3)
        assert G2._lattice.level == (6, 10)
        assert A1._lattice.level == (1,)
        for system in (A1, B2, G2):
            # each simple root, a Cartan row in labels, has doubled level 2
            for row in system.cartan:
                assert dot(row, system._lattice.level) == 2


class TestSubgroupBranching:
    def test_standard(self):
        assert rep.branch_so5_to_so3(1, 0) == [(2, 1)]

    def test_adjoint(self):
        assert rep.branch_so5_to_so3(1, 1) == [(1, 1), (3, 1)]

    def test_trivial(self):
        assert rep.branch_so5_to_so3(0, 0) == [(0, 1)]

    def test_spin_module_is_irreducible(self):
        assert rep.branch_so5_to_so3(F(1, 2), F(1, 2)) == [(F(3, 2), 1)]

    def test_rejects_dominance_violation(self):
        with pytest.raises(ValueError):
            rep.branch_so5_to_so3(0, 1)

    def test_spinor_square_consistency(self):
        # branching the three summands of the spin square matches
        # Clebsch-Gordan on two spin-3/2 factors
        total = Counter()
        for label, mult in B2.klimyk_tensor((F(1, 2), F(1, 2)),
                                            (F(1, 2), F(1, 2))):
            for k, m in rep.branch_so5_to_so3(*label):
                total[k] += mult * m
        assert total == clebsch_gordan(F(3, 2), F(3, 2))


class TestStringPeel:
    # levels are doubled spins: the count at t is that of spin t/2
    def test_rejects_asymmetric_multiset(self):
        with pytest.raises(CertificateError, match="not symmetric and unimodal"):
            rep.string_peel(Counter({4: 1, 2: 1, 0: 1}))

    def test_rejects_non_unimodal_multiset(self):
        with pytest.raises(CertificateError, match="not symmetric and unimodal"):
            rep.string_peel(Counter({2: 1, -2: 1}))

    def test_half_integer_strings(self):
        levels = Counter({3: 1, 1: 2, -1: 2, -3: 1})
        assert rep.string_peel(levels) == [(F(1, 2), 1), (F(3, 2), 1)]


class TestSplitVerification:
    def test_two_routes_agree(self):
        direct, via_g2 = rep.spinor_square_two_ways()
        assert direct == via_g2

    def test_expected_content(self):
        direct, _ = rep.spinor_square_two_ways()
        assert direct == Counter({F(0): 2, F(1): 1, F(2): 1, F(3): 3,
                                  F(4): 1, F(5): 1, F(6): 1})
        assert sum(m * (2 * k + 1) for k, m in direct.items()) == 64

    def test_summands_have_disjoint_spin_content(self):
        assert rep.disjoint_spin_content()
        assert not rep.disjoint_spin_content(((0, 1), (0, 1)))
        # adjoint and the 7-dim share nothing; (1,1) overlaps both
        assert rep.disjoint_spin_content(((0, 1), (1, 0)))


class TestCertificates:
    """Negative controls: each certificate raises CertificateError on a
    corrupted input, so none of them depends on ``assert``."""

    @pytest.fixture(autouse=True)
    def fresh_multiplicities(self):
        RootSystem._freudenthal.cache_clear()
        yield
        RootSystem._freudenthal.cache_clear()

    @staticmethod
    def b2_without_short_root():
        # B2's derived lattice with the short root (1, 0) left out, in
        # ambient and in Dynkin labels alike
        system = copy.copy(B2)
        lattice = B2._lattice
        positive = tuple(b for b in lattice.positive if b != (1, 0))
        assert len(positive) == 3
        system._lattice = lattice._replace(
            positive=positive, rho2=tuple(map(sum, zip(*positive))),
            gram_positive=tuple(act(lattice.gram, b) for b in positive))
        return system

    def test_weyl_dimension_integrality(self):
        with pytest.raises(CertificateError, match="not a positive integer"):
            self.b2_without_short_root().weyl_dimension((2, 0))

    def test_freudenthal_multiplicity_integrality(self):
        with pytest.raises(CertificateError, match="not a nonnegative integer"):
            self.b2_without_short_root().freudenthal((2, 1))

    def test_freudenthal_sum(self, monkeypatch):
        dim = RootSystem._dim
        monkeypatch.setattr(RootSystem, "_dim", lambda self, lam: dim(self, lam) + 1)
        with pytest.raises(CertificateError, match="do not sum to its Weyl"):
            B2.freudenthal((1, 0))

    def test_klimyk_nonnegativity(self, monkeypatch):
        dominate = RootSystem._dominate

        def flipped(self, v):
            dom, sign, wall = dominate(self, v)
            return dom, -sign, wall
        monkeypatch.setattr(RootSystem, "_dominate", flipped)
        with pytest.raises(CertificateError, match="negative Klimyk"):
            A1.klimyk_tensor(1, 1)

    def test_klimyk_dimension(self, monkeypatch):
        # the trivial module, Dynkin labels (0,), reported one dimension
        # too large
        dim = RootSystem._dim
        monkeypatch.setattr(RootSystem, "_dim",
                            lambda self, lam: dim(self, lam) + (lam == (0,)))
        with pytest.raises(CertificateError, match="do not multiply"):
            A1.klimyk_tensor(1, 1)

    def test_branching_dimension_sum(self, monkeypatch):
        peel = rep.string_peel
        monkeypatch.setattr(rep, "string_peel", lambda levels: peel(levels)[1:])
        with pytest.raises(CertificateError, match="do not add up"):
            rep.branch_so5_to_so3(1, 1)

    def test_fractional_level(self):
        # simple roots at 60 degrees: a symmetric, positive definite
        # integral matrix with no root system behind it, whose doubled
        # principal level is 2/3
        bad = RootSystem("bad", [[2, 1], [1, 2]], None, None)
        with pytest.raises(CertificateError,
                           match=r"fractional principal level \(2/3, 2/3\)"):
            bad._lattice

    @pytest.mark.parametrize("cartan", (
        [[2, -2], [-2, 2]],  # affine A1: det 0, no inverse
        [[2, -3], [-3, 2]],  # hyperbolic, det -5: infinitely many roots
        [[2, 1], [-1, 2]],  # det 5, not symmetrizable: infinitely many
        [[2, 0], [-1, 2]],  # det 4, not symmetrizable: infinitely many
        [[3]],  # not a Cartan matrix: infinitely many
    ))
    def test_not_finite_type(self, cartan):
        # refused before any closure runs, so none of these hangs
        bad = RootSystem("bad", cartan, None, None)
        with pytest.raises(CertificateError, match="is not of finite type"):
            bad._lattice

    def test_cli_exits_1(self, monkeypatch, capsys):
        peel = rep.string_peel
        monkeypatch.setattr(rep, "string_peel", lambda levels: peel(levels)[1:])
        assert cli.main(["rep", "--branch", "1,0"]) == 1
        assert "error: branching dimensions" in capsys.readouterr().err


class TestLabelBoxOracle:
    """Every label pair of the benchmark's label boxes: A1 spins up to 3,
    B2 labels with p <= 2, G2 labels with a + b <= 2."""

    BOXES = {
        "A1": [F(k, 2) for k in range(7)],
        "B2": [(F(p, 2), F(q, 2)) for p in range(5) for q in range(p + 1)
               if (p - q) % 2 == 0],
        "G2": [(F(a), F(b)) for a in range(3) for b in range(3) if a + b <= 2],
    }
    #: the outputs of the Fraction-based kernel this one replaced
    TABLE = json.loads(Path(__file__).with_name("rep_label_boxes.json").read_text())

    @staticmethod
    def key(label):
        return str(label) if isinstance(label, F) else ",".join(map(str, label))

    @staticmethod
    def decode(text):
        parts = tuple(F(c) for c in text.split(","))
        return parts if "," in text else parts[0]

    @pytest.mark.parametrize("group", sorted(BOXES))
    def test_summands_convolve_the_factors(self, group):
        # the weights of a tensor product are the sums of the factors'
        # weights, so the summands' weight multisets must add up to that
        system = getattr(rep, group)
        for a, b in product(self.BOXES[group], repeat=2):
            want = Counter()
            for (u, m), (v, n) in product(system.freudenthal(a).items(),
                                          system.freudenthal(b).items()):
                want[tuple(x + y for x, y in zip(u, v))] += m * n
            got = Counter()
            for label, mult in system.klimyk_tensor(a, b):
                for w, m in system.freudenthal(label).items():
                    got[w] += mult * m
            assert got == want, (a, b)

    @pytest.mark.parametrize("group", sorted(BOXES))
    def test_matches_the_recorded_table(self, group):
        system, table = getattr(rep, group), self.TABLE[group]
        labels = self.BOXES[group]
        assert sorted(table["dim"]) == sorted(map(self.key, labels))
        for a in labels:
            assert system.weyl_dimension(a) == table["dim"][self.key(a)]
        for a, b in product(labels, repeat=2):
            got = system.klimyk_tensor(a, b)
            want = table["tensor"]["%s x %s" % (self.key(a), self.key(b))]
            assert got == [(self.decode(lab), m) for lab, m in want], (a, b)
            assert all(isinstance(c, F) for lab, _ in got
                       for c in (lab if isinstance(lab, tuple) else (lab,)))
        branch = {"A1": None, "B2": lambda lab: rep.branch_so5_to_so3(*lab),
                  "G2": rep.branch_principal_sl2}[group]
        assert (branch is None) == ("branch" not in table)
        for a in labels if branch else ():
            want = table["branch"][self.key(a)]
            assert branch(a) == [(F(k), m) for k, m in want]
