"""B2 root data, Weyl group, restriction, and the boundary weights.

The root data are ``rep.B2``'s; the Weyl group, the weights of the
subgroup line and the boundary weights are ``eta``'s.
"""
import random
from fractions import Fraction as F

import pytest

from berger.eta import (DELTA, RHO_H, WEYL_GROUP, determine_alpha,
                        kappa_weight, restrict_to_s)
from berger.rep import B2


def dot(a, b):
    return a[0] * b[0] + a[1] * b[1]


def add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def act(m, v):
    return (dot(m[0], v), dot(m[1], v))


def matmul(a, b):
    return tuple(tuple(dot(row, col) for col in zip(*b)) for row in a)


class TestFixedData:
    def test_positive_roots(self):
        assert set(B2.positive) == {(1, 1), (1, -1), (1, 0), (0, 1)}
        assert len(B2.positive) == 4

    def test_root_sum_is_twice_rho(self):
        total = (F(0), F(0))
        for beta in B2.positive:
            total = add(total, beta)
        assert total == (3, 1)
        assert B2.rho == (F(3, 2), F(1, 2))

    def test_rho_h(self):
        assert RHO_H == (F(1, 5), F(1, 10))
        assert dot(RHO_H, RHO_H) == F(1, 20)

    def test_kappa3_shifted_norm(self):
        shifted = add(kappa_weight(3), RHO_H)
        assert dot(shifted, shifted) == F(49, 20)

    def test_delta_annihilates_s(self):
        # DELTA doubles as the unnormalized direction E complementary to s
        assert dot(DELTA, (2, 1)) == 0
        assert dot(DELTA, DELTA) == 5


class TestWeylGroup:
    def test_is_the_closure_of_the_simple_reflections(self, weyl):
        assert set(WEYL_GROUP) == weyl(B2.simple)
        for m, sign in WEYL_GROUP:
            assert sign == m[0][0] * m[1][1] - m[0][1] * m[1][0]

    def test_eight_distinct_elements(self):
        group = [m for m, _ in WEYL_GROUP]
        assert len(group) == 8
        assert len(set(group)) == 8

    def test_signs(self):
        signs = dict(WEYL_GROUP)
        ident = ((1, 0), (0, 1))
        swap = ((0, 1), (1, 0))
        minus = ((-1, 0), (0, -1))
        assert signs[ident] == 1
        assert signs[swap] == -1
        assert signs[minus] == 1
        assert sum(signs.values()) == 0

    def test_closed_under_composition(self):
        # the alternating eta sum needs the tracked signs multiplicative
        signs = dict(WEYL_GROUP)
        for a in signs:
            for b in signs:
                c = matmul(a, b)
                assert signs[c] == signs[a] * signs[b]
                v = (F(2), F(5))
                assert act(c, v) == act(a, act(b, v))

    def test_permutes_roots_up_to_sign(self):
        roots = set(B2.positive) | {(-a, -b) for a, b in B2.positive}
        for w, _ in WEYL_GROUP:
            assert {act(w, beta) for beta in roots} == roots


class TestRestriction:
    def test_idempotent_projection(self):
        rng = random.Random(7)
        for _ in range(10):
            x = (F(rng.randint(-9, 9), rng.randint(1, 4)),
                 F(rng.randint(-9, 9), rng.randint(1, 4)))
            p = restrict_to_s(x)
            assert restrict_to_s(p) == p
            # self-adjoint: <Px, y> = <x, Py>
            y = (F(rng.randint(-9, 9)), F(rng.randint(-9, 9)))
            assert dot(p, y) == dot(x, restrict_to_s(y))

    def test_fixed_direction_and_kernel(self):
        assert restrict_to_s((F(2), F(1))) == (2, 1)
        assert restrict_to_s((F(1), F(-2))) == (0, 0)

    def test_weights_on_s_see_only_the_projection(self):
        x = (F(5), F(1))
        p = restrict_to_s(x)
        assert dot(RHO_H, x) == dot(RHO_H, p) == F(11, 10)
        k3 = add(kappa_weight(3), RHO_H)
        assert dot(k3, x) == dot(k3, p)


class TestBoundaryWeights:
    def test_values(self):
        assert determine_alpha(0) == (F(1, 2), F(-1, 2))
        assert determine_alpha(3) == (F(3, 2), F(1, 2))

    def test_window_membership(self):
        assert dot(determine_alpha(0), DELTA) == F(3, 2)
        assert dot(determine_alpha(3), DELTA) == F(1, 2)
        for k in (0, 3):
            assert 0 <= dot(determine_alpha(k), DELTA) < 5
            assert dot(determine_alpha(k), DELTA) != 0

    def test_restriction_condition(self):
        for k in (0, 3):
            alpha = determine_alpha(k)
            target = add(kappa_weight(k), RHO_H)
            x = restrict_to_s((F(3), F(4)))
            assert dot(alpha, x) == dot(target, x)

    def test_rejects_other_inputs(self):
        with pytest.raises(ValueError):
            determine_alpha(1)
