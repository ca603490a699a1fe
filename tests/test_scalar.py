"""Field arithmetic in Q(sqrt2, sqrt3, sqrt5, sqrt7) and pi-monomials."""
import random
from fractions import Fraction as F

import pytest

from berger.cli import rational_to_json
from berger.scalar import RADICANDS, PiScalar, SqrtField


def sq(r):
    return SqrtField.term(1, r)


def rat(p, q=1):
    return SqrtField.term(F(p, q))


class TestSqrtFieldBasics:
    def test_radicands_are_the_divisors_of_210(self):
        assert RADICANDS == (1, 2, 3, 5, 6, 7, 10, 14, 15, 21, 30, 35, 42, 70, 105, 210)

    def test_sqrt2_times_sqrt3(self):
        assert sq(2) * sq(3) == sq(6)

    def test_sqrt10_times_sqrt14_extracts_square(self):
        # sqrt(10)*sqrt(14) = 2*sqrt(35)
        assert sq(10) * sq(14) == SqrtField.term(2, 35)

    def test_sqrt_squares_to_radicand(self):
        for r in RADICANDS:
            assert sq(r) * sq(r) == rat(r)

    def test_difference_of_squares(self):
        # (1+sqrt5)(sqrt5-1)/4 = 1
        lhs = (rat(1) + sq(5)) * (sq(5) - rat(1))
        assert lhs == rat(4)
        assert lhs * rat(1, 4) == rat(1)

    def test_rejects_non_divisor_radicand(self):
        with pytest.raises(ValueError):
            SqrtField({4: F(1)})
        with pytest.raises(ValueError):
            SqrtField({11: F(1)})

    def test_equal_rationals_hash_equal(self):
        # an element equal to an int or a Fraction finds it as a key
        for q in (0, 2, -7, F(1, 2), F(-27, 1120)):
            x = rat(q)
            assert x == q and hash(x) == hash(q)
            assert q in {x} and x in {q} and {x: 1}[q] == 1
        assert hash(sq(5) + rat(1)) == hash(rat(1) + sq(5))

    def test_rendering(self):
        x = rat(3, 2) - SqrtField.term(F(1, 3), 10)
        assert str(x) == "3/2 - 1/3*sqrt(10)"
        assert str(SqrtField()) == "0"


class TestInverse:
    def test_inverse_of_sqrt5(self):
        assert sq(5).inverse() == SqrtField.term(F(1, 5), 5)

    def test_inverse_of_one_plus_sqrt5(self):
        # the pipeline divides only by one term, so a sum is refused;
        # 1/(1+sqrt5) = (sqrt5-1)/4 stays a product identity
        x = rat(1) + sq(5)
        with pytest.raises(ValueError, match="one term"):
            x.inverse()
        assert x * (sq(5) - rat(1)) * rat(1, 4) == rat(1)

    def test_inverse_of_rational(self):
        assert rat(7).inverse() == rat(1, 7)

    def test_inverse_roundtrip_random(self):
        rng = random.Random(20110)
        for _ in range(40):
            x = SqrtField.term(F(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)),
                                 rng.randint(1, 5)), rng.choice(RADICANDS))
            assert x * x.inverse() == rat(1)

    def test_division(self):
        assert (sq(2) / sq(5)) * sq(5) == sq(2)
        assert sq(10) / sq(2) == sq(5)


class TestFieldAxioms:
    def _random_elements(self, n, seed):
        rng = random.Random(seed)
        out = []
        for _ in range(n):
            coords = {r: F(rng.randint(-3, 3), rng.randint(1, 4))
                      for r in rng.sample(RADICANDS, 3)}
            out.append(SqrtField(coords))
        return out

    def test_ring_axioms_random(self):
        xs = self._random_elements(12, seed=99)
        for i in range(0, 12, 3):
            a, b, c = xs[i], xs[i + 1], xs[i + 2]
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
            assert a + b == b + a
            assert a * b == b * a

    def test_subtraction_and_negation(self):
        a = sq(2) + rat(1, 2)
        assert a - a == SqrtField()
        assert -(-a) == a


class TestPiScalar:
    def test_multiplication_adds_exponents(self):
        a = PiScalar.of(rat(2), -4)
        b = PiScalar.of(sq(5), 4)
        assert a * b == PiScalar.of(SqrtField.term(2, 5), 0)
        assert (a * b).k == 0 and (a * b).c == SqrtField.term(2, 5)

    def test_pi_constant(self):
        pi = PiScalar.of(1, 1)
        assert str(pi) == "1*pi"
        assert pi * pi == PiScalar.of(rat(1), 2)

    def test_as_rational(self):
        # a rational monomial is pi^0 with a rational coefficient
        x = PiScalar.of(rat(-49, 50000))
        assert x.k == 0 and x.c.as_rational() == F(-49, 50000)
        assert PiScalar.of(rat(1), 2).k == 2
        with pytest.raises(ValueError):
            PiScalar.of(sq(5)).c.as_rational()

    def test_json_shape(self):
        assert rational_to_json(F(-27, 1120)) == {"num": "-27", "den": "1120"}

    def test_zero_is_dropped(self):
        x = PiScalar.of(rat(1), 3) * 0
        assert x.k == 0
        assert x == PiScalar()
        # zero times a term of any power of pi is the zero monomial
        assert x * PiScalar.of(sq(7), -2) == PiScalar()

    def test_unsupported_coefficient_is_a_type_error(self):
        with pytest.raises(TypeError):
            PiScalar.of(0.5)
