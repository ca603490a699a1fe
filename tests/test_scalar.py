"""Field arithmetic in Q(sqrt2, sqrt3, sqrt5, sqrt7) and pi-monomials."""
import os
import random
import subprocess
import sys
from fractions import Fraction as F

import pytest

from berger.scalar import (RADICANDS, CertificateError, PiScalar, SqrtField,
                           rational_to_json)


def sq(r):
    return SqrtField.sqrt(r)


def rat(p, q=1):
    return SqrtField.rational(F(p, q))


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

    def test_rendering(self):
        x = rat(3, 2) - SqrtField.term(F(1, 3), 10)
        assert str(x) == "3/2 - 1/3*sqrt(10)"
        assert str(SqrtField()) == "0"


class TestInverse:
    def test_inverse_of_sqrt5(self):
        assert sq(5).inverse() == SqrtField.term(F(1, 5), 5)

    def test_inverse_of_one_plus_sqrt5(self):
        # 1/(1+sqrt5) = (sqrt5-1)/4
        x = rat(1) + sq(5)
        assert x.inverse() == (sq(5) - rat(1)) * rat(1, 4)

    def test_inverse_of_rational(self):
        assert rat(7).inverse() == rat(1, 7)

    def test_inverse_roundtrip_random(self):
        rng = random.Random(20110)
        for _ in range(40):
            coords = {r: F(rng.randint(-4, 4), rng.randint(1, 5))
                      for r in rng.sample(RADICANDS, rng.randint(1, 4))}
            x = SqrtField(coords)
            if x.is_zero():
                continue
            assert x * x.inverse() == rat(1)

    def test_division(self):
        assert (sq(2) / sq(5)) * sq(5) == sq(2)
        assert sq(10) / sq(2) == sq(5)

    # a conjugate that is the identity leaves (1 + sqrt2)^2 = 3 + 2 sqrt2;
    # one that returns zero leaves a zero norm
    @pytest.mark.parametrize("conjugate, message", [
        (lambda self, prime: self, r"keeps sqrt\(2\)"),
        (lambda self, prime: SqrtField(), "is not a nonzero rational"),
    ], ids=["identity", "zero"])
    def test_norm_certificate_rejects_a_bad_conjugate(self, monkeypatch,
                                                      conjugate, message):
        monkeypatch.setattr(SqrtField, "conjugate", conjugate)
        with pytest.raises(CertificateError, match=message):
            (rat(1) + sq(2)).inverse()

    def test_norm_certificate_survives_optimize_flag(self):
        code = ("import sys\n"
                "from berger.scalar import CertificateError, SqrtField\n"
                "SqrtField.conjugate = lambda self, prime: self\n"
                "try:\n"
                "    (SqrtField.rational(1) + SqrtField.sqrt(2)).inverse()\n"
                "except CertificateError as err:\n"
                "    print(sys.flags.optimize, err)\n")
        env = dict(os.environ, PYTHONPATH=os.path.join(
            os.path.dirname(__file__), "..", "src"))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout == "1 partial norm of 1 + sqrt(2) keeps sqrt(2)\n", \
            out.stderr


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
    def test_grading_addition(self):
        a = PiScalar.of(sq(5), 2)
        b = PiScalar.of(rat(1, 3), 2)
        assert a + b == PiScalar.of(sq(5) + rat(1, 3), 2)

    def test_multiplication_adds_exponents(self):
        a = PiScalar.of(rat(2), -4)
        b = PiScalar.of(sq(5), 4)
        assert a * b == PiScalar.of(SqrtField.term(2, 5), 0)
        assert a * b == SqrtField.term(2, 5)

    def test_pi_constant(self):
        pi = PiScalar.of(1, 1)
        assert str(pi) == "1*pi"
        assert pi * pi == PiScalar.of(rat(1), 2)

    def test_as_rational(self):
        x = PiScalar.of(rat(-49, 50000))
        assert x.as_rational() == F(-49, 50000)
        with pytest.raises(ValueError):
            PiScalar.of(rat(1), 2).as_rational()

    def test_mixed_degree_sum_is_rejected(self):
        # the pipeline never adds different powers of pi, so a sum that
        # would need two of them is a failed certificate
        with pytest.raises(CertificateError, match="mixes powers of pi"):
            PiScalar.of(rat(8), 2) + PiScalar.of(sq(5), 0)
        with pytest.raises(CertificateError):
            PiScalar.of(1, 2) + PiScalar.of(1, 3)

    def test_mixed_degrees_render(self):
        # a mixed sum cannot be built; its refusal names both terms as
        # they print
        with pytest.raises(CertificateError) as err:
            PiScalar.of(rat(8), 2) + PiScalar.of(sq(5), 0)
        assert str(err.value) == "8*pi^2 + sqrt(5) mixes powers of pi"

    def test_json_shape(self):
        assert rational_to_json(F(-27, 1120)) == {"num": "-27", "den": "1120"}

    def test_zero_is_dropped(self):
        a = PiScalar.of(rat(1), 3)
        x = a + (-a)
        assert x.is_zero()
        assert x == PiScalar()
        # zero adds to a term of any power of pi
        assert x + PiScalar.of(sq(7), -2) == PiScalar.of(sq(7), -2)

    def test_unsupported_coefficient_is_a_type_error(self):
        with pytest.raises(TypeError):
            PiScalar.of(0.5)
