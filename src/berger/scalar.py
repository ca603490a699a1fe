"""Exact scalar arithmetic for the whole pipeline.

Three layers, each exact (no floating point anywhere in a result):

* ``Fraction`` -- arbitrary-precision rationals (``fractions.Fraction``).
* ``SqrtField`` -- the real field Q(sqrt2, sqrt3, sqrt5, sqrt7), stored as
  rational coordinates with respect to the 16 square roots of the squarefree
  divisors of 210.
* ``PiScalar`` -- finite sums  sum_k  c_k * pi^k  with ``SqrtField``
  coefficients, graded by the integer power of pi.

All values are immutable; every operation returns a new object, so instances
can be shared freely between threads.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, Union


#: the squarefree radicands supported by SqrtField: all 16 divisors of 210.
RADICANDS = tuple(d for d in range(1, 211) if 210 % d == 0)
_RADICAND_SET = frozenset(RADICANDS)
_PRIMES = (2, 3, 5, 7)

# sqrt(a)*sqrt(b) = g*sqrt(a*b/g^2) with g = gcd(a, b); for squarefree a, b
# the reduced radicand a*b/g^2 is again a squarefree divisor of 210.
_MUL_TABLE = {}
for _a in RADICANDS:
    for _b in RADICANDS:
        _g = gcd(_a, _b)
        _MUL_TABLE[(_a, _b)] = (_g, (_a // _g) * (_b // _g))

_ZERO = Fraction(0)
_ONE = Fraction(1)

_Coercible = Union["SqrtField", Fraction, int]


class CertificateError(ArithmeticError):
    """A failed exact certificate; raised explicitly, so ``python -O`` keeps it."""


class SqrtField:
    """An element of Q(sqrt2, sqrt3, sqrt5, sqrt7).

    Coordinates are a map radicand -> Fraction over the 16 squarefree
    divisors of 210; zero coordinates are never stored, which makes the
    representation canonical (two elements are equal iff their coordinate
    maps are equal).
    """

    __slots__ = ("_c",)

    def __init__(self, coords: Mapping[int, Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coords:
            for r, q in coords.items():
                if r not in _RADICAND_SET:
                    raise ValueError(f"unsupported radicand {r!r}")
                if not isinstance(q, Fraction):
                    q = Fraction(q)
                if q:
                    clean[r] = q
        self._c = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def rational(cls, p: Fraction | int, q: int = 1) -> "SqrtField":
        return cls({1: Fraction(p, q) if q != 1 else Fraction(p)})

    @classmethod
    def sqrt(cls, r: int) -> "SqrtField":
        """sqrt(r) for a squarefree divisor r of 210."""
        return cls({r: _ONE})

    @classmethod
    def term(cls, coeff: Fraction | int, r: int = 1) -> "SqrtField":
        """coeff * sqrt(r)."""
        return cls({r: Fraction(coeff)})

    @staticmethod
    def _coerce(x: _Coercible) -> "SqrtField | None":
        if isinstance(x, SqrtField):
            return x
        if isinstance(x, (int, Fraction)):
            return SqrtField({1: Fraction(x)})
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other: _Coercible) -> "SqrtField":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        c = dict(self._c)
        for r, q in o._c.items():
            c[r] = c.get(r, _ZERO) + q
        return SqrtField(c)

    __radd__ = __add__

    def __neg__(self) -> "SqrtField":
        return SqrtField({r: -q for r, q in self._c.items()})

    def __sub__(self, other: _Coercible) -> "SqrtField":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other: _Coercible) -> "SqrtField":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        acc: dict[int, Fraction] = {}
        for ra, qa in self._c.items():
            for rb, qb in o._c.items():
                g, rr = _MUL_TABLE[(ra, rb)]
                q = qa * qb
                if g != 1:
                    q *= g
                if rr in acc:
                    acc[rr] += q
                else:
                    acc[rr] = q
        return SqrtField(acc)

    __rmul__ = __mul__

    def conjugate(self, prime: int) -> "SqrtField":
        """Galois conjugate sending sqrt(prime) -> -sqrt(prime)."""
        if prime not in _PRIMES:
            raise ValueError(f"conjugate needs one of the primes {_PRIMES}, "
                             f"got {prime!r}")
        return SqrtField(
            {r: (-q if r % prime == 0 else q) for r, q in self._c.items()}
        )

    def inverse(self) -> "SqrtField":
        """Multiplicative inverse via successive Galois norms."""
        if not self._c:
            raise ZeroDivisionError("inverse of zero field element")
        # Multiply by one conjugate per prime: each step kills that sqrt.
        num = SqrtField({1: _ONE})
        cur = self
        for p in _PRIMES:
            conj = cur.conjugate(p)
            num = num * conj
            cur = cur * conj
            if any(r % p == 0 for r in cur._c):
                raise CertificateError(f"partial norm of {self} keeps sqrt({p})")
        if not (cur.is_rational() and cur._c):
            raise CertificateError(f"norm of {self} is not a nonzero rational")
        n = cur._c[1]
        return SqrtField({r: q / n for r, q in num._c.items()})

    def __truediv__(self, other: _Coercible) -> "SqrtField":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    # -- predicates ---------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def is_rational(self) -> bool:
        return all(r == 1 for r in self._c)

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is irrational")
        return self._c.get(1, _ZERO)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if isinstance(other, (SqrtField, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self._c == o._c

    def __hash__(self) -> int:
        return hash(frozenset(self._c.items()))

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for r in sorted(self._c):
            q = self._c[r]
            if r == 1:
                term = str(q)
            elif q == 1:
                term = f"sqrt({r})"
            elif q == -1:
                term = f"-sqrt({r})"
            else:
                term = f"{q}*sqrt({r})"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"SqrtField({self})"


ZERO = SqrtField()
ONE = SqrtField.rational(1)

_PiCoercible = Union["PiScalar", SqrtField, Fraction, int]


class PiScalar:
    """A finite sum  sum_k  c_k * pi^k  with c_k in SqrtField, k in Z.

    Powers of pi are algebraically independent over the coefficient field,
    so the graded representation is canonical and exact.
    """

    __slots__ = ("_t",)

    def __init__(self, terms: Mapping[int, SqrtField] | None = None):
        clean: dict[int, SqrtField] = {}
        if terms:
            for k, c in terms.items():
                if not isinstance(c, SqrtField):
                    c = SqrtField({1: Fraction(c)})
                if not c.is_zero():
                    clean[int(k)] = c
        self._t = clean

    @classmethod
    def of(cls, c: SqrtField | Fraction | int, k: int = 0) -> "PiScalar":
        """c * pi^k."""
        if not isinstance(c, SqrtField):
            c = SqrtField({1: Fraction(c)})
        return cls({k: c})

    @staticmethod
    def _coerce(x: _PiCoercible) -> "PiScalar | None":
        if isinstance(x, PiScalar):
            return x
        if isinstance(x, (SqrtField, int, Fraction)):
            return PiScalar.of(x)
        return None

    def __add__(self, other: _PiCoercible) -> "PiScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t = dict(self._t)
        for k, c in o._t.items():
            t[k] = t.get(k, ZERO) + c
        return PiScalar(t)

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return PiScalar({k: -c for k, c in self._t.items()})

    def __mul__(self, other: _PiCoercible) -> "PiScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        t: dict[int, SqrtField] = {}
        for ka, ca in self._t.items():
            for kb, cb in o._t.items():
                k = ka + kb
                prod = ca * cb
                t[k] = t.get(k, ZERO) + prod
        return PiScalar(t)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other) if isinstance(
            other, (PiScalar, SqrtField, int, Fraction)) else None
        if o is None:
            return NotImplemented
        return self._t == o._t

    def __bool__(self) -> bool:
        return bool(self._t)

    def is_zero(self) -> bool:
        return not self._t

    def coefficient(self, k: int) -> SqrtField:
        """Coefficient of pi^k."""
        return self._t.get(k, ZERO)

    def pi_degrees(self) -> tuple[int, ...]:
        return tuple(sorted(self._t))

    def is_pi_free(self) -> bool:
        return all(k == 0 for k in self._t)

    def as_sqrtfield(self) -> SqrtField:
        if not self.is_pi_free():
            raise ValueError(f"{self} involves pi")
        return self._t.get(0, ZERO)

    def as_rational(self) -> Fraction:
        return self.as_sqrtfield().as_rational()

    def __str__(self) -> str:
        if not self._t:
            return "0"
        parts = []
        for k in sorted(self._t):
            c = self._t[k]
            cs = str(c)
            if ("+" in cs or "- " in cs) and k != 0:
                cs = f"({cs})"
            if k == 0:
                parts.append(cs)
            elif k == 1:
                parts.append(f"{cs}*pi")
            else:
                parts.append(f"{cs}*pi^{k}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"PiScalar({self})"


PI = PiScalar.of(1, 1)


def rational_to_json(q: Fraction) -> dict:
    """Exact JSON form of a rational: {"num": str, "den": str}."""
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}
