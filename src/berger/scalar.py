"""Exact scalar arithmetic for the whole pipeline.

Three layers, each exact (no floating point anywhere in a result):

* ``Fraction`` -- arbitrary-precision rationals (``fractions.Fraction``).
* ``SqrtField`` -- the real field Q(sqrt2, sqrt3, sqrt5, sqrt7), stored as
  integer numerators over one common denominator, with respect to the 16
  square roots of the squarefree divisors of 210.  ``SqrtField.dot`` is the
  fused sum-of-products kernel of octonion products; ``MUL_TABLE``, the
  product of two radicands, is shared with the graded kernel of ``matrix``.
* ``PiScalar`` -- monomials c * pi^k: a ``SqrtField`` coefficient c times
  an integer power of pi.

All values are immutable; every operation returns a new object, so instances
can be shared freely between threads.  ``dot`` is the one inner product of
plain vectors of ints or Fractions, which ``rep`` and ``eta`` share.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Union


#: the squarefree radicands supported by SqrtField: all 16 divisors of 210.
RADICANDS = tuple(d for d in range(1, 211) if 210 % d == 0)
_RADICAND_SET = frozenset(RADICANDS)
_PRIMES = (2, 3, 5, 7)

#: sqrt(a)*sqrt(b) = g*sqrt(a*b/g^2) with g = gcd(a, b): (a, b) -> (g, a*b/g^2);
#: for squarefree a, b the reduced radicand is again a squarefree divisor of 210.
MUL_TABLE: dict[tuple[int, int], tuple[int, int]] = {}
for _a in RADICANDS:
    for _b in RADICANDS:
        _g = gcd(_a, _b)
        MUL_TABLE[(_a, _b)] = (_g, (_a // _g) * (_b // _g))

_ONE = Fraction(1)

_Coercible = Union["SqrtField", Fraction, int]


class CertificateError(ArithmeticError):
    """A failed exact certificate; raised explicitly, so ``python -O`` keeps it."""


class SqrtField:
    """An element of Q(sqrt2, sqrt3, sqrt5, sqrt7).

    Stored as integer numerators over one common denominator: a map
    radicand -> nonzero ``int`` over the 16 squarefree divisors of 210, and
    a positive ``int`` denominator sharing no factor with all numerators at
    once.  That form is canonical (two elements are equal iff numerator maps
    and denominators are equal), and ``+``/``*`` pay one ``gcd`` per result.
    """

    __slots__ = ("_c", "_d")

    def __init__(self, coords: Mapping[int, Fraction] | None = None):
        qs: dict[int, Fraction] = {}
        if coords:
            for r, q in coords.items():
                if r not in _RADICAND_SET:
                    raise ValueError(f"unsupported radicand {r!r}")
                if not isinstance(q, Fraction):
                    q = Fraction(q)
                if q:
                    qs[r] = q
        # reduced fractions over the lcm of their denominators have no
        # factor common to the denominator and every numerator
        d = lcm(*(q.denominator for q in qs.values()))
        self._c = {r: q.numerator * (d // q.denominator) for r, q in qs.items()}
        self._d = d

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

    @classmethod
    def over(cls, c: Mapping[int, int], d: int) -> "SqrtField":
        """sum_r c[r] sqrt(r) / d for int numerators c and an int d > 0."""
        return _reduced(c, d)

    def numerators(self) -> tuple[Mapping[int, int], int]:
        """The canonical (c, d) with self = sum_r c[r] sqrt(r) / d."""
        return MappingProxyType(self._c), self._d

    @staticmethod
    def _coerce(x: _Coercible) -> "SqrtField | None":
        if isinstance(x, SqrtField):
            return x
        if isinstance(x, (int, Fraction)):
            return SqrtField({1: x})
        return None

    # -- ring operations ----------------------------------------------

    def __add__(self, other: _Coercible) -> "SqrtField":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        # bring both over lcm(da, db); fa = fb = 1 when the denominators agree
        da, db = self._d, o._d
        g = gcd(da, db)
        fa, fb = db // g, da // g
        c = {r: n * fa for r, n in self._c.items()}
        for r, n in o._c.items():
            c[r] = c.get(r, 0) + n * fb
        return _reduced(c, da * fa)

    __radd__ = __add__

    def __neg__(self) -> "SqrtField":
        return _of({r: -n for r, n in self._c.items()}, self._d)

    def __sub__(self, other: _Coercible) -> "SqrtField":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __mul__(self, other: _Coercible) -> "SqrtField":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return SqrtField.dot(((self, o),))

    __rmul__ = __mul__

    @staticmethod
    def dot(pairs: Iterable[tuple["SqrtField", "SqrtField"]]) -> "SqrtField":
        """The sum of a * b over the pairs, in one pass.

        Numerators accumulate as ints over a running common denominator,
        which grows only when a product's denominator does not divide it;
        the sum is reduced once, at the end.
        """
        acc: dict[int, int] = {}
        den = 1
        for a, b in pairs:
            if not (a._c and b._c):
                continue
            d = a._d * b._d
            if den % d:
                grow = d // gcd(den, d)
                den *= grow
                for r in acc:
                    acc[r] *= grow
            s = den // d
            for ra, na in a._c.items():
                for rb, nb in b._c.items():
                    g, rr = MUL_TABLE[(ra, rb)]
                    n = na * nb * g * s
                    acc[rr] = acc[rr] + n if rr in acc else n
        return _reduced(acc, den)

    def conjugate(self, prime: int) -> "SqrtField":
        """Galois conjugate sending sqrt(prime) -> -sqrt(prime)."""
        if prime not in _PRIMES:
            raise ValueError(f"conjugate needs one of the primes {_PRIMES}, "
                             f"got {prime!r}")
        return _of({r: (-n if r % prime == 0 else n) for r, n in self._c.items()},
                   self._d)

    def inverse(self) -> "SqrtField":
        """Multiplicative inverse: in closed form for one term, else via
        successive Galois norms."""
        if not self._c:
            raise ZeroDivisionError("inverse of zero field element")
        if len(self._c) == 1:  # 1/((n/d) sqrt r) = d sqrt(r)/(n r)
            ((r, n),) = self._c.items()
            return _reduced({r: self._d if n > 0 else -self._d}, abs(n) * r)
        # Multiply by one conjugate per prime: each step kills that sqrt.
        num = ONE
        cur = self
        for p in _PRIMES:
            conj = cur.conjugate(p)
            num = num * conj
            cur = cur * conj
            if any(r % p == 0 for r in cur._c):
                raise CertificateError(f"partial norm of {self} keeps sqrt({p})")
        if not (cur.is_rational() and cur._c):
            raise CertificateError(f"norm of {self} is not a nonzero rational")
        return num * (1 / cur.as_rational())

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
        return Fraction(self._c.get(1, 0), self._d)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._d == o._d and self._c == o._c

    def __hash__(self) -> int:
        return hash((frozenset(self._c.items()), self._d))

    def __bool__(self) -> bool:
        return bool(self._c)

    # -- rendering ------------------------------------------------------

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for r in sorted(self._c):
            q = Fraction(self._c[r], self._d)
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


def _of(c: dict[int, int], d: int) -> SqrtField:
    """Wrap numerators that are already canonical over the denominator d."""
    x = object.__new__(SqrtField)
    x._c, x._d = c, d
    return x


def _reduced(c: dict[int, int], d: int) -> SqrtField:
    """Canonical form of the numerators c over d > 0: zeros dropped and the
    factor common to d and every numerator divided out."""
    c = {r: n for r, n in c.items() if n}
    if not c:
        return _of(c, 1)
    g = gcd(d, *c.values())
    if g != 1:
        d //= g
        c = {r: n // g for r, n in c.items()}
    return _of(c, d)


ZERO = SqrtField()
ONE = SqrtField.rational(1)

_PiCoercible = Union["PiScalar", SqrtField, Fraction, int]


class PiScalar:
    """A monomial c * pi^k with c in SqrtField and k in Z; zero has k = 0.

    Every pi-valued quantity of the pipeline (volumes, curvature forms and
    their products) is one power of pi times a field element, so a sum of
    two nonzero terms with different powers of pi is never needed and
    raises ``CertificateError``.
    """

    __slots__ = ("c", "k")

    def __init__(self, c: _Coercible = ZERO, k: int = 0):
        s = SqrtField._coerce(c)
        if s is None:
            raise TypeError(f"unsupported coefficient {c!r}")
        self.c = s
        self.k = k if s else 0

    @classmethod
    def of(cls, c: _Coercible, k: int = 0) -> "PiScalar":
        """c * pi^k."""
        return cls(c, k)

    @staticmethod
    def _coerce(x: _PiCoercible) -> "PiScalar | None":
        if isinstance(x, PiScalar):
            return x
        s = SqrtField._coerce(x)
        return None if s is None else PiScalar(s)

    def __add__(self, other: _PiCoercible) -> "PiScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.c and o.c and self.k != o.k:
            raise CertificateError(f"{self} + {o} mixes powers of pi")
        return PiScalar(self.c + o.c, self.k if self.c else o.k)

    __radd__ = __add__

    def __neg__(self) -> "PiScalar":
        return PiScalar(-self.c, self.k)

    def __mul__(self, other: _PiCoercible) -> "PiScalar":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PiScalar(self.c * o.c, self.k + o.k)

    __rmul__ = __mul__

    def inverse(self) -> "PiScalar":
        return PiScalar(self.c.inverse(), -self.k)

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.k == o.k and self.c == o.c

    def is_zero(self) -> bool:
        return not self.c

    def __str__(self) -> str:
        cs = str(self.c)
        if not self.k:
            return cs
        if "+" in cs or "- " in cs:
            cs = f"({cs})"
        return f"{cs}*pi" if self.k == 1 else f"{cs}*pi^{self.k}"

    def __repr__(self) -> str:
        return f"PiScalar({self})"


def dot(u, v):
    """Inner product of two equal-length vectors, integral or rational."""
    return sum(map(mul, u, v))


def rational_to_json(q: Fraction) -> dict:
    """Exact JSON form of a rational: {"num": str, "den": str}."""
    q = Fraction(q)
    return {"num": str(q.numerator), "den": str(q.denominator)}

