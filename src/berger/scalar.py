"""Exact scalars for the matrix, Lie, octonion and form layers.

Three layers, each exact; a float coefficient raises ``TypeError``:

* ``Fraction`` -- arbitrary-precision rationals (``fractions.Fraction``).
* ``SqrtField`` -- the real field Q(sqrt2, sqrt3, sqrt5, sqrt7), stored as
  integer numerators over one common denominator, with respect to the 16
  square roots of the squarefree divisors of 210.  ``SqrtField.dot`` is the
  fused sum-of-products kernel of the Jacobi and form checks; ``MUL_TABLE``,
  the product of two radicands, is shared with ``matrix`` and ``octonion``.
  ``inverse`` takes one term c sqrt(r), the only divisor the pipeline has.
* ``PiScalar`` -- monomials c * pi^k: a ``SqrtField`` coefficient c times
  an integer power of pi, which multiply and invert but never add.

Values are immutable.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, Union


#: the squarefree radicands supported by SqrtField: all 16 divisors of 210.
RADICANDS = tuple(d for d in range(1, 211) if 210 % d == 0)
_RADICAND_SET = frozenset(RADICANDS)

#: sqrt(a)*sqrt(b) = g*sqrt(a*b/g^2) with g = gcd(a, b): (a, b) -> (g, a*b/g^2);
#: for squarefree a, b the reduced radicand is again a squarefree divisor of 210.
MUL_TABLE: dict[tuple[int, int], tuple[int, int]] = {}
for _a in RADICANDS:
    for _b in RADICANDS:
        _g = gcd(_a, _b)
        MUL_TABLE[(_a, _b)] = (_g, (_a // _g) * (_b // _g))

_Coercible = Union["SqrtField", Fraction, int]


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
        qs: dict[int, tuple[int, int]] = {}
        for r, q in (coords or {}).items():
            if r not in _RADICAND_SET:
                raise ValueError(f"unsupported radicand {r!r}")
            if not isinstance(q, (int, Fraction)):  # a float's binary value is not exact
                raise TypeError(f"coefficient {q!r} is not an int or a Fraction")
            if q:
                qs[r] = q.as_integer_ratio()
        # reduced fractions over the lcm of their denominators have no
        # factor common to the denominator and every numerator
        d = lcm(*(b for _, b in qs.values()))
        self._c = {r: a * (d // b) for r, (a, b) in qs.items()}
        self._d = d

    # -- constructors -------------------------------------------------

    @classmethod
    def term(cls, coeff: Fraction | int, r: int = 1) -> "SqrtField":
        """coeff * sqrt(r)."""
        return cls({r: coeff})

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

    def inverse(self) -> "SqrtField":
        """1/((n/d) sqrt r) = d sqrt(r)/(n r); a sum of terms raises ValueError."""
        if not self._c:
            raise ZeroDivisionError("inverse of zero field element")
        if len(self._c) > 1:
            raise ValueError(f"inverse needs one term c sqrt(r), got {self}")
        ((r, n),) = self._c.items()
        return _reduced({r: self._d if n > 0 else -self._d}, abs(n) * r)

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
        # a rational element equals its Fraction, so it hashes as one
        return hash(Fraction(self._c.get(1, 0), self._d) if self.is_rational()
                    else (frozenset(self._c.items()), self._d))

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


class PiScalar:
    """A monomial c * pi^k with c in SqrtField and k in Z; zero has k = 0.

    Volumes, ratios of forms and integrals are such monomials.  They are
    never added: a form carries one power of pi (``forms.AltForm``).
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

    def __mul__(self, other: "PiScalar | _Coercible") -> "PiScalar":
        o = other if isinstance(other, PiScalar) else PiScalar(other)
        return PiScalar(self.c * o.c, self.k + o.k)

    __rmul__ = __mul__

    def inverse(self) -> "PiScalar":
        return PiScalar(self.c.inverse(), -self.k)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiScalar):
            return NotImplemented
        return self.k == other.k and self.c == other.c

    def __str__(self) -> str:
        cs = str(self.c)
        if not self.k:
            return cs
        if "+" in cs or "- " in cs:
            cs = f"({cs})"
        return f"{cs}*pi" if self.k == 1 else f"{cs}*pi^{self.k}"

    def __repr__(self) -> str:
        return f"PiScalar({self})"
