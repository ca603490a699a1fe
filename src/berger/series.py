"""Truncated Laurent series in one variable t over the rationals.

A series carries an explicit knowledge window: coefficients are exactly zero
below ``low`` and known for every exponent up to ``order``; beyond ``order``
nothing is claimed.  Window bookkeeping follows the usual rules, e.g. the
product of series known on [la, oa] and [lb, ob] is known on
[la+lb, min(oa+lb, ob+la)].

Everything is exact: coefficients are ``Fraction``\\ s and no operation ever
rounds.
"""
from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Mapping, Union

_ZERO = Fraction(0)
_ONE = Fraction(1)

_Coeff = Union[Fraction, int]

#: default truncation order used by the eta computation
DEFAULT_ORDER = 16


class LaurentSeries:
    """Exact truncated Laurent series over Q."""

    __slots__ = ("low", "order", "_c")

    def __init__(self, coeffs: Mapping[int, _Coeff], low: int, order: int):
        if low > order:
            raise ValueError(f"empty window [{low}, {order}]")
        clean: dict[int, Fraction] = {}
        for e, q in coeffs.items():
            if e < low or e > order:
                raise ValueError(f"exponent {e} outside window [{low}, {order}]")
            q = Fraction(q)
            if q != 0:
                clean[int(e)] = q
        self.low = int(low)
        self.order = int(order)
        self._c = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, c: _Coeff, e: int, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        return cls({e: c}, min(e, 0), order) if e < 0 else cls({e: c}, 0, order)

    @classmethod
    def one(cls, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        return cls({0: _ONE}, 0, order)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        return cls({}, 0, order)

    # -- inspection -------------------------------------------------------

    def coefficient(self, e: int) -> Fraction:
        if e > self.order:
            raise ValueError(f"coefficient of t^{e} beyond truncation order {self.order}")
        return self._c.get(e, _ZERO)

    def valuation(self) -> int | None:
        """Smallest exponent with a nonzero coefficient, None for zero."""
        return min(self._c) if self._c else None

    def polar_coefficients(self) -> dict[int, Fraction]:
        return {e: q for e, q in self._c.items() if e < 0}

    def is_zero(self) -> bool:
        return not self._c

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        low = min(self.low, other.low)
        order = min(self.order, other.order)
        c = {e: q for e, q in self._c.items() if e <= order}
        for e, q in other._c.items():
            if e <= order:
                c[e] = c.get(e, _ZERO) + q
        return LaurentSeries(c, low, order)

    def __neg__(self) -> "LaurentSeries":
        return LaurentSeries({e: -q for e, q in self._c.items()}, self.low, self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        low = self.low + other.low
        order = min(self.order + other.low, other.order + self.low)
        acc: dict[int, Fraction] = {}
        for ea, qa in self._c.items():
            for eb, qb in other._c.items():
                e = ea + eb
                if e <= order:
                    if e in acc:
                        acc[e] += qa * qb
                    else:
                        acc[e] = qa * qb
        return LaurentSeries(acc, low, order)

    def scale(self, c: _Coeff) -> "LaurentSeries":
        c = Fraction(c)
        return LaurentSeries({e: c * q for e, q in self._c.items()}, self.low, self.order)

    def reciprocal(self) -> "LaurentSeries":
        """1/self; the leading (valuation) coefficient must be nonzero."""
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("reciprocal of the zero series")
        c0 = self._c[v]
        n = self.order - v  # relative order of the unit part
        # u = self / (c0 t^v) - 1 has positive valuation
        u = {e - v: q / c0 for e, q in self._c.items() if e != v}
        inv = {0: _ONE}  # geometric series sum (-u)^k, exact up to t^n
        term = {0: _ONE}
        for _ in range(n):
            nxt: dict[int, Fraction] = {}
            for ea, qa in term.items():
                for eb, qb in u.items():
                    e = ea + eb
                    if e <= n:
                        nxt[e] = nxt.get(e, _ZERO) - qa * qb
            term = nxt
            if not term:
                break
            for e, q in term.items():
                inv[e] = inv.get(e, _ZERO) + q
        return LaurentSeries({e - v: q / c0 for e, q in inv.items()},
                             -v, self.order - 2 * v)

    def exp(self) -> "LaurentSeries":
        """exp(self) for a series with valuation >= 1."""
        v = self.valuation()
        if any(e < 1 for e in self._c):
            raise ValueError("exp needs a series with positive valuation")
        if self.low < 0:
            raise ValueError("exp needs a power series window")
        n = self.order
        out = {0: _ONE}
        term: dict[int, Fraction] = {0: _ONE}
        k = 0
        kfac = 1
        while True:
            k += 1
            kfac *= k
            nxt: dict[int, Fraction] = {}
            for ea, qa in term.items():
                for eb, qb in self._c.items():
                    e = ea + eb
                    if e <= n:
                        nxt[e] = nxt.get(e, _ZERO) + qa * qb
            term = nxt
            if not term:
                break
            for e, q in term.items():
                out[e] = out.get(e, _ZERO) + q / kfac
        return LaurentSeries(out, 0, n)

    # -- comparisons and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.low, self.order, self._c) == (other.low, other.order, other._c)

    def __hash__(self) -> int:
        return hash((self.low, self.order, frozenset(self._c.items())))

    def __str__(self) -> str:
        if not self._c:
            return "0"
        parts = []
        for e in sorted(self._c):
            q = self._c[e]
            if e == 0:
                term = str(q)
            else:
                var = "t" if e == 1 else f"t^{e}"
                if q == 1:
                    term = var
                elif q == -1:
                    term = f"-{var}"
                else:
                    term = f"{q}*{var}"
            if parts and not term.startswith("-"):
                parts.append("+ " + term)
            elif parts:
                parts.append("- " + term[1:])
            else:
                parts.append(term)
        return " ".join(parts) + f" + O(t^{self.order + 1})"

    def __repr__(self) -> str:
        return f"LaurentSeries({self})"


def ahat_series(c: _Coeff, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """The A-hat power series  z/(2 sinh(z/2))  evaluated at z = c*t.

    For c = 1 this is 1 - t^2/24 + 7 t^4/5760 - 31 t^6/967680 + ...; the
    series is even in t, and c = 0 gives the constant series 1.
    """
    c = Fraction(c)
    if c == 0:
        return LaurentSeries.one(order)
    sinh2 = {}
    k = 0
    while 2 * k + 1 <= order + 2:
        sinh2[2 * k + 1] = c ** (2 * k + 1) / (Fraction(4) ** k * factorial(2 * k + 1))
        k += 1
    # window [1, order+2] so that the quotient below is known on [0, order]
    denom = LaurentSeries(sinh2, 1, order + 2)
    return LaurentSeries({1: c}, 1, order + 3) * denom.reciprocal()
