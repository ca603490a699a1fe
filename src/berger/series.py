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
from functools import lru_cache
from math import factorial, lcm
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
            if not isinstance(q, Fraction):
                q = Fraction(q)
            if q:
                clean[int(e)] = q
        self.low = int(low)
        self.order = int(order)
        self._c = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, c: _Coeff, e: int, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        return cls({e: c}, min(e, 0), order)

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
        da, na = self._numerators()
        db, nb = other._numerators()
        acc: dict[int, int] = {}
        for ea, pa in na:
            top = order - ea
            for eb, pb in nb:
                if eb > top:
                    break
                acc[ea + eb] = acc.get(ea + eb, 0) + pa * pb
        den = da * db
        return LaurentSeries({e: Fraction(n, den) for e, n in acc.items()},
                             low, order)

    def _numerators(self) -> tuple[int, list[tuple[int, int]]]:
        """Common denominator d and the (exponent, d*coefficient) pairs in
        increasing exponent order, so products run on integers and pay
        one gcd per output coefficient instead of one per term product."""
        d = lcm(*(q.denominator for q in self._c.values()))
        return d, [(e, q.numerator * (d // q.denominator))
                   for e, q in sorted(self._c.items())]

    def scale(self, c: _Coeff) -> "LaurentSeries":
        c = Fraction(c)
        return LaurentSeries({e: c * q for e, q in self._c.items()}, self.low, self.order)

    def rescale(self, c: _Coeff) -> "LaurentSeries":
        """self(c t): the coefficient of t^k times c^k, on the same window."""
        c = Fraction(c)
        return LaurentSeries({e: q * c ** e for e, q in self._c.items()}, self.low, self.order)

    def reciprocal(self) -> "LaurentSeries":
        """1/self; the leading (valuation) coefficient must be nonzero.

        With self = c0 t^v a(t) and a(0) = 1, 1/a follows the linear
        recurrence b_0 = 1, b_m = -sum_{e>=1} a_e b_{m-e} (Knuth, TAOCP
        vol. 2, 4.7): one pass over the terms of a per coefficient.
        """
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("reciprocal of the zero series")
        c0 = self._c[v]
        n = self.order - v  # relative order of the unit part
        a = sorted((e - v, q / c0) for e, q in self._c.items() if e != v)
        b = [_ONE]
        for m in range(1, n + 1):
            b.append(-sum((q * b[m - e] for e, q in a if e <= m), _ZERO))
        return LaurentSeries({m - v: q / c0 for m, q in enumerate(b) if q},
                             -v, self.order - 2 * v)

    def exp(self) -> "LaurentSeries":
        """exp(self) for a series with valuation >= 1.

        The coefficients follow the linear recurrence
        m e_m = sum_e e f_e e_{m-e}; for self = c t this is c^m/m!.
        """
        if any(e < 1 for e in self._c):
            raise ValueError("exp needs a series with positive valuation")
        if self.low < 0:
            raise ValueError("exp needs a power series window")
        f = sorted((e, e * q) for e, q in self._c.items())
        out = [_ONE]
        for m in range(1, self.order + 1):
            out.append(sum((q * out[m - e] for e, q in f if e <= m), _ZERO) / m)
        return LaurentSeries(dict(enumerate(out)), 0, self.order)

    # -- comparisons and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (self.low, self.order, self._c) == (other.low, other.order, other._c)

    def __repr__(self) -> str:
        return f"LaurentSeries([{self.low}, {self.order}], {self._c!r})"


@lru_cache(maxsize=None)
def _ahat(order: int) -> LaurentSeries:
    """A-hat(t) = (t/2) / sinh(t/2), built once per order on [0, order+1]."""
    n = order + 1
    sinh_over_t = {2 * k: _ONE / (Fraction(4) ** k * factorial(2 * k + 1))
                   for k in range(n // 2 + 1)}
    return LaurentSeries(sinh_over_t, 0, n).reciprocal()


def ahat_series(c: _Coeff, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """The A-hat power series  z/(2 sinh(z/2))  evaluated at z = c*t.

    For c = 1 this is 1 - t^2/24 + 7 t^4/5760 - 31 t^6/967680 + ...; the
    series is even in t, and c = 0 gives the constant series 1.  A-hat(t)
    is built once per order and rescaled to A-hat(ct), known on [0, order+1].
    """
    return _ahat(order).rescale(c) if c else LaurentSeries.one(order)
