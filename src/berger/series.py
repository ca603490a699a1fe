"""Truncated Laurent series in one variable t over the rationals.

A series carries an explicit knowledge window: coefficients are exactly zero
below ``low`` and known for every exponent up to ``order``; beyond ``order``
nothing is claimed.  Window bookkeeping follows the usual rules, e.g. the
product of series known on [la, oa] and [lb, ob] is known on
[la+lb, min(oa+lb, ob+la)].

Everything is exact.  As in ``scalar.SqrtField``, a series is nonzero int
numerators over one positive denominator, no factor common to it and all
numerators at once, a canonical form: arithmetic runs on ints, pays one
gcd pass per result, and ``coefficient`` reads a ``Fraction`` back.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import factorial, gcd, lcm, perm
from operator import mul
from typing import Mapping, Union

_Coeff = Union[Fraction, int]

#: default truncation order used by the eta computation
DEFAULT_ORDER = 16


class LaurentSeries:
    """Exact truncated Laurent series over Q."""

    __slots__ = ("low", "order", "_n", "_d")

    def __init__(self, coeffs: Mapping[int, _Coeff], low: int, order: int):
        if low > order:
            raise ValueError(f"empty window [{low}, {order}]")
        for e in coeffs:
            if e < low or e > order:
                raise ValueError(f"exponent {e} outside window [{low}, {order}]")
        qs = {int(e): Fraction(q) for e, q in coeffs.items() if q}
        # reduced fractions over the lcm of their denominators have no
        # factor common to the denominator and every numerator
        d = lcm(*(q.denominator for q in qs.values()))
        self.low, self.order, self._d = int(low), int(order), d
        self._n = {e: q.numerator * (d // q.denominator) for e, q in qs.items()}

    # -- constructors ---------------------------------------------------

    @classmethod
    def monomial(cls, c: _Coeff, e: int, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        return cls({e: c}, min(e, 0), order)

    @classmethod
    def zero(cls, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        return cls({}, 0, order)

    # -- inspection -------------------------------------------------------

    def coefficient(self, e: int) -> Fraction:
        if e > self.order:
            raise ValueError(f"coefficient of t^{e} beyond truncation order {self.order}")
        return Fraction(self._n.get(e, 0), self._d)

    def valuation(self) -> int | None:
        """Smallest exponent with a nonzero coefficient, None for zero."""
        return min(self._n) if self._n else None

    def polar_coefficients(self) -> dict[int, Fraction]:
        return {e: Fraction(n, self._d) for e, n in self._n.items() if e < 0}

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        order, d = min(self.order, other.order), lcm(self._d, other._d)
        fa, fb = d // self._d, d // other._d
        c = {e: n * fa for e, n in self._n.items() if e <= order}
        for e, n in other._n.items():
            if e <= order:
                c[e] = c.get(e, 0) + n * fb
        return _reduced(c, d, min(self.low, other.low), order)

    def __neg__(self) -> "LaurentSeries":
        return _reduced({e: -n for e, n in self._n.items()}, self._d, self.low, self.order)

    def __sub__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        low = self.low + other.low
        order = min(self.order + other.low, other.order + self.low)
        nb = sorted(other._n.items())
        acc: dict[int, int] = {}
        for ea, pa in self._n.items():
            top = order - ea
            for eb, pb in nb:
                if eb > top:
                    break
                acc[ea + eb] = acc.get(ea + eb, 0) + pa * pb
        return _reduced(acc, self._d * other._d, low, order)

    def scale(self, c: _Coeff) -> "LaurentSeries":
        p, q = Fraction(c).as_integer_ratio()
        return _reduced({e: n * p for e, n in self._n.items()},
                        self._d * q, self.low, self.order)

    def rescale(self, c: _Coeff) -> "LaurentSeries":
        """self(c t): the coefficient of t^k times c^k, on the same window.
        For c = p/q and exponents lo <= 0 <= hi, c^k = p^(k-lo) q^(hi-k)
        over p^-lo q^hi, from running powers of p and q."""
        p, q = Fraction(c).as_integer_ratio()
        lo, hi = min((0, *self._n)), max((0, *self._n))
        pw, qw = (list(accumulate(repeat(x, hi - lo), mul, initial=1)) for x in (p, q))
        d = self._d * pw[-lo] * qw[hi]  # 0 only for c = 0 with a pole
        if d == 0:
            raise ZeroDivisionError("rescaling a polar part by 0")
        return _reduced({e: n * pw[e - lo] * qw[hi - e] for e, n in self._n.items()},
                        d, self.low, self.order)

    def reciprocal(self) -> "LaurentSeries":
        """1/self; the leading (valuation) coefficient must be nonzero.

        With self = c0 t^v a(t) and a(0) = 1, 1/a follows the linear
        recurrence b_0 = 1, b_m = sum_{e>=1} -a_e b_{m-e} (Knuth, TAOCP
        vol. 2, 4.7): one pass over the terms of a per coefficient, in
        reduced Fractions, as over one denominator A-hat's would grow.
        """
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("reciprocal of the zero series")
        c0 = self._n[v]
        if len(self._n) == 1:  # 1/((c0/d) t^v) = (d/c0) t^-v, one term
            return _reduced({-v: self._d}, c0, -v, self.order - 2 * v)
        n = self.order - v  # relative order of the unit part
        a = sorted((e - v, Fraction(-q, c0)) for e, q in self._n.items() if e != v)
        b = [1]
        for m in range(1, n + 1):
            b.append(sum(q * b[m - e] for e, q in a if e <= m))
        inv = Fraction(self._d, c0)  # 1 over the leading coefficient
        return LaurentSeries({m - v: q * inv for m, q in enumerate(b) if q},
                             -v, self.order - 2 * v)

    def exp(self) -> "LaurentSeries":
        """exp(self) for a series with valuation >= 1, by the recurrence
        m e_m = sum_e e f_e e_{m-e} (c^m/m! for self = c t), run on the
        integers E_m = m! D^m e_m for f_e = F_e/D:
        E_m = sum_e e F_e D^(e-1) (m-1)!/(m-e)! E_{m-e}."""
        if any(e < 1 for e in self._n):
            raise ValueError("exp needs a series with positive valuation")
        if self.low < 0:
            raise ValueError("exp needs a power series window")
        d, n = self._d, self.order
        f = sorted((e, e * c * d ** (e - 1)) for e, c in self._n.items())
        out = [1]
        for m in range(1, n + 1):
            out.append(sum(c * perm(m - 1, e - 1) * out[m - e] for e, c in f if e <= m))
        return _reduced({m: x * perm(n, n - m) * d ** (n - m) for m, x in enumerate(out)},
                        factorial(n) * d ** n, 0, n)

    # -- comparisons and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return ((self.low, self.order, self._d, self._n)
                == (other.low, other.order, other._d, other._n))

    def __repr__(self) -> str:
        coeffs = {e: self.coefficient(e) for e in sorted(self._n)}
        return f"LaurentSeries([{self.low}, {self.order}], {coeffs!r})"


def _reduced(n: dict[int, int], d: int, low: int, order: int) -> LaurentSeries:
    """The series of numerators n over d != 0 on the window [low, order], in
    canonical form: zeros dropped, and the factor common to d and every
    numerator divided out with the sign of d.  The window is the caller's."""
    n = {e: x for e, x in n.items() if x}
    g = gcd(d, *n.values()) * (1 if d > 0 else -1)
    s = object.__new__(LaurentSeries)
    s.low, s.order, s._d = low, order, d // g
    s._n = {e: x // g for e, x in n.items()} if g != 1 else n
    return s


@lru_cache(maxsize=None)
def _ahat(order: int) -> LaurentSeries:
    """A-hat(t) = (t/2) / sinh(t/2), built once per order on [0, order+1]."""
    n = order + 1
    sinh_over_t = {2 * k: Fraction(1, 4 ** k * factorial(2 * k + 1))
                   for k in range(n // 2 + 1)}
    return LaurentSeries(sinh_over_t, 0, n).reciprocal()


def ahat_series(c: _Coeff, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """The A-hat power series  z/(2 sinh(z/2))  evaluated at z = c*t.

    For c = 1 this is 1 - t^2/24 + 7 t^4/5760 - 31 t^6/967680 + ...; the
    series is even in t, and c = 0 gives the constant series 1.  A-hat(t)
    is built once per order and rescaled to A-hat(ct), known on [0, order+1]
    for every c.
    """
    return _ahat(order).rescale(c)
