"""Truncated Laurent series in one variable t over the rationals.

A series carries an explicit knowledge window: coefficients are exactly zero
below ``low`` and known for every exponent up to ``order``; beyond ``order``
nothing is claimed.  Window bookkeeping follows the usual rules, e.g. the
product of series known on [la, oa] and [lb, ob] is known on
[la+lb, min(oa+lb, ob+la)].

Everything is exact, and a float raises ``TypeError``.  As in ``scalar.SqrtField``,
a series is nonzero int numerators over one positive denominator, no factor
common to it and all numerators at once, a canonical form: arithmetic runs on
ints, pays one gcd pass per result, and ``coefficient`` reads a ``Fraction`` back.
A weighted sum is one result: of products in ``dot`` (``*`` is one term of it)
and of rescalings f(c t) in ``rescale`` (A-hat(c t) is one pair (1, c) of it).
A product of A-hats is one exponential of power sums, ``ahat_product``, and
A-hat(t) is its one-factor case.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import accumulate, combinations_with_replacement, repeat
from math import comb, factorial, gcd, lcm
from operator import add, mul
from typing import Mapping, Union

_Coeff = Union[Fraction, int]

#: default truncation order of the eta sums: the least above eta.POLE_DEPTH
DEFAULT_ORDER = 6


class LaurentSeries:
    """Exact truncated Laurent series over Q."""

    __slots__ = ("low", "order", "_n", "_d")

    def __init__(self, coeffs: Mapping[int, _Coeff], low: int, order: int):
        if low > order:
            raise ValueError(f"empty window [{low}, {order}]")
        for e in coeffs:
            if e < low or e > order:
                raise ValueError(f"exponent {e} outside window [{low}, {order}]")
        qs = {int(e): _ratio(q) for e, q in coeffs.items()}
        # reduced fractions over the lcm of their denominators have no
        # factor common to the denominator and every numerator
        d = lcm(*(b for _, b in qs.values()))
        self.low, self.order, self._d = int(low), int(order), d
        self._n = {e: a * (d // b) for e, (a, b) in qs.items() if a}

    @classmethod
    def monomial(cls, c: _Coeff, e: int, order: int = DEFAULT_ORDER) -> "LaurentSeries":
        return cls({e: c}, min(e, 0), order)

    def coefficient(self, e: int) -> Fraction:
        if e > self.order:
            raise ValueError(f"coefficient of t^{e} beyond truncation order {self.order}")
        return Fraction(self._n.get(e, 0), self._d)

    def polar_coefficients(self) -> dict[int, Fraction]:
        return {e: Fraction(n, self._d) for e, n in self._n.items() if e < 0}

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

    def __mul__(self, other: "LaurentSeries") -> "LaurentSeries":
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return LaurentSeries.dot(((1, self, other),))

    @staticmethod
    def dot(terms) -> "LaurentSeries":
        """The sum of w a b over the terms (w, a, b), w rational, on the
        narrowest of the products' windows: int numerators over the lcm of
        the products' denominators, reduced once, as ``SqrtField.dot``."""
        terms = [(_ratio(w), a, b) for w, a, b in terms]
        low = min(a.low + b.low for _, a, b in terms)
        order = min(min(a.order + b.low, b.order + a.low) for _, a, b in terms)
        d = lcm(*(q * a._d * b._d for (_, q), a, b in terms))
        acc: dict[int, int] = {}
        for (p, q), a, b in terms:
            f, nb = p * (d // (q * a._d * b._d)), sorted(b._n.items())
            for ea, pa in a._n.items():
                top, pa = order - ea, pa * f
                for eb, pb in nb:
                    if eb > top:
                        break
                    acc[ea + eb] = acc.get(ea + eb, 0) + pa * pb
        return _reduced(acc, d, low, order)

    def rescale(self, *pairs: tuple[_Coeff, _Coeff]) -> "LaurentSeries":
        """The sum of w self(c t) over the pairs (w, c), on the same window.  With
        c = P/Q over one Q and lo <= k <= hi, w c^k is Q^(hi-k)/Q^hi times w P^(k-lo)
        / P^-lo, these over their lcm L: running powers of each P and of Q."""
        ws, cs = zip(*((_ratio(w), _ratio(c)) for w, c in pairs))
        q = lcm(*(s for _, s in cs))
        lo, hi = min((0, *self._n)), max((0, *self._n))
        ps = [p * (q // s) for p, s in cs]
        el = lcm(*(b * p ** -lo for (_, b), p in zip(ws, ps)))  # 0 for c = 0 with a pole
        if el == 0:
            raise ZeroDivisionError("rescaling a polar part by 0")
        runs = (accumulate(repeat(p, hi - lo), mul, initial=a * el // (b * p ** -lo))
                for (a, b), p in zip(ws, ps))
        cw = list(reduce(partial(map, add), runs))  # summed: L Q^k (the sum of w c^k)
        qw = list(accumulate(repeat(q, hi - lo), mul, initial=1))
        return _reduced({e: n * qw[hi - e] * cw[e - lo] for e, n in self._n.items()},
                        self._d * qw[hi] * el, self.low, self.order)

    def reciprocal(self) -> "LaurentSeries":
        """1/(c t^v) = (1/c) t^-v, on [-v, order - 2v]: every reciprocal of
        the pipeline is of one term, so a longer series raises ``ValueError``."""
        if not self._n:
            raise ZeroDivisionError("reciprocal of the zero series")
        if len(self._n) > 1:
            raise ValueError("reciprocal needs one term c t^v")
        ((v, c0),) = self._n.items()
        return _reduced({-v: self._d}, c0, -v, self.order - 2 * v)

    def odd_difference(self) -> "LaurentSeries":
        """self(t) - self(-t): the odd terms doubled, on the same window."""
        return _reduced({e: 2 * n for e, n in self._n.items() if e % 2},
                        self._d, self.low, self.order)

    def exp(self) -> "LaurentSeries":
        """exp of one term c t^e, e >= 1, or of 0, on a window from t^0.  For
        c = F/D and J = order // e, t^(ej) has F^j D^(J-j) J!/j! over D^J J!,
        from running products of F and of g[i] = D^i J!/(J-i)!."""
        if len(self._n) > 1 or any(e < 1 for e in self._n) or self.low < 0:
            raise ValueError("exp needs one term c t^e (e >= 1) or 0 on a window from t^0")
        ((e, f),) = self._n.items() or ((self.order + 1, 0),)  # exp(0) = 1
        top = self.order // e
        g = list(accumulate((self._d * i for i in range(top, 0, -1)), mul, initial=1))
        fj = accumulate(repeat(f, top), mul, initial=1)
        return _reduced({e * j: p * g[top - j] for j, p in enumerate(fj)},
                        g[top], 0, self.order)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return ((self.low, self.order, self._d, self._n)
                == (other.low, other.order, other._d, other._n))

    def __repr__(self) -> str:
        coeffs = {e: self.coefficient(e) for e in sorted(self._n)}
        return f"LaurentSeries([{self.low}, {self.order}], {coeffs!r})"


def _ratio(q: _Coeff) -> tuple[int, int]:
    if isinstance(q, (int, Fraction)):  # a float's binary value is not exact
        return q.as_integer_ratio()
    raise TypeError(f"coefficient {q!r} is not an int or a Fraction")


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
def _log_ahat(top: int) -> tuple[int, tuple[int, ...]]:
    """(G, G b_1 .. G b_top) for log A-hat(z) = sum_k b_k z^2k / (2k)!: b_k = -B_2k / 2k
    = (-1)^k T_k / (4^k (4^k - 1)) over their lcm G, from the tangent numbers
    T_k in O(k^2) int steps (Knuth and Buckholtz, Math. Comp. 21, 1967)."""
    t = [0, *map(factorial, range(top))]  # t[k] = (k-1)!, then T_k
    for k, j in combinations_with_replacement(range(2, top + 1), 2):
        t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    bs = [Fraction((-1) ** k * t[k], 4 ** k * (4 ** k - 1)) for k in range(1, top + 1)]
    g = lcm(*(b.denominator for b in bs))
    return g, tuple(b.numerator * (g // b.denominator) for b in bs)


def ahat_product(cs, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """prod_c A-hat(c t) on [0, order+1], as A-hat is multiplicative (Hirzebruch,
    1966): exp(sum_k b_k P_k t^2k / (2k)!), P_k the sum of the c^2k.  Its t^2m
    coefficient is rho_m / (2m)!, m rho_m = sum_k k C(2m, 2k) b_k P_k rho_(m-k):
    int numerators over one denominator, grown as a step needs.  For c = p/q
    over one q it runs on the p and rescales by 1/q once."""
    ratios = [_ratio(c) for c in cs]
    if order < -1:
        raise ValueError(f"empty window [0, {order + 1}]")
    q, top = lcm(*(s for _, s in ratios)), (order + 1) // 2
    squares, (g, beta) = [(p * (q // s)) ** 2 for p, s in ratios], _log_ahat(top)
    kw = [k * b * sum(x ** k for x in squares) for k, b in enumerate(beta, 1)]
    n, d = [1], 1  # rho_m = n[m] / d
    for m in range(1, top + 1):
        binomials = map(comb, repeat(2 * m), range(2 * m, 0, -2))  # C(2m, 2k), k = m..1
        a, den = sum(map(mul, map(mul, reversed(kw[:m]), binomials), n)), m * g * d
        grow = lcm(d, den // gcd(a, den)) // d  # what d lacks of rho_m's denominator
        n, d = [x * grow for x in n] + [a * grow * d // den], d * grow
    # falling[j] = (2 top)! / (2 top - j)!
    falling = list(accumulate(range(2 * top, 0, -1), mul, initial=1))
    r = _reduced({2 * m: x * falling[2 * (top - m)] for m, x in enumerate(n)},
                 d * falling[-1], 0, order + 1)
    return r if q == 1 else r.rescale((1, Fraction(1, q)))


@lru_cache(maxsize=None)
def _ahat(order: int) -> LaurentSeries:
    """A-hat(t) = (t/2) / sinh(t/2), built once per order on [0, order+1]."""
    return ahat_product((1,), order)


def ahat_series(c: _Coeff, order: int = DEFAULT_ORDER) -> LaurentSeries:
    """A-hat(c t), A-hat(z) = z/(2 sinh(z/2)) = 1 - z^2/24 + 7 z^4/5760 - ...
    on [0, order+1]: A-hat(t) rescaled, once per (|c|, order) as it is even."""
    _ratio(c)  # a float is refused before the memo, where 2.0 would hit 2
    return _ahat_at(abs(c), order)


@lru_cache(maxsize=256)  # bounded: a sweep over rational c would grow it for good
def _ahat_at(c: _Coeff, order: int) -> LaurentSeries:
    return _ahat(order).rescale((1, c))
