"""Exact matrices over the field Q(sqrt2, sqrt3, sqrt5, sqrt7), graded by radicand.

Sizes stay small (5x5 Lie algebra elements, 7x7 isotropy matrices, 8x8
Clifford actions, 64x64 tensor-square operators with one entry in eight
nonzero), and each uses few radicands: the 64x64 deformation operator is
sqrt5/10 times an integer matrix.  So a matrix is sum_r sqrt(r) N_r / d,
stored as one positive int denominator d and, per radicand r, sparse int
rows N_r (column -> nonzero int).  Empty grades are dropped and d shares no
factor with all numerators at once, so equal matrices have equal storage.
Products walk grade pairs (r, s), with sqrt(r) sqrt(s) = g sqrt(t) from
``scalar.MUL_TABLE``, multiply-accumulate plain ints and reduce once per
result; field elements are built only where an entry or a trace is read.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import chain, product
from math import gcd, lcm
from typing import Sequence

from .scalar import MUL_TABLE, SqrtField

_ZERO = SqrtField()
_Grades = dict[int, list[dict[int, int]]]  # radicand -> rows of column -> int


def _reduced(g: _Grades, d: int, nrows: int, ncols: int) -> "SqrtMatrix":
    """The matrix of the grades g over d > 0, in canonical form: zero entries
    and empty grades dropped, and the factor common to d and every numerator
    divided out (all of d when no grade is left).  Two C-level passes, and
    no rebuild when g is canonical already."""
    f = gcd(d, *chain.from_iterable(map(dict.values, chain.from_iterable(g.values()))))
    m = object.__new__(SqrtMatrix)
    m._g, m._d, m.nrows, m.ncols = {}, d // f, nrows, ncols
    for r, rows in g.items():
        if f != 1 or 0 in chain.from_iterable(map(dict.values, rows)):
            rows = [{j: n // f for j, n in row.items() if n} for row in rows]
        if any(rows):
            m._g[r] = rows
    return m


def _times(a: "SqrtMatrix", b: "SqrtMatrix") -> "SqrtMatrix":
    """a @ b, for a.ncols == b.nrows."""
    acc: _Grades = {}
    for r, arows in a._g.items():
        for s, brows in b._g.items():
            g, t = MUL_TABLE[r, s]
            out = acc.get(t) or acc.setdefault(t, [{} for _ in arows])
            for ra, row in zip(arows, out):
                for k, x in ra.items():
                    x *= g
                    for j, y in brows[k].items():
                        row[j] = row.get(j, 0) + x * y
    return _reduced(acc, a._d * b._d, a.nrows, b.ncols)


class SqrtMatrix:
    """Immutable-by-convention matrix over SqrtField, stored by radicand as
    sparse int rows over one denominator."""

    __slots__ = ("_g", "_d", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[SqrtField]]):
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows: lengths %s"
                             % sorted({len(r) for r in rows}))
        # over the lcm of the entries' reduced denominators, the entries that
        # set each prime's power keep a numerator prime to it: canonical
        d = lcm(*(x.numerators()[1] for r in rows for x in r))
        g = defaultdict(lambda: [{} for _ in rows])
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                c, xd = x.numerators()
                for s, n in c.items():
                    g[s][i][j] = n * (d // xd)
        self._g, self._d, self.nrows, self.ncols = dict(g), d, len(rows), width

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "SqrtMatrix":
        return _reduced({}, 1, n, n if m is None else m)

    @classmethod
    def identity(cls, n: int) -> "SqrtMatrix":
        return _reduced({1: [{i: 1} for i in range(n)]}, 1, n, n)

    def __getitem__(self, ij: tuple[int, int]) -> SqrtField:
        i, j = ij
        c = {r: n for r, rows in self._g.items() if (n := rows[i].get(j))}
        return SqrtField.over(c, self._d) if c else _ZERO

    # -- arithmetic ---------------------------------------------------------

    def _merge(self, other: "SqrtMatrix", sign: int) -> "SqrtMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch: %dx%d and %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        d = lcm(self._d, other._d)
        fa, fb = d // self._d, sign * (d // other._d)
        g = {r: [{j: n * fa for j, n in row.items()} for row in rows] if fa != 1
             else list(map(dict.copy, rows)) for r, rows in self._g.items()}
        for r, rows in other._g.items():
            out = g.setdefault(r, [{} for _ in rows])
            for row, rb in zip(out, rows):
                for j, n in rb.items():
                    row[j] = row.get(j, 0) + n * fb
        return _reduced(g, d, self.nrows, self.ncols)

    def __add__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        return self._merge(other, 1)

    def __sub__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        return self._merge(other, -1)

    def __neg__(self) -> "SqrtMatrix":
        return self.scale(-1)

    def scale(self, c) -> "SqrtMatrix":
        """c times self, for c a SqrtField, Fraction or int, grade by grade."""
        cn, cd = (c if isinstance(c, SqrtField) else SqrtField.rational(c)).numerators()
        acc: _Grades = {}
        for (r, rows), (s, x) in product(self._g.items(), cn.items()):
            g, t = MUL_TABLE[r, s]
            out = acc.get(t) or acc.setdefault(t, [{} for _ in rows])
            for row, ra in zip(out, rows):
                for j, n in ra.items():
                    row[j] = row.get(j, 0) + g * x * n
        return _reduced(acc, self._d * cd, self.nrows, self.ncols)

    def shift(self, c: SqrtField) -> "SqrtMatrix":
        """self - c I, for a square self: c's numerators merged onto the diagonal."""
        cn, cd = c.numerators()
        diagonal = {r: [{i: n} for i in range(self.nrows)] for r, n in cn.items()}
        return self._merge(_reduced(diagonal, cd, self.nrows, self.nrows), -1)

    def __matmul__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ: %dx%d @ %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        return _times(self, other)

    def apply(self, vec: Sequence[SqrtField]) -> list[SqrtField]:
        if len(vec) != self.ncols:
            raise ValueError("vector of length %d for a matrix with %d columns"
                             % (len(vec), self.ncols))
        col = _times(self, SqrtMatrix([[x] for x in vec]))
        return [col[i, 0] for i in range(self.nrows)]

    def transpose(self) -> "SqrtMatrix":
        g = {}
        for r, rows in self._g.items():
            cols = g[r] = [{} for _ in range(self.ncols)]
            for i, row in enumerate(rows):
                for j, n in row.items():
                    cols[j][i] = n
        return _reduced(g, self._d, self.ncols, self.nrows)

    def trace(self) -> SqrtField:
        return SqrtField.over({r: sum(row.get(i, 0) for i, row in enumerate(rows))
                               for r, rows in self._g.items()}, self._d)

    def trace_product(self, other: "SqrtMatrix") -> SqrtField:
        """tr(self @ other), without forming the product."""
        if (self.nrows, self.ncols) != (other.ncols, other.nrows):
            raise ValueError("trace of a %dx%d @ %dx%d product" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        acc: dict[int, int] = {}
        for r, arows in self._g.items():
            for s, brows in other._g.items():
                g, t = MUL_TABLE[r, s]
                acc[t] = acc.get(t, 0) + g * sum(
                    x * brows[k].get(i, 0)
                    for i, ra in enumerate(arows) for k, x in ra.items())
        return SqrtField.over(acc, self._d * other._d)

    def tensor(self, other: "SqrtMatrix") -> "SqrtMatrix":
        """Kronecker product; index (i, j) of the factors maps to i*m + j."""
        n, m = self.nrows * other.nrows, other.ncols
        acc: _Grades = {}
        for r, arows in self._g.items():
            for s, brows in other._g.items():
                g, t = MUL_TABLE[r, s]
                out = acc.get(t) or acc.setdefault(t, [{} for _ in range(n)])
                for row, (ra, rb) in zip(out, product(arows, brows)):
                    for j, x in ra.items():
                        x *= g
                        for l, y in rb.items():
                            row[j * m + l] = row.get(j * m + l, 0) + x * y
        return _reduced(acc, self._d * other._d, n, self.ncols * m)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._g

    def _mirrors(self, sign: int) -> bool:
        """self^T == sign * self, read in place: each stored N_r[i][j] has
        sign * N_r[i][j] at [j][i], so each zero entry's mirror is zero too."""
        return self.nrows == self.ncols and all(
            rows[j].get(i) == sign * n for rows in self._g.values()
            for i, row in enumerate(rows) for j, n in row.items())

    def is_symmetric(self) -> bool:
        return self._mirrors(1)

    def is_skew(self) -> bool:
        return self._mirrors(-1)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SqrtMatrix):
            return NotImplemented
        return ((self.nrows, self.ncols, self._d, self._g)
                == (other.nrows, other.ncols, other._d, other._g))

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(self[i, j]) for j in range(self.ncols)) + "]"
            for i in range(self.nrows))

    def __repr__(self) -> str:
        return f"SqrtMatrix({self.nrows}x{self.ncols})"


def det(m: SqrtMatrix) -> SqrtField:
    """Determinant ad - bc of a 2x2 matrix, the only size the program takes."""
    if (m.nrows, m.ncols) != (2, 2):
        raise ValueError("determinant of a %s%dx%d matrix: only 2x2 is supported"
                         % ("non-square " * (m.nrows != m.ncols), m.nrows, m.ncols))
    return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
