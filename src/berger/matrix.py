"""Small dense matrices over the exact field Q(sqrt2, sqrt3, sqrt5, sqrt7).

Sizes in this project stay tiny (5x5 Lie algebra elements, 7x7 isotropy
matrices, 8x8 Clifford actions, 64x64 tensor-square operators), so a plain
row-major list of ``SqrtField`` entries with a hand-rolled multiply is both
simple and fast enough.  The multiply accumulates raw coordinate maps to
avoid building intermediate field elements.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .scalar import _MUL_TABLE, SqrtField

_ZERO = Fraction(0)


class SqrtMatrix:
    """Immutable-by-convention dense matrix over SqrtField."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence[SqrtField]]):
        self.rows = [list(r) for r in rows]
        width = len(self.rows[0]) if self.rows else 0
        assert all(len(r) == width for r in self.rows)

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "SqrtMatrix":
        m = n if m is None else m
        z = SqrtField()
        return cls([[z] * m for _ in range(n)])

    @classmethod
    def identity(cls, n: int) -> "SqrtMatrix":
        one = SqrtField.rational(1)
        z = SqrtField()
        return cls([[one if i == j else z for j in range(n)] for i in range(n)])

    # -- shape ------------------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: tuple[int, int]) -> SqrtField:
        return self.rows[ij[0]][ij[1]]

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        return SqrtMatrix([[a + b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __sub__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        return SqrtMatrix([[a - b for a, b in zip(ra, rb)]
                           for ra, rb in zip(self.rows, other.rows)])

    def __neg__(self) -> "SqrtMatrix":
        return SqrtMatrix([[-a for a in r] for r in self.rows])

    def scale(self, c) -> "SqrtMatrix":
        return SqrtMatrix([[a * c for a in r] for r in self.rows])

    def __matmul__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        assert self.ncols == other.nrows
        bcols = [[other.rows[k][j]._c for k in range(other.nrows)]
                 for j in range(other.ncols)]
        out = []
        for row in self.rows:
            acells = [a._c for a in row]
            orow = []
            for col in bcols:
                acc: dict[int, Fraction] = {}
                for a, b in zip(acells, col):
                    if not a or not b:
                        continue
                    for ra, qa in a.items():
                        for rb, qb in b.items():
                            g, rr = _MUL_TABLE[(ra, rb)]
                            q = qa * qb
                            if g != 1:
                                q *= g
                            if rr in acc:
                                acc[rr] += q
                            else:
                                acc[rr] = q
                orow.append(SqrtField(acc))
            out.append(orow)
        return SqrtMatrix(out)

    def __mul__(self, c) -> "SqrtMatrix":
        return self.scale(c)

    __rmul__ = __mul__

    def apply(self, vec: Sequence[SqrtField]) -> list[SqrtField]:
        assert len(vec) == self.ncols
        z = SqrtField()
        out = []
        for row in self.rows:
            s = z
            for a, x in zip(row, vec):
                if a and x:
                    s = s + a * x
            out.append(s)
        return out

    def transpose(self) -> "SqrtMatrix":
        return SqrtMatrix([list(col) for col in zip(*self.rows)])

    def trace(self) -> SqrtField:
        s = SqrtField()
        for i in range(self.nrows):
            s = s + self.rows[i][i]
        return s

    def tensor(self, other: "SqrtMatrix") -> "SqrtMatrix":
        """Kronecker product; index (i, j) of the factors maps to i*m + j."""
        n2, m2 = other.nrows, other.ncols
        out = SqrtMatrix.zeros(self.nrows * n2, self.ncols * m2)
        for i in range(self.nrows):
            for j in range(self.ncols):
                a = self.rows[i][j]
                if a.is_zero():
                    continue
                for k in range(n2):
                    for l in range(m2):
                        b = other.rows[k][l]
                        if not b.is_zero():
                            out.rows[i * n2 + k][j * m2 + l] = a * b
        return out

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return all(a.is_zero() for r in self.rows for a in r)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SqrtMatrix):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(tuple(tuple(r) for r in self.rows))

    def __str__(self) -> str:
        return "\n".join("[" + ", ".join(str(a) for a in r) + "]" for r in self.rows)

    def __repr__(self) -> str:
        return f"SqrtMatrix({self.nrows}x{self.ncols})"


def det(m: SqrtMatrix) -> SqrtField:
    """Determinant by fraction-free-ish Gaussian elimination over the field."""
    n = m.nrows
    assert n == m.ncols
    a = [row[:] for row in m.rows]
    sign = 1
    result = SqrtField.rational(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if not a[r][col].is_zero():
                pivot = r
                break
        if pivot is None:
            return SqrtField()
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            sign = -sign
        p = a[col][col]
        result = result * p
        pinv = p.inverse()
        for r in range(col + 1, n):
            f = a[r][col] * pinv
            if f.is_zero():
                continue
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return result if sign == 1 else -result
