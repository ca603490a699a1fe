"""Sparse-row exact matrices over the field Q(sqrt2, sqrt3, sqrt5, sqrt7).

Sizes in this project stay small (5x5 Lie algebra elements, 7x7 isotropy
matrices, 8x8 Clifford actions, 64x64 tensor-square operators with one
entry in eight nonzero).  Each row is a dict column -> nonzero
``SqrtField``; zero entries are never stored, so equal matrices have equal
storage and every operation visits nonzeros only.  Each entry of a product
``@`` or ``apply`` is one ``SqrtField.dot`` over its nonzero pairs.
"""
from __future__ import annotations

from collections import defaultdict
from operator import add, sub
from typing import Sequence

from .scalar import SqrtField

_ZERO = SqrtField()
_dot = SqrtField.dot


def _of(rows: list[dict[int, SqrtField]], ncols: int) -> "SqrtMatrix":
    """Wrap sparse rows that already hold nonzero entries only."""
    m = object.__new__(SqrtMatrix)
    m._rows, m.nrows, m.ncols = rows, len(rows), ncols
    return m


class SqrtMatrix:
    """Immutable-by-convention matrix over SqrtField, stored by sparse rows."""

    __slots__ = ("_rows", "nrows", "ncols")

    def __init__(self, rows: Sequence[Sequence[SqrtField]]):
        rows = [list(r) for r in rows]
        width = len(rows[0]) if rows else 0
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows: lengths %s"
                             % sorted({len(r) for r in rows}))
        self._rows = [{j: a for j, a in enumerate(r) if a} for r in rows]
        self.nrows, self.ncols = len(rows), width

    # -- constructors ---------------------------------------------------

    @classmethod
    def zeros(cls, n: int, m: int | None = None) -> "SqrtMatrix":
        return _of([{} for _ in range(n)], n if m is None else m)

    @classmethod
    def identity(cls, n: int) -> "SqrtMatrix":
        one = SqrtField.rational(1)
        return _of([{i: one} for i in range(n)], n)

    def __getitem__(self, ij: tuple[int, int]) -> SqrtField:
        return self._rows[ij[0]].get(ij[1], _ZERO)

    # -- arithmetic ---------------------------------------------------------

    def _merge(self, other: "SqrtMatrix", op) -> "SqrtMatrix":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch: %dx%d and %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        rows = []
        for ra, rb in zip(self._rows, other._rows):
            row = dict(ra)
            for j, b in rb.items():
                # b is nonzero, so a zero result means j cancelled
                s = op(row.get(j, _ZERO), b)
                if s:
                    row[j] = s
                else:
                    del row[j]
            rows.append(row)
        return _of(rows, self.ncols)

    def __add__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        return self._merge(other, add)

    def __sub__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        return self._merge(other, sub)

    def __neg__(self) -> "SqrtMatrix":
        return _of([{j: -a for j, a in r.items()} for r in self._rows], self.ncols)

    def scale(self, c) -> "SqrtMatrix":
        if not c:
            return SqrtMatrix.zeros(self.nrows, self.ncols)
        return _of([{j: a * c for j, a in r.items()} for r in self._rows],
                   self.ncols)

    def __matmul__(self, other: "SqrtMatrix") -> "SqrtMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions differ: %dx%d @ %dx%d" % (
                self.nrows, self.ncols, other.nrows, other.ncols))
        brows = other._rows
        rows = []
        for ra in self._rows:
            pairs = defaultdict(list)
            for k, a in ra.items():
                for j, b in brows[k].items():
                    pairs[j].append((a, b))
            rows.append({j: s for j, ps in pairs.items() if (s := _dot(ps))})
        return _of(rows, other.ncols)

    def apply(self, vec: Sequence[SqrtField]) -> list[SqrtField]:
        if len(vec) != self.ncols:
            raise ValueError("vector of length %d for a matrix with %d columns"
                             % (len(vec), self.ncols))
        return [_dot((a, vec[j]) for j, a in r.items()) for r in self._rows]

    def transpose(self) -> "SqrtMatrix":
        rows: list[dict[int, SqrtField]] = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._rows):
            for j, a in r.items():
                rows[j][i] = a
        return _of(rows, self.nrows)

    def trace(self) -> SqrtField:
        s = _ZERO
        for i, r in enumerate(self._rows):
            if i in r:
                s = s + r[i]
        return s

    def tensor(self, other: "SqrtMatrix") -> "SqrtMatrix":
        """Kronecker product; index (i, j) of the factors maps to i*m + j."""
        m2 = other.ncols
        rows = [{j * m2 + l: a * b for j, a in ra.items() for l, b in rb.items()}
                for ra in self._rows for rb in other._rows]
        return _of(rows, self.ncols * m2)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self._rows)

    def is_symmetric(self) -> bool:
        return self == self.transpose()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SqrtMatrix):
            return NotImplemented
        return ((self.nrows, self.ncols, self._rows)
                == (other.nrows, other.ncols, other._rows))

    def __str__(self) -> str:
        return "\n".join(
            "[" + ", ".join(str(r.get(j, _ZERO)) for j in range(self.ncols)) + "]"
            for r in self._rows)

    def __repr__(self) -> str:
        return f"SqrtMatrix({self.nrows}x{self.ncols})"


def det(m: SqrtMatrix) -> SqrtField:
    """Determinant by Gaussian elimination over the field, on a dense copy."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant of a non-square %dx%d matrix" % (n, m.ncols))
    a = [[m[i, j] for j in range(n)] for i in range(n)]
    result = SqrtField.rational(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col]), None)
        if pivot is None:
            return _ZERO
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            result = -result
        p = a[col][col]
        result = result * p
        pinv = p.inverse()
        for r in range(col + 1, n):
            if a[r][col]:
                f = a[r][col] * pinv
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return result
