"""Small exact linear algebra over Fractions (ranks here never exceed 8)."""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Sequence

Matrix = tuple[tuple[Q, ...], ...]


def mat(rows: Sequence[Sequence]) -> Matrix:
    return tuple(tuple(Q(x) for x in row) for row in rows)


def identity(n: int) -> Matrix:
    return tuple(tuple(Q(1) if i == j else Q(0) for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a: Matrix, v: Sequence) -> tuple:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_inv(a: Matrix) -> Matrix:
    """Gauss-Jordan inverse; raises ZeroDivisionError on singular input."""
    n = len(a)
    aug = [list(row) + list(identity(n)[i]) for i, row in enumerate(a)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)

