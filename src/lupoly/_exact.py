"""Exact linear algebra over the rationals.

Small dense systems only (at most a few hundred rows, L <= 12 columns),
so plain fraction-valued Gaussian elimination is both fast enough and
free of the rounding questions a float path would raise.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence


def _gauss_jordan(m: list[list[Fraction]], n_pivot_cols: int) -> list[int]:
    """Reduce m in place to reduced row echelon form on its first n_pivot_cols.

    Columns past n_pivot_cols (an augmented right-hand side) are carried
    along but never pivoted on.  Returns the pivot columns; their count
    is the rank, and row i holds the pivot of column pivots[i].
    """
    pivots: list[int] = []
    for col in range(n_pivot_cols):
        rank = len(pivots)
        if rank == len(m):
            break
        pivot = next((r for r in range(rank, len(m)) if m[r][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rank])]
        pivots.append(col)
    return pivots


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix with rational entries."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    return len(_gauss_jordan(m, len(m[0])))


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Solve A x = b exactly; return the solution iff it exists and is unique.

    A may have more rows than columns.  Returns None when the system is
    singular (no unique solution) or inconsistent.
    """
    aug = [
        [Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs, strict=True)
    ]
    if not aug:
        return None
    n_cols = len(aug[0]) - 1
    if len(_gauss_jordan(aug, n_cols)) < n_cols:
        return None
    # inconsistent rows: 0 = nonzero
    if any(row[n_cols] != 0 for row in aug[n_cols:]):
        return None
    return [aug[i][n_cols] for i in range(n_cols)]
