"""Exact linear algebra over the integers.

Small dense systems only (at most a few hundred rows, L <= 12 columns).
Fraction-free (Bareiss) elimination keeps every entry an integer minor of
the input.  Entries enter through ``operator.index``, so a Fraction or a
float raises TypeError instead of being floor-divided into a wrong answer.
"""

from __future__ import annotations

from fractions import Fraction
from operator import index
from typing import Sequence


def _bareiss(m: list[list[int]], n_pivot_cols: int) -> list[int]:
    """Reduce m in place by fraction-free Gauss-Jordan elimination on its first n_pivot_cols.

    Columns past n_pivot_cols (an augmented right-hand side) are carried
    along but never pivoted on.  Each step replaces every other row by
    (p * row - f * pivot_row) / prev, an exact division (Bareiss 1968),
    so after the last step row i holds the last pivot p at column
    pivots[i] and zero at every other pivot column.  Returns the pivot
    columns; their count is the rank.
    """
    pivots: list[int] = []
    prev = 1
    for col in range(n_pivot_cols):
        rank = len(pivots)
        if rank == len(m):
            break
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        top, p = m[rank], m[rank][col]
        for r in range(len(m)):
            if r != rank:
                f = m[r][col]
                m[r] = [(p * a - f * b) // prev for a, b in zip(m[r], top)]
        prev = p
        pivots.append(col)
    return pivots


def exact_rank(rows: Sequence[Sequence]) -> int:
    """Rank of a matrix with integer entries."""
    m = [[index(x) for x in row] for row in rows]
    if not m:
        return 0
    return len(_bareiss(m, len(m[0])))


def solve_unique(rows: Sequence[Sequence], rhs: Sequence) -> list[Fraction] | None:
    """Solve A x = b exactly for integer A and b; return x iff it exists and is unique.

    A may have more rows than columns.  Returns None when the system is
    singular (no unique solution) or inconsistent.
    """
    aug = [[index(x) for x in row] + [index(b)] for row, b in zip(rows, rhs, strict=True)]
    if not aug:
        return None
    n_cols = len(aug[0]) - 1
    if len(_bareiss(aug, n_cols)) < n_cols:
        return None
    # inconsistent rows: 0 = nonzero
    if any(row[n_cols] for row in aug[n_cols:]):
        return None
    # row i reads det * x_i = row[n_cols], with det = row[i] the last pivot (Cramer)
    return [Fraction(row[n_cols], row[i]) for i, row in enumerate(aug[:n_cols])]
