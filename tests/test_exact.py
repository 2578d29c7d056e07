"""Exact rank and unique solves of integer systems."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lupoly._exact import exact_rank, solve_unique


class TestExactRank:
    def test_empty_matrix(self):
        assert exact_rank([]) == 0

    def test_zero_first_column(self):
        assert exact_rank([[0, 1, 2], [0, 2, 4], [0, 0, 1]]) == 2

    def test_rank_deficient_square(self):
        assert exact_rank([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 2

    @pytest.mark.parametrize(
        "rows, rhs, x",
        [
            ([[10**20, 1], [10**20 + 1, 1]], [0, 1], [1, -(10**20)]),
            ([[10**16, 10**16 + 1], [10**16 - 1, 10**16]], [1, 0], [10**16, 1 - 10**16]),
        ],
    )
    def test_integers_a_float_path_rounds(self, rows, rhs, x):
        # float64 rounds these rows onto a rank-1 matrix
        assert np.linalg.matrix_rank(np.array(rows, dtype=float)) == 1
        assert exact_rank(rows) == 2
        assert solve_unique(rows, rhs) == x

    @pytest.mark.parametrize("bad", [Fraction(1, 3), Fraction(2), 0.5, 2.0, np.float64(1.0)])
    def test_non_integer_entries_are_refused(self, bad):
        with pytest.raises(TypeError):
            exact_rank([[1, 2], [bad, 1]])
        with pytest.raises(TypeError):
            solve_unique([[1, 2], [bad, 1]], [1, 1])
        with pytest.raises(TypeError):
            solve_unique([[1, 0], [0, 1]], [1, bad])

    def test_numpy_integers_are_accepted(self):
        rows = np.array([[1, 2], [2, 4], [0, 3]], dtype=np.int64)
        assert exact_rank(rows) == 2
        assert solve_unique(rows, np.array([3, 6, 3])) == [1, 1]

    def test_input_is_not_modified(self):
        rows = [[0, 1], [1, 0]]
        exact_rank(rows)
        assert rows == [[0, 1], [1, 0]]


class TestSolveUnique:
    def test_empty_system(self):
        assert solve_unique([], []) is None

    def test_zero_first_column_is_singular(self):
        assert solve_unique([[0, 1], [0, 2]], [1, 2]) is None

    def test_rank_deficient_square(self):
        assert solve_unique([[1, 2], [2, 4]], [3, 6]) is None

    def test_square_system(self):
        assert solve_unique([[0, 2], [3, 0]], [1, 1]) == [Fraction(1, 3), Fraction(1, 2)]

    def test_overdetermined_consistent(self):
        rows = [[1, 0], [0, 1], [1, 1], [2, -1]]
        assert solve_unique(rows, [1, 2, 3, 0]) == [1, 2]

    def test_overdetermined_inconsistent(self):
        rows = [[1, 0], [0, 1], [1, 1]]
        assert solve_unique(rows, [1, 2, 4]) is None

    def test_underdetermined(self):
        assert solve_unique([[1, 1, 0]], [1]) is None

    def test_rhs_length_must_match(self):
        with pytest.raises(ValueError):
            solve_unique([[1, 0], [0, 1]], [1])


matrices = st.integers(1, 4).flatmap(
    lambda n_cols: st.lists(
        st.lists(st.integers(-3, 3), min_size=n_cols, max_size=n_cols),
        min_size=1,
        max_size=5,
    )
)


class TestAgainstNumpy:
    @settings(max_examples=150, deadline=None)
    @given(matrices)
    def test_rank_matches_numpy(self, rows):
        assert exact_rank(rows) == np.linalg.matrix_rank(np.array(rows, dtype=float))

    @settings(max_examples=150, deadline=None)
    @given(matrices, st.data())
    def test_solution_satisfies_system(self, rows, data):
        rhs = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
        x = solve_unique(rows, rhs)
        full_rank = exact_rank(rows) == len(rows[0])
        consistent = exact_rank([r + [b] for r, b in zip(rows, rhs)]) == exact_rank(rows)
        assert (x is not None) == (full_rank and consistent)
        if x is not None:
            assert [sum(a * xi for a, xi in zip(row, x)) for row in rows] == rhs


def reference_rref(rows, n_pivot_cols):
    """Gauss-Jordan over Fraction: the reduced rows and their pivot columns."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for col in range(n_pivot_cols):
        k = len(pivots)
        r = next((i for i in range(k, len(m)) if m[i][col]), None)
        if r is None:
            continue
        m[k], m[r] = m[r], m[k]
        p = m[k][col]
        m[k] = [a / p for a in m[k]]
        for i in range(len(m)):
            if i != k:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
        pivots.append(col)
    return m, pivots


def reference_solve(rows, rhs):
    n = len(rows[0])
    m, pivots = reference_rref([list(row) + [b] for row, b in zip(rows, rhs)], n)
    if len(pivots) < n or any(row[n] for row in m[n:]):
        return None
    return [row[n] for row in m[:n]]


@st.composite
def low_rank_products(draw):
    """An integer product U V of inner dimension k, up to 8 x 6, so its rank is at most k."""
    n_rows, n_cols = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    k = draw(st.integers(0, min(n_rows, n_cols)))
    ints = st.integers(-9, 9)
    u = draw(st.lists(st.lists(ints, min_size=k, max_size=k), min_size=n_rows, max_size=n_rows))
    v = draw(st.lists(st.lists(ints, min_size=n_cols, max_size=n_cols), min_size=k, max_size=k))
    return [[sum(a * v[t][j] for t, a in enumerate(row)) for j in range(n_cols)] for row in u]


class TestAgainstFractionReference:
    @settings(max_examples=300, deadline=None)
    @given(low_rank_products(), st.data())
    def test_rank_and_solution_match(self, rows, data):
        n_cols = len(rows[0])
        assert exact_rank(rows) == len(reference_rref(rows, n_cols)[1])
        x = data.draw(st.lists(st.integers(-5, 5), min_size=n_cols, max_size=n_cols))
        consistent = [sum(a * xi for a, xi in zip(row, x)) for row in rows]
        other = data.draw(st.lists(st.integers(-5, 5), min_size=len(rows), max_size=len(rows)))
        for rhs in (consistent, other):
            assert solve_unique(rows, rhs) == reference_solve(rows, rhs)
