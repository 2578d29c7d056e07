"""Exact rank and unique solves over the rationals."""

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

    def test_fractions_stay_exact(self):
        # a float path would call the rows independent or not by rounding
        third = Fraction(1, 3)
        assert exact_rank([[third, 1], [1, 3]]) == 1
        assert exact_rank([[third, 1], [1, 3 + Fraction(1, 10**30)]]) == 2

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
