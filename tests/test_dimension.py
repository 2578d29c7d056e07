"""Closed-form reduced-space dimensions across the boundary strata."""

import math

import numpy as np
import pytest

from lupoly import (
    DimReport,
    InternalInvariantError,
    SpectraPoint,
    ValidationError,
    classify,
    dim_for_point,
    dim_reduced_space,
    document,
    random_interior_point,
    random_wall_point,
)


def dims(point):
    _, report = dim_for_point(point)
    return report


class TestInterior:
    def test_three_qubits(self):
        report = dims(SpectraPoint((0.1, 0.2, 0.15)))
        assert report.dim_M == 2
        assert report.num_invariants == 5
        assert report.formula == "interior"
        assert report.status == "paper-exact"

    def test_four_qubits(self):
        report = dims(SpectraPoint((0.1, 0.1, 0.2, 0.15)))
        assert report.dim_M == 14
        assert report.num_invariants == 18

    def test_five_qubits(self):
        report = dims(SpectraPoint((0.1, 0.1, 0.1, 0.1, 0.1)))
        assert report.dim_M == 42
        assert report.num_invariants == 47

    def test_generic_growth(self):
        for num_qubits, want in ((3, 2), (4, 14), (5, 42), (6, 102)):
            point = SpectraPoint(tuple([0.1] * num_qubits))
            assert dims(point).dim_M == want

    def test_random_interior_points(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            report = dims(random_interior_point(4, rng))
            assert report.dim_M == 14 and report.formula == "interior"


class TestMaximallyMixedReductions:
    def test_chain_drops_two_per_zero(self):
        chain = [
            ((0.0, 0.1, 0.2, 0.15), 12),
            ((0.0, 0.0, 0.2, 0.15), 10),
            ((0.0, 0.0, 0.0, 0.15), 8),
            ((0.0, 0.0, 0.0, 0.0), 6),
        ]
        for lams, want in chain:
            report = dims(SpectraPoint(lams))
            assert report.dim_M == want
            assert report.formula == "case3"
            assert report.status == "paper-exact"
            assert report.num_invariants == want + 4

    def test_note_counts_reductions(self):
        report = dims(SpectraPoint((0.0, 0.0, 0.2, 0.15)))
        assert any("2 maximally mixed" in note for note in report.notes)

    def test_ghz_vertex_l4(self):
        assert dims(SpectraPoint((0.0, 0.0, 0.0, 0.0))).dim_M == 6

    def test_three_qubit_boundary_is_flat(self):
        for lams in ((0.0, 0.1, 0.3), (0.0, 0.0, 0.2), (0.0, 0.0, 0.0)):
            report = dims(SpectraPoint(lams))
            assert report.dim_M == 0
            assert report.formula == "three-qubit-boundary"
            assert report.status == "paper-exact"
            assert report.num_invariants == 3


class TestWalls:
    def test_exact_wall_point(self):
        report = dims(SpectraPoint.exact(["1/6", "1/3", "1/3"]))
        assert report.dim_M == 0
        assert report.formula == "case2"
        assert report.status == "paper-exact"

    def test_random_wall_points(self):
        rng = np.random.default_rng(9)
        for num_qubits in (3, 4, 5):
            report = dims(random_wall_point(num_qubits, rng))
            assert report.dim_M == 0 and report.formula == "case2"

    def test_wall_behind_stripped_half(self):
        report = dims(SpectraPoint.exact(["1/2", "1/6", "1/3", "1/3"]))
        assert report.dim_M == 0
        assert report.formula == "case2"
        assert report.status == "paper-exact"

    def test_zero_at_the_wall_qubit(self):
        # a zero coordinate can sit on a wall only at the distinguished qubit;
        # the wall takes precedence and the note records the degeneracy
        for lams in (("0", "1/4", "1/4"), ("0", "2/5", "3/10", "3/10")):
            report = dims(SpectraPoint.exact(list(lams)))
            assert report.dim_M == 0
            assert report.formula == "case2"
            assert any("unconditional" in note for note in report.notes)


class TestHalfStripping:
    def test_half_face_interior(self):
        report = dims(SpectraPoint.exact(["1/2", "1/10", "1/5", "3/20"]))
        assert report.dim_M == 2
        assert report.num_invariants == 6
        assert report.formula == "case1+interior"
        assert report.status == "paper-exact"

    def test_stripping_matches_smaller_system(self):
        inner = dims(SpectraPoint((0.1, 0.2, 0.15)))
        outer = dims(SpectraPoint((0.5, 0.1, 0.2, 0.15)))
        assert outer.dim_M == inner.dim_M
        assert outer.num_invariants == inner.num_invariants + 1

    def test_half_face_boundary(self):
        report = dims(SpectraPoint.exact(["1/2", "0", "1/5", "3/20"]))
        assert report.dim_M == 0
        assert report.formula == "three-qubit-boundary"
        assert report.status == "composed"

    def test_half_plus_zero_in_large_residual(self):
        report = dims(SpectraPoint.exact(["1/2", "0", "1/10", "1/5", "3/20"]))
        assert report.dim_M == 12
        assert report.formula == "composed"
        assert report.status == "composed"

    def test_fully_separable_vertex(self):
        report = dims(SpectraPoint.exact(["1/2"] * 4))
        assert report.dim_M == 0
        assert report.formula == "degenerate-product"
        assert report.num_invariants == 4

    def test_two_qubit_residual(self):
        report = dims(SpectraPoint.exact(["1/2", "1/2", "3/10", "3/10"]))
        assert report.dim_M == 0
        assert report.formula == "degenerate-product"

    def test_bare_two_qubit_point(self):
        stratum = classify(SpectraPoint((0.3, 0.3)))
        assert stratum.degenerate and not stratum.tight_walls
        report = dims(SpectraPoint((0.3, 0.3)))
        assert report.dim_M == 0 and report.formula == "degenerate-product"


class TestContracts:
    def test_invariant_count_is_dim_plus_qubits(self):
        rng = np.random.default_rng(13)
        points = [
            random_interior_point(4, rng),
            random_wall_point(4, rng),
            SpectraPoint((0.0, 0.1, 0.2, 0.15)),
            SpectraPoint.exact(["1/2", "1/10", "1/5", "3/20"]),
        ]
        for point in points:
            report = dims(point)
            assert report.num_invariants == report.dim_M + 4

    def test_nonmember_rejected(self):
        with pytest.raises(ValidationError):
            dim_for_point(SpectraPoint((0.4, 0.0, 0.3)))

    @pytest.mark.parametrize("tol", (math.inf, math.nan, -1e-9))
    def test_bad_slack_tolerance_refused(self, tol):
        # an infinite slack tolerance would put every coordinate at 1/2 (dim_M 0)
        with pytest.raises(ValidationError, match="slack tolerance must be a finite number"):
            dim_for_point(SpectraPoint((0.1, 0.2, 0.15)), tol=tol)

    def test_zero_slack_tolerance_accepted(self):
        _, report = dim_for_point(SpectraPoint((0.1, 0.2, 0.15)), tol=0.0)
        assert report.dim_M == 2

    def test_negative_dimension_guarded(self):
        with pytest.raises(InternalInvariantError):
            DimReport(-2, 1, "interior", "paper-exact", ())

    def test_negative_dimension_guarded_on_replace(self):
        report = DimReport(2, 5, "interior", "paper-exact", ())
        assert report._replace(dim_M=0) == (0, 5, "interior", "paper-exact", ())
        with pytest.raises(InternalInvariantError):
            report._replace(dim_M=-2)
        with pytest.raises(InternalInvariantError):
            DimReport._make((-2, 1, "interior", "paper-exact", ()))

    def test_dim_reduced_space_takes_stratum(self):
        stratum = classify(SpectraPoint((0.1, 0.2, 0.15)))
        assert dim_reduced_space(stratum).dim_M == 2

    def test_report_document_is_plain_data(self):
        doc = document(dims(SpectraPoint((0.1, 0.2, 0.15))))
        assert doc == {
            "dim_M": 2,
            "num_invariants": 5,
            "formula": "interior",
            "status": "paper-exact",
            "notes": [],
        }
