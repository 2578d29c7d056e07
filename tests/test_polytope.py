"""Membership, strata, vertices, and facets of the admissible region."""

from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lupoly import (
    SpectraPoint,
    ValidationError,
    classify,
    facets,
    membership,
    polytope_model,
    random_interior_point,
    random_wall_point,
    vertices,
    vertices_oracle,
)

TABLE_L4 = {
    "v_SEP": ("1/2", "1/2", "1/2", "1/2"),
    "v_B1": ("0", "0", "1/2", "1/2"),
    "v_B2": ("0", "1/2", "0", "1/2"),
    "v_B3": ("0", "1/2", "1/2", "0"),
    "v_B4": ("1/2", "0", "0", "1/2"),
    "v_B5": ("1/2", "0", "1/2", "0"),
    "v_B6": ("1/2", "1/2", "0", "0"),
    "v_1": ("1/2", "0", "0", "0"),
    "v_2": ("0", "1/2", "0", "0"),
    "v_3": ("0", "0", "1/2", "0"),
    "v_4": ("0", "0", "0", "1/2"),
    "v_GHZ": ("0", "0", "0", "0"),
}


class TestMembership:
    def test_interior_point(self):
        result = membership(SpectraPoint((0.1, 0.2, 0.15)))
        assert result.member and not result.violations

    def test_wall_violation(self):
        result = membership(SpectraPoint((0.4, 0.0, 0.3)))
        assert not result.member
        assert any(ineq.kind == "wall" for ineq, _ in result.violations)

    def test_lower_violation(self):
        result = membership(SpectraPoint((-0.05, 0.1, 0.1)))
        assert not result.member
        assert any(ineq.kind == "lower" for ineq, _ in result.violations)

    def test_upper_violation(self):
        result = membership(SpectraPoint((0.55, 0.5, 0.5)))
        assert not result.member
        assert any(ineq.kind == "upper" for ineq, _ in result.violations)

    def test_two_qubit_region_is_schmidt_diagonal(self):
        assert membership(SpectraPoint((0.3, 0.3))).member
        assert not membership(SpectraPoint((0.3, 0.2))).member

    def test_exact_boundary_is_member(self):
        point = SpectraPoint.exact(["1/6", "1/3", "1/3"])
        assert membership(point).member

    def test_tolerance_forgives_small_slack(self):
        point = SpectraPoint((-1e-12, 0.1, 0.1))
        assert membership(point).member
        assert not membership(point, tol=0.0).member

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.floats(-0.2, 0.7, allow_nan=False), min_size=3, max_size=5),
        st.randoms(use_true_random=False),
    )
    def test_membership_is_permutation_invariant(self, lams, rnd):
        point = tuple(lams)
        shuffled = list(point)
        rnd.shuffle(shuffled)
        assert (
            membership(SpectraPoint(point)).member
            == membership(SpectraPoint(tuple(shuffled))).member
        )

    def test_model_lists_three_inequalities_per_qubit(self):
        model = polytope_model(4)
        kinds = [(q.kind, q.qubit) for q in model.inequalities]
        assert len(kinds) == 12
        for kind in ("lower", "upper", "wall"):
            assert [q for k, q in kinds if k == kind] == [1, 2, 3, 4]


class TestClassify:
    def test_interior(self):
        stratum = classify(SpectraPoint((0.1, 0.2, 0.15)))
        assert stratum.k_half == 0 and stratum.k_zero == 0
        assert not stratum.tight_walls and not stratum.degenerate

    def test_exact_wall_point(self):
        stratum = classify(SpectraPoint.exact(["1/6", "1/3", "1/3"]))
        assert stratum.tight_walls == (1,)
        assert stratum.tol == 0.0

    def test_float_wall_point_needs_tolerance(self):
        stratum = classify(SpectraPoint((1 / 6, 1 / 3, 1 / 3)))
        assert stratum.tight_walls == (1,)
        assert stratum.tol > 0.0

    def test_half_coordinates_are_stripped(self):
        stratum = classify(SpectraPoint.exact(["1/2", "1/10", "1/5", "3/20"]))
        assert stratum.k_half == 1 and stratum.half_qubits == (1,)
        assert stratum.residual_qubits == (2, 3, 4)
        assert stratum.residual_L == 3

    def test_two_qubit_residual_is_degenerate(self):
        stratum = classify(SpectraPoint.exact(["1/2", "1/2", "3/10", "3/10"]))
        assert stratum.degenerate
        assert stratum.residual_L == 2
        assert not stratum.tight_walls

    def test_zero_detection(self):
        stratum = classify(SpectraPoint((0.0, 0.1, 0.2, 0.15)))
        assert stratum.k_zero == 1 and stratum.zero_qubits == (1,)

    def test_permutation_equivariance(self):
        base = ("1/6", "1/3", "1/3")
        for perm in permutations(range(3)):
            point = SpectraPoint.exact([base[i] for i in perm])
            stratum = classify(point)
            want = perm.index(0) + 1
            assert stratum.tight_walls == (want,)

    def test_nonmember_raises_with_violations(self):
        with pytest.raises(ValidationError, match="outside"):
            classify(SpectraPoint((0.4, 0.0, 0.3)))

    def test_trail_is_readable(self):
        stratum = classify(SpectraPoint((0.1, 0.2, 0.15)))
        assert any("membership" in line for line in stratum.trail)


class TestVertices:
    @pytest.mark.parametrize("num_qubits", range(2, 13))
    def test_count_closed_form(self, num_qubits):
        assert len(vertices(num_qubits).vertices) == 2**num_qubits - num_qubits

    def test_zero_set_sizes_skip_one(self):
        sizes = {len(v.zero_set) for v in vertices(5).vertices}
        assert sizes == {0, 2, 3, 4, 5}

    def test_table_l4(self):
        got = {
            v.label: tuple(str(c) for c in v.point.lambdas)
            for v in vertices(4).vertices
        }
        assert got == TABLE_L4

    def test_three_qubit_labels(self):
        labels = set(vertices(3).labels())
        assert labels == {"v_SEP", "v_1", "v_2", "v_3", "v_GHZ"}

    def test_generic_label_lists_zero_set(self):
        by_label = {v.label: v for v in vertices(6).vertices}
        assert "v_z1.2.3" in by_label
        assert by_label["v_z1.2.3"].zero_set == (1, 2, 3)

    def test_vertices_are_members(self):
        for v in vertices(5).vertices:
            assert membership(v.point, tol=0.0).member

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_oracle_agrees(self, num_qubits):
        fast = vertices(num_qubits)
        slow = vertices_oracle(num_qubits)
        assert fast.coordinate_set() == slow.coordinate_set()
        assert sorted(fast.labels()) == sorted(slow.labels())

    def test_oracle_source_tag(self):
        assert vertices_oracle(3).source == "oracle"
        assert vertices(3).source == "closed-form"

    def test_single_qubit_region_is_one_point(self):
        listing = vertices(1)
        assert len(listing.vertices) == 1
        assert listing.vertices[0].point.lambdas == (Fraction(1, 2),)

    def test_size_limits(self):
        with pytest.raises(ValidationError):
            vertices(0)
        with pytest.raises(ValidationError):
            vertices(13)
        with pytest.raises(ValidationError):
            vertices_oracle(9)


class TestFacets:
    def test_three_qubits_upper_bounds_drop(self):
        found = facets(3)
        assert len(found) == 6
        assert {f.kind for f in found} == {"lower", "wall"}

    @pytest.mark.parametrize("num_qubits", [4, 5, 6])
    def test_count_is_three_per_qubit(self, num_qubits):
        assert len(facets(num_qubits)) == 3 * num_qubits

    def test_wall_facet_vertices_l4(self):
        wall1 = next(f for f in facets(4) if f.kind == "wall" and f.qubit == 1)
        assert set(wall1.vertex_labels) == {"v_SEP", "v_B1", "v_B2", "v_B3"}

    def test_lower_facet_has_seven_vertices_l4(self):
        lower1 = next(f for f in facets(4) if f.kind == "lower" and f.qubit == 1)
        assert lower1.n_incident == 7

    def test_upper_facet_has_five_vertices_l4(self):
        upper1 = next(f for f in facets(4) if f.kind == "upper" and f.qubit == 1)
        assert upper1.n_incident == 5
        assert "v_SEP" in upper1.vertex_labels

    def test_equality_strings_name_the_constraint(self):
        texts = {f.equality for f in facets(4)}
        assert any("lambda_1 = 0" in t for t in texts)


class TestSamplers:
    def test_interior_sampler(self):
        rng = np.random.default_rng(7)
        for num_qubits in (3, 4, 5):
            stratum = classify(random_interior_point(num_qubits, rng))
            assert stratum.k_half == 0 and stratum.k_zero == 0
            assert not stratum.tight_walls

    def test_wall_sampler_hits_requested_wall(self):
        rng = np.random.default_rng(11)
        for num_qubits in (3, 4, 5, 8):
            for d in (1, num_qubits):
                stratum = classify(random_wall_point(num_qubits, rng, distinguished=d))
                assert stratum.tight_walls == (d,)
                assert stratum.k_half == 0 and stratum.k_zero == 0

    def test_wall_sampler_needs_three_qubits(self):
        rng = np.random.default_rng(13)
        with pytest.raises(ValidationError):
            random_wall_point(2, rng)

    def test_wall_sampler_bounds_qubit_count(self):
        rng = np.random.default_rng(14)
        assert classify(random_wall_point(12, rng)).tight_walls == (1,)
        with pytest.raises(ValidationError, match="3..12"):
            random_wall_point(13, rng)

    def test_interior_sampler_margin_bounds(self):
        rng = np.random.default_rng(17)
        with pytest.raises(ValidationError):
            random_interior_point(3, rng, margin=0.5)
        # the two-qubit region is the segment lambda_1 = lambda_2: no interior
        with pytest.raises(ValidationError, match="3..12 qubits, got 2"):
            random_interior_point(2, rng)
