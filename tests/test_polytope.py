"""Membership, strata, vertices, and facets of the admissible region, and result documents."""

import json
import math
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lupoly import (
    Inequality,
    SampleAudit,
    SpectraPoint,
    ValidationError,
    classify,
    dim_for_point,
    document,
    facets,
    membership,
    numeric_dim,
    orbit_dimensions,
    random_interior_point,
    random_wall_point,
    slacks,
    stable_state,
    torus_transitivity_check,
    verify_stable,
    vertices,
    vertices_oracle,
)
from lupoly import polytope
from lupoly._exact import exact_rank
from lupoly.polytope import HALF, INTERIOR_MARGIN, KINDS, MEMBER_TOL

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


def reference_slack(kind: str, qubit: int, lams: tuple):
    """One inequality's slack, written out per kind (the formula slacks replaced)."""
    lam = lams[qubit - 1]
    if kind == "lower":
        return lam
    if kind == "upper":
        return HALF - lam
    total = sum(lams)
    return HALF * (len(lams) - 2) - total + 2 * lam


def reference_equality_row(L: int, kind: str, qubit: int) -> tuple:
    """Row a, rhs b of one equality written as a . lambda = b, per kind."""
    row = [Fraction(0)] * L
    l = qubit - 1
    if kind == "lower":
        row[l] = Fraction(1)
        return row, Fraction(0)
    if kind == "upper":
        row[l] = Fraction(1)
        return row, HALF
    row = [Fraction(1)] * L
    row[l] = Fraction(-1)
    return row, HALF * (L - 2)


def reference_slacks(lams: tuple) -> list:
    return [reference_slack(kind, l, lams) for kind in KINDS for l in range(1, len(lams) + 1)]


class TestSlacks:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.fractions(Fraction(-1, 2), Fraction(1), max_denominator=60),
                    min_size=1, max_size=12))
    def test_exact_points_match_the_reference(self, lams):
        got = slacks(tuple(lams))
        assert list(got) == reference_slacks(tuple(lams))
        assert all(isinstance(s, Fraction) for s in got)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.floats(-0.5, 1.0, allow_nan=False), min_size=1, max_size=12))
    def test_float_points_match_the_reference_bit_for_bit(self, lams):
        got = slacks(tuple(lams))
        assert [float(s).hex() for s in got] == [float(s).hex() for s in reference_slacks(tuple(lams))]

    @pytest.mark.parametrize("num_qubits", range(1, 13))
    def test_float_points_take_the_float_half_bit_for_bit(self, num_qubits, monkeypatch):
        rng = np.random.default_rng(num_qubits)
        points = [tuple(rng.uniform(-0.1, 0.6, size=num_qubits).tolist()) for _ in range(20)]
        points += [(0.0,) * num_qubits, (0.5,) * num_qubits, (1e-300, 0.5 - 2**-53) * num_qubits]
        points = [lams[:num_qubits] for lams in points]
        # numpy floats, as inputs.wall_point gives lambda_1, alone and throughout
        points += [(np.float64(lams[0]), *lams[1:]) for lams in points]
        points += [tuple(map(np.float64, lams)) for lams in points[:20]]
        wants = [reference_slacks(lams) for lams in points]
        monkeypatch.setattr(polytope, "HALF", None)  # any use of the Fraction constant raises
        for lams, want in zip(points, wants):
            got = slacks(lams)
            assert all(isinstance(s, float) for s in got)
            assert [type(s) for s in got] == [type(s) for s in want]
            assert [s.hex() for s in got] == [float(s).hex() for s in want]

    def test_mixed_points_keep_the_fraction_constant(self):
        for lams in ((Fraction(1, 10), 0.2, 0.15), (Fraction(1, 10), np.float64(0.2)), (0, 0.25, 0.3)):
            got, want = slacks(lams), reference_slacks(lams)
            assert [type(s) for s in got] == [type(s) for s in want]
            assert list(got) == want

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-0.3, 0.8, allow_nan=False), min_size=1, max_size=12))
    def test_membership_lists_violations_in_row_order(self, lams):
        L = len(lams)
        want = tuple(
            (Inequality(kind, l), float(s))
            for kind in KINDS
            for l in range(1, L + 1)
            if (s := reference_slack(kind, l, tuple(lams))) < -MEMBER_TOL
        )
        result = membership(SpectraPoint(tuple(lams)))
        assert result.violations == want
        assert result.member == (not want)

    @pytest.mark.parametrize("num_qubits", [2, 3, 4])
    def test_oracle_rows_match_the_reference_up_to_sign(self, num_qubits, monkeypatch):
        L = num_qubits
        calls = []
        solve_unique = polytope.solve_unique

        def recording(rows, rhs):
            calls.append((rows, rhs))
            return solve_unique(rows, rhs)

        monkeypatch.setattr(polytope, "solve_unique", recording)
        vertices_oracle(L)
        picks = list(combinations(range(3 * L), L))
        assert len(calls) == len(picks) == comb(3 * L, L)
        table = {}
        for chosen, (rows, rhs) in zip(picks, calls):
            for i, row, b in zip(chosen, rows, rhs):
                table.setdefault(i, (list(row), b))
                assert table[i] == (list(row), b)
        assert sorted(table) == list(range(3 * L))
        for i, (row, b) in table.items():
            # rows are passed doubled, so every coefficient and constant is an integer
            assert all(type(x) is int for x in (*row, b))
            ref_row, ref_b = reference_equality_row(L, KINDS[i // L], i % L + 1)
            sign = 1 if row == [2 * a for a in ref_row] else -1
            assert (row, b) == ([2 * sign * a for a in ref_row], 2 * sign * ref_b)


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
        assert len(slacks((0.1, 0.2, 0.15, 0.3))) == 12
        # each point breaks exactly one inequality; membership names it by kind and qubit
        breaking = {"lower": (-0.05, 0.25), "upper": (0.55, 0.4), "wall": (0.0, 0.4)}
        for kind, (own, rest) in breaking.items():
            for l in range(1, 5):
                lams = tuple(own if j == l else rest for j in range(1, 5))
                violations = membership(SpectraPoint(lams)).violations
                assert violations == ((Inequality(kind, l), float(reference_slack(kind, l, lams))),)


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

    def test_tight_wall_is_named_in_full_system_qubits(self):
        # the wall is tight in the residual system (2, 3, 4) after qubit 1 is stripped
        stratum = classify(SpectraPoint.exact(["1/2", "1/6", "1/3", "1/3"]))
        assert stratum.half_qubits == (1,)
        assert stratum.tight_walls == (2,)

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

    def test_exact_coordinate_tol_from_zero_is_zero(self):
        stratum = classify(SpectraPoint.exact(["1/20", "1/5", "1/5"]), tol=0.05)
        assert stratum.zero_qubits == (1,)

    def test_exact_coordinate_tol_from_one_half_is_stripped(self):
        # the mirror of the zero case: 1/2 - 9/20 = 1/20 <= Fraction(0.05), compared exactly
        stratum = classify(SpectraPoint.exact(["9/20", "1/5", "1/5"]), tol=0.05)
        assert stratum.half_qubits == (1,)
        assert stratum.residual_qubits == (2, 3) and stratum.degenerate

    @pytest.mark.parametrize("tol", [0, 1e-9, 0.01, 0.05])
    def test_exact_points_match_fraction_decisions(self, tol):
        rng = np.random.default_rng([23, round(tol * 1e9)])
        cut = Fraction(tol)
        points = []
        while len(points) < 300:
            L = int(rng.integers(1, 9))
            lams = [Fraction(int(rng.integers(0, 121)), 120) for _ in range(L)]
            edge = int(rng.integers(0, 4))  # random, tol from 0, tol from 1/2, tol from a wall
            l = int(rng.integers(0, L))
            if edge == 1:
                lams[l] = cut
            elif edge == 2:
                lams[l] = HALF - cut
            elif edge == 3:  # wall slack of qubit l + 1 at exactly +-tol
                lams[l] = 0
                lams[l] = int(rng.choice([-1, 1])) * cut - reference_slack("wall", l + 1, tuple(lams))
            if all(s >= -cut for s in reference_slacks(tuple(lams))):
                points.append(tuple(lams))
        for lams in points:
            L = len(lams)
            half = tuple(l for l in range(1, L + 1) if HALF - lams[l - 1] <= cut)
            residual = tuple(l for l in range(1, L + 1) if l not in half)
            res_lams = tuple(lams[l - 1] for l in residual)
            tight = () if len(residual) <= 2 else tuple(
                q for i, q in enumerate(residual, 1)
                if abs(reference_slack("wall", i, res_lams)) <= cut
            )
            zeros = tuple(l for l in residual if lams[l - 1] <= cut)
            stratum = classify(SpectraPoint(lams), tol=tol)
            assert (stratum.half_qubits, stratum.zero_qubits, stratum.tight_walls) == (
                half, zeros, tight), lams

    def test_one_slack_pass_unless_a_coordinate_is_stripped(self, monkeypatch):
        calls = []
        counted = polytope.slacks

        def counting(lams):
            calls.append(lams)
            return counted(lams)

        monkeypatch.setattr(polytope, "slacks", counting)
        for lams, n_calls in (
            (("1/6", "1/3", "1/3"), 1),
            (("0", "1/10", "1/5", "3/20"), 1),
            (("1/2", "1/6", "1/3", "1/3"), 2),
            (("1/2", "1/2", "1/10", "1/5", "3/20"), 2),
        ):
            calls.clear()
            classify(SpectraPoint.exact(lams))
            assert len(calls) == n_calls, lams

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
        with pytest.raises(ValidationError, match="2..6, got 7"):
            vertices_oracle(7)


def affine_rank_facets(L):
    """The reference rule: row r is a facet when its incident vertices affinely span L - 1 dimensions."""
    verts = vertices(L).vertices
    out = []
    for row in range(3 * L):
        incident = [v for v in verts if slacks(v.point.lambdas)[row] == 0]
        if len(incident) < L:
            continue
        base = incident[0].point.lambdas
        # doubled, differences of 0 and 1/2 coordinates are integers
        diffs = [[int(2 * (a - b)) for a, b in zip(v.point.lambdas, base)]
                 for v in incident[1:]]
        if exact_rank(diffs) == L - 1:
            out.append((KINDS[row // L], row % L + 1, tuple(v.label for v in incident)))
    return out


class TestFacets:
    @pytest.mark.parametrize("num_qubits", range(2, 9))
    def test_incidence_rule_matches_affine_rank(self, num_qubits):
        found = facets(num_qubits)
        assert [(f.kind, f.qubit, f.vertex_labels) for f in found] == affine_rank_facets(num_qubits)
        assert all(f.n_incident == len(f.vertex_labels) for f in found)

    def test_two_qubit_segment_keeps_both_walls(self):
        found = facets(2)
        assert [(f.kind, f.qubit) for f in found] == [("wall", 1), ("wall", 2)]
        assert all(set(f.vertex_labels) == {"v_SEP", "v_GHZ"} for f in found)

    def test_size_limits(self):
        for bad in (1, 13):
            with pytest.raises(ValidationError, match="2..12, got"):
                facets(bad)

    def test_three_qubits_upper_bounds_drop(self):
        found = facets(3)
        assert len(found) == 6
        assert {f.kind for f in found} == {"lower", "wall"}

    @pytest.mark.parametrize("num_qubits", [4, 5, 6, 9, 10, 11, 12])
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
            stratum = classify(random_wall_point(num_qubits, rng))
            assert stratum.tight_walls == (1,)
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
        for L in range(3, 13):
            assert min(slacks(random_interior_point(L, rng).lambdas)) > INTERIOR_MARGIN
        # the two-qubit region is the segment lambda_1 = lambda_2: no interior
        with pytest.raises(ValidationError, match="3..12, got 2"):
            random_interior_point(2, rng)


# name -> a result of that type; the audit carries an infinite singular-value gap
RESULTS = {
    "DimReport": lambda: dim_for_point(SpectraPoint((0.1, 0.2, 0.15)))[1],
    "StratumClass": lambda: classify(SpectraPoint.exact(("1/6", "1/3", "1/3"))),
    "OrbitReport": lambda: orbit_dimensions(stable_state(4)),
    "StabilityReport": lambda: verify_stable(stable_state(4), k1=2),
    "TorusCertificate": lambda: torus_transitivity_check(4),
    "SampleAudit": lambda: SampleAudit(0, 9, 0, 2, 1e-12, math.inf, True, 40, 0),
    "NumericDimEstimate": lambda: numeric_dim(SpectraPoint((0.1, 0.2, 0.15)), n_samples=2),
}


class TestDocument:
    @pytest.mark.parametrize("name", RESULTS)
    def test_document_is_strict_json(self, name):
        result = RESULTS[name]()
        doc = document(result)
        assert json.loads(json.dumps(doc, allow_nan=False)) == doc
        assert list(doc) == [f.name for f in fields(result)]

    def test_rule(self):
        point = SpectraPoint.exact(("1/2", "0"))
        assert document(point) == [0.5, 0.0]
        assert document((1, [math.nan, -math.inf], "a", None)) == [1, [None, None], "a", None]
        assert document(vertices(2).vertices[0]) == {
            "label": "v_SEP", "zero_set": [], "point": [0.5, 0.5],
        }
