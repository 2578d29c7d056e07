"""The eight acceptance criteria, one implementation for the test gate and the selftest.

Each check takes a sample count and a seed and returns a summary of what
it checked.  A failure raises ``AssertionError`` with the values involved,
never through an ``assert`` statement, so ``python -O`` cannot strip it.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction
from math import ceil, comb

import numpy as np

from .dimension import dim_for_point
from .fiberlab import numeric_dim, rank_dmu
from .polytope import (
    facets,
    membership,
    random_interior_point,
    random_wall_point,
    vertices,
    vertices_oracle,
)
from .qstate import (
    MAX_QUBITS,
    SpectraPoint,
    apply_local_unitary,
    haar_state,
    momentum_map,
    psi_map,
    purity_invariants,
    random_local_unitaries,
)
from .stability import complement_pair_state, orbit_dimensions, stable_state, verify_stable
from .wall import build_wall_operator, eigenspace_basis, torus_transitivity_check, wall_state

# Four-qubit vertex labels; a "1" digit is the coordinate 1/2, a "0" is 0.
FOUR_QUBIT_VERTICES = dict(
    zip(
        "v_SEP v_B1 v_B2 v_B3 v_B4 v_B5 v_B6 v_1 v_2 v_3 v_4 v_GHZ".split(),
        "1111 0011 0101 0110 1001 1010 1100 1000 0100 0010 0001 0000".split(),
    )
)

# Four-qubit points with one more zero coordinate each, and their dim_M.
ZERO_CHAIN = (
    ((0.0, 0.1, 0.2, 0.15), 12),
    ((0.0, 0.0, 0.2, 0.15), 10),
    ((0.0, 0.0, 0.0, 0.15), 8),
    ((0.0, 0.0, 0.0, 0.0), 6),
)

# Exact points on the face lambda_1 = 1/2 and their dim_M.
HALF_FACE = (
    (("1/2", "1/6", "1/3", "1/3"), 0),
    (("1/2", "1/10", "1/5", "3/20"), 2),
    (("1/2", "0", "1/5", "3/20"), 0),
)


def _check(ok, what: str, **values) -> None:
    """Fail the running criterion, reporting the values involved."""
    if not ok:
        raise AssertionError(f"{what}: " + ", ".join(f"{k}={v!r}" for k, v in values.items()))


def _expect(got, want, what: str, **context) -> None:
    _check(got == want, what, **context, got=got, want=want)


def _dim_is(point: SpectraPoint, want: int) -> None:
    _expect(dim_for_point(point)[1].dim_M, want, "closed-form dim_M", point=point.lambdas)


def check_vertex_oracle(L: int) -> None:
    """The closed-form vertex list agrees with exact brute-force enumeration."""
    agree = vertices(L).coordinate_set() == vertices_oracle(L).coordinate_set()
    _check(agree, "closed-form vertices differ from the oracle", L=L)


def _three_qubit_dims(samples: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        point = random_interior_point(3, rng)
        report = dim_for_point(point)[1]
        got = (report.dim_M, report.num_invariants)
        _expect(got, (2, 5), "interior dim_M, invariants", point=point.lambdas)
    for _ in range(samples):
        a = rng.uniform(0.05, 0.2)
        # keep the first wall slack positive: 1/2 - 2a - b >= 0.05
        b = rng.uniform(0.05, 0.45 - 2 * a)
        boundary = (SpectraPoint((0.0, a, a + b)), random_wall_point(3, rng))
        c = rng.uniform(0.05, 0.45)
        for point in boundary + (SpectraPoint((0.5, c, c)),):
            _dim_is(point, 0)
    return f"{samples} interior 2/5; {3 * samples} boundary (zero, wall, half) 0"


def _four_qubit_table(samples: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        _dim_is(random_interior_point(4, rng), 14)
    for lams, want in (((0.1, 0.1, 0.2, 0.15), 14),) + ZERO_CHAIN:
        _dim_is(SpectraPoint(lams), want)
    for _ in range(samples):
        _dim_is(random_wall_point(4, rng), 0)
    for lams, want in HALF_FACE:
        _dim_is(SpectraPoint.exact(lams), want)
    return f"{samples} interior 14; chain 14/12/10/8/6; {samples} walls 0; half face 0/2/0"


def _polytope_combinatorics(samples: int, seed: int) -> str:
    for L in range(2, 13):
        _expect(len(vertices(L).vertices), 2**L - L, "vertex count", L=L)
    for L in range(2, 5):
        check_vertex_oracle(L)
    got = {v.label: v.point.lambdas for v in vertices(4).vertices}
    want = {k: tuple(Fraction(int(c), 2) for c in v) for k, v in FOUR_QUBIT_VERTICES.items()}
    _expect(got, want, "four-qubit vertex table")
    for L in range(4, 9):
        _expect(len(facets(L)), 3 * L, "facet count", L=L)
    return "vertex counts 2^L-L for L=2..12, oracle L=2..4, four-qubit labels, facets 3L, L=4..8"


def _wall_spectrum(samples: int, seed: int) -> str:
    for L in range(1, 11):
        want = tuple((-L + 2 * k, comb(L, k)) for k in range(L + 1))
        _expect(build_wall_operator(L).spectrum(), want, "wall-operator spectrum", L=L)
        _expect(eigenspace_basis(L, 1).dim, L, "low eigenspace dimension", L=L)
    return "spectrum {-L+2k} x C(L,k) and low eigenspace dim L for L=1..10"


def _oracle_agreement(samples: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    cases = [(random_interior_point(L, rng), None) for L in (3, 4, 5) for _ in range(samples)]
    cases += [(SpectraPoint(lams), want) for lams, want in (((0.1, 0.1, 0.1), 2),) + ZERO_CHAIN]
    for L in range(6, MAX_QUBITS + 1):
        point = random_interior_point(L, rng)
        cases += [(point, None), (SpectraPoint((0.0, 0.0) + point.lambdas[2:]), None)]
    for target, want in cases:
        closed = dim_for_point(target)[1].dim_M
        est = numeric_dim(target, n_samples=samples, rank_tol=1e-8)
        agree = est.status == "ok" and est.dim_estimate == closed and want in (None, closed)
        _check(agree, "numeric dim", closed=closed, want=want, estimate=est.document())
    return (
        f"{samples} interior targets/L=3,4,5, (0.1,0.1,0.1), zero chain, one interior and "
        f"its two-zero twin/L=6..{MAX_QUBITS}; {samples} samples each"
    )


def _stable_families(samples: int, seed: int) -> str:
    for L in range(4, 9):
        mu = momentum_map(stable_state(L))
        worst = float(np.abs(mu).max())
        _check(worst <= 1e-12, "stable-state reductions differ from I/2", L=L, deviation=worst)
    for L in (4, 5, 6):
        dim = orbit_dimensions(stable_state(L)).dim_G_orbit_complex
        _expect(dim, 3 * L, "complex orbit dimension", L=L)
    for L, alpha in ((4, -2.0), (4, 0.5), (4, 2.0), (4, 5.0), (5, None)):
        _check(verify_stable(stable_state(L, alpha)).stable, "not stable", L=L, alpha=alpha)
    for alpha in (1.0, -3.0):
        unstable = not verify_stable(complement_pair_state(4, alpha)).stable
        _check(unstable, "excluded weight verified stable", alpha=alpha)
    return "reductions I/2 for L=4..8, G-rank 3L for L=4..6, stable L=5 and weights, 1/-3 not"


def _wall_certificate(samples: int, seed: int) -> str:
    for L in range(3, 11):
        cert = torus_transitivity_check(L)
        _check(cert.rank == L and cert.transitive, "torus certificate", L=L, rank=cert.rank)
    rng = np.random.default_rng(seed)
    for L in (3, 4, 5):
        for _ in range(samples):
            target = random_wall_point(L, rng)
            state = wall_state(target, rng.uniform(-np.pi, np.pi, size=L))
            off = float(np.abs(psi_map(state).as_array() - target.as_array()).max())
            _check(off <= 1e-10, "wall state misses its spectra", point=target.lambdas, off=off)
    return f"torus rank L=3..10; {samples} wall states per L=3,4,5 within 1e-10"


def _property_suites(samples: int, seed: int) -> str:
    for L in (2, 3, 4, 5):
        rng = np.random.default_rng(seed + L)
        for _ in range(samples):
            state = haar_state(L, rng)
            point = psi_map(state)
            lams = point.as_array()
            _check(membership(point).member, "Haar spectra outside the region", lambdas=lams)
            purity = purity_invariants(state)
            ok = np.allclose(purity, 0.5 + 2.0 * lams**2, atol=1e-12)
            _check(ok, "purity differs from 1/2 + 2 lambda^2", lambdas=lams, purity=purity)
            units = random_local_unitaries(L, rng)
            rotated = apply_local_unitary(state, units)
            # momentum equivariance: blocks conjugate by the local factors
            mu, mu_rot = momentum_map(state), momentum_map(rotated)
            for l, u in enumerate(units, start=1):
                ok = np.allclose(mu_rot[l - 1], u @ mu[l - 1] @ u.conj().T, atol=1e-10)
                _check(ok, "momentum block not equivariant", L=L, qubit=l)
            after = psi_map(rotated).as_array()
            ok = np.allclose(after, lams, atol=1e-10)
            _check(ok, "spectra moved under local unitaries", before=lams, after=after)
    dualities = ceil(samples / 5)
    rng = np.random.default_rng(seed + 8)
    for i in range(dualities):
        L = 2 + i % 3
        state = haar_state(L, rng)
        iso = orbit_dimensions(state).dim_isotropy_algebra
        _expect(rank_dmu(state), 3 * L - iso, "rank dmu vs 3L - dim isotropy", L=L)
    checks = "membership, purity, equivariance"
    return f"{samples} Haar states per L=2..5: {checks}; {dualities} rank dualities"


# budget: seconds the criterion may take at the acceptance counts
Criterion = namedtuple("Criterion", "id name budget check")

CRITERIA = (
    Criterion(1, "three-qubit dims", 1.0, _three_qubit_dims),
    Criterion(2, "four-qubit table", 1.0, _four_qubit_table),
    Criterion(3, "polytope combinatorics", 30.0, _polytope_combinatorics),
    Criterion(4, "wall-operator spectrum", 5.0, _wall_spectrum),
    Criterion(5, "numeric dim oracle", 600.0, _oracle_agreement),
    Criterion(6, "stability family", 60.0, _stable_families),
    Criterion(7, "wall certificate", 30.0, _wall_certificate),
    Criterion(8, "property suite", 120.0, _property_suites),
)


def run(criterion: Criterion, samples: int, seed: int) -> dict:
    """Run one criterion; the entry has the fields of the selftest schema."""
    start = time.perf_counter()
    try:
        detail, passed = criterion.check(samples, seed), True
    except AssertionError as exc:
        detail, passed = f"failed: {exc}", False
    return {
        "id": criterion.id,
        "name": criterion.name,
        "passed": passed,
        "seconds": round(time.perf_counter() - start, 3),
        "detail": detail,
    }
