"""Command-line front end.

Every subcommand prints a single JSON document on standard output.
Exit codes: 0 success, 1 invalid input, 2 numerical failure
(non-convergence or ill-conditioning), 3 internal invariant violation.
Points enter either as an inline ``--lambda`` list, as a ``--state``
file, or as a JSON document piped to standard input; exactly one
source is accepted per invocation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
import traceback
from fractions import Fraction

import numpy as np

from .dimension import dim_for_point, report_document
from .errors import InternalInvariantError, NumericalError, ValidationError
from .fiberlab import numeric_dim, rank_dmu, sample_fiber
from .polytope import (
    classify,
    facets,
    membership,
    random_interior_point,
    random_wall_point,
    vertices,
    vertices_oracle,
)
from .qstate import (
    PureState,
    SpectraPoint,
    apply_local_unitary,
    haar_state,
    load_state,
    psi_map,
    purity_invariants,
    random_local_unitaries,
    state_document,
    state_from_document,
)
from .stability import complement_pair_state, orbit_dimensions, stable_state, verify_stable
from .wall import build_wall_operator, eigenspace_basis, torus_transitivity_check, wall_state

# Tokens honored exactly: integers and p/q fractions.  Anything else in
# a lambda list demotes the whole point to float coordinates.
_EXACT_TOKEN = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")

_CONFIG_KEYS = ("tol", "rank_tol")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _point_from_tokens(tokens: list[str]) -> SpectraPoint:
    """Exact coordinates if every token is an integer or p/q, else floats."""
    if not tokens:
        raise ValidationError("empty lambda list")
    try:
        if all(_EXACT_TOKEN.match(tok) for tok in tokens):
            return SpectraPoint.exact(tokens)
        # float() parses decimal tokens directly: Fraction("1e999999999")
        # would first build a billion-digit integer
        return SpectraPoint(
            tuple(float(Fraction(tok) if _EXACT_TOKEN.match(tok) else tok) for tok in tokens)
        )
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValidationError(f"bad lambda list {tokens}: {exc}") from exc


def _parse_lambdas(text: str) -> SpectraPoint:
    return _point_from_tokens([tok.strip() for tok in text.split(",") if tok.strip()])


def _read_state(path: str) -> PureState:
    if path == "-":
        return _state_from_stdin()
    try:
        return load_state(path)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path!r}: {exc}") from exc


def _stdin_document() -> dict:
    if sys.stdin.isatty():
        raise ValidationError("no input: pass --lambda, --state, or pipe a JSON document")
    try:
        doc = json.load(sys.stdin)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise ValidationError(f"stdin is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValidationError("stdin JSON must be an object")
    return doc


def _state_from_stdin() -> PureState:
    doc = _stdin_document()
    # allow piping a whole subcommand document that nests the state
    if "amplitudes" not in doc and isinstance(doc.get("state"), dict):
        doc = doc["state"]
    return state_from_document(doc)


def _resolve_point(args) -> SpectraPoint:
    """Inline lambdas XOR state file XOR piped document."""
    if args.lambdas is not None and args.state is not None:
        raise ValidationError("--lambda and --state are mutually exclusive")
    if args.lambdas is not None:
        return _parse_lambdas(args.lambdas)
    if args.state is not None:
        return psi_map(_read_state(args.state))
    doc = _stdin_document()
    if "lambdas" in doc:
        lams = doc["lambdas"]
        if not isinstance(lams, list) or not lams:
            raise ValidationError('"lambdas" must be a non-empty array')
        # JSON numbers and strings follow the --lambda token rule
        return _point_from_tokens([str(x).strip() for x in lams])
    if "amplitudes" in doc:
        return psi_map(state_from_document(doc))
    if isinstance(doc.get("state"), dict) and "amplitudes" in doc["state"]:
        return psi_map(state_from_document(doc["state"]))
    raise ValidationError(
        'stdin document carries no "lambdas", "amplitudes", or nested "state"'
    )


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {path!r} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    unknown = sorted(set(cfg) - set(_CONFIG_KEYS))
    if unknown:
        raise ValidationError(f"unknown config keys {unknown}; known: {list(_CONFIG_KEYS)}")
    for key, value in cfg.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"config key {key!r} must be a number")
    return cfg


def _setting(args, key: str):
    """Flag value if given, else config file value, else None."""
    value = getattr(args, key, None)
    if value is not None:
        return value
    return args.config_values.get(key)


def _stratum_document(stratum) -> dict:
    return {
        "member": stratum.member,
        "num_qubits": stratum.num_qubits,
        "k_half": stratum.k_half,
        "half_qubits": list(stratum.half_qubits),
        "k_zero": stratum.k_zero,
        "zero_qubits": list(stratum.zero_qubits),
        "tight_walls": list(stratum.tight_walls),
        "residual_qubits": list(stratum.residual_qubits),
        "residual_L": stratum.residual_L,
        "degenerate": stratum.degenerate,
        "exact": stratum.tol == 0.0,
        "tol": stratum.tol,
        "trail": list(stratum.trail),
    }


def _vertex_document(vertex) -> dict:
    return {
        "label": vertex.label,
        "coords": [str(c) for c in vertex.point.lambdas],
        "floats": [float(c) for c in vertex.point.lambdas],
        "zero_set": list(vertex.zero_set),
    }


# --- subcommand handlers; each returns (document, exit code) ---------------


def cmd_psi(args):
    state = _read_state(args.state)
    point = psi_map(state)
    doc = {
        "num_qubits": state.num_qubits,
        "lambdas": [float(x) for x in point.lambdas],
        "purity": [float(p) for p in purity_invariants(state)],
    }
    return doc, 0


def cmd_classify(args):
    point = _resolve_point(args)
    tol = _setting(args, "tol")
    stratum = classify(point) if tol is None else classify(point, tol=tol)
    return _stratum_document(stratum), 0


def cmd_dim(args):
    point = _resolve_point(args)
    tol = _setting(args, "tol")
    stratum, report = dim_for_point(point) if tol is None else dim_for_point(point, tol=tol)
    doc = report_document(report)
    doc["classification"] = _stratum_document(stratum)
    return doc, 0


def cmd_vertices(args):
    listing = vertices(args.L)
    doc = {
        "num_qubits": args.L,
        "count": len(listing.vertices),
        "vertices": [_vertex_document(v) for v in listing.vertices],
    }
    if args.oracle:
        oracle = vertices_oracle(args.L)
        doc["oracle_count"] = len(oracle.vertices)
        doc["oracle_agrees"] = (
            listing.coordinate_set() == oracle.coordinate_set()
            and sorted(listing.labels()) == sorted(oracle.labels())
        )
    return doc, 0


def cmd_facets(args):
    found = facets(args.L)
    listing = vertices(args.L)
    doc = {
        "num_qubits": args.L,
        "count": len(found),
        "facets": [
            {
                "kind": f.kind,
                "qubit": f.qubit,
                "equality": f.equality,
                "n_incident": f.n_incident,
                "vertices": list(f.vertex_labels),
            }
            for f in found
        ],
        "vertices": [_vertex_document(v) for v in listing.vertices],
    }
    return doc, 0


def cmd_xspec(args):
    op = build_wall_operator(args.L, distinguished=args.distinguished)
    low = eigenspace_basis(args.L, 1, args.distinguished)
    doc = {
        "num_qubits": args.L,
        "distinguished": args.distinguished,
        "spectrum": [
            {"eigenvalue": value, "multiplicity": count} for value, count in op.spectrum()
        ],
        "low_eigenspace": {
            "eigenvalue": low.eigenvalue,
            "dim": low.dim,
            "kets": list(low.bitstrings()),
        },
    }
    return doc, 0


def cmd_wall_check(args):
    return torus_transitivity_check(args.L).document(), 0


def cmd_stable(args):
    rank_tol = _setting(args, "rank_tol")
    rank_kw = {} if rank_tol is None else {"rank_tol": rank_tol}
    if args.state is not None:
        if args.L is not None or args.alpha is not None:
            raise ValidationError("--state verifies an existing state; drop -L/--alpha")
        state = _read_state(args.state)
        constructed = False
    else:
        if args.L is None:
            raise ValidationError("pass -L to construct a state or --state to verify one")
        state = stable_state(args.L, alpha=args.alpha)
        constructed = True
    report = verify_stable(state, k1=args.k1, **rank_kw)
    doc = {"num_qubits": state.num_qubits, "alpha": args.alpha}
    doc.update(report.document())
    if constructed:
        doc["state"] = state_document(state)
    code = 2 if report.orbit.ill_conditioned else 0
    return doc, code


def cmd_sample_fiber(args):
    point = _resolve_point(args)
    tol = _setting(args, "tol")
    kw = {} if tol is None else {"tol": tol}
    sample = sample_fiber(point, seed=args.seed, **kw)
    doc = {
        "num_qubits": sample.state.num_qubits,
        "target": [float(x) for x in sample.target.lambdas],
        "residual": sample.residual,
        "iterations": sample.iterations,
        "restarts": sample.restarts,
        "seed": sample.seed,
        "method": sample.method,
        "state": state_document(sample.state),
    }
    return doc, 0


def cmd_oracle_dim(args):
    point = _resolve_point(args)
    kw = {}
    tol = _setting(args, "tol")
    if tol is not None:
        kw["tol"] = tol
    rank_tol = _setting(args, "rank_tol")
    if rank_tol is not None:
        kw["rank_tol"] = rank_tol
    estimate = numeric_dim(
        point,
        n_samples=args.samples,
        seeds=[args.seed + i for i in range(args.samples)],
        **kw,
    )
    return estimate.document(), 0 if estimate.status == "ok" else 2


# --- selftest: the acceptance criteria at reduced sample counts ------------


def _selftest_three_qubit(samples, rng):
    for _ in range(samples):
        _, report = dim_for_point(random_interior_point(3, rng))
        assert report.dim_M == 2 and report.num_invariants == 5, report
    boundary = []
    for _ in range(samples):
        a = rng.uniform(0.05, 0.2)
        # keep the first wall slack positive: 1/2 - 2a - b >= 0.05
        b = rng.uniform(0.05, 0.45 - 2 * a)
        boundary.append(SpectraPoint((0.0, a, a + b)))
        boundary.append(random_wall_point(3, rng))
        c = rng.uniform(0.05, 0.45)
        boundary.append(SpectraPoint((0.5, c, c)))
    for point in boundary:
        _, report = dim_for_point(point)
        assert report.dim_M == 0, (point.lambdas, report)
    return f"{samples} interior, {len(boundary)} boundary points"


def _selftest_four_qubit(samples, rng):
    chain = [
        ((0.1, 0.1, 0.2, 0.15), 14),
        ((0.0, 0.1, 0.2, 0.15), 12),
        ((0.0, 0.0, 0.2, 0.15), 10),
        ((0.0, 0.0, 0.0, 0.15), 8),
        ((0.0, 0.0, 0.0, 0.0), 6),
    ]
    for lams, want in chain:
        _, report = dim_for_point(SpectraPoint(lams))
        assert report.dim_M == want, (lams, report.dim_M, want)
    _, report = dim_for_point(random_wall_point(4, rng))
    assert report.dim_M == 0, report
    _, report = dim_for_point(SpectraPoint.exact(["1/2", "1/10", "1/5", "3/20"]))
    assert report.dim_M == 2, report
    _, report = dim_for_point(SpectraPoint.exact(["1/2", "0", "1/5", "3/20"]))
    assert report.dim_M == 0, report
    return "interior chain 14/12/10/8/6, wall 0, half-face 2/0"


def _selftest_combinatorics(samples, rng):
    for L in range(2, 13):
        count = len(vertices(L).vertices)
        assert count == 2**L - L, (L, count)
    for L in range(2, 5):
        assert vertices(L).coordinate_set() == vertices_oracle(L).coordinate_set(), L
    for L in (4, 5):
        assert len(facets(L)) == 3 * L, L
    return "counts L=2..12, oracle L=2..4, facets L=4..5"


def _selftest_xspec(samples, rng):
    from math import comb

    for L in range(1, 7):
        spec = dict(build_wall_operator(L).spectrum())
        want = {}
        for k in range(L + 1):
            want[-L + 2 * k] = want.get(-L + 2 * k, 0) + comb(L, k)
        assert spec == want, (L, spec, want)
        assert eigenspace_basis(L, 1, 1).dim == L, L
    return "spectra L=1..6 exact, low eigenspace dim = L"


def _selftest_oracle_dim(samples, rng):
    est = numeric_dim(SpectraPoint((0.1, 0.1, 0.1)), n_samples=samples)
    assert est.status == "ok" and est.dim_estimate == 2, est.document()
    est = numeric_dim(SpectraPoint((0.0, 0.0, 0.0, 0.0)), n_samples=samples)
    assert est.status == "ok" and est.dim_estimate == 6, est.document()
    return "interior L=3 -> 2, v_GHZ L=4 -> 6"


def _selftest_stability(samples, rng):
    for L in (4, 5):
        report = verify_stable(stable_state(L))
        assert report.stable and report.max_reduction_deviation <= 1e-12, (L, report.document())
    assert verify_stable(complement_pair_state(4, 2.0)).stable
    assert not verify_stable(complement_pair_state(4, 1.0)).stable
    return "stable L=4,5; four-qubit weight 2 passes, weight 1 fails"


def _selftest_wall(samples, rng):
    for L in range(3, 11):
        cert = torus_transitivity_check(L)
        assert cert.rank == L and cert.transitive, (L, cert.document())
    for L in (3, 4):
        for _ in range(samples):
            target = random_wall_point(L, rng)
            state = wall_state(target, rng.uniform(-np.pi, np.pi, size=L))
            off = float(np.abs(psi_map(state).as_array() - target.as_array()).max())
            assert off <= 1e-10, (L, target.lambdas, off)
    return f"torus rank L=3..10, {2 * samples} wall states reproduced"


def _selftest_properties(samples, rng):
    checked = 0
    for L in (2, 3):
        for _ in range(samples):
            state = haar_state(L, rng)
            point = psi_map(state)
            assert membership(point).member, point.lambdas
            assert np.allclose(
                purity_invariants(state), 0.5 + 2.0 * point.as_array() ** 2, atol=1e-12
            )
            rotated = apply_local_unitary(state, random_local_unitaries(L, rng))
            assert np.allclose(
                psi_map(rotated).as_array(), point.as_array(), atol=1e-10
            )
            rank = rank_dmu(state)
            iso = orbit_dimensions(state).dim_isotropy_algebra
            assert rank == 3 * L - iso, (L, rank, iso)
            checked += 1
    return f"{checked} Haar states: membership, purity, equivariance, rank duality"


_SELFTEST = (
    (1, "three-qubit dims", _selftest_three_qubit),
    (2, "four-qubit table", _selftest_four_qubit),
    (3, "polytope combinatorics", _selftest_combinatorics),
    (4, "wall-operator spectrum", _selftest_xspec),
    (5, "numeric dim oracle", _selftest_oracle_dim),
    (6, "stability family", _selftest_stability),
    (7, "wall certificate", _selftest_wall),
    (8, "property suite", _selftest_properties),
)


def cmd_selftest(args):
    criteria = []
    for cid, name, check in _SELFTEST:
        rng = np.random.default_rng(args.seed + cid)
        start = time.perf_counter()
        try:
            detail = check(args.samples, rng)
            passed = True
        except AssertionError as exc:
            detail = f"failed: {exc}"
            passed = False
        criteria.append(
            {
                "id": cid,
                "name": name,
                "passed": passed,
                "seconds": round(time.perf_counter() - start, 3),
                "detail": detail,
            }
        )
    all_passed = all(c["passed"] for c in criteria)
    return {"passed": all_passed, "criteria": criteria}, 0 if all_passed else 2


# --- parser wiring ----------------------------------------------------------


def _add_point_flags(sub):
    sub.add_argument(
        "--lambda",
        dest="lambdas",
        metavar="LIST",
        help="comma-separated shifted spectra; p/q tokens are kept exact",
    )
    sub.add_argument("--state", metavar="FILE", help="state-file path, or - for stdin")


def _add_common_flags(sub):
    sub.add_argument("--config", metavar="FILE", help="JSON file with tolerance defaults")
    sub.add_argument("-o", "--output", metavar="FILE", help="also write the document here")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lupoly",
        description="Marginal-spectra polytope, orbit dimensions, and fiber oracle for multiqubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("psi", help="shifted marginal spectra of a state")
    p.add_argument("--state", metavar="FILE", required=True, help="state-file path, or - for stdin")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_psi)

    p = sub.add_parser("classify", help="boundary stratum of a point")
    _add_point_flags(p)
    p.add_argument("--tol", type=float, help="slack tolerance for float points")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_classify)

    p = sub.add_parser("dim", help="reduced-space dimension at a point")
    _add_point_flags(p)
    p.add_argument("--tol", type=float, help="slack tolerance for float points")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_dim)

    p = sub.add_parser("vertices", help="vertex list of the region")
    p.add_argument("-L", type=int, required=True, help="number of qubits")
    p.add_argument("--oracle", action="store_true", help="cross-check against exact enumeration")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_vertices)

    p = sub.add_parser("facets", help="facet lattice for plotting")
    p.add_argument("-L", type=int, required=True, help="number of qubits")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_facets)

    p = sub.add_parser("xspec", help="wall-operator spectrum")
    p.add_argument("-L", type=int, required=True, help="number of qubits")
    p.add_argument("-d", "--distinguished", type=int, default=1, help="distinguished qubit")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_xspec)

    p = sub.add_parser("wall-check", help="torus transitivity certificate")
    p.add_argument("-L", type=int, required=True, help="number of qubits")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_wall_check)

    p = sub.add_parser("stable", help="construct or verify a stable state")
    p.add_argument("-L", type=int, help="number of qubits (construction mode)")
    p.add_argument("--alpha", type=float, help="pair-family weight (four qubits)")
    p.add_argument("--k1", type=int, help="verify stability for the first k1 qubits only")
    p.add_argument("--state", metavar="FILE", help="verify this state instead of constructing")
    p.add_argument("--rank-tol", type=float, help="relative singular-value threshold")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_stable)

    p = sub.add_parser("sample-fiber", help="find a state with given spectra")
    _add_point_flags(p)
    p.add_argument("--seed", type=int, default=0, help="random seed")
    p.add_argument("--tol", type=float, help="residual tolerance")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_sample_fiber)

    p = sub.add_parser("oracle-dim", help="sampled reduced-space dimension")
    _add_point_flags(p)
    p.add_argument("--samples", type=int, default=5, help="number of fiber samples")
    p.add_argument("--seed", type=int, default=0, help="base seed; sample i uses seed+i")
    p.add_argument("--tol", type=float, help="residual tolerance")
    p.add_argument("--rank-tol", type=float, help="relative singular-value threshold")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_oracle_dim)

    p = sub.add_parser("selftest", help="acceptance checks, reduced counts")
    p.add_argument("--samples", type=int, default=2, help="samples per randomized check")
    p.add_argument("--seed", type=int, default=0, help="base seed")
    _add_common_flags(p)
    p.set_defaults(handler=cmd_selftest)

    return parser


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2)
    print(text)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")


def _fail(code: int, exc: Exception) -> int:
    doc = {"error": {"type": exc.__class__.__name__, "message": str(exc)}}
    print(json.dumps(doc, indent=2), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.config_values = _load_config(getattr(args, "config", None))
        doc, code = args.handler(args)
    except ValidationError as exc:
        return _fail(1, exc)
    except NumericalError as exc:
        return _fail(2, exc)
    except InternalInvariantError as exc:
        return _fail(3, exc)
    except Exception as exc:  # noqa: BLE001 -- anything else is a bug in here
        traceback.print_exc()
        return _fail(3, exc)
    _emit(doc, args)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
