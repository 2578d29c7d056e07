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
import math
import os
import re
import sys
import traceback
from fractions import Fraction

from .dimension import dim_for_point, report_document
from .errors import InternalInvariantError, NumericalError, ValidationError
from .fiberlab import numeric_dim, sample_fiber
from .polytope import classify, facets, vertices, vertices_oracle
from .qstate import (
    PureState,
    SpectraPoint,
    load_state,
    psi_map,
    purity_invariants,
    read_json,
    state_document,
    state_from_document,
)
from .stability import stable_state, verify_stable
from .wall import build_wall_operator, eigenspace_basis, torus_transitivity_check

# Tokens honored exactly: integers and p/q fractions.  Anything else in
# a lambda list demotes the whole point to float coordinates.
_EXACT_TOKEN = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1 with a JSON error."""

    def error(self, message):
        self.exit(_fail(1, ValidationError(f"{self.format_usage()}{self.prog}: error: {message}")))


def _int_from(low: int):
    """argparse type: an integer no smaller than ``low``; argparse reports a non-integer."""

    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {value}")
        return value

    return integer


_SEED, _COUNT = _int_from(0), _int_from(1)


def _real_in(low: float, high: float = math.inf, include_low: bool = True):
    """argparse type: a finite float in [low, high), or in (low, high) without include_low.

    Also applied to config-file numbers, so it takes a str or a number.
    """

    def real(text) -> float:
        value = float(text)
        above = low <= value if include_low else low < value
        if not (above and value < high):  # false for NaN and both infinities
            interval = f"{'[' if include_low else '('}{low:g}, {high:g})"
            raise argparse.ArgumentTypeError(f"expected a finite number in {interval}, got {text}")
        return value

    return real


_SLACK_TOL = _real_in(0.0)  # polytope slack tolerance
_RESIDUAL_TOL = _real_in(0.0, include_low=False)  # fiber-sampler spectra residual
_RANK_TOL = _real_in(0.0, 1.0, include_low=False)  # relative singular-value threshold


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
    doc = read_json(sys.stdin, "stdin")
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
    """Tolerance defaults; the sampler refuses a zero residual ``tol`` itself."""
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = read_json(handle, f"config {path!r}")
    except OSError as exc:
        raise ValidationError(f"cannot read config {path!r}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config must be a JSON object")
    checks = {"tol": _SLACK_TOL, "rank_tol": _RANK_TOL}
    unknown = sorted(set(cfg) - set(checks))
    if unknown:
        raise ValidationError(f"unknown config keys {unknown}; known: {list(checks)}")
    for key, value in cfg.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValidationError(f"config key {key!r} must be a number")
        try:
            checks[key](value)
        except (argparse.ArgumentTypeError, OverflowError) as exc:
            raise ValidationError(f"config key {key!r}: {exc}") from exc
    return cfg


def _settings(args, *keys: str) -> dict:
    """Keyword arguments: each key's flag value if given, else its config file value."""
    found = {}
    for key in keys:
        value = getattr(args, key, None)
        found[key] = args.config_values.get(key) if value is None else value
    return {key: value for key, value in found.items() if value is not None}


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
    stratum = classify(point, **_settings(args, "tol"))
    return _stratum_document(stratum), 0


def cmd_dim(args):
    point = _resolve_point(args)
    stratum, report = dim_for_point(point, **_settings(args, "tol"))
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
    report = verify_stable(state, k1=args.k1, **_settings(args, "rank_tol"))
    doc = {"num_qubits": state.num_qubits, "alpha": args.alpha}
    doc.update(report.document())
    if constructed:
        doc["state"] = state_document(state)
    code = 2 if report.orbit.ill_conditioned else 0
    return doc, code


def cmd_sample_fiber(args):
    point = _resolve_point(args)
    sample = sample_fiber(point, seed=args.seed, **_settings(args, "tol"))
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
    estimate = numeric_dim(
        point,
        n_samples=args.samples,
        seeds=[args.seed + i for i in range(args.samples)],
        **_settings(args, "tol", "rank_tol"),
    )
    return estimate.document(), 0 if estimate.status == "ok" else 2


def cmd_selftest(args):
    from . import criteria  # loaded here so the other subcommands start without it

    results = [criteria.run(c, args.samples, args.seed + c.id) for c in criteria.CRITERIA]
    passed = all(r["passed"] for r in results)
    return {"passed": passed, "criteria": results}, 0 if passed else 2


# --- parser wiring ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lupoly",
        description="Marginal-spectra polytope, orbit dimensions, and fiber oracle for multiqubit pure states.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name: str, handler, help: str, point: bool = False):
        """Subcommand parser with the flags every subcommand takes, plus the point flags."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        if point:
            rule = "comma-separated shifted spectra; p/q tokens are kept exact"
            p.add_argument("--lambda", dest="lambdas", metavar="LIST", help=rule)
            p.add_argument("--state", metavar="FILE", help="state-file path, or - for stdin")
        p.add_argument("--config", metavar="FILE", help="JSON file with tolerance defaults")
        p.add_argument("-o", "--output", metavar="FILE", help="also write the document here")
        return p

    p = command("psi", cmd_psi, "shifted marginal spectra of a state")
    p.add_argument("--state", metavar="FILE", required=True, help="state-file path, or - for stdin")

    p = command("classify", cmd_classify, "boundary stratum of a point", point=True)
    p.add_argument("--tol", type=_SLACK_TOL, help="slack tolerance for float points (>= 0)")

    p = command("dim", cmd_dim, "reduced-space dimension at a point", point=True)
    p.add_argument("--tol", type=_SLACK_TOL, help="slack tolerance for float points (>= 0)")

    p = command("vertices", cmd_vertices, "vertex list of the region")
    p.add_argument("-L", type=int, required=True, help="number of qubits")
    p.add_argument("--oracle", action="store_true", help="cross-check against exact enumeration")

    p = command("facets", cmd_facets, "facet lattice for plotting")
    p.add_argument("-L", type=int, required=True, help="number of qubits")

    p = command("xspec", cmd_xspec, "wall-operator spectrum")
    p.add_argument("-L", type=int, required=True, help="number of qubits")
    p.add_argument("-d", "--distinguished", type=int, default=1, help="distinguished qubit")

    p = command("wall-check", cmd_wall_check, "torus transitivity certificate")
    p.add_argument("-L", type=int, required=True, help="number of qubits")

    p = command("stable", cmd_stable, "construct or verify a stable state")
    p.add_argument("-L", type=int, help="number of qubits (construction mode)")
    p.add_argument("--alpha", type=float, help="pair-family weight (four qubits)")
    p.add_argument("--k1", type=int, help="verify stability for the first k1 qubits only")
    p.add_argument("--state", metavar="FILE", help="verify this state instead of constructing")
    p.add_argument("--rank-tol", type=_RANK_TOL, help="relative singular-value threshold in (0, 1)")

    p = command("sample-fiber", cmd_sample_fiber, "find a state with given spectra", point=True)
    p.add_argument("--seed", type=_SEED, default=0, help="random seed (>= 0)")
    p.add_argument("--tol", type=_RESIDUAL_TOL, help="residual tolerance (> 0)")

    p = command("oracle-dim", cmd_oracle_dim, "sampled reduced-space dimension", point=True)
    p.add_argument("--samples", type=_COUNT, default=5, help="number of fiber samples (>= 1)")
    p.add_argument("--seed", type=_SEED, default=0, help="base seed (>= 0); sample i uses seed+i")
    p.add_argument("--tol", type=_RESIDUAL_TOL, help="residual tolerance (> 0)")
    p.add_argument("--rank-tol", type=_RANK_TOL, help="relative singular-value threshold in (0, 1)")

    p = command("selftest", cmd_selftest, "the acceptance criteria at reduced counts")
    p.add_argument("--samples", type=_COUNT, default=2, help="samples per randomized check (>= 1)")
    p.add_argument("--seed", type=_SEED, default=0, help="base seed (>= 0); criterion N uses seed+N")
    return parser


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2)
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout; send the interpreter's exit flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


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
    try:
        _emit(doc, args)
    except OSError as exc:  # the -o file cannot be written
        return _fail(1, exc)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
