"""Command-line front end.

Every subcommand prints a single JSON document on standard output.
Exit codes: 0 success, 1 invalid input, 2 numerical failure
(non-convergence or ill-conditioning), 3 internal invariant violation.
Points enter either as an inline ``--lambda`` list, as a ``--state``
file, or as a JSON document piped to standard input; exactly one
source is accepted per invocation.  The one tolerance a user sets is
the slack tolerance, ``--tol`` of ``classify`` and ``dim``; the fiber
residual and the singular-value rank cut are fixed constants
(``fiberlab.FIBER_TOL``, ``stability.RANK_TOL``).

The parser only turns flag values into ints and floats.  The library
call behind each flag checks its value, so a count, seed, index, weight
or tolerance out of range raises ``ValidationError`` and exits 1 with a
message that names the argument, the interval and the value.

Start-up is most of a one-shot call, so the exact subcommands import only
what they use: ``classify`` and ``dim`` on a lambda list, ``vertices``,
``facets``, ``xspec`` and ``wall-check`` run without numpy, ``inspect``
or ``traceback``.  The numpy modules (``qstate``, ``fiberlab``,
``stability``) are imported inside the handlers and branches that use
them, the result records are NamedTuples (a data-class decorator would
import ``inspect``), and ``traceback`` is imported only to print an
internal error.  ``tests/test_startup.py`` pins this.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction

from .dimension import dim_for_point
from .errors import InternalInvariantError, NumericalError, ValidationError
from .polytope import (
    SpectraPoint, _facets_and_vertices, classify, document, read_json, vertices, vertices_oracle,
)
from .wall import build_wall_operator, eigenspace_basis, torus_transitivity_check

# Tokens honored exactly: integers and p/q fractions.  Anything else in
# a lambda list demotes the whole point to float coordinates.
_EXACT_TOKEN = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad flags; the contract here is exit 1 with a JSON error."""

    def error(self, message):
        self.exit(_fail(1, ValidationError(f"{self.format_usage()}{self.prog}: error: {message}")))


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


def _read_state(path: str):
    """The PureState in a state file, or on stdin for ``-``."""
    from . import qstate

    if path == "-":
        return qstate.state_from_document(_unnest(_stdin_document()))
    try:
        return qstate.load_state(path)
    except OSError as exc:
        raise ValidationError(f"cannot read state file {path!r}: {exc}") from exc


def _stdin_document() -> dict:
    if sys.stdin.isatty():
        raise ValidationError("no input: pass --lambda, --state, or pipe a JSON document")
    doc = read_json(sys.stdin, "stdin")
    if not isinstance(doc, dict):
        raise ValidationError("stdin JSON must be an object")
    return doc


def _unnest(doc: dict) -> dict:
    """A piped subcommand document that nests a state stands for that state."""
    if "amplitudes" not in doc and isinstance(doc.get("state"), dict):
        return doc["state"]
    return doc


def _resolve_point(args) -> SpectraPoint:
    """Inline lambdas XOR state file XOR piped document."""
    if args.lambdas is not None and args.state is not None:
        raise ValidationError("--lambda and --state are mutually exclusive")
    if args.lambdas is not None:
        return _parse_lambdas(args.lambdas)
    if args.state is None:
        doc = _stdin_document()
        if "lambdas" in doc:
            lams = doc["lambdas"]
            if not isinstance(lams, list) or not lams:
                raise ValidationError('"lambdas" must be a non-empty array')
            # JSON numbers and strings follow the --lambda token rule
            return _point_from_tokens([str(x).strip() for x in lams])
        doc = _unnest(doc)
        if "amplitudes" not in doc:
            raise ValidationError(
                'stdin document carries no "lambdas", "amplitudes", or nested "state"'
            )
    from . import qstate  # only a state needs numpy

    state = qstate.state_from_document(doc) if args.state is None else _read_state(args.state)
    return qstate.psi_map(state)


def _stratum_document(stratum, point) -> dict:
    # classify raises on a non-member
    return {"member": True, **document(stratum), "exact": point.is_exact}


def _vertex_document(vertex) -> dict:
    return {
        "label": vertex.label,
        "coords": [str(c) for c in vertex.point.lambdas],
        "floats": [float(c) for c in vertex.point.lambdas],
        "zero_set": list(vertex.zero_set),
    }


# --- subcommand handlers; each returns (document, exit code) ---------------


def cmd_psi(args):
    from . import qstate

    state = _read_state(args.state)
    point = qstate.psi_map(state)
    doc = {
        "num_qubits": state.num_qubits,
        "lambdas": [float(x) for x in point.lambdas],
        "purity": [float(p) for p in qstate.purity_invariants(state)],
    }
    return doc, 0


def cmd_classify(args):
    point = _resolve_point(args)
    stratum = classify(point, tol=args.tol)
    return _stratum_document(stratum, point), 0


def cmd_dim(args):
    point = _resolve_point(args)
    stratum, report = dim_for_point(point, tol=args.tol)
    return {**document(report), "classification": _stratum_document(stratum, point)}, 0


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
    found, listing = _facets_and_vertices(args.L)
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
    return document(torus_transitivity_check(args.L)), 0


def cmd_stable(args):
    from . import qstate, stability

    if args.state is not None:
        if args.L is not None or args.alpha is not None:
            raise ValidationError("--state verifies an existing state; drop -L/--alpha")
        state = _read_state(args.state)
        constructed = False
    else:
        if args.L is None:
            raise ValidationError("pass -L to construct a state or --state to verify one")
        state = stability.stable_state(args.L, alpha=args.alpha)
        constructed = True
    report = stability.verify_stable(state, k1=args.k1)
    doc = {"num_qubits": state.num_qubits, "alpha": args.alpha, **document(report)}
    if constructed:
        doc["state"] = qstate.state_document(state)
    code = 2 if report.orbit.ill_conditioned else 0
    return doc, code


def cmd_sample_fiber(args):
    from . import fiberlab, qstate

    point = _resolve_point(args)
    sample = fiberlab.sample_fiber(point, seed=args.seed)
    doc = {
        "num_qubits": sample.state.num_qubits,
        "target": [float(x) for x in sample.target.lambdas],
        "residual": sample.residual,
        "iterations": sample.iterations,
        "restarts": sample.restarts,
        "seed": sample.seed,
        "method": sample.method,
        "state": qstate.state_document(sample.state),
    }
    return doc, 0


def cmd_oracle_dim(args):
    from . import fiberlab

    point = _resolve_point(args)
    estimate = fiberlab.numeric_dim(point, n_samples=args.samples, seed=args.seed)
    return document(estimate), 0 if estimate.status == "ok" else 2


def cmd_selftest(args):
    from . import criteria  # loaded here so the other subcommands start without it

    doc = criteria.selftest(args.samples, args.seed)
    return doc, 0 if doc["passed"] else 2


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
        p.add_argument("-o", "--output", metavar="FILE", help="also write the document here")
        return p

    p = command("psi", cmd_psi, "shifted marginal spectra of a state")
    p.add_argument("--state", metavar="FILE", required=True, help="state-file path, or - for stdin")

    p = command("classify", cmd_classify, "boundary stratum of a point", point=True)
    p.add_argument("--tol", type=float, help="slack tolerance for float points, in [0, 1/4)")

    p = command("dim", cmd_dim, "reduced-space dimension at a point", point=True)
    p.add_argument("--tol", type=float, help="slack tolerance for float points, in [0, 1/4)")

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

    p = command("sample-fiber", cmd_sample_fiber, "find a state with given spectra", point=True)
    p.add_argument("--seed", type=int, default=0, help="random seed (>= 0)")

    p = command("oracle-dim", cmd_oracle_dim, "sampled reduced-space dimension", point=True)
    p.add_argument("--samples", type=int, default=5,
                   help="number of fiber samples (1..fiberlab.MAX_SAMPLES)")
    p.add_argument("--seed", type=int, default=0, help="base seed (>= 0); sample i uses seed+i")

    p = command("selftest", cmd_selftest, "the acceptance criteria at reduced counts")
    p.add_argument("--samples", type=int, default=2,
                   help="samples per randomized check (1..fiberlab.MAX_SAMPLES)")
    p.add_argument("--seed", type=int, default=0, help="base seed (>= 0); criterion N uses seed+N")
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


# One BLAS thread unless the user set a count: the matrices here are small,
# and a second OpenBLAS thread made `oracle-dim` at L = 6 slower end to end
# (0.316 s against 0.250 s, medians of 8 runs on a 2-core x86-64 VM).
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    for key in BLAS_THREAD_VARIABLES:  # read once, when numpy is first imported
        os.environ.setdefault(key, "1")
    args = build_parser().parse_args(argv)
    try:
        doc, code = args.handler(args)
    except ValidationError as exc:
        return _fail(1, exc)
    except NumericalError as exc:
        return _fail(2, exc)
    except InternalInvariantError as exc:
        return _fail(3, exc)
    except Exception as exc:  # noqa: BLE001 -- anything else is a bug in here
        import traceback  # only this branch prints one

        traceback.print_exc()
        return _fail(3, exc)
    try:
        _emit(doc, args)
    except OSError as exc:  # the -o file cannot be written
        return _fail(1, exc)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
