"""Run ``lupoly.cli`` with the layer functions traced, for a traced cli-oneshot run.

Usage: python clitrace.py OUT.json SUBCOMMAND [ARGS...]

Behaves like ``python -m lupoly.cli SUBCOMMAND [ARGS...]`` and, on exit,
writes the per-function aggregate and counters to OUT.json.
"""

import json
import sys

from tracer import Tracer

from lupoly import cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    try:
        with tracer:
            code = cli.main(argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump({"layers": tracer.aggregate(), "counters": dict(tracer.counters)}, handle)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
