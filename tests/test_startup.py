"""Start-up cost: the exact layer and its subcommands run without importing numpy.

Each check runs in a fresh interpreter, since the test process itself has
numpy loaded.
"""

import json
import math
import os
import subprocess
import sys

import lupoly

SRC = os.path.dirname(os.path.dirname(lupoly.__file__))

# Runs each (argv, stdin) of two lists through cli.main in one process and
# reports the exit codes, and whether numpy was loaded after the first list.
CHILD = """
import contextlib, io, json, sys
from lupoly import cli

def codes(commands):
    out = []
    for argv, stdin in commands:
        sys.stdin = io.StringIO(stdin or "")
        with contextlib.redirect_stdout(io.StringIO()):
            out.append(cli.main(argv))
    return out

exact, numeric = json.loads(sys.argv[1])
exact_codes = codes(exact)
loaded = "numpy" in sys.modules
print(json.dumps({"exact": exact_codes, "numpy": loaded, "numeric": codes(numeric)}))
"""

EXACT = [
    (["dim", "--lambda", "1/10,1/5,3/20"], None),
    (["dim", "--lambda", "0.1,0.2,0.15"], None),
    (["dim"], '{"lambdas": [0.1, 0.2, 0.15]}'),
    (["classify", "--lambda", "1/6,1/3,1/3"], None),
    (["classify", "--lambda", "0.5,0.1,0.2,0.15"], None),
    (["classify"], '{"lambdas": ["1/10", "1/5", "3/20"]}'),
    (["vertices", "-L", "5"], None),
    (["facets", "-L", "5"], None),
    (["xspec", "-L", "4", "-d", "2"], None),
    (["wall-check", "-L", "4"], None),
]


def _python(*args: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_lupoly_leaves_numpy_unloaded():
    out = _python("-c", "import sys, lupoly; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_exact_subcommands_leave_numpy_unloaded(tmp_path):
    ghz = {"L": 3, "amplitudes": [[math.sqrt(0.5), 0.0]] + [[0.0, 0.0]] * 6 + [[math.sqrt(0.5), 0.0]]}
    state_file = tmp_path / "ghz.json"
    state_file.write_text(json.dumps(ghz))
    numeric = [
        (["psi", "--state", str(state_file)], None),
        (["psi", "--state", "-"], json.dumps(ghz)),
        (["dim", "--state", str(state_file)], None),
        (["classify"], json.dumps(ghz)),
        (["sample-fiber", "--lambda", "0.1,0.2,0.15"], None),
    ]
    report = json.loads(_python("-c", CHILD, json.dumps([EXACT, numeric])))
    assert report["exact"] == [0] * len(EXACT)
    assert report["numpy"] is False
    assert report["numeric"] == [0] * len(numeric)
