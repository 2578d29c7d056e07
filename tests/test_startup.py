"""Start-up cost: the exact layer and its subcommands run without importing
numpy, dataclasses (with inspect) or traceback.

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

# Modules no exact subcommand loads: numpy, and dataclasses with the inspect
# it imports, and traceback, which only an internal error needs.
UNLOADED = ("numpy", "dataclasses", "inspect", "traceback")

# Runs each (argv, stdin) of two lists through cli.main in one process and
# reports the exit codes, and which of UNLOADED were loaded after each list.
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

def loaded():
    return [name for name in unloaded if name in sys.modules]

exact, numeric, unloaded = json.loads(sys.argv[1])
exact_codes = codes(exact)
exact_loaded = loaded()
numeric_codes = codes(numeric)
print(json.dumps({"exact": exact_codes, "exact_loaded": exact_loaded,
                  "numeric": numeric_codes, "numeric_loaded": loaded()}))
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


def _loaded_by(statement: str) -> list:
    """Which of UNLOADED a fresh interpreter has loaded after the statement."""
    script = f"import json, sys; {statement}; print(json.dumps([m for m in {UNLOADED!r} if m in sys.modules]))"
    return json.loads(_python("-c", script))


def test_import_lupoly_leaves_numpy_unloaded():
    assert _loaded_by("import lupoly") == []


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
    report = json.loads(_python("-c", CHILD, json.dumps([EXACT, numeric, UNLOADED])))
    assert report["exact"] == [0] * len(EXACT)
    assert report["exact_loaded"] == []
    assert report["numeric"] == [0] * len(numeric)
    # numpy 2 imports inspect itself; lupoly adds neither module
    allowed = {"numpy", "traceback"} | set(_loaded_by("import numpy"))
    assert "dataclasses" not in allowed
    assert set(report["numeric_loaded"]) <= allowed


def test_entry_point_import_log():
    # the shipped entry point, with its import log: names are the last column
    env = dict(os.environ, PYTHONPATH=SRC)
    argv = ["-X", "importtime", "-m", "lupoly.cli", "dim", "--lambda", "1/10,1/5,3/20"]
    proc = subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim_M"] == 2
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines() if line.startswith("import time:")
    }
    assert "lupoly.polytope" in imported
    assert imported.isdisjoint(UNLOADED)


# Runs one numeric subcommand through cli.main and reports the BLAS thread
# variables numpy was imported under.
BLAS_CHILD = """
import contextlib, io, json, os, sys
from lupoly import cli

before = "numpy" in sys.modules
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["sample-fiber", "--lambda", "0.1,0.2,0.15"])
keys = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
env = {key: os.environ.get(key) for key in keys}
after = "numpy" in sys.modules
print(json.dumps({"code": code, "numpy_before": before, "numpy_after": after, "env": env}))
"""


BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_report(**preset: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES}
    env.update(preset, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", BLAS_CHILD], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    assert (report["numpy_before"], report["numpy_after"]) == (False, True)
    return report["env"]


def test_cli_defaults_to_one_blas_thread():
    assert _blas_report() == dict.fromkeys(BLAS_VARIABLES, "1")


def test_cli_keeps_a_blas_thread_count_the_user_set():
    env = _blas_report(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3")
    assert env == {"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"}
