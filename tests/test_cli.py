"""End-to-end checks of the command line: exit codes, JSON contracts, input routing."""

import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import jsonschema
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lupoly import (
    ConvergenceError,
    InternalInvariantError,
    SpectraPoint,
    membership,
    random_wall_point,
    sample_fiber,
    schemas,
    stable_state,
    state_document,
)
from lupoly import cli, criteria
from lupoly.fiberlab import MAX_SAMPLES
from lupoly.qstate import MAX_QUBITS


def write_state(state, path):
    path.write_text(json.dumps(state_document(state)), encoding="utf-8")


class FakeTty(io.StringIO):
    def isatty(self):
        return True


def strict_constant(name):
    raise ValueError(f"{name} is not JSON")


def run(capsys, *argv, stdin=None, monkeypatch=None):
    """Invoke the CLI in process; returns (exit code, stdout doc, stderr text).

    The document must be strict JSON: NaN, Infinity or -Infinity fails the parse.
    """
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out, parse_constant=strict_constant) if captured.out.strip() else None
    return code, doc, captured.err


class TestPinnedExamples:
    def test_dim_with_zero_coordinate(self, capsys):
        code, doc, _ = run(capsys, "dim", "--lambda", "0,0.1,0.2,0.15")
        assert code == 0
        assert doc["dim_M"] == 12
        assert doc["num_invariants"] == 16
        assert doc["formula"] == "case3"
        assert doc["status"] == "paper-exact"

    def test_vertices_with_oracle(self, capsys):
        code, doc, _ = run(capsys, "vertices", "-L", "4", "--oracle")
        assert code == 0
        assert doc["count"] == 12
        assert doc["oracle_count"] == 12
        assert doc["oracle_agrees"] is True

    def test_oracle_past_its_bound_is_refused(self, capsys):
        start = time.perf_counter()
        code, doc, err = run(capsys, "vertices", "-L", "7", "--oracle")
        assert time.perf_counter() - start < 2.0
        assert code == 1 and doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError" and "in 2..6, got 7" in error["message"]

    def test_dim_at_separable_vertex(self, capsys):
        code, doc, _ = run(capsys, "dim", "--lambda", "0.5,0.5,0.5,0.5")
        assert code == 0
        assert doc["dim_M"] == 0

    def test_oracle_dim(self, capsys):
        code, doc, _ = run(
            capsys, "oracle-dim", "--lambda", "0.1,0.1,0.1", "--samples", "5", "--seed", "1"
        )
        assert code == 0
        assert doc["dim_estimate"] == 2
        assert doc["regular"] is True
        assert len(doc["samples"]) == 5

    def test_xspec(self, capsys):
        code, doc, _ = run(capsys, "xspec", "-L", "3")
        assert code == 0
        assert doc["spectrum"] == [
            {"eigenvalue": -3, "multiplicity": 1},
            {"eigenvalue": -1, "multiplicity": 3},
            {"eigenvalue": 1, "multiplicity": 3},
            {"eigenvalue": 3, "multiplicity": 1},
        ]
        assert doc["low_eigenspace"]["kets"] == ["111", "001", "010"]

    def test_wall_check(self, capsys):
        code, doc, _ = run(capsys, "wall-check", "-L", "5")
        assert code == 0
        assert doc["rank"] == 5 and doc["quotient_rank"] == 4 and doc["transitive"]


class TestExitCodes:
    def test_unknown_flag_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["dim", "--bogus"])
        assert exc.value.code == 1
        error = json.loads(capsys.readouterr().err)["error"]
        assert error["type"] == "ValidationError" and "usage" in error["message"]

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 1

    def test_missing_required_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["psi"])
        assert exc.value.code == 1

    def test_nonmember_point(self, capsys):
        code, doc, err = run(capsys, "dim", "--lambda", "0.4,0,0.3")
        assert code == 1 and doc is None
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_bad_lambda_token(self, capsys):
        code, _, err = run(capsys, "classify", "--lambda", "0.1,zebra")
        assert code == 1 and "bad lambda list" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("token", ("1e400", "1e999999999"))
    def test_overflowing_lambda_token(self, capsys, token):
        code, _, err = run(capsys, "dim", "--lambda", f"{token},0.1,0.1")
        assert code == 1 and "finite" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("entry", ('"zebra"', "null", "[0.1]", "false", "true"))
    def test_bad_stdin_lambda_entry(self, capsys, monkeypatch, entry):
        stdin = f'{{"lambdas": [{entry}, 0.1, 0.1]}}'
        code, doc, err = run(capsys, "dim", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 1 and doc is None
        assert json.loads(err)["error"]["type"] == "ValidationError"

    def test_stdin_integer_past_digit_limit(self, capsys, monkeypatch):
        stdin = '{"lambdas": [' + "1" * 5000 + ", 0.1, 0.1]}"
        code, _, err = run(capsys, "dim", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 1 and "not valid JSON" in err

    # argv -> the library's refusal: argument, interval and value
    BOUNDS = {
        "sample-fiber --lambda 0.1,0.2,0.15 --seed -1": "seed must be an integer >= 0, got -1",
        "oracle-dim --lambda 0.1,0.1,0.1 --seed -1": "seed must be an integer >= 0, got -1",
        "oracle-dim --lambda 0.1,0.1,0.1 --samples 0":
            f"n_samples must be an integer in 1..{MAX_SAMPLES}, got 0",
        "selftest --seed -1": "seed must be an integer >= 0, got -1",
        "selftest --samples 0": f"samples must be an integer in 1..{MAX_SAMPLES}, got 0",
        # refused before any criterion runs, and named by the flag
        f"selftest --samples {MAX_SAMPLES + 1}":
            f"samples must be an integer in 1..{MAX_SAMPLES}, got {MAX_SAMPLES + 1}",
        "stable -L 4 --alpha nan": "alpha must be a finite number, got nan",
    }

    @pytest.mark.parametrize("argv", BOUNDS)
    def test_seed_and_sample_bounds(self, capsys, argv):
        code, doc, err = run(capsys, *argv.split())
        assert code == 1 and doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError" and error["message"] == self.BOUNDS[argv]

    def test_huge_sample_count_is_refused_at_once(self):
        argv = [sys.executable, "-m", "lupoly.cli", "oracle-dim", "--lambda", "0.1,0.1,0.1",
                "--samples", "1000000000"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        assert time.perf_counter() - start < 2.0
        assert proc.returncode == 1 and proc.stdout == ""
        message = json.loads(proc.stderr)["error"]["message"]
        assert message == f"n_samples must be an integer in 1..{MAX_SAMPLES}, got 1000000000"

    @pytest.mark.parametrize("command", ("stable", "xspec", "wall-check"))
    def test_qubit_count_past_the_bound(self, capsys, command):
        code, doc, err = run(capsys, command, "-L", str(MAX_QUBITS + 1))
        assert code == 1 and doc is None
        assert f"..{MAX_QUBITS}, got {MAX_QUBITS + 1}" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize(
        "stdin",
        (
            '{"L": 1, "amplitudes": [["a", 0], [1, 0]]}',
            '{"L": 1, "amplitudes": [[true, false], [false, false]]}',
            '{"L": true, "amplitudes": [[1, 0], [0, 0]]}',
        ),
    )
    def test_malformed_state_document(self, capsys, monkeypatch, stdin):
        code, _, err = run(capsys, "psi", "--state", "-", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 1 and json.loads(err)["error"]["type"] == "ValidationError"

    @pytest.mark.parametrize("flag", ("--state",))
    @pytest.mark.parametrize(
        "payload", (b"[" * 100000, b"\xff\xfe{}"), ids=("deep-nesting", "invalid-utf8")
    )
    def test_unreadable_json_file(self, capsys, tmp_path, flag, payload):
        path = tmp_path / "input.json"
        path.write_bytes(payload)
        code, doc, err = run(capsys, "psi", flag, str(path))
        assert code == 1 and doc is None
        error = json.loads(err)["error"]
        assert error["type"] == "ValidationError" and "not valid JSON" in error["message"]

    @pytest.mark.parametrize(
        "payload", (b"[" * 100000, b"\xff\xfe{}"), ids=("deep-nesting", "invalid-utf8")
    )
    def test_unreadable_stdin_process(self, payload):
        argv = [sys.executable, "-m", "lupoly.cli", "dim"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        proc = subprocess.run(argv, input=payload, capture_output=True, env=env, timeout=60)
        assert proc.returncode == 1 and proc.stdout == b""
        assert json.loads(proc.stderr)["error"]["type"] == "ValidationError"

    def test_state_file_integer_past_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"L": 1, "amplitudes": [[' + "1" * 5000 + ", 0], [0, 0]]}")
        code, _, err = run(capsys, "psi", "--state", str(path))
        assert code == 1 and "not valid JSON" in err

    def test_two_input_sources(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        write_state(stable_state(4), path)
        code, _, err = run(capsys, "dim", "--lambda", "0.1,0.2,0.15", "--state", str(path))
        assert code == 1 and "mutually exclusive" in err

    def test_no_input_on_a_terminal(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", FakeTty())
        code, _, err = run(capsys, "classify")
        assert code == 1 and "pass --lambda" in err

    def test_excluded_alpha(self, capsys):
        code, _, err = run(capsys, "stable", "-L", "4", "--alpha", "1")
        assert code == 1 and "excluded set" in err

    @pytest.mark.parametrize("amplitude", ("1e200", "1e-200"))
    def test_extreme_amplitudes_under_warnings_as_errors(self, amplitude):
        # the norm of [1e200, 0] overflows when squared; stderr holds the JSON error alone
        argv = [sys.executable, "-W", "error", "-m", "lupoly.cli", "psi", "--state", "-"]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        stdin = '{"L": 1, "amplitudes": [[%s, 0], [0, 0]]}' % amplitude
        proc = subprocess.run(argv, input=stdin, capture_output=True, text=True, env=env,
                              timeout=60)
        assert proc.returncode == 1 and proc.stdout == ""
        error = json.loads(proc.stderr)["error"]
        assert error["type"] == "ValidationError" and "unnormalized state" in error["message"]

    def test_unnormalized_state_file_message(self, capsys, monkeypatch):
        # a file user cannot pass renormalize=True: the message names the norm bound alone
        stdin = '{"L": 1, "amplitudes": [[1, 0], [1, 0]]}'
        code, doc, err = run(capsys, "psi", "--state", "-", stdin=stdin, monkeypatch=monkeypatch)
        assert code == 1 and doc is None
        message = json.loads(err)["error"]["message"]
        assert message == ("unnormalized state: the norm must be 1 within NORM_TOL = 1e-09, "
                           "got a deviation of 4.142e-01")
        assert "renormalize" not in message

    def test_huge_alpha_gives_a_stable_document(self, capsys):
        code, doc, _ = run(capsys, "stable", "-L", "4", "--alpha", "1e200")
        assert code in (0, 2)
        jsonschema.validate(doc, schemas.load("stability"))
        assert doc["state"]["amplitudes"][0] == pytest.approx([2**-0.5, 0.0])

    def test_ill_conditioned_rank_exits_two(self, capsys):
        code, doc, _ = run(capsys, "stable", "-L", "4", "--alpha", "1.00000003")
        assert code == 2
        assert doc["orbit"]["ill_conditioned"] is True

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        def refuse(*a, **kw):
            raise ConvergenceError("stalled")

        monkeypatch.setattr("lupoly.fiberlab.sample_fiber", refuse)
        code, _, err = run(capsys, "sample-fiber", "--lambda", "0.1,0.2,0.15")
        assert code == 2 and json.loads(err)["error"]["type"] == "ConvergenceError"

    def test_sample_outside_the_region_exits_two(self, capsys, monkeypatch):
        outside = membership(SpectraPoint((0.4, 0.0, 0.3)))
        monkeypatch.setattr("lupoly.fiberlab.membership", lambda point: outside)
        code, doc, err = run(capsys, "sample-fiber", "--lambda", "0.1,0.2,0.15")
        error = json.loads(err)["error"]
        assert (code, doc, error["type"]) == (2, None, "ConvergenceError")
        assert "outside the admissible region" in error["message"]

    def test_invariant_violation_exits_three(self, capsys, monkeypatch):
        def broken(L):
            raise InternalInvariantError("certificate disagrees")

        monkeypatch.setattr(cli, "torus_transitivity_check", broken)
        code, _, err = run(capsys, "wall-check", "-L", "4")
        assert code == 3 and json.loads(err)["error"]["type"] == "InternalInvariantError"

    def test_unexpected_bug_exits_three(self, capsys, monkeypatch):
        def crash(L):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "vertices", crash)
        code, _, err = run(capsys, "vertices", "-L", "3")
        assert code == 3 and "Traceback" in err

    def test_near_wall_sample_fiber_process(self):
        # a regular target 1e-7 inside a wall, where descent is worst conditioned
        lams = list(random_wall_point(3, np.random.default_rng(7)).lambdas)
        lams[0] += 1e-7
        argv = [sys.executable, "-m", "lupoly.cli", "sample-fiber",
                "--lambda", ",".join(repr(x) for x in lams)]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        start = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=60)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        assert doc["method"] == "descent" and doc["residual"] <= 1e-10
        assert elapsed < 2.0, f"{elapsed:.2f} s"

    def test_closed_stdout_pipe(self, tmp_path):
        # 455 kB of JSON overfills the pipe buffer, so the writer sees the reader go
        out = tmp_path / "vertices.json"
        argv = [sys.executable, "-m", "lupoly.cli", "vertices", "-L", "10", "-o", str(out)]
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
            assert proc.stdout.read(10) == b'{\n  "num_q'
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 0, err
        assert err == b""
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["num_qubits"] == 10 and len(doc["vertices"]) == 2**10 - 10


class TestToleranceFlags:
    def refused(self, capsys, *argv):
        """The JSON error of an exit-1 refusal with nothing on stdout."""
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse: a token that is not a number, an unknown flag
            code = exc.code
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)["error"]
        assert error["type"] == "ValidationError"
        return error["message"]

    def test_infinite_slack_tolerance_rejected(self, capsys):
        err = self.refused(capsys, "dim", "--lambda", "0.1,0.2,0.15", "--tol", "inf")
        assert err == "slack tolerance must be a finite number in [0, inf), got inf"

    @pytest.mark.parametrize(
        "argv, message",
        ((("classify", "--lambda", "0.1,0.2,0.15", "--tol=-1e-9"),  # argparse reads -1e-9 as a flag
          "slack tolerance must be a finite number in [0, inf), got -1e-09"),
         # argparse refuses a token that is no float: the message names flag and token
         (("classify", "--lambda", "0.1,0.2,0.15", "--tol", "x"),
          "argument --tol: invalid float value: 'x'"),
         # from 1/4 on, a coordinate could count both as 0 and as 1/2
         (("dim", "--lambda", "0.1,0.2,0.15", "--tol", "0.5"),
          "slack tolerance must be a finite number in [0, 1/4), got 0.5"),
         (("classify", "--lambda", "0.1,0.2,0.15", "--tol", "0.25"),
          "slack tolerance must be a finite number in [0, 1/4), got 0.25")),
        ids=("negative-slack", "not-a-number", "half-slack", "quarter-slack"),
    )
    def test_out_of_range_values_rejected(self, capsys, argv, message):
        assert self.refused(capsys, *argv).endswith(message)

    # the fiber residual and the rank cut are constants; --tol is the slack tolerance alone
    @pytest.mark.parametrize(
        "argv",
        (("classify", "--lambda", "0.1,0.2,0.15", "--config", "cfg.json"),
         ("stable", "-L", "4", "--rank-tol", "1e-8"),
         ("oracle-dim", "--lambda", "0.1,0.2,0.15", "--rank-tol", "1e-8"),
         ("sample-fiber", "--lambda", "0.1,0.2,0.15", "--tol", "1e-6"),
         ("oracle-dim", "--lambda", "0.1,0.2,0.15", "--tol", "1e-6")),
        ids=("config", "stable-rank-tol", "oracle-rank-tol", "fiber-tol", "oracle-tol"),
    )
    def test_config_file_is_not_an_option(self, capsys, tmp_path, monkeypatch, argv):
        (tmp_path / "cfg.json").write_text('{"tol": 1e-6}')
        monkeypatch.chdir(tmp_path)
        assert "unrecognized arguments" in self.refused(capsys, *argv)

    def test_zero_slack_tolerance_accepted(self, capsys):
        code, doc, _ = run(capsys, "classify", "--lambda", "0.1,0.2,0.15", "--tol", "0")
        assert code == 0 and doc["tol"] == 0.0


class TestInputRouting:
    def test_fraction_tokens_stay_exact(self, capsys):
        code, doc, _ = run(capsys, "classify", "--lambda", "1/6,1/3,1/3")
        assert code == 0
        assert doc["exact"] is True and doc["tol"] == 0.0
        assert doc["tight_walls"] == [1]

    def test_fraction_tokens_meet_the_tolerance_exactly_at_one_half(self, capsys):
        code, doc, _ = run(capsys, "classify", "--lambda", "9/20,1/5,1/5", "--tol", "0.05")
        assert code == 0
        assert doc["half_qubits"] == [1] and doc["residual_qubits"] == [2, 3]

    def test_float_tokens_need_tolerance(self, capsys):
        lams = "0.1666667,0.3333333,0.3333333"
        _, strict, _ = run(capsys, "classify", "--lambda", lams)
        assert strict["exact"] is False and strict["tight_walls"] == []
        _, loose, _ = run(capsys, "classify", "--lambda", lams, "--tol", "1e-6")
        assert loose["tight_walls"] == [1]

    def test_state_file_and_stdin_agree(self, capsys, tmp_path, monkeypatch):
        code, sample, _ = run(capsys, "sample-fiber", "--lambda", "0.1,0.2,0.15", "--seed", "4")
        assert code == 0
        path = tmp_path / "state.json"
        path.write_text(json.dumps(sample["state"]))
        code1, from_file, _ = run(capsys, "dim", "--state", str(path))
        code2, from_pipe, _ = run(
            capsys, "dim", stdin=json.dumps(sample["state"]), monkeypatch=monkeypatch
        )
        assert code1 == code2 == 0
        assert from_file == from_pipe
        assert from_file["dim_M"] == 2

    def test_lambdas_document_on_stdin(self, capsys, monkeypatch):
        code, doc, _ = run(
            capsys, "dim", stdin='{"lambdas": [0.1, 0.2, 0.15]}', monkeypatch=monkeypatch
        )
        assert code == 0 and doc["dim_M"] == 2

    def test_stdin_lambdas_follow_the_token_rule(self, capsys, monkeypatch):
        exact = '{"lambdas": ["1/6", "1/3", "1/3"]}'
        code, doc, _ = run(capsys, "dim", stdin=exact, monkeypatch=monkeypatch)
        assert code == 0 and doc["dim_M"] == 0
        assert doc["classification"]["exact"] is True
        assert doc["classification"]["tight_walls"] == [1]
        code, inline, _ = run(capsys, "dim", "--lambda", "1/6,1/3,1/3")
        assert inline == doc
        mixed = '{"lambdas": [0, "1/10", 0.2, 0.15]}'
        code, doc, _ = run(capsys, "dim", stdin=mixed, monkeypatch=monkeypatch)
        assert code == 0 and doc["dim_M"] == 12
        assert doc["classification"]["exact"] is False

    def test_whole_fiber_document_pipes_through(self, capsys, monkeypatch):
        code, sample, _ = run(capsys, "sample-fiber", "--lambda", "0.1,0.2,0.15")
        assert code == 0
        piped = json.dumps(sample)
        code, doc, _ = run(capsys, "psi", "--state", "-", stdin=piped, monkeypatch=monkeypatch)
        assert code == 0
        assert np.allclose(doc["lambdas"], [0.1, 0.2, 0.15], atol=1e-9)
        code, doc, _ = run(capsys, "dim", stdin=piped, monkeypatch=monkeypatch)
        assert code == 0 and doc["dim_M"] == 2

    def test_unusable_stdin_document(self, capsys, monkeypatch):
        code, _, err = run(capsys, "dim", stdin='{"foo": 1}', monkeypatch=monkeypatch)
        assert code == 1 and "nested" in err

    def test_psi_reads_stdin_dash(self, capsys, tmp_path, monkeypatch):
        state = stable_state(4)
        path = tmp_path / "s.json"
        write_state(state, path)
        code, doc, _ = run(capsys, "psi", "--state", "-", stdin=path.read_text(), monkeypatch=monkeypatch)
        assert code == 0
        assert doc["num_qubits"] == 4
        # every reduction of the stable family is maximally mixed
        assert np.abs(doc["lambdas"]).max() < 1e-12

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "doc.json"
        _, doc, _ = run(capsys, "dim", "--lambda", "0.1,0.2,0.15", "-o", str(out))
        assert json.loads(out.read_text()) == doc

    def test_unwritable_output_file_exits_one(self, capsys, tmp_path):
        out = tmp_path / "missing" / "doc.json"
        code, out_text, err = run(capsys, "dim", "--lambda", "0.1,0.2,0.15", "-o", str(out))
        assert code == 1 and out_text is None
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_stable_state_verification_round_trip(self, capsys, tmp_path):
        path = tmp_path / "stable.json"
        write_state(stable_state(5), path)
        code, doc, _ = run(capsys, "stable", "--state", str(path))
        assert code == 0 and doc["stable"] is True
        assert "state" not in doc

    def test_stable_flag_exclusivity(self, capsys, tmp_path):
        path = tmp_path / "stable.json"
        write_state(stable_state(5), path)
        code, _, err = run(capsys, "stable", "--state", str(path), "-L", "5")
        assert code == 1 and "drop -L" in err


class TestSchemas:
    CASES = (
        ("spectra", ("psi", "--state", "STABLE4")),
        ("stratum", ("classify", "--lambda", "1/6,1/3,1/3")),
        ("dim", ("dim", "--lambda", "0,0.1,0.2,0.15")),
        ("vertices", ("vertices", "-L", "4", "--oracle")),
        ("facets", ("facets", "-L", "4")),
        ("xspec", ("xspec", "-L", "4")),
        ("torus", ("wall-check", "-L", "4")),
        ("stability", ("stable", "-L", "4")),
        ("fiber", ("sample-fiber", "--lambda", "0.1,0.2,0.15")),
        ("estimate", ("oracle-dim", "--lambda", "0.1,0.1,0.1", "--samples", "2")),
    )

    @pytest.mark.parametrize("name,argv", CASES, ids=[c[0] for c in CASES])
    def test_documents_validate(self, capsys, tmp_path, name, argv):
        argv = list(argv)
        if "STABLE4" in argv:
            path = tmp_path / "s.json"
            write_state(stable_state(4), path)
            argv[argv.index("STABLE4")] = str(path)
        code, doc, _ = run(capsys, *argv)
        assert code == 0
        jsonschema.validate(doc, schemas.load(name))

    def test_estimate_counts_match_the_sampler(self, capsys):
        argv = ("oracle-dim", "--lambda", "0.1,0.2,0.15", "--samples", "2", "--seed", "3")
        code, doc, _ = run(capsys, *argv)
        assert code == 0
        jsonschema.validate(doc, schemas.load("estimate"))
        for audit in doc["samples"]:
            sample = sample_fiber(SpectraPoint((0.1, 0.2, 0.15)), seed=audit["seed"])
            assert (audit["iterations"], audit["restarts"]) == (sample.iterations, sample.restarts)

    def test_state_payload_validates(self, capsys):
        _, doc, _ = run(capsys, "sample-fiber", "--lambda", "0.1,0.2,0.15")
        jsonschema.validate(doc["state"], schemas.load("state"))

    def test_selftest_document_validates(self, capsys):
        code, doc, _ = run(capsys, "selftest", "--samples", "1")
        assert code == 0
        jsonschema.validate(doc, schemas.load("selftest"))

    def test_schema_names(self):
        listed = set(schemas.names())
        assert {c[0] for c in self.CASES} <= listed
        assert {"selftest", "state"} <= listed


class TestSelftest:
    def test_all_criteria_pass(self, capsys):
        code, doc, _ = run(capsys, "selftest", "--samples", "1")
        assert code == 0
        assert doc["passed"] is True
        assert [c["id"] for c in doc["criteria"]] == list(range(1, 9))
        assert all(c["passed"] for c in doc["criteria"])

    def test_failure_exits_two(self, capsys, monkeypatch):
        def always_fails(samples, seed):
            raise AssertionError("forced")

        forced = criteria.Criterion(1, "forced failure", 1.0, always_fails)
        monkeypatch.setattr(criteria, "CRITERIA", (forced,))
        code, doc, _ = run(capsys, "selftest")
        assert code == 2
        assert doc["passed"] is False
        assert "forced" in doc["criteria"][0]["detail"]

    def test_wrong_dimension_fails_under_optimize(self):
        # python -O strips assert statements; the criteria must fail regardless
        script = (
            "import dataclasses, sys\n"
            "from lupoly import cli, criteria\n"
            "real = criteria.dim_for_point\n"
            "def off_by_seven(point, **kw):\n"
            "    stratum, report = real(point, **kw)\n"
            "    return stratum, dataclasses.replace(report, dim_M=report.dim_M + 7)\n"
            "criteria.dim_for_point = off_by_seven\n"
            "sys.exit(cli.main(['selftest', '--samples', '1']))\n"
        )
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
        argv = [sys.executable, "-O", "-c", script]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 2, proc.stderr
        failed = [c["id"] for c in json.loads(proc.stdout)["criteria"] if not c["passed"]]
        assert {1, 2, 5} <= set(failed)


# --- fuzzing: argv from the real subcommands and flags, optional stdin --------

FUZZ_TOKENS = ("nan", "inf", "-inf", "1e400", "1/3", "1/6", "1/0", "0.1", "0.5", "zebra", "",
               "-", "--") + tuple(str(i) for i in range(-1, 15))
FUZZ_COORDS = ("0", "0.1", "0.15", "0.2", "1/6", "1/3", "1/2", "0.5", "-0.1", "nan", "inf",
               "1e400", "1/0", "zebra")
FUZZ_STDIN = (
    b"[" * 100000,
    b'{"lambdas": ' + b"[" * 100000,
    b"\xff\xfe{}",
    b'{"lambdas": [0.1, 0.2, 0.15]}',
    b'{"lambdas": [[[0.1]], {"a": 1}, null]}',
    b'{"lambdas": []}',
    b'{"L": 13, "amplitudes": []}',
    b'{"L": 1, "amplitudes": [[1, 0], [0, 0]]}',
    b'{"state": {"L": 2, "amplitudes": [[1, 0], [0, 0], [0, 0], [1e400, 0]]}}',
    b'{"lambdas": [' + b"1" * 5000 + b"]}",
    b"null",
    b"",
)


def subcommand_flags():
    """Option strings per subcommand except selftest, and the options that take no value."""
    parser = cli.build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a.choices, dict)]
    flags = {
        name: sorted(opt for action in sub._actions for opt in action.option_strings)
        for name, sub in commands.items()
        if name != "selftest"
    }
    switches = {
        opt
        for sub in commands.values()
        for action in sub._actions
        if action.nargs == 0
        for opt in action.option_strings
    }
    return flags, switches


FUZZ_FLAGS, FUZZ_SWITCHES = subcommand_flags()


@st.composite
def fuzz_argv(draw, files):
    name = draw(st.sampled_from(sorted(FUZZ_FLAGS)))
    tokens = st.sampled_from(FUZZ_TOKENS)
    coords = st.lists(st.sampled_from(FUZZ_COORDS), min_size=1, max_size=5).map(",".join)
    paths = st.sampled_from(files + ["-"])
    argv = [name]
    for flag in draw(st.lists(st.sampled_from(FUZZ_FLAGS[name]), max_size=4, unique=True)):
        argv.append(flag)
        if flag == "--lambda":
            argv.append(draw(st.one_of(coords, tokens)))
        elif flag in ("--state", "-o", "--output"):
            argv.append(draw(st.one_of(paths, tokens)))
        elif flag not in FUZZ_SWITCHES:
            argv.append(draw(tokens))
    if draw(st.integers(0, 3)) == 0:  # a stray token anywhere
        argv.insert(draw(st.integers(0, len(argv))), draw(tokens))
    return argv


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """State files, good and bad, plus paths that cannot be read or written."""
    root = tmp_path_factory.mktemp("fuzz")
    write_state(stable_state(4), root / "stable.json")
    contents = {
        "huge.json": b'{"L": 1, "amplitudes": [[1e200, 0], [0, 0]]}',
        "tiny.json": b'{"L": 1, "amplitudes": [[1e-200, 0], [0, 0]]}',
        "deep.json": b"[" * 100000,
        "binary.json": b"\xff\xfe{}",
    }
    for name, data in contents.items():
        (root / name).write_bytes(data)
    names = ["stable.json", *contents, "missing.json", "no/out.json"]
    return root, [str(root / name) for name in names] + [str(root)]


class TestFuzz:
    @staticmethod
    def slow(argv):
        # the brute-force vertex oracle takes about 7 s at L = 6 and refuses L >= 7
        return "--oracle" in argv and any(t.isdigit() and int(t) == 6 for t in argv)

    def test_main_exits_with_a_contract_code(self, fuzz_files, monkeypatch):
        root, files = fuzz_files
        monkeypatch.chdir(root)  # so that a bare -o token writes into the fixture's directory

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(argv=fuzz_argv(files), stdin=st.one_of(st.none(), st.sampled_from(FUZZ_STDIN)))
        def check(argv, stdin):
            assume(not self.slow(argv))
            if stdin is None:
                source = FakeTty()
            else:
                source = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with (
                mock.patch.object(sys, "stdin", source),
                redirect_stdout(out),
                redirect_stderr(err),
            ):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse: usage errors and --help
                    code = exc.code
            assert code in (0, 1, 2), (argv, stdin, err.getvalue())
            if code == 0:
                return
            if err.getvalue():
                assert "error" in json.loads(err.getvalue()), (argv, err.getvalue())
            else:  # a numerical-failure result document
                assert code == 2 and json.loads(out.getvalue()), argv

        check()
