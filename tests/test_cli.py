"""End-to-end checks of the command line: exit codes, JSON contracts, input routing."""

import io
import json

import jsonschema
import numpy as np
import pytest

from lupoly import ConvergenceError, InternalInvariantError, dump_state, schemas, stable_state
from lupoly import cli


class FakeTty(io.StringIO):
    def isatty(self):
        return True


def run(capsys, *argv, stdin=None, monkeypatch=None):
    """Invoke the CLI in process; returns (exit code, stdout doc, stderr text)."""
    if stdin is not None:
        assert monkeypatch is not None
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    doc = json.loads(captured.out) if captured.out.strip() else None
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
        assert "usage" in capsys.readouterr().err

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

    def test_two_input_sources(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        dump_state(stable_state(4), path)
        code, _, err = run(capsys, "dim", "--lambda", "0.1,0.2,0.15", "--state", str(path))
        assert code == 1 and "mutually exclusive" in err

    def test_no_input_on_a_terminal(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", FakeTty())
        code, _, err = run(capsys, "classify")
        assert code == 1 and "pass --lambda" in err

    def test_excluded_alpha(self, capsys):
        code, _, err = run(capsys, "stable", "-L", "4", "--alpha", "1")
        assert code == 1 and "excluded set" in err

    def test_ill_conditioned_rank_exits_two(self, capsys):
        code, doc, _ = run(capsys, "stable", "-L", "4", "--alpha", "1.00000003")
        assert code == 2
        assert doc["orbit"]["ill_conditioned"] is True

    def test_nonconvergence_exits_two(self, capsys, monkeypatch):
        def refuse(*a, **kw):
            raise ConvergenceError("stalled")

        monkeypatch.setattr(cli, "sample_fiber", refuse)
        code, _, err = run(capsys, "sample-fiber", "--lambda", "0.1,0.2,0.15")
        assert code == 2 and json.loads(err)["error"]["type"] == "ConvergenceError"

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


class TestInputRouting:
    def test_fraction_tokens_stay_exact(self, capsys):
        code, doc, _ = run(capsys, "classify", "--lambda", "1/6,1/3,1/3")
        assert code == 0
        assert doc["exact"] is True and doc["tol"] == 0.0
        assert doc["tight_walls"] == [1]

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
        dump_state(state, path)
        code, doc, _ = run(capsys, "psi", "--state", "-", stdin=path.read_text(), monkeypatch=monkeypatch)
        assert code == 0
        assert doc["num_qubits"] == 4
        # every reduction of the stable family is maximally mixed
        assert np.abs(doc["lambdas"]).max() < 1e-12

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        out = tmp_path / "doc.json"
        _, doc, _ = run(capsys, "dim", "--lambda", "0.1,0.2,0.15", "-o", str(out))
        assert json.loads(out.read_text()) == doc

    def test_stable_state_verification_round_trip(self, capsys, tmp_path):
        path = tmp_path / "stable.json"
        dump_state(stable_state(5), path)
        code, doc, _ = run(capsys, "stable", "--state", str(path))
        assert code == 0 and doc["stable"] is True
        assert "state" not in doc

    def test_stable_flag_exclusivity(self, capsys, tmp_path):
        path = tmp_path / "stable.json"
        dump_state(stable_state(5), path)
        code, _, err = run(capsys, "stable", "--state", str(path), "-L", "5")
        assert code == 1 and "drop -L" in err


class TestConfigFile:
    def config(self, tmp_path, payload):
        path = tmp_path / "cfg.json"
        path.write_text(payload if isinstance(payload, str) else json.dumps(payload))
        return str(path)

    def test_tolerance_from_config(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"tol": 1e-6})
        lams = "0.1666667,0.3333333,0.3333333"
        _, doc, _ = run(capsys, "classify", "--lambda", lams, "--config", cfg)
        assert doc["tight_walls"] == [1]

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"tol": 1e-6})
        lams = "0.1666667,0.3333333,0.3333333"
        _, doc, _ = run(capsys, "classify", "--lambda", lams, "--config", cfg, "--tol", "1e-12")
        assert doc["tight_walls"] == []

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"tolerance": 1e-6})
        code, _, err = run(capsys, "classify", "--lambda", "0.1,0.2,0.15", "--config", cfg)
        assert code == 1 and "unknown config keys" in err

    def test_non_numeric_value_rejected(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"tol": "tight"})
        code, _, _ = run(capsys, "classify", "--lambda", "0.1,0.2,0.15", "--config", cfg)
        assert code == 1

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = self.config(tmp_path, "{not json")
        code, _, err = run(capsys, "classify", "--lambda", "0.1,0.2,0.15", "--config", cfg)
        assert code == 1 and "not valid JSON" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, "classify", "--lambda", "0.1,0.2,0.15", "--config", str(tmp_path / "no.json")
        )
        assert code == 1

    def test_rank_tol_reaches_the_verifier(self, capsys, tmp_path):
        cfg = self.config(tmp_path, {"rank_tol": 1e-3})
        code, doc, _ = run(capsys, "stable", "-L", "4", "--config", cfg)
        assert code == 0
        assert doc["orbit"]["rank_tol"] == 1e-3


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
            dump_state(stable_state(4), path)
            argv[argv.index("STABLE4")] = str(path)
        code, doc, _ = run(capsys, *argv)
        assert code == 0
        jsonschema.validate(doc, schemas.load(name))

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
        def always_fails(samples, rng):
            raise AssertionError("forced")

        monkeypatch.setattr(cli, "_SELFTEST", ((1, "forced failure", always_fails),))
        code, doc, _ = run(capsys, "selftest")
        assert code == 2
        assert doc["passed"] is False
        assert "forced" in doc["criteria"][0]["detail"]
