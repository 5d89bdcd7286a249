"""End-to-end command line coverage through main(argv).

Data goes to stdout and commentary to stderr, so every assertion here
reads capsys; exit codes follow the 0/1/2/3 scheme (success, failed
check, usage, capacity).
"""

import json
import math
import os

import pytest

from palfac.automaton import Dfa, export_dfa, import_dfa, minimize
from palfac.cli import main
from palfac.construct import MaxDistinct, MaxLen, build_direct
from palfac.recur import AsymptoticFit, sequence, transfer_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load(text):
    fmt = "json" if text.lstrip().startswith("{") else "grail"
    return import_dfa(text, fmt)


class TestBuildMinimizeExport:
    def test_build_writes_grail(self, capsys, tmp_path):
        out = tmp_path / "d8.grail"
        code, stdout, stderr = run(
            capsys, "build", "--family", "D", "--cap", "8", "--out", str(out))
        assert code == 0
        assert stdout == ""
        assert "states constructed" in stderr
        d = load(out.read_text())
        assert d.state_count == build_direct(MaxDistinct(2, 8)).state_count

    def test_build_minimized_to_stdout(self, capsys):
        code, stdout, _ = run(
            capsys, "build", "--family", "D", "--cap", "8",
            "--minimize", "--format", "json")
        assert code == 0
        d = load(stdout)
        assert d.live_state_count() == 23

    def test_minimize_subcommand_round_trip(self, capsys, tmp_path):
        raw = tmp_path / "raw.grail"
        small = tmp_path / "min.json"
        run(capsys, "build", "--family", "E", "--alphabet", "3", "--cap", "2",
            "--out", str(raw))
        code, _, stderr = run(
            capsys, "minimize", "--automaton", str(raw),
            "--format", "json", "--out", str(small))
        assert code == 0
        assert "->" in stderr
        d = load(small.read_text())
        assert d.live_state_count() == 19
        assert d.state_count == minimize(build_direct(MaxLen(3, 2))).state_count

    def test_export_dot(self, capsys):
        code, stdout, _ = run(
            capsys, "export", "--family", "D", "--cap", "8", "--format", "dot")
        assert code == 0
        assert stdout.startswith("digraph")
        assert "->" in stdout


class TestAnalyze:
    def test_periodic_family(self, capsys):
        code, stdout, stderr = run(capsys, "analyze", "--family", "D", "--cap", "9")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["classification"] == "FinitelyManyPeriodic"
        assert len(payload["periodic_words"]) == 12
        assert payload["birecurrent_witness"] is None
        assert payload["live_states"] == 98
        assert "finitely many infinite words" in stderr
        assert stderr.count(")^w") == 12

    def test_aperiodic_family_from_file(self, capsys, tmp_path):
        path = tmp_path / "d11.json"
        run(capsys, "build", "--family", "D", "--cap", "11", "--minimize",
            "--format", "json", "--out", str(path))
        code, stdout, _ = run(capsys, "analyze", "--automaton", str(path))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["classification"] == "UncountablyManyAperiodic"
        wit = payload["birecurrent_witness"]
        assert wit is not None and set(wit) == {"state", "x0", "x1"}

    def test_finite_language(self, capsys):
        code, stdout, _ = run(capsys, "analyze", "--family", "D", "--cap", "8")
        assert code == 0
        assert json.loads(stdout)["classification"] == "NoInfiniteWords"

    def test_chained_cycles_are_countable(self, capsys, tmp_path):
        # 0*1*: every infinite word 0^j 1^omega is ultimately periodic
        path = tmp_path / "chain.grail"
        path.write_text("(START) |- 0\n0 0 0\n0 1 1\n1 1 1\n0 -| (FINAL)\n1 -| (FINAL)\n")
        code, stdout, stderr = run(capsys, "analyze", "--automaton", str(path))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["classification"] == "CountablyManyPeriodic"
        assert payload["periodic_words"] == []
        assert payload["birecurrent_witness"] is None
        assert "countably many infinite words" in stderr


class TestCount:
    def test_b_file_shape(self, capsys):
        code, stdout, _ = run(
            capsys, "count", "--family", "E", "--alphabet", "3", "--cap", "2",
            "--terms", "8")
        assert code == 0
        lines = stdout.splitlines()
        assert len(lines) == 9
        want = sequence(transfer_matrix(minimize(build_direct(MaxLen(3, 2)))), 8)
        assert [int(line.split()[1]) for line in lines] == want
        assert [int(line.split()[0]) for line in lines] == list(range(9))

    def test_zero_terms(self, capsys):
        code, stdout, _ = run(
            capsys, "count", "--family", "D", "--cap", "8", "--terms", "0")
        assert code == 0
        assert stdout == "0 1\n"


class TestAnnihilateAsymptotics:
    def test_annihilate_both_routes(self, capsys):
        code, stdout, stderr = run(
            capsys, "annihilate", "--family", "E", "--alphabet", "3",
            "--cap", "2", "--terms", "80")
        assert code == 0
        assert stdout.split() == ["-1", "-1", "1"]
        assert "order 2" in stderr

    def test_asymptotics_json(self, capsys):
        code, stdout, _ = run(
            capsys, "asymptotics", "--family", "R", "--alphabet", "3",
            "--cap", "0", "--odd-cap", "3")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["converged"] is True
        assert payload["multiplicity"] == 1 and payload["reason"] is None
        assert abs(payload["alpha"]["value"] - 1.465571231876768) < 1e-9
        assert abs(payload["c"] - 5.37711043) / 5.37711043 < 0.01
        assert payload["c1"] is None and payload["c2"] is None

    def test_asymptotics_split_parity(self, capsys):
        code, stdout, _ = run(
            capsys, "asymptotics", "--family", "R", "--cap", "2",
            "--odd-cap", "5", "--split-parity")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["c"] is None
        assert abs(payload["c1"] - 15.991809) / 15.991809 < 0.01
        assert abs(payload["c2"] - 0.023895) / 0.023895 < 0.10

    def test_finite_language_routes_agree(self, capsys):
        code, stdout, stderr = run(
            capsys, "annihilate", "--family", "D", "--cap", "8", "--method", "both")
        assert code == 0
        assert stdout.split() == ["1"]
        assert "order 0, valid for n >= 9" in stderr

    def test_asymptotics_of_finite_language_fails(self, capsys):
        code, stdout, stderr = run(capsys, "asymptotics", "--family", "D", "--cap", "8")
        assert code == 1
        assert stdout == ""
        assert "finite language" in stderr

    def test_unsettled_fit_is_strict_json(self, capsys, monkeypatch):
        import palfac.cli

        def unsettled(*args, **kwargs):
            return AsymptoticFit(2.0, math.nan, None, None, 1, False, "no certified gap")

        monkeypatch.setattr(palfac.cli, "asymptotic_fit", unsettled)
        code, stdout, stderr = run(
            capsys, "asymptotics", "--family", "R", "--alphabet", "3",
            "--cap", "0", "--odd-cap", "3")
        assert code == 1
        assert "no certified gap" in stderr

        def reject(token):
            raise AssertionError(f"non-standard JSON constant {token}")

        payload = json.loads(stdout, parse_constant=reject)
        assert payload["c"] is None
        assert payload["converged"] is False
        assert payload["reason"] == "no certified gap"

    def test_polynomial_growth_fails_the_dominance_check(self, capsys):
        # D(2,10) has annihilator X^6 - 1: six roots on the unit circle
        code, stdout, stderr = run(capsys, "asymptotics", "--family", "D", "--cap", "10")
        assert code == 1
        payload = json.loads(stdout)
        assert payload["annihilator"] == [-1, 0, 0, 0, 0, 0, 1]
        assert payload["alpha"]["value"] == 1.0
        assert payload["converged"] is False
        assert "6 roots" in payload["reason"] and payload["reason"] in stderr


class TestVerifyOracle:
    def test_verify_allowed_set(self, capsys, tmp_path):
        allowed = tmp_path / "allowed.txt"
        allowed.write_text("# singles plus the empty word\ne\n0\n1\n2\n3\n\n")
        code, stdout, _ = run(
            capsys, "verify", "--family", "S", "--alphabet", "4",
            "--allowed", str(allowed),
            "--seed", "01", "--infix", "23", "--nmax", "4")
        assert code == 0
        payload = json.loads(stdout)
        assert payload["stabilized_at"] == 1
        assert payload["accepted"] == [True] * 5
        assert payload["reversal_equal"] == [True] * 4

    def test_verify_long_horizon(self, capsys):
        # X_40 has about 2^42 letters; only state maps are composed
        code, stdout, _ = run(
            capsys, "verify", "--family", "D", "--cap", "10",
            "--seed", "0010", "--infix", "1", "--nmax", "40")
        assert code == 0
        payload = json.loads(stdout)
        assert len(payload["accepted"]) == 41
        assert len(payload["reversal_equal"]) == 40

    def test_verify_waits_for_the_reversal(self, capsys, tmp_path):
        path = tmp_path / "drift.json"
        path.write_text(export_dfa(Dfa([[0, 1], [2, 3], [3, 0], [3, 2]], 0, [0, 1, 2]),
                                   "json"))
        for nmax, expected in (("6", None), ("7", 6)):
            code, stdout, _ = run(
                capsys, "verify", "--automaton", str(path),
                "--seed", "", "--infix", "01", "--nmax", nmax)
            assert code == 0
            assert json.loads(stdout)["stabilized_at"] == expected

    def test_verify_rejects_short_horizon(self, capsys, tmp_path):
        allowed = tmp_path / "allowed.txt"
        allowed.write_text("e\n0\n1\n2\n3\n")
        code, _, stderr = run(
            capsys, "verify", "--family", "S", "--alphabet", "4",
            "--allowed", str(allowed),
            "--seed", "01", "--infix", "23", "--nmax", "1")
        assert code == 2
        assert "error" in stderr

    def test_oracle_counts_and_witnesses(self, capsys):
        code, stdout, _ = run(
            capsys, "oracle", "--family", "D", "--cap", "9",
            "--length", "5", "--list", "4")
        assert code == 0
        lines = stdout.splitlines()
        assert lines[0] == "5 32"
        assert len(lines) == 5
        assert all(len(w) == 5 and set(w) <= {"0", "1"} for w in lines[1:])

    @pytest.mark.parametrize("argv,want", [
        # the first words of an orbit need not be its canonical word (002100)
        (["--alphabet", "3", "--cap", "5", "--length", "6", "--list", "12"],
         "6 54\n001200\n001201\n002100\n002102\n010210\n011201\n012001\n012010\n"
         "012011\n012012\n012201\n020120\n"),
        (["--alphabet", "4", "--cap", "5", "--length", "5", "--list", "8"],
         "5 240\n00120\n00130\n00210\n00230\n00310\n00320\n01021\n01031\n"),
    ], ids=["D(3,5)", "D(4,5)"])
    def test_oracle_witnesses_are_the_first_accepted_words(self, capsys, argv, want):
        code, stdout, _ = run(capsys, "oracle", "--family", "D", *argv)
        assert code == 0
        assert stdout == want


class TestReproduce:
    def test_section_and_group_filter(self, capsys):
        code, stdout, stderr = run(
            capsys, "reproduce", "--section", "7", "--group", "state-counts")
        assert code == 0
        rows = [json.loads(line) for line in stdout.splitlines()]
        assert len(rows) == 3
        assert all(row["status"] == "PASS" for row in rows)
        assert all(row["section"] == 7 for row in rows)
        assert "all checks passed" in stderr

    def test_known_discrepancies_do_not_fail_the_run(self, capsys):
        code, stdout, stderr = run(
            capsys, "reproduce", "--section", "7", "--group", "sequences")
        assert code == 0
        statuses = {json.loads(line)["name"]: json.loads(line)["status"]
                    for line in stdout.splitlines()}
        assert any(s == "XFAIL" for s in statuses.values())
        assert any(s == "PASS" for s in statuses.values())
        assert "known reference discrepancies" in stderr


class TestErrors:
    def test_missing_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "D"])
        assert exc.value.code == 2

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "Q", "--cap", "3"])
        assert exc.value.code == 2

    def test_r_needs_both_caps(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--family", "R", "--cap", "2"])
        assert exc.value.code == 2

    def test_s_needs_allowed_file(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "S", "--alphabet", "4"])
        assert exc.value.code == 2

    def test_allowed_file_problems_are_usage_errors(self, capsys, tmp_path):
        outside = tmp_path / "outside.txt"
        outside.write_text("e\n0\n5\n")
        code, _, stderr = run(capsys, "build", "--family", "S", "--alphabet", "4",
                              "--allowed", str(outside))
        assert code == 2
        assert "outside alphabet" in stderr
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "S", "--allowed", str(tmp_path / "missing.txt")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["minimize", "count"])
    @pytest.mark.parametrize("name, text", [
        ("accepting past the states", '{"delta": [[0, 1], [1, 1]], "start": 0, "accepting": [0, 99]}'),
        ("negative accepting", '{"delta": [[0, 1], [1, 1]], "start": 0, "accepting": [0, -1]}'),
        ("fractional transition", '{"delta": [[0, 0.5], [1, 1]], "start": 0, "accepting": [0]}'),
        ("huge transition", '{"delta": [[0, 1099511627776], [1, 1]], "start": 0, "accepting": [0]}'),
        ("wrong alphabet", '{"delta": [[0, 1], [1, 1]], "start": 0, "accepting": [0], "alphabet": 3}'),
        ("wrong dead", '{"delta": [[0, 1], [1, 1]], "start": 0, "accepting": [0], "dead": null}'),
        ("no accepting field", '{"delta": [[0, 1], [1, 1]], "start": 0}'),
        ("accepting not a list", '{"delta": [[0, 1], [1, 1]], "start": 0, "accepting": 0}'),
        ("start not an integer", '{"delta": [[0, 1], [1, 1]], "start": "0", "accepting": [0]}'),
        ("grail negative final", "(START) |- 0\n0 0 0\n-1 -| (FINAL)\n"),
        ("grail negative state", "(START) |- 0\n0 0 0\n-1 0 0\n0 -| (FINAL)\n"),
        ("grail negative symbol", "(START) |- 0\n0 0 0\n0 -1 0\n0 -| (FINAL)\n"),
    ])
    def test_malformed_automaton_is_usage_error(self, capsys, tmp_path, command, name, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, stdout, stderr = run(capsys, command, "--automaton", str(path))
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr

    def test_missing_automaton_file(self, capsys):
        code, _, stderr = run(capsys, "analyze", "--automaton", "/no/such/file")
        assert code == 2
        assert "error" in stderr

    def test_capacity_exit(self, capsys):
        code, _, stderr = run(
            capsys, "build", "--family", "D", "--cap", "11", "--state-budget", "100")
        assert code == 3
        assert "capacity" in stderr

    def test_periodic_word_enumeration_limit_is_capacity(self, capsys, tmp_path):
        # 2^20 approach paths to one cycle: states 0..19 step on both letters, 20 loops on 0
        path = tmp_path / "chain21.grail"
        path.write_text("(START) |- 0\n"
                        + "".join(f"{q} {a} {q + 1}\n" for q in range(20) for a in (0, 1))
                        + "20 0 20\n" + "".join(f"{q} -| (FINAL)\n" for q in range(21)))
        code, stdout, stderr = run(capsys, "analyze", "--automaton", str(path))
        assert code == 3
        assert stdout == ""
        assert "capacity" in stderr

    @pytest.mark.parametrize("line", ["0 1000000000 0", "0 0 999999999"])
    def test_oversized_grail_table_is_capacity(self, capsys, tmp_path, line):
        # one large symbol or state id would make a dense table of 10^9 entries
        path = tmp_path / "wide.grail"
        path.write_text(f"(START) |- 0\n{line}\n0 -| (FINAL)\n")
        code, stdout, stderr = run(capsys, "minimize", "--automaton", str(path))
        assert code == 3
        assert stdout == ""
        assert "capacity" in stderr

    @pytest.mark.parametrize("fmt", ["grail", "json"])
    @pytest.mark.parametrize("command", ["analyze", "minimize"])
    def test_state_budget_flag_holds_imports(self, capsys, tmp_path, command, fmt):
        # a 40-state binary chain is a table of 80 entries, over twice a budget of 5
        path = tmp_path / f"chain40.{fmt}"
        path.write_text(export_dfa(Dfa([[min(q + 1, 39)] * 2 for q in range(40)], 0, [39]), fmt))
        assert run(capsys, command, "--automaton", str(path))[0] == 0
        code, stdout, stderr = run(capsys, command, "--automaton", str(path),
                                   "--state-budget", "5")
        assert code == 3
        assert stdout == ""
        assert "capacity" in stderr

    def test_state_budget_leaves_environment_alone(self, capsys):
        before = dict(os.environ)
        for argv in (["build", "--family", "D", "--cap", "11"],
                     ["count", "--family", "D", "--cap", "8", "--terms", "3"]):
            run(capsys, *argv, "--state-budget", "100")
        assert dict(os.environ) == before

    def test_min_poly_size_limit_is_capacity(self, capsys):
        code, stdout, stderr = run(
            capsys, "annihilate", "--family", "D", "--cap", "13", "--method", "lda")
        assert code == 3
        assert stdout == ""
        assert "capacity" in stderr

    def test_uncertified_min_poly_is_inconclusive(self, capsys, monkeypatch):
        import palfac.recur

        monkeypatch.setattr(palfac.recur, "_verify_annihilates_matrix", lambda p, table: False)
        code, stdout, stderr = run(
            capsys, "annihilate", "--family", "D", "--cap", "8", "--method", "lda")
        assert code == 1
        assert stdout == ""
        assert "inconclusive:" in stderr

    def test_nonpositive_budget_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["build", "--family", "D", "--cap", "8", "--state-budget", "0"])
        assert exc.value.code == 2
