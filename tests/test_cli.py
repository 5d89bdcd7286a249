"""End-to-end command line coverage through main(argv).

Data goes to stdout and commentary to stderr, so every assertion here
reads capsys; exit codes follow the 0/1/2/3 scheme (success, failed
check, usage, capacity).
"""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import palfac
from palfac.analyze import spec_dfa
from palfac.automaton import Dfa, export_dfa, import_dfa, minimize
from palfac.cli import main
from palfac.construct import CapacityError, MaxDistinct, MaxLen, build_direct
from palfac.oracle import brute_count_profile
from palfac.recur import AsymptoticFit, sequence, transfer_matrix
from palfac.reproduce import STATE_COUNTS
from palfac.verify import check_stabilization, perturbed_symmetry
from palfac.words import Word


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load(text):
    fmt = "json" if text.lstrip().startswith("{") else "grail"
    return import_dfa(text, fmt)


def _chain(n):
    """The binary automaton of n states in a line, accepting at the last: 2n table entries."""
    return Dfa([[min(q + 1, n - 1)] * 2 for q in range(n)], 0, [n - 1])


def _run_process(*argv, python_flags=()):
    """The CLI in a real process, so an escaped exception would print its traceback."""
    src = str(Path(palfac.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *python_flags, "-m", "palfac.cli", *argv],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src))


ANALYZE_SPECS = {label: spec for label, spec, *_ in STATE_COUNTS}
ANALYZE_SPECS.update({"D(2,12)": MaxDistinct(2, 12), "D(2,13)": MaxDistinct(2, 13)})


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

    def test_exclude_empty_gives_the_registry_t_cell(self, capsys):
        # the CLI's T counts the empty word toward the even cap; the
        # registry's T(2,3,9) counts nonempty palindromes, as --exclude-empty
        live = {}
        for flags in ((), ("--exclude-empty",)):
            code, stdout, _ = run(capsys, "analyze", "--family", "T", "--cap", "3",
                                  "--odd-cap", "9", *flags)
            assert code == 0
            live[flags] = json.loads(stdout)["live_states"]
        assert live == {(): 265, ("--exclude-empty",): 1468}
        assert ("T(2,3,9)", 1468) in {(label, want) for label, _, want, _ in STATE_COUNTS}

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

    def test_one_word_beside_dead_end_paths(self, capsys, tmp_path):
        # 0 goes to the 0-loop 22 on 1, and on 0 into 2^20 paths through
        # the chain 1..21 that end without a cycle
        path = tmp_path / "one_word.grail"
        path.write_text("(START) |- 0\n0 0 1\n0 1 22\n22 0 22\n"
                        + "".join(f"{q} {a} {q + 1}\n" for q in range(1, 21) for a in (0, 1))
                        + "".join(f"{q} -| (FINAL)\n" for q in range(23)))
        code, stdout, stderr = run(capsys, "analyze", "--automaton", str(path))
        assert code == 0
        payload = json.loads(stdout)
        assert payload["classification"] == "FinitelyManyPeriodic"
        assert payload["periodic_words"] == [{"preperiod": "1", "period": "0"}]
        assert "1(0)^w" in stderr

    @pytest.mark.parametrize("label", list(ANALYZE_SPECS))
    def test_payload_is_pinned(self, capsys, tmp_path, label):
        path = tmp_path / "min.json"
        path.write_text(export_dfa(spec_dfa(ANALYZE_SPECS[label]), "json"))
        code, stdout, _ = run(capsys, "analyze", "--automaton", str(path))
        assert code == 0
        assert hashlib.sha256(stdout.encode()).hexdigest() == ANALYZE_DIGESTS[label]


# sha256 of the `palfac analyze` JSON payload (recurrent states sorted): pins
# the witness choice and the order of the periodic words, not just the class
ANALYZE_DIGESTS = {
    "D(2,8)": "cc957c5993bfcb0abef20e59f27f369e271fa44fb0a4ef38c20b0428d0e6252f",
    "D(2,9)": "963bbefa89503aef1244a261511eb4d2210304a4a1389e5282886238d9791885",
    "D(2,10)": "cbb841232bd58b4efdca2ae23fac813da870c40c2fe7ce9870e9c36ec8daecb9",
    "D(2,11)": "61e41be3fef8f6f238cdfecef41be7b8092ec234cf54cba26db9af35b1004837",
    "D(3,3)": "79222c26e09578bcf9f2aac6fc8e499bebe0b19e731901ac35bdeae289910600",
    "D(3,4)": "37d4f9708ec3f6956ac6ff1bac403f565fb7516432d0421f0a7bb62dbe2102fd",
    "D(3,5)": "9637297266872d8d9b61dcf98d9afbd45bde66b359b04da26ee1df082bae441f",
    "E(2,5)": "b9451d8008b6725c8237e864d8b7f8b69908f86810bb0536887900a782746ebb",
    "E(3,1)": "58539a97b573c2ec0167c6fbd213702042dcb9f2d7d737a3f6de49bd0eda662a",
    "E(3,2)": "f3c04b2a711144cf6b0d5ebe75e82d923da15f5fcf4a2072e2780a932a77c210",
    "R(2,2,5)": "3ebc8018f4874746b45dbca93c85e038c48cd90b80ec05d2fde667cb5f3644a3",
    "R(2,6,3)": "05da0feb554d899919796d7ce03bdd34c456d2560b26b9975ac136862d8680d6",
    "R(3,0,3)": "c3024dfb5c8abf2936dc5a41e37fe7d6eb0eb70250bfe9d779d6d0870ce33d12",
    "T(2,3,9)": "71127cd9facafe3c8b654fe6dcc90e20948b0dda13f28dc8d5733cbceb60ad74",
    "T(2,3,8)": "e85473983926804ba2996762841ecd26e45562617bb1d4414e3fd35306699084",
    "T(2,4,7)": "aa8f6bc50f845fe701fadc37a40d9ab2771c8291b925e9c1a4e4c9123db6dda5",
    "T(2,4,6)": "9e2f34fe08f92c791ea660bf2e730038b20bab9d760241ba8617a11cc6615562",
    "T(2,5,5)": "d6b6369f799f033e0e9c1c20bcfa8ebf8c80fc9ec6291587f7a4d412f37a11ee",
    "T(2,5,4)": "624db78e6370427c46472316e6790ce979b0e53914e5cd2b9b7323d98f031727",
    "T(2,6,5)": "b8653628661b50cdee8a632901da485e99c1c14247b781a00342593d361a84fd",
    "T(2,6,4)": "9581605415951b3d8301b96b8e82b0ceab946c0734c3d830a42335b987aacbcb",
    "T(2,7,4)": "00f1f175c7170a9388a2d82cfa49e5ca1f08595e4da0ce320994f7929ca252ba",
    "T(2,8,4)": "9ffde9fa264da9e8f19016f6e33a19bcab95b9ec19eff6155871f19387d5ed1e",
    "T(2,3,10)": "fc7bca4d1ef954430414eb68e522eaa8ed30235515fab39549be3e1de50e4c12",
    "T(2,4,8)": "e16ddf07e3ea9094f81a07064430b2b74d357c6502dbce40eb1d3cf24c0bd512",
    "T(2,5,6)": "39a7c3617f942621cc957abf603f171a4ec4093ac36e54eee3ef1adee42a1e39",
    "T(2,7,5)": "434e65200ab39170edad2c9d089da55377d7513517598adcd3b54fe4782eaaaa",
    "T(2,9,4)": "4bb71e768fe472f0872fa956a28c35cd97f9af48a914817e5f53a5fc04f4e2d6",
    "T(3,1,5)": "13e293d7fd9aa1c9e1679fade6847ebb6f18553a0b966f5b808c59b020a99e4f",
    "D(2,12)": "5852c6fe1e523b7262d4a8f31c326e01ef36606fd7adbb8ea626a7c6e943777d",
    "D(2,13)": "91195d09811561d8cf2d229d0db0cb257de8d79007385e79caa661b8a0a72bd5",
}


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

    def test_negative_terms_print_nothing(self, capsys):
        code, stdout, stderr = run(
            capsys, "count", "--family", "D", "--cap", "8", "--terms", "-1")
        assert code == 2
        assert stdout == ""
        assert "error" in stderr

    def test_terms_are_printed_as_they_are_computed(self, capsys, monkeypatch):
        # a term reaches stdout before the next one is computed
        import palfac.recur

        printed = []
        step = palfac.recur._step

        def spy(*args):
            printed.append(capsys.readouterr().out.count("\n"))
            return step(*args)

        monkeypatch.setattr(palfac.recur, "_step", spy)
        assert run(capsys, "count", "--family", "D", "--cap", "8", "--terms", "4")[0] == 0
        assert printed == [1, 1, 1, 1]


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

    def test_verify_horizon_past_the_budget_is_capacity(self, capsys, monkeypatch):
        # the report holds n_max + 1 flags per field, so n_max meets the state budget
        monkeypatch.setenv("PALFAC_STATE_BUDGET", "200")
        argv = ["verify", "--family", "D", "--cap", "4", "--seed", "0", "--infix", "1"]
        assert run(capsys, *argv, "--nmax", "200")[0] == 0
        code, stdout, stderr = run(capsys, *argv, "--nmax", "201")
        assert code == 3
        assert stdout == ""
        assert "capacity" in stderr

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

    def test_seed_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reproduce", "--seed", "1"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("selection", [["--group", "nosuchgroup"],
                                           ["--section", "5", "--group", "properties"]])
    def test_selection_of_no_row_is_usage_error(self, capsys, selection):
        code, stdout, stderr = run(capsys, "reproduce", *selection)
        assert code == 2
        assert stdout == ""
        assert "error:" in stderr and "state-counts" in stderr


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

    @pytest.mark.parametrize("argv", [
        ["--cap", "-1", "--length", "3"],
        ["--alphabet", "0", "--cap", "3", "--length", "2"],
        ["--cap", "9", "--length", "5", "--list", "-3"],
    ], ids=["negative cap", "empty alphabet", "negative list"])
    def test_oracle_rejects_bad_spec_parameters(self, capsys, argv):
        code, stdout, stderr = run(capsys, "oracle", "--family", "D", *argv)
        assert code == 2
        assert stdout == ""
        assert "error" in stderr

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

    def test_negative_oracle_length_is_usage_error(self):
        out = _run_process("oracle", "--family", "D", "--cap", "9", "--length", "-1")
        assert out.returncode == 2
        assert out.stdout == ""
        assert "error" in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("text", [
        '{"delta": [[0, 1], [1, 1]], "start": true, "accepting": [0]}',
        '{"delta": [[true, 1], [1, 1]], "start": 0, "accepting": [0]}',
    ], ids=["start", "transition"])
    def test_boolean_state_number_is_usage_error(self, tmp_path, text):
        path = tmp_path / "bool.json"
        path.write_text(text)
        out = _run_process("analyze", "--automaton", str(path))
        assert out.returncode == 2
        assert out.stdout == ""
        assert "error:" in out.stderr and "Traceback" not in out.stderr

    def test_missing_automaton_file(self, capsys):
        code, _, stderr = run(capsys, "analyze", "--automaton", "/no/such/file")
        assert code == 2
        assert "error" in stderr

    def test_oracle_length_is_held_to_the_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("PALFAC_STATE_BUDGET", "5")
        oracle = ["oracle", "--family", "D", "--cap", "9", "--length"]
        assert run(capsys, *oracle, "5")[:2] == (0, "5 32\n")
        code, stdout, stderr = run(capsys, *oracle, "6")
        assert code == 3 and stdout == "" and "capacity" in stderr
        # a raise, not an assert: python -O keeps the check
        out = _run_process(*oracle, "6", python_flags=["-O"])
        assert out.returncode == 3
        assert out.stdout == ""
        assert "capacity" in out.stderr and "Traceback" not in out.stderr

    def test_oracle_witnesses_are_held_to_the_budget(self, capsys, monkeypatch):
        # --list N at length 5 holds 5N letters: N = 2 fits a budget of 10
        monkeypatch.setenv("PALFAC_STATE_BUDGET", "10")
        oracle = ["oracle", "--family", "D", "--cap", "9", "--length", "5", "--list"]
        assert run(capsys, *oracle, "2")[:2] == (0, "5 32\n00000\n00001\n")
        code, stdout, stderr = run(capsys, *oracle, "3")
        assert code == 3 and stdout == "" and "capacity" in stderr
        out = _run_process(*oracle, "3", python_flags=["-O"])
        assert out.returncode == 3
        assert out.stdout == ""
        assert "capacity" in out.stderr and "Traceback" not in out.stderr

    @pytest.mark.parametrize("command,refused", [
        # count streams: 5 quotient rows of 2001-bit entries, 43 limbs each
        ("count", "1000"),
        # annihilate and asymptotics list 81 terms of 162 bits, 5 limbs each
        ("annihilate", "80"),
        ("asymptotics", "80"),
    ])
    def test_terms_are_held_to_the_budget(self, capsys, monkeypatch, command, refused):
        monkeypatch.setenv("PALFAC_STATE_BUDGET", "100")
        fibonacci = [command, "--family", "E", "--alphabet", "3", "--cap", "2", "--terms"]
        assert run(capsys, *fibonacci, "20")[0] == 0
        code, stdout, stderr = run(capsys, *fibonacci, refused)
        assert code == 3 and stdout == "" and "capacity" in stderr
        out = _run_process(*fibonacci, refused, python_flags=["-O"])
        assert out.returncode == 3
        assert out.stdout == ""
        assert "capacity" in out.stderr and "Traceback" not in out.stderr

    def test_capacity_exit(self, capsys, monkeypatch):
        monkeypatch.setenv("PALFAC_STATE_BUDGET", "100")
        code, _, stderr = run(capsys, "build", "--family", "D", "--cap", "11")
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
    def test_state_budget_holds_imports(self, capsys, tmp_path, monkeypatch, command, fmt):
        # a 40-state binary chain is a table of 80 entries, over twice a budget of 5
        path = tmp_path / f"chain40.{fmt}"
        path.write_text(export_dfa(_chain(40), fmt))
        assert run(capsys, command, "--automaton", str(path))[0] == 0
        monkeypatch.setenv("PALFAC_STATE_BUDGET", "5")
        code, stdout, stderr = run(capsys, command, "--automaton", str(path))
        assert code == 3
        assert stdout == ""
        assert "capacity" in stderr

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

    @pytest.mark.parametrize("value", ["0", "-5", "abc"])
    def test_nonpositive_budget_is_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PALFAC_STATE_BUDGET", value)
        for argv in (["build", "--family", "D", "--cap", "4"],
                     ["verify", "--family", "D", "--cap", "4", "--seed", "0", "--infix", "1",
                      "--nmax", "10"],
                     ["reproduce", "--group", "state-counts"]):
            code, stdout, stderr = run(capsys, *argv)
            assert code == 2
            assert stdout == ""
            assert "error:" in stderr and "PALFAC_STATE_BUDGET" in stderr


class TestOneStateBudget:
    """PALFAC_STATE_BUDGET = N holds every budgeted layer at the same N.

    A request of size n is, per layer: a spec of n live states (D(2,6) has
    63, D(3,4) 64), a binary chain of n states (a table of 2n entries), a
    horizon n_max = n, a word X_1 = s 1^j s^R of n = 62 + j letters, and
    an oracle search of depth n (D(2,3) accepts no word past length 2).
    """

    N = 63
    SPECS = {63: (2, 6), 64: (3, 4)}

    def test_every_layer_accepts_n_and_refuses_n_plus_one(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PALFAC_STATE_BUDGET", str(self.N))
        d4 = build_direct(MaxDistinct(2, 4))
        zero, one = Word.from_digits("0"), Word.from_digits("1")
        layers = {
            "build_direct": lambda n: build_direct(MaxDistinct(*self.SPECS[n])).live_state_count(),
            "import_dfa": lambda n: import_dfa(export_dfa(_chain(n), "json"), "json").state_count,
            "check_stabilization": lambda n: len(
                check_stabilization(d4, zero, one, n).accepted) - 1,
            "perturbed_symmetry": lambda n: len(perturbed_symmetry(
                Word.from_digits("0" * 31), Word.from_digits("1" * (n - 62)), 1)),
            "brute_count_profile": lambda n: len(brute_count_profile(MaxDistinct(2, 3), n)) - 1,
        }
        for name, layer in layers.items():
            assert layer(self.N) == self.N, name
            with pytest.raises(CapacityError):
                layer(self.N + 1)

        verify = ["verify", "--family", "D", "--cap", "4", "--seed", "0", "--infix", "1"]
        for n, code in ((self.N, 0), (self.N + 1, 3)):
            k, cap = self.SPECS[n]
            path = tmp_path / f"chain{n}.grail"
            path.write_text(export_dfa(_chain(n), "grail"))
            for argv in (["build", "--family", "D", "--alphabet", str(k), "--cap", str(cap)],
                         ["minimize", "--automaton", str(path)],
                         verify + ["--nmax", str(n)]):
                assert run(capsys, *argv)[0] == code, argv
        # verify holds its horizon, not only its build, to the budget
        code, stdout, stderr = run(capsys, *verify, "--nmax", "1000")
        assert code == 3 and stdout == "" and "capacity" in stderr
