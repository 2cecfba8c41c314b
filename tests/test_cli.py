import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proofinfo import convergence, model, report
from proofinfo.cli import main
from proofinfo.errors import InternalInvariantViolation

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"
FIXTURE = str(DATA / "fixture.json")
WORLD = str(DATA / "world.json")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out) if out else None, err


# ---- demo ---------------------------------------------------------------------

def test_demo_reports_measure_and_profiles(capsys):
    code, report, _ = run_json(capsys, "demo")
    assert code == 0
    results = report["results"]
    assert results["measure"]["QB1"] == "1/9"
    assert results["measure"]["QF1"] == "1/3"
    assert results["empty_subset_weight"] == "1.584963"
    weights = {tuple(w["subset"]): w["weight_bits"] for w in results["weights"]}
    assert weights[("Day=Fri",)] == "0.306099"
    assert weights[("Brd(R2,Dok)",)] == "1.210733"
    assert weights[("Day≠Fri", "Brd(R2,Dok)")] == "0.539417"
    assert weights[("Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)")] == "0.360568"
    qb3 = results["profiles"]["QB3"]
    assert qb3["certainty_threshold"] == 4
    assert qb3["max_weights"] == [
        "1.584963", "1.210733", "0.539417", "0.360568", "0.000000", "0.000000", "0.000000",
    ]
    assert qb3["average_speed"] == "0.403578"
    qd1 = results["profiles"]["QD1"]
    assert qd1["certainty_threshold"] == 1
    assert qd1["certain_from_first_formula"] is True


def test_demo_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "demo")
    code2, out2, _ = run(capsys, "demo")
    assert code1 == code2 == 0
    assert out1 == out2


def test_demo_table_format(capsys):
    code, out, _ = run(capsys, "demo", "--format", "table")
    assert code == 0
    assert "QB1" in out and "1/9" in out
    assert "0.306099" in out
    assert "certainty threshold: 4" in out


# ---- validate -------------------------------------------------------------------

def test_validate_fixture(capsys):
    code, report, _ = run_json(capsys, "validate", FIXTURE)
    assert code == 0
    assert report["results"]["valid"] is True
    assert report["results"]["goal_count"] == 3
    assert report["results"]["proof_count"] == 7


def test_validate_table_summary(capsys):
    code, out, _ = run(capsys, "validate", FIXTURE, "--format", "table")
    assert code == 0
    assert "M=3, proofs=7" in out


def test_validate_duplicate_body(tmp_path, capsys):
    doc = {
        "goals": ["g"],
        "proofs": [
            {"id": "P1", "formulas": ["a", "g"]},
            {"id": "P2", "formulas": ["g", "a"]},
        ],
    }
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "validate", str(path))
    assert code == 2
    assert report["results"]["valid"] is False
    assert report["results"]["violations"][0]["code"] == "DuplicateProofBody"


def test_validate_reports_malformed_proofs(tmp_path, capsys):
    path = tmp_path / "odd.json"
    path.write_text(json.dumps({"goals": ["g"], "proofs": {}}), encoding="utf-8")
    code, report, _ = run_json(capsys, "validate", str(path))
    assert code == 2
    assert report["results"]["violations"] == [
        {"code": "MalformedDocument", "message": "'proofs' must be an array"},
    ]


def test_validate_missing_file(capsys):
    code, out, err = run(capsys, "validate", "/nonexistent/nope.json")
    assert code == 3
    assert "error:" in err


def test_validate_unparsable_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 3


# ---- weight ---------------------------------------------------------------------

def test_weight_day_fact(capsys):
    code, report, _ = run_json(capsys, "weight", FIXTURE, "--subset", "Day=Fri")
    assert code == 0
    entry = report["results"]["weights"][0]
    assert entry["weight_bits"] == "0.306099"
    assert entry["support"] == ["QB1", "QD2", "QD3"]
    assert entry["support_mass"] == "1/3"
    assert entry["per_goal_mass"]["Win(Dok)"] == "2/9"
    assert entry["certain"] is False


def test_weight_empty_subset(capsys):
    code, report, _ = run_json(capsys, "weight", FIXTURE, "--subset", "")
    assert code == 0
    assert report["results"]["weights"][0]["weight_bits"] == "1.584963"


def test_weight_goal_formula_certain(capsys):
    code, report, _ = run_json(capsys, "weight", FIXTURE, "--subset", "Win(Fok)")
    assert code == 0
    entry = report["results"]["weights"][0]
    assert entry["weight_bits"] == "0.000000"
    assert entry["certain"] is True


def test_weight_accepts_ascii_aliases(capsys):
    # single formula only: the comma-separated flag form cannot carry
    # formulas that contain commas themselves (that is what --subset-file is for)
    code, report, _ = run_json(capsys, "weight", FIXTURE, "--subset", "Day!=Fri")
    assert code == 0
    entry = report["results"]["weights"][0]
    assert entry["subset"] == ["Day≠Fri"]
    assert entry["weight_bits"] == "0.539417"


def test_weight_subset_file(tmp_path, capsys):
    path = tmp_path / "subset.txt"
    path.write_text("Day≠Fri\nBrd(R2,Dok)\n", encoding="utf-8")
    code, report, _ = run_json(capsys, "weight", FIXTURE, "--subset-file", str(path))
    assert code == 0
    assert report["results"]["weights"][0]["weight_bits"] == "0.539417"


def test_weight_invalid_system_exits_2(tmp_path, capsys):
    doc = {"goals": ["g"], "proofs": [{"id": "P1", "formulas": ["a"]}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "weight", str(path), "--subset", "a")
    assert code == 2
    assert "NoGoalInProof" in err


# ---- profile --------------------------------------------------------------------

def test_profile_qb3(capsys):
    code, report, _ = run_json(capsys, "profile", FIXTURE, "--proof", "QB3")
    assert code == 0
    prof = report["results"]["profiles"]["QB3"]
    assert prof["certainty_threshold"] == 4
    assert prof["average_speed"] == "0.403578"
    assert prof["witnesses"][1] == ["Brd(R2,Dok)"]


def test_profile_all(capsys):
    code, report, _ = run_json(capsys, "profile", FIXTURE, "--all")
    assert code == 0
    assert sorted(report["results"]["profiles"]) == [
        "QB1", "QB2", "QB3", "QD1", "QD2", "QD3", "QF1",
    ]


# The golden table: every report golden file in tests/golden, with the argv
# that writes it and the exit code. The paths are relative to the repository
# root, as the reports echo them. CI runs this test under fixed hash seeds.
GOLDEN_ROWS = [
    (("demo", "--format", "table"), 0, "demo_table.txt"),
    (("check", "tests/data/world.json", "tests/data/fixture.json", "--strict", "--format", "table"),
     2, "check_strict_table.txt"),
    (("entropy", "--dist", "1/4,1/4,1/2", "--format", "table"), 0, "entropy_table.txt"),
    (("validate", "tests/data/no_formulas.json", "--format", "table"), 2,
     "validate_no_formulas_table.txt"),
    (("weight", "tests/data/fixture.json", "--subset", "Win(Bok)", "--format", "table"), 0,
     "weight_certain_table.txt"),
    (("weight", "tests/data/fixture.json", "--subset", "Nope", "--format", "table"), 0,
     "weight_empty_support_table.txt"),
    (("profile", "tests/data/fixture.json", "--all", "--format", "table"), 0,
     "profile_fixture_table.txt"),
    (("check", "tests/data/world.json", "tests/data/fixture.json", "--format", "table"), 0,
     "check_table.txt"),
    (("demo",), 0, "demo.json"),
    (("profile", "tests/data/fixture.json", "--all"), 0, "profile_fixture.json"),
    (("weight", "tests/data/fixture.json", "--subset", ""), 0, "weight_empty.json"),
    (("weight", "tests/data/fixture.json", "--subset", "Day≠Fri"), 0, "weight_day_not_fri.json"),
    (("validate", "tests/data/fixture.json"), 0, "validate_fixture.json"),
    (("entropy", "--dist", "1/4,1/4,1/2"), 0, "entropy.json"),
    (("check", "tests/data/world.json", "tests/data/fixture.json"), 0, "check_report.json"),
    (("check", "tests/data/world.json", "tests/data/fixture.json", "--strict"), 2,
     "check_report_strict.json"),
]


@pytest.mark.parametrize(("argv", "code", "golden"), GOLDEN_ROWS)
def test_table_output_matches_golden(capsys, monkeypatch, argv, code, golden):
    """Each row of the golden table writes its golden file byte for byte."""
    monkeypatch.chdir(Path(__file__).parent.parent)
    got, out, _ = run(capsys, *argv)
    assert got == code
    assert out.encode("utf-8") == (GOLDEN / golden).read_bytes()


def test_every_report_golden_has_a_row():
    # enumerate.json holds forward-chainer listings, not a report
    files = {path.name for path in GOLDEN.iterdir()} - {"enumerate.json"}
    assert sorted(golden for _, _, golden in GOLDEN_ROWS) == sorted(files)


def test_profile_unknown_proof(capsys):
    code, _, err = run(capsys, "profile", FIXTURE, "--proof", "NOPE")
    assert code == 2
    assert "NOPE" in err


def test_a_refusal_no_handler_maps_exits_2(capsys, monkeypatch):
    def refuse(ks, measure, proof_id):
        raise InternalInvariantViolation(f"weights of {proof_id} do not converge")

    monkeypatch.setattr(report, "profile", refuse)
    code, out, err = run(capsys, "profile", FIXTURE, "--proof", "QB1")
    assert (code, out, err) == (2, "", "error: weights of QB1 do not converge\n")


# ---- entropy --------------------------------------------------------------------

def test_entropy_exact_values(capsys):
    code, report, _ = run_json(capsys, "entropy", "--dist", "1/4,1/4,1/2")
    assert code == 0
    assert report["results"]["entropy_bits"] == "1.500000"

    code, report, _ = run_json(capsys, "entropy", "--dist", "1/8,7/16,7/16")
    assert code == 0
    assert report["results"]["entropy_bits"] == "1.418564"

    code, report, _ = run_json(capsys, "entropy", "--dist", "1/3,1/3,1/3")
    assert code == 0
    assert report["results"]["entropy_bits"] == "1.584963"


def test_entropy_rejects_non_distribution(capsys):
    code, _, err = run(capsys, "entropy", "--dist", "1/2,1/3")
    assert code == 2
    code, _, err = run(capsys, "entropy", "--dist", "abc")
    assert code == 2


def test_entropy_refuses_entries_past_the_digit_limit(capsys):
    # expanding this exponent exactly would take far longer than a second
    code, out, err = run(capsys, "entropy", "--dist", "1e-999999999,1")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad probability")
    # a denominator of 4301 digits could not be printed back in the report
    half_and_a_bit = "0.5" + "0" * 4298 + "1"
    code, out, err = run(capsys, "entropy", "--dist", f"{half_and_a_bit},0.4{'9' * 4299}")
    assert (code, out) == (2, "")
    assert err.startswith("error: bad probability")


def test_entropy_sum_past_the_digit_limit_exits_2(capsys):
    code, out, err = run(capsys, "entropy", "--dist", f"1/{'1' * 4000}3,1/{'7' * 4001}")
    assert (code, out) == (2, "")
    assert err.startswith("error: probabilities sum to")


def test_entropy_parses_each_entry_once(capsys, monkeypatch):
    # count the parses wherever the package binds the parser
    calls = []
    real = model._parse_probability

    def counted(text):
        calls.append(text)
        return real(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("proofinfo") and hasattr(module, "_parse_probability"):
            monkeypatch.setattr(module, "_parse_probability", counted)
    assert main(["entropy", "--dist", "1/4,1/4,1/2"]) == 0
    capsys.readouterr()
    assert calls == ["1/4", "1/4", "1/2"]


# ---- check ----------------------------------------------------------------------

def test_check_fixture_all_valid(capsys):
    code, report, _ = run_json(capsys, "check", WORLD, FIXTURE)
    assert code == 0
    assert report["results"]["all_valid"] is True
    assert [p["id"] for p in report["results"]["proofs"]] == [
        "QB1", "QB2", "QB3", "QD1", "QD2", "QD3", "QF1",
    ]


def test_check_strict_flags_elided_steps(capsys):
    code, report, _ = run_json(capsys, "check", WORLD, FIXTURE, "--strict")
    assert code == 2
    by_id = {p["id"]: p for p in report["results"]["proofs"]}
    assert by_id["QB3"]["valid"] is False
    assert by_id["QB1"]["valid"] is True


def test_check_mutant_reports_reason(tmp_path, capsys):
    doc = json.loads(Path(FIXTURE).read_text(encoding="utf-8"))
    qb1 = next(p for p in doc["proofs"] if p["id"] == "QB1")
    qb1["formulas"].remove("Day=Fri")
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, report, _ = run_json(capsys, "check", WORLD, str(path))
    assert code == 2
    qb1_result = next(p for p in report["results"]["proofs"] if p["id"] == "QB1")
    assert qb1_result["valid"] is False
    assert any(
        "R2 reliability unknown" in v["reason"] for v in qb1_result["violations"]
    )


def test_check_names_a_day_conflict_once(tmp_path, capsys):
    listing = ["Day=Fri", "Day≠Fri", "Brd(R1,Bok)", "Brd(R2,Bok)", "Win(Bok)"]
    path = tmp_path / "conflict.json"
    path.write_text(json.dumps({"goals": ["Win(Bok)"], "proofs": [{"id": "P1", "formulas": listing}]}),
                    encoding="utf-8")
    code, report, _ = run_json(capsys, "check", WORLD, str(path))
    assert code == 2
    (result,) = report["results"]["proofs"]
    assert result["violations"] == [{"index": 4, "reason": "day 'Fri' both asserted and excluded"}]


def test_check_malformed_world_exits_3(tmp_path, capsys):
    path = tmp_path / "world.json"
    path.write_text(json.dumps({"participants": ["A", "B"]}), encoding="utf-8")
    code, _, err = run(capsys, "check", str(path), FIXTURE)
    assert code == 3


def test_check_world_with_repeated_participant_exits_3(tmp_path, capsys):
    doc = {"participants": ["Bok", "Bok", "Dok"], "day_domain": ["Fri"],
           "sources": {"R1": "always_truthful"}}
    path = tmp_path / "world.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), FIXTURE)
    assert (code, out) == (3, "")
    assert err == "error: bad world document: participants must be distinct names\n"


def test_check_world_with_an_unreadable_name_exits_3(tmp_path, capsys):
    doc = {"participants": ["Bok", "Win(A b)"], "day_domain": ["Fri"],
           "sources": {"R1": "always_truthful"}}
    path = tmp_path / "world.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), FIXTURE)
    assert (code, out) == (3, "")
    assert err == (
        "error: bad world document: participant name 'Win(A b)' cannot be read back from a formula\n"
    )


def test_check_unparsable_proof_formula_exits_3(tmp_path, capsys):
    doc = {"goals": ["Win(Bok)", "Win(Dok)"], "proofs": [
        {"id": "P1", "formulas": ["mystery fact", "Win(Bok)"]},
        {"id": "P2", "formulas": ["Brd(R1,Dok)", "Win(Dok)"]},
    ]}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "check", WORLD, str(path))
    assert code == 3



def test_check_two_goals_that_are_one_kernel_formula_exits_3(tmp_path, capsys):
    doc = {"goals": ["Win(Bok)∨Win(Fok)", "Win(Fok)∨Win(Bok)"], "proofs": [
        {"id": "P1", "formulas": ["Brd(R1,Bok)", "Win(Bok)∨Win(Fok)"]},
        {"id": "P2", "formulas": ["Brd(R1,Dok)", "Win(Fok)∨Win(Bok)"]},
    ]}
    path = tmp_path / "orderings.json"
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    code, out, err = run(capsys, "check", WORLD, str(path))
    assert (code, out) == (3, "")
    assert err == (
        "error: cannot interpret proof formulas: "
        "goals 'Win(Bok)∨Win(Fok)' and 'Win(Fok)∨Win(Bok)' are one kernel formula\n"
    )

def test_check_table_format(capsys):
    code, out, _ = run(capsys, "check", WORLD, FIXTURE, "--format", "table")
    assert code == 0
    assert "QB3: valid" in out
    assert "TruthfulBroadcast" in out


def test_profile_large_proof_needs_no_flag(tmp_path, capsys):
    doc = {
        "goals": ["g"],
        "proofs": [{"id": "BIG", "formulas": ["g"] + [f"x{i}" for i in range(31)]}],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, report, _ = run_json(capsys, "profile", str(path), "--proof", "BIG")
    assert code == 0
    assert report["results"]["profiles"]["BIG"]["certainty_threshold"] == 1
    # the removed opt-out flag is now an unknown option: a usage error
    flag = "--allow" + "-large"
    with pytest.raises(SystemExit) as exc:
        main(["profile", str(path), "--proof", "BIG", flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_profile_node_budget_exits_2(tmp_path, capsys, monkeypatch):
    shared = [f"x{i:02d}" for i in range(30)]
    doc = {
        "goals": ["g", "h"],
        "proofs": [{"id": "BIG", "formulas": ["g", *shared]}, {"id": "TWIN", "formulas": ["h", *shared]}],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(convergence, "MAX_SEARCH_NODES", 1000)
    code, out, err = run(capsys, "profile", str(path), "--proof", "BIG")
    assert (code, out) == (2, "")
    assert "budget of 1000 subsets (1001 visited)" in err


def test_profile_deep_search_exits_2(tmp_path, capsys, monkeypatch):
    # 1100 shared fillers put the certainty threshold at 1101, so the search
    # goes 1100 subsets deep, past Python's default recursion limit, before
    # its budget runs out; the budget just fits the witness table
    shared = [f"x{i:04d}" for i in range(1100)]
    doc = {
        "goals": ["g", "h"],
        "proofs": [{"id": "BIG", "formulas": ["g", *shared]}, {"id": "TWIN", "formulas": ["h", *shared]}],
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    monkeypatch.setattr(convergence, "MAX_SEARCH_NODES", 1101 * 1102 // 2)
    code, out, err = run(capsys, "profile", str(path), "--proof", "BIG")
    assert (code, out) == (2, "")
    assert "budget of 606651 subsets (606652 visited)" in err
    assert "Traceback" not in err


def test_profile_witness_table_over_budget_exits_2(tmp_path, capsys):
    # 4096 formulas need 4096 * 4097 / 2 witness formulas, over 2**23
    doc = {"goals": ["g"], "proofs": [{"id": "BIG", "formulas": ["g"] + [f"x{i}" for i in range(4095)]}]}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run(capsys, "profile", str(path), "--proof", "BIG")
    assert (code, out) == (2, "")
    assert "would hold 8390656 formulas, over the budget of 8388608" in err


# ---- unwritable streams -----------------------------------------------------------


class _BreakingStream:
    """A text stream whose `fail_at`-th write or flush raises `error`, and, if
    `broken_after`, every later one too."""

    def __init__(self, fail_at, error=OSError, broken_after=False):
        self.calls = 0
        self.raised = False
        self.fail_at, self.error, self.broken_after = fail_at, error, broken_after

    def _call(self):
        self.calls += 1
        if self.calls == self.fail_at or (self.broken_after and self.calls > self.fail_at):
            self.raised = True
            raise self.error(28, "No space left on device")

    def write(self, text):
        self._call()
        return len(text)

    def flush(self):
        self._call()


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_unwritable_report_exits_3(capsys, monkeypatch, failing):
    # the report is one write and then one flush
    monkeypatch.setattr(sys, "stdout", _BreakingStream({"write": 1, "flush": 2}[failing]))
    assert main(["demo"]) == 3
    assert capsys.readouterr().err == (
        "error: cannot write the report: [Errno 28] No space left on device\n"
    )


# inputs each command completes and inputs it refuses; demo reads no input,
# so only its output can fail
_EXIT_CASES = [
    pytest.param(("demo",), id="demo"),
    pytest.param(("validate", FIXTURE), id="validate-ok"),
    pytest.param(("validate", WORLD), id="validate-invalid"),
    pytest.param(("validate", "no-such-file.json"), id="validate-missing"),
    pytest.param(("weight", FIXTURE, "--subset", "Day=Fri"), id="weight-ok"),
    pytest.param(("weight", WORLD, "--subset", "Day=Fri"), id="weight-invalid"),
    pytest.param(("profile", FIXTURE, "--proof", "QB3"), id="profile-ok"),
    pytest.param(("profile", FIXTURE, "--proof", "NOPE"), id="profile-unknown"),
    pytest.param(("entropy", "--dist", "1/4,1/4,1/2"), id="entropy-ok"),
    pytest.param(("entropy", "--dist", "1/2,1/3"), id="entropy-invalid"),
    pytest.param(("check", WORLD, FIXTURE, "--format", "table"), id="check-ok"),
    pytest.param(("check", "no-such-world.json", FIXTURE), id="check-missing"),
]


@pytest.mark.parametrize("argv", _EXIT_CASES)
def test_exit_code_survives_failing_streams(monkeypatch, argv):
    # a clean run gives the code and how many calls each stream takes
    out, err = _BreakingStream(0), _BreakingStream(0)
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stderr", err)
    clean = main(list(argv))
    assert clean in (0, 2, 3)
    for k_out in range(1, out.calls + 2):  # the last k is past every call
        for k_err in range(1, err.calls + 2):
            for error in (OSError, BrokenPipeError):
                for broken_after in (False, True):
                    stdout = _BreakingStream(k_out, error, broken_after)
                    stderr = _BreakingStream(k_err, OSError, broken_after)
                    monkeypatch.setattr(sys, "stdout", stdout)
                    monkeypatch.setattr(sys, "stderr", stderr)
                    code = main(list(argv))
                    # only a report that cannot be written changes the code
                    assert code == (3 if stdout.raised else clean), (k_out, k_err, error)


# ---- malformed JSON ---------------------------------------------------------------

def test_deeply_nested_json_exits_3(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    code, out, err = run(capsys, "check", str(path), FIXTURE)
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: cannot parse {path}")


def test_duplicate_json_key_exits_3(tmp_path, capsys):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"goals": ["g"], "goals": ["h"], "proofs": [{"id": "P", "formulas": ["h"]}]}',
        encoding="utf-8",
    )
    code, out, err = run(capsys, "validate", str(path))
    assert code == 3
    assert out == ""
    assert "cannot parse" in err and "duplicate key 'goals'" in err


def test_main_calls_in_sequence_match_fresh_runs(tmp_path, capsys):
    # one parser serves every main() call; no default or flag may carry over
    subset_file = tmp_path / "subset.txt"
    subset_file.write_text("Day=Fri\nBrd(R2,Dok)\n", encoding="utf-8")
    sequence = (
        ("weight", FIXTURE, "--subset-file", str(subset_file)),
        ("weight", FIXTURE, "--subset", "Day≠Fri"),
        ("profile", FIXTURE, "--all"),
        ("profile", FIXTURE, "--proof", "QB3"),
    )
    env = {
        **os.environ,
        "PYTHONIOENCODING": "utf-8",
        "PYTHONPATH": os.pathsep.join(
            filter(None, [str(Path(__file__).parent.parent / "src"), os.environ.get("PYTHONPATH")])
        ),
    }
    for argv in sequence:
        code, out, _ = run(capsys, *argv)
        fresh = subprocess.run(
            [sys.executable, "-m", "proofinfo", *argv], capture_output=True, env=env, check=False
        )
        assert (code, out) == (fresh.returncode, fresh.stdout.decode("utf-8"))
