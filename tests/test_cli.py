import json
from pathlib import Path

from proofinfo.cli import main

DATA = Path(__file__).parent / "data"
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


def test_profile_unknown_proof(capsys):
    code, _, err = run(capsys, "profile", FIXTURE, "--proof", "NOPE")
    assert code == 2
    assert "NOPE" in err


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


def test_check_malformed_world_exits_3(tmp_path, capsys):
    path = tmp_path / "world.json"
    path.write_text(json.dumps({"participants": ["A", "B"]}), encoding="utf-8")
    code, _, err = run(capsys, "check", str(path), FIXTURE)
    assert code == 3


def test_check_unparsable_proof_formula_exits_3(tmp_path, capsys):
    doc = {"goals": ["Win(Bok)", "Win(Dok)"], "proofs": [
        {"id": "P1", "formulas": ["mystery fact", "Win(Bok)"]},
        {"id": "P2", "formulas": ["Brd(R1,Dok)", "Win(Dok)"]},
    ]}
    path = tmp_path / "odd.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "check", WORLD, str(path))
    assert code == 3


def test_check_table_format(capsys):
    code, out, _ = run(capsys, "check", WORLD, FIXTURE, "--format", "table")
    assert code == 0
    assert "QB3: valid" in out
    assert "TruthfulBroadcast" in out


def test_profile_allow_large_flag(tmp_path, capsys):
    doc = {
        "goals": ["g"],
        "proofs": [{"id": "BIG", "formulas": ["g"] + [f"x{i}" for i in range(31)]}],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, _, err = run(capsys, "profile", str(path), "--proof", "BIG")
    assert code == 2
    assert "BIG" in err
    code, report, _ = run_json(capsys, "profile", str(path), "--proof", "BIG", "--allow-large")
    assert code == 0
    assert report["results"]["profiles"]["BIG"]["certainty_threshold"] == 1


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
