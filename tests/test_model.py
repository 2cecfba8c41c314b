import json

import pytest

from proofinfo import (
    builtin_example,
    load_knowledge_system,
    normalize_formula,
    parse_knowledge_system,
    proof_measure,
    serialize_knowledge_system,
    support,
    weight,
)
from proofinfo.errors import (
    DuplicateProofBodyError,
    DuplicateProofIdError,
    EmptyFormulaError,
    MalformedDocumentError,
    MultipleGoalsInProofError,
    NoGoalInProofError,
    UncoveredGoalError,
)


def test_normalize_strips_and_collapses():
    assert normalize_formula("  Win(Bok) ") == "Win(Bok)"
    assert normalize_formula("a   b\t c") == "a b c"


def test_normalize_idempotent():
    once = normalize_formula("  Day = Fri ")
    assert normalize_formula(once) == once


def test_normalize_folds_ascii_aliases():
    assert normalize_formula("Day!=Fri") == "Day≠Fri"
    assert normalize_formula("Win(Bok)\\/Win(Fok)") == "Win(Bok)∨Win(Fok)"
    assert normalize_formula("~Win(Fok)") == "¬Win(Fok)"


def test_normalize_rejects_blank():
    with pytest.raises(EmptyFormulaError):
        normalize_formula("   ")


def test_minimal_system_parses():
    ks = parse_knowledge_system({"goals": ["g"], "proofs": [{"id": "P1", "formulas": ["a", "g"]}]})
    assert ks.M == 1
    assert ks.by_id["P1"].goal == "g"
    assert ks.by_id["P1"].formulas == frozenset({"a", "g"})


def test_fixture_shape():
    ks = builtin_example()
    assert ks.M == 3
    assert len(ks.proofs) == 7
    assert ks.classes["Win(Bok)"] == ("QB1", "QB2", "QB3")
    assert ks.classes["Win(Dok)"] == ("QD1", "QD2", "QD3")
    assert ks.classes["Win(Fok)"] == ("QF1",)
    qf1 = ks.by_id["QF1"]
    assert len(qf1.formulas) == 6
    assert qf1.listing[-1] == "Win(Fok)"
    qb3 = ks.by_id["QB3"]
    assert qb3.formulas == frozenset(
        {"Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)", "Brd(R3,Fok)", "¬Win(Fok)", "Win(Bok)"}
    )


def test_every_fixture_proof_contains_exactly_one_goal():
    ks = builtin_example()
    for p in ks.proofs:
        assert len(p.formulas & ks.goal_set) == 1


def test_listing_preserves_order_and_dedupes():
    ks = parse_knowledge_system(
        {"goals": ["g"], "proofs": [{"id": "P1", "formulas": ["b", "a", "b", "g"]}]}
    )
    assert ks.by_id["P1"].listing == ("b", "a", "g")


def test_roundtrip_serialization():
    original = builtin_example()
    doc = serialize_knowledge_system(original)
    reparsed = parse_knowledge_system(json.loads(json.dumps(doc)))
    assert reparsed == original
    assert serialize_knowledge_system(reparsed) == doc


def test_unknown_top_level_key_rejected():
    with pytest.raises(MalformedDocumentError, match="unknown"):
        parse_knowledge_system({"goals": ["g"], "proofs": [], "extra": 1})


def test_missing_keys_rejected():
    with pytest.raises(MalformedDocumentError):
        parse_knowledge_system({"goals": ["g"]})
    with pytest.raises(MalformedDocumentError):
        parse_knowledge_system(["not", "an", "object"])


def test_unknown_proof_key_rejected():
    with pytest.raises(MalformedDocumentError, match="proofs\\[0\\]"):
        parse_knowledge_system(
            {"goals": ["g"], "proofs": [{"id": "P1", "formulas": ["g"], "note": "x"}]}
        )


def test_proof_without_goal_rejected():
    with pytest.raises(NoGoalInProofError, match="P1"):
        parse_knowledge_system({"goals": ["g"], "proofs": [{"id": "P1", "formulas": ["a"]}]})


def test_proof_with_two_goals_rejected():
    doc = {
        "goals": ["Win(Bok)", "Win(Dok)"],
        "proofs": [
            {"id": "P1", "formulas": ["Win(Bok)", "Win(Dok)"]},
            {"id": "P2", "formulas": ["Win(Dok)"]},
        ],
    }
    with pytest.raises(MultipleGoalsInProofError, match="P1"):
        parse_knowledge_system(doc)


def test_duplicate_proof_body_rejected():
    doc = {
        "goals": ["g"],
        "proofs": [
            {"id": "P1", "formulas": ["a", "g"]},
            {"id": "P2", "formulas": ["g", "a"]},
        ],
    }
    with pytest.raises(DuplicateProofBodyError):
        parse_knowledge_system(doc)


def test_duplicate_proof_id_rejected():
    doc = {
        "goals": ["g"],
        "proofs": [
            {"id": "P1", "formulas": ["a", "g"]},
            {"id": "P1", "formulas": ["b", "g"]},
        ],
    }
    with pytest.raises(DuplicateProofIdError):
        parse_knowledge_system(doc)


def test_uncovered_goal_rejected():
    doc = {"goals": ["g", "h"], "proofs": [{"id": "P1", "formulas": ["g"]}]}
    with pytest.raises(UncoveredGoalError, match="h"):
        parse_knowledge_system(doc)


def test_empty_formula_error_names_position():
    doc = {"goals": ["g"], "proofs": [{"id": "P1", "formulas": ["g", "   "]}]}
    with pytest.raises(EmptyFormulaError, match="P1.*formulas\\[1\\]"):
        parse_knowledge_system(doc)


def test_duplicate_goal_rejected():
    with pytest.raises(MalformedDocumentError, match="twice"):
        parse_knowledge_system({"goals": ["g", "g"], "proofs": [{"id": "P1", "formulas": ["g"]}]})


def test_fixture_validates_cleanly():
    # the shipped example must satisfy its own invariants
    ks = builtin_example()
    assert ks == parse_knowledge_system(serialize_knowledge_system(ks))


def test_load_rejects_duplicate_json_key(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"goals": ["g"], "goals": ["h"], "proofs": [{"id": "P", "formulas": ["h"]}]}',
        encoding="utf-8",
    )
    with pytest.raises(ValueError, match="duplicate key 'goals'"):
        load_knowledge_system(path)


def test_load_rejects_deeply_nested_json(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    with pytest.raises(ValueError, match="recursion"):
        load_knowledge_system(path)


def test_indexes_and_measure_are_read_only():
    ks = builtin_example()
    measure = proof_measure(ks)
    for mapping, key in (
        (ks.by_id, "QB1"),
        (ks.classes, "Win(Bok)"),
        (measure.per_proof, "QB1"),
        (measure.per_goal, "Win(Bok)"),
    ):
        with pytest.raises(TypeError):
            mapping[key] = ()


def test_system_attributes_and_support_masses_are_read_only():
    ks = builtin_example()
    measure = proof_measure(ks)
    for name in ("goals", "goal_set", "proofs", "by_id", "classes", "M", "extra"):
        with pytest.raises(AttributeError):
            setattr(ks, name, ())
        with pytest.raises(AttributeError):
            delattr(ks, name)
    for mapping in (
        support(ks, measure, {"Day=Fri"}).per_goal_mass,
        weight(ks, measure, {"Day=Fri"}).per_goal_terms,
    ):
        with pytest.raises(TypeError):
            mapping["Win(Bok)"] = 0
    assert proof_measure(ks) == measure
