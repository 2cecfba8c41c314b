import json
import time

import pytest

from proofinfo import (
    KnowledgeSystem,
    WorldSpec,
    brd,
    builtin_example,
    builtin_world,
    check_proof,
    day_is,
    enumerate_proofs,
    load_knowledge_system,
    normalize_formula,
    parse_knowledge_system,
    proof_measure,
    resolve_reliability,
    serialize_knowledge_system,
    support,
    weight,
    win,
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
    assert repr(ks) == "KnowledgeSystem(goals=3, proofs=7)"
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


def test_many_goals_are_checked_in_linear_time():
    # a duplicate-goal test that scans a list took 18.8 s on these 50,000 goals
    goals = [f"g{i}" for i in range(50_000)]
    start = time.perf_counter()
    with pytest.raises(UncoveredGoalError, match="'g1'"):
        KnowledgeSystem(goals, [("P0", ["g0"])])
    assert time.perf_counter() - start < 2


def test_empty_formula_error_names_position():
    doc = {"goals": ["g"], "proofs": [{"id": "P1", "formulas": ["g", "   "]}]}
    with pytest.raises(EmptyFormulaError, match="P1.*formulas\\[1\\]"):
        parse_knowledge_system(doc)
    # the refused formula follows two already read in an earlier proof
    doc = {"goals": ["g"], "proofs": [
        {"id": "P1", "formulas": ["g", "x"]}, {"id": "P2", "formulas": ["x", "g", "  "]},
    ]}
    with pytest.raises(EmptyFormulaError, match="P2.*formulas\\[2\\]"):
        parse_knowledge_system(doc)


@pytest.mark.parametrize(
    "build",
    [
        lambda: KnowledgeSystem("AB", [("P1", ["A"]), ("P2", ["B"])]),
        lambda: KnowledgeSystem(["Win(A)"], [("P1", "Win(A)")]),
        lambda: KnowledgeSystem(["Win(A)"], "P1"),
        lambda: WorldSpec("AB", ("F", "S"), {"R1": {"F"}}),
        lambda: WorldSpec(("A", "B"), "FS", {"R1": {"F"}}),
        lambda: WorldSpec(("A", "B"), ("F", "S"), {"R1": "F"}),
        lambda: check_proof(builtin_world(), "abc", {win("Bok")}),
        lambda: check_proof(builtin_world(), [brd("R1", "Bok"), win("Bok")], "Win(Bok)"),
        lambda: enumerate_proofs(builtin_world(), "Brd(R1,Bok)"),
        lambda: resolve_reliability(builtin_world(), "R2", "Day=Fri"),
    ],
    ids=["goals", "proof-formulas", "proofs", "participants", "day-domain", "schedule",
         "kernel-listing", "kernel-goals", "kernel-user-data", "kernel-day-context"],
)
def test_a_str_is_not_a_collection(build):
    # read one character at a time, each of these would build something else
    with pytest.raises(TypeError, match="not the str"):
        build()


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (lambda: KnowledgeSystem(["g"], [("P1", ["g"]), ["P2"]]),
         r"proofs\[1\] is an \(id, formulas\) pair, not \['P2'\]"),
        (lambda: KnowledgeSystem(["g"], ["P1"]), r"proofs\[0\] is an \(id, formulas\) pair, not 'P1'"),
        (lambda: WorldSpec(("A", "B"), ("F",), [("R1", ["F"])]),
         r"truthful days is a mapping, not \[\('R1', \['F'\]\)\]"),
        (lambda: KnowledgeSystem([1], [("P1", [1])]), r"goals\[0\] is a str, not 1"),
        (lambda: KnowledgeSystem(["g", ["g"]], [("P1", ["g"])]),
         r"goals\[1\] is a str, not \['g'\]"),
        (lambda: KnowledgeSystem(["g"], [("P1", ["g", 2])]),
         r"proof 'P1', formulas\[1\] is a str, not 2"),
        (lambda: KnowledgeSystem(["g"], [("P1", ["g"]), ("P2", ["x", "g", ["y"]])]),
         r"proof 'P2', formulas\[2\] is a str, not \['y'\]"),
        (lambda: check_proof(builtin_world(), ["Win(Bok)"], {win("Bok")}),
         r"formulas\[0\] is a KFormula, not 'Win\(Bok\)'"),
        (lambda: check_proof(builtin_world(), [brd("R1", "Bok"), None], {win("Bok")}),
         r"formulas\[1\] is a KFormula, not None"),
        (lambda: check_proof(builtin_world(), [brd("R1", "Bok"), win("Bok")], ["Win(Bok)"]),
         r"goal_forms\[0\] is a KFormula, not 'Win\(Bok\)'"),
        (lambda: enumerate_proofs(builtin_world(), [brd("R1", "Bok"), "Day=Fri"]),
         r"user_data\[1\] is a KFormula, not 'Day=Fri'"),
        (lambda: enumerate_proofs(builtin_world(), [["Day=Fri"]]),
         r"user_data\[0\] is a KFormula, not \['Day=Fri'\]"),
        (lambda: resolve_reliability(builtin_world(), "R2", [day_is("Fri"), "Day=Fri"]),
         r"day_context\[1\] is a KFormula, not 'Day=Fri'"),
    ],
    ids=["proof-not-a-pair", "proof-str", "schedules-not-a-mapping", "goal-int", "goal-list",
         "formula-int", "formula-list", "kernel-listing-str", "kernel-listing-none",
         "kernel-goal-str", "kernel-user-data-str", "kernel-user-data-list",
         "kernel-day-context-str"],
)
def test_a_wrong_shape_is_refused_by_name(build, message):
    # each of these failed with an error that named neither the argument nor the
    # entry, except that goal forms given as texts made every listing invalid
    with pytest.raises(TypeError, match=message):
        build()


def test_duplicate_goal_rejected():
    with pytest.raises(MalformedDocumentError, match="twice"):
        parse_knowledge_system({"goals": ["g", "g"], "proofs": [{"id": "P1", "formulas": ["g"]}]})


def _proofs(*entries):
    return {"goals": ["g"], "proofs": list(entries)}


@pytest.mark.parametrize(
    ("document", "message"),
    [
        ({"goals": "g", "proofs": []}, "'goals' must be an array of strings"),
        ({"goals": ["g", 1], "proofs": []}, "'goals' must be an array of strings"),
        ({"goals": ["g"], "proofs": {}}, "'proofs' must be an array"),
        (_proofs("P1"), "proofs[0] must be an object"),
        (_proofs({"formulas": ["g"]}), "proofs[0]: needs exactly 'id' and 'formulas'"),
        (_proofs({"id": "P1"}), "proofs[0]: needs exactly 'id' and 'formulas'"),
        (_proofs({"id": 1, "formulas": ["g"]}), "proofs[0]: 'id' must be a string"),
        (_proofs({"id": "P1", "formulas": "g"}), "proofs[0]: 'formulas' must be an array of strings"),
        (_proofs({"id": "P1", "formulas": ["g", 2]}),
         "proofs[0]: 'formulas' must be an array of strings"),
        ({"goals": [], "proofs": []}, "a knowledge system needs at least one goal"),
    ],
)
def test_parse_knowledge_system_input_checks(document, message):
    with pytest.raises(MalformedDocumentError) as exc:
        parse_knowledge_system(document)
    assert str(exc.value) == message


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
        weight(ks, measure, {"Day=Fri"}).support.per_goal_mass,
    ):
        with pytest.raises(TypeError):
            mapping["Win(Bok)"] = 0
    assert proof_measure(ks) == measure
