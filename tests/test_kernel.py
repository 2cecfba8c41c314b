import json
import random
from collections import Counter
from pathlib import Path

import pytest

from proofinfo import kernel

from proofinfo import (
    KnowledgeSystem,
    brd,
    builtin_example,
    builtin_world,
    check_knowledge_system,
    check_proof,
    day_is,
    day_not,
    enumerate_proofs,
    is_data,
    not_win,
    parse_kformula,
    parse_knowledge_system,
    parse_world,
    resolve_reliability,
    win,
    win_disj,
)
from proofinfo.errors import (
    InconsistentDayContextError,
    MalformedDocumentError,
    UnknownNameError,
    UnparsableFormulaError,
)
from proofinfo.kernel import DECEITFUL, TRUTHFUL, UNKNOWN, WorldSpec
from oracles import holds, models

DATA = Path(__file__).parent / "data"


# ---- formulas ---------------------------------------------------------------

def test_parse_basic_forms(world):
    assert parse_kformula("Brd(R2,Dok)", world) == brd("R2", "Dok")
    assert parse_kformula("Win(Bok)", world) == win("Bok")
    assert parse_kformula("¬Win(Fok)", world) == not_win("Fok")
    assert parse_kformula("Day=Fri", world) == day_is("Fri")
    assert parse_kformula("Day≠Fri", world) == day_not("Fri")
    assert parse_kformula("Win(Bok)∨Win(Fok)", world) == win_disj({"Bok", "Fok"})


def test_parse_ascii_aliases(world):
    assert parse_kformula("~Win(Fok)", world) == not_win("Fok")
    assert parse_kformula("Day!=Fri", world) == day_not("Fri")
    assert parse_kformula("Win(Bok)\\/Win(Fok)", world) == win_disj({"Bok", "Fok"})


def test_parse_rejects_unknown_names(world):
    with pytest.raises(UnknownNameError):
        parse_kformula("Brd(R9,Bok)", world)
    with pytest.raises(UnknownNameError):
        parse_kformula("Win(Zok)", world)
    with pytest.raises(UnknownNameError):
        parse_kformula("Day=Tue", world)


def test_parse_rejects_garbage(world):
    with pytest.raises(UnparsableFormulaError):
        parse_kformula("Hello world", world)
    with pytest.raises(UnparsableFormulaError):
        parse_kformula("Win(Bok)∨Win(Bok)", world)
    with pytest.raises(UnparsableFormulaError):
        parse_kformula("Win(Bok)∨Day=Fri", world)


# every message the reader raises; an unknown name is an UnknownNameError,
# anything else an UnparsableFormulaError
@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("Win(Bok)∨Win(Zok)", "unknown participant 'Zok' in 'Win(Bok)∨Win(Zok)'"),
        ("Brd(R1,Zok)", "unknown participant 'Zok' in 'Brd(R1,Zok)'"),
        ("¬Win(Zok)", "unknown participant 'Zok' in '¬Win(Zok)'"),
        ("Day≠Tue", "unknown day 'Tue' in 'Day≠Tue'"),
        ("Brd(R9,Bok)", "unknown source 'R9' in 'Brd(R9,Bok)'"),
        ("Brd(R9,Zok)", "unknown source 'R9' in 'Brd(R9,Zok)'"),
        ("Win(Zok)", "unknown participant 'Zok' in 'Win(Zok)'"),
        ("Day=Tue", "unknown day 'Tue' in 'Day=Tue'"),
        ("Day=", "unknown day '' in 'Day='"),
        ("Win(Zok)∨Day=Fri", "bad disjunct 'Day=Fri' in 'Win(Zok)∨Day=Fri'"),
        ("Win(Bok) ∨ Win(Bok)", "disjunction needs two distinct participants: 'Win(Bok) ∨ Win(Bok)'"),
        ("Win(Bok", "cannot parse 'Win(Bok'"),
        ("Brd(R1, Bok, Dok)", "cannot parse 'Brd(R1, Bok, Dok)'"),
    ],
)
def test_parse_kformula_name_checks(world, text, message):
    error = UnknownNameError if message.startswith("unknown ") else UnparsableFormulaError
    with pytest.raises(error) as exc:
        parse_kformula(text, world)
    assert type(exc.value) is error
    assert str(exc.value) == message


@pytest.mark.parametrize(
    ("text", "formula"),
    [
        ("Brd( R1 , Bok )", brd("R1", "Bok")),
        ("Day= Fri", day_is("Fri")),
        ("¬ Win(Bok)", not_win("Bok")),
        ("Win(Bok) ∨ Win(Dok)", win_disj({"Bok", "Dok"})),
    ],
)
def test_parse_accepts_spacing_variants(world, text, formula):
    parsed = parse_kformula(text, world)
    assert parsed == formula
    assert parsed.text() == formula.text()


def _factory_formulas(world):
    """Every formula the factories build over the world's names."""
    participants = sorted(world.participants)
    yield from (f(d) for d in world.day_domain for f in (day_is, day_not))
    yield from (brd(s, p) for s in world.truthful_days for p in participants)
    yield from (f(p) for p in participants for f in (win, not_win))
    for mask in range(1, 1 << len(participants)):
        members = [p for i, p in enumerate(participants) if mask >> i & 1]
        if len(members) > 1:
            yield win_disj(members)


# names the grammar can carry: no whitespace, parentheses, commas, operator
# symbols or their ASCII aliases
_NAME_CHARS = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_-.:é"


def _random_world(rng, max_participants, alphabet=_NAME_CHARS, max_length=6):
    """A world of distinct random names over `alphabet`: one to four days, two
    to `max_participants` participants, and one to four sources, each
    truthful on a random set of days."""

    def names(count):
        out = set()
        while len(out) < count:
            out.add("".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_length))))
        return sorted(out)

    days = names(rng.randint(1, 4))
    return WorldSpec(
        participants=names(rng.randint(2, max_participants)),
        day_domain=days,
        truthful_days={s: rng.sample(days, rng.randint(0, len(days)))
                       for s in names(rng.randint(1, 4))},
    )


@pytest.mark.parametrize("seed", range(8))
def test_parse_inverts_text_over_random_worlds(seed):
    world = _random_world(random.Random(seed), max_participants=6)
    formulas = list(_factory_formulas(world))
    assert len(set(formulas)) == len(formulas)
    for f in formulas:
        assert parse_kformula(f.text(), world) == f


@pytest.mark.parametrize(
    ("facts", "message"),
    [
        ((day_is("Fri"), day_is("Other")), "conflicting day facts: ['Fri', 'Other']"),
        ((day_is("Fri"), day_not("Fri")), "day 'Fri' both asserted and excluded"),
        ((day_not("Fri"), day_not("Other")), "day facts exclude every day in the domain"),
    ],
)
def test_day_context_checks(world, facts, message):
    with pytest.raises(InconsistentDayContextError) as exc:
        resolve_reliability(world, "R2", facts)
    assert str(exc.value) == message


def test_formula_text_is_built_once():
    f = win_disj({"Fok", "Bok"})
    assert f.text() is f.text() == "Win(Bok)∨Win(Fok)"
    # the stored text is not a field, yet it is all that equality and hashing read
    g = win_disj({"Bok", "Fok"})
    assert f == g and hash(f) == hash(g)


def test_formula_refuses_an_unknown_kind():
    # each but the first built a formula whose text does not read back as itself
    for fields, message in (
        ({"kind": "bogus"}, "unknown formula kind 'bogus'"),
        ({"kind": "brd"}, "brd formula needs a str source that its text reads back, not None"),
        ({"kind": "brd", "source": "R1"}, "brd formula needs a str participant .*, not None"),
        ({"kind": "win"}, "win formula needs a str participant .*, not None"),
        ({"kind": "day_not", "day": 5}, "day_not formula needs a str day .*, not 5"),
        ({"kind": "win_disj"}, r"win_disj needs two or more participants, not frozenset\(\)"),
        ({"kind": "win_disj", "participants": frozenset({"Bok"})}, "two or more participants"),
        ({"kind": "win_disj", "participants": frozenset({"Bok", 1})},
         "win_disj formula needs a str participant .*, not 1"),
        # a field the kind does not write: the text would not show it
        ({"kind": "win", "day": "Fri", "participant": "Bok"}, "win formula writes no day: 'Fri'"),
        ({"kind": "brd", "source": "R1", "participant": "Bok", "participants": {"Bok", "Dok"}},
         "brd formula writes no participants: frozenset"),
        ({"kind": "win_disj", "participant": "Bok", "participants": {"Bok", "Dok"}},
         "win_disj formula writes no participant: 'Bok'"),
        # a name the text would not read back: Brd(R1,X,Y) twice, a disjunction
        # printed as one Win, and names normalization would fold
        ({"kind": "brd", "source": "R1,X", "participant": "Y"}, "str source .*, not 'R1,X'"),
        ({"kind": "brd", "source": "R1", "participant": "X,Y"}, "str participant .*, not 'X,Y'"),
        ({"kind": "win", "participant": "B)∨Win(C"}, r"not 'B\)∨Win\(C'"),
        ({"kind": "not_win", "participant": "Bok "}, "not 'Bok '"),
        ({"kind": "day_is", "day": "~Fri"}, "not '~Fri'"),
        ({"kind": "win_disj", "participants": {"Bok", "A!=B"}}, "not 'A!=B'"),
    ):
        with pytest.raises(ValueError, match=message):
            kernel.KFormula(**fields)
    for fields, message in (
        # a str is read one character at a time
        ({"kind": "win_disj", "participants": "AB"}, "participants is a collection, not the str 'AB'"),
        ({"kind": "win", "participant": "A", "participants": "AB"}, "not the str 'AB'"),
    ):
        with pytest.raises(TypeError, match=message):
            kernel.KFormula(**fields)
    with pytest.raises(TypeError, match="not the str 'AB'"):
        win_disj("AB")
    assert kernel.KFormula("win", participant="Bok") == win("Bok")


def test_disjunction_factory_collapses_singleton():
    assert win_disj({"Bok"}) == win("Bok")
    with pytest.raises(ValueError):
        win_disj(set())


def test_formula_text_roundtrip(world):
    for text in ("Day=Fri", "Day≠Fri", "Brd(R3,Fok)", "Win(Dok)", "¬Win(Bok)",
                 "Win(Bok)∨Win(Fok)"):
        assert parse_kformula(text, world).text() == text


def test_data_admissibility():
    assert is_data(day_is("Fri"))
    assert is_data(brd("R1", "Bok"))
    assert not is_data(win("Bok"))
    assert not is_data(not_win("Bok"))
    assert not is_data(win_disj({"Bok", "Fok"}))


# ---- world -------------------------------------------------------------------

def test_parse_world_schema(world):
    doc = {
        "participants": ["Bok", "Dok", "Fok"],
        "day_domain": ["Fri", "Other"],
        "sources": {
            "R1": "always_truthful",
            "R2": {"truthful_on": ["Fri"]},
            "R3": "always_deceitful",
        },
    }
    parsed = parse_world(doc)
    assert parsed == world


def test_parse_world_rejects_bad_schedule():
    doc = {
        "participants": ["A", "B"],
        "day_domain": ["Fri"],
        "sources": {"R1": "sometimes"},
    }
    with pytest.raises(MalformedDocumentError):
        parse_world(doc)


def test_parse_world_rejects_extra_keys():
    with pytest.raises(MalformedDocumentError):
        parse_world({"participants": ["A", "B"], "day_domain": ["d"], "sources": {}, "x": 1})


def test_world_needs_two_participants():
    with pytest.raises(MalformedDocumentError):
        WorldSpec(("Bok",), ("Fri",), {"R1": frozenset()})


def test_world_rejects_stray_schedule_days():
    with pytest.raises(UnknownNameError):
        WorldSpec(("A", "B"), ("Fri",), {"R1": frozenset({"Tue"})})


def _world(**changes):
    doc = {"participants": ["Bok", "Dok"], "day_domain": ["Fri"], "sources": {"R1": "always_truthful"}}
    return {**doc, **changes}


@pytest.mark.parametrize(
    ("document", "message"),
    [
        (["not", "an", "object"], "top level must be an object"),
        (_world(participants="Bok"), "'participants' must be an array of strings"),
        (_world(participants=["Bok", 1]), "'participants' must be an array of strings"),
        (_world(participants=["Bok", "Bok", "Dok"]), "participants must be distinct names"),
        (_world(day_domain="Fri"), "'day_domain' must be an array of strings"),
        (_world(day_domain=[None]), "'day_domain' must be an array of strings"),
        (_world(sources=[]), "'sources' must be an object"),
        (_world(sources={"R1": {"truthful_on": "Fri"}}),
         "source 'R1': 'truthful_on' must be an array of day names"),
        (_world(sources={}), "a world needs at least one source"),
    ],
)
def test_parse_world_input_checks(document, message):
    with pytest.raises(MalformedDocumentError) as exc:
        parse_world(document)
    assert str(exc.value) == message


# names the formula grammar cannot read back: a formula built on them would
# print a text that parse_kformula refuses on the same world
UNREADABLE_NAMES = [
    *(("participant", bad, _world(participants=["Bok", bad]))
      for bad in ("", "A b", "A,B", "Win(A)", "A∨B", "A~B")),
    *(("source", bad, _world(sources={bad: "always_truthful"})) for bad in ("R 1", "R,1", "")),
    ("day", "Fri ", _world(day_domain=["Fri "])),
]


@pytest.mark.parametrize(
    ("field", "name", "document"),
    UNREADABLE_NAMES,
    ids=[f"{field}:{name!r}" for field, name, _ in UNREADABLE_NAMES],
)
def test_world_refuses_names_its_formulas_cannot_read_back(field, name, document):
    with pytest.raises(MalformedDocumentError) as exc:
        parse_world(document)
    assert str(exc.value) == f"{field} name {name!r} cannot be read back from a formula"


def test_every_accepted_world_name_reads_back():
    # names over an alphabet that holds the grammar's own characters: a world
    # either refuses them or reads back every formula built on them
    rng = random.Random(3)
    alphabet = _NAME_CHARS[:8] * 4 + " \t,()∨=≠¬~!\\/"
    accepted: set[str] = set()
    for _ in range(3000):
        try:
            world = _random_world(rng, max_participants=3, alphabet=alphabet, max_length=3)
        except MalformedDocumentError:
            continue
        accepted.update(world.participants, world.day_domain, world.truthful_days)
        for f in _factory_formulas(world):
            assert parse_kformula(f.text(), world) == f
    # every grammar character a name may hold was drawn into an accepted one
    assert all(any(c in name for name in accepted) for c in "=≠¬!\\/")


def test_world_rejects_repeated_participants():
    # a repeated name would make the chainer list every proof about that
    # participant twice
    with pytest.raises(MalformedDocumentError, match="participants must be distinct names"):
        WorldSpec(("Bok", "Bok", "Dok"), ("Fri",), {"R1": frozenset({"Fri"})})



def test_world_is_read_only():
    parsed = parse_world(json.loads((DATA / "world.json").read_text(encoding="utf-8")))
    with pytest.raises(TypeError):
        parsed.truthful_days["R1"] = frozenset()
    # the world keeps its own copies of what it was built from
    participants, days, schedules = ["Bok", "Dok"], ["Fri", "Sat"], {"R1": {"Fri"}}
    built = WorldSpec(participants, days, schedules)
    participants.append("Fok")
    days.clear()
    schedules["R1"].clear()
    schedules["R2"] = set()
    assert built.participants == ("Bok", "Dok")
    assert built.day_domain == ("Fri", "Sat")
    assert built.truthful_on("R1") == frozenset({"Fri"})
    assert list(built.truthful_days) == ["R1"]


def test_equal_worlds_hash_equal(world):
    # built from other containers, with the schedules in another order
    same = WorldSpec(
        ["Bok", "Dok", "Fok"], ["Fri", "Other"],
        {"R3": set(), "R2": ["Fri"], "R1": ("Other", "Fri")},
    )
    assert same == world and hash(same) == hash(world)
    assert len({world, same, builtin_world()}) == 1
    assert len({world, WorldSpec(world.participants, world.day_domain, {"R1": ()})}) == 2


def test_resolve_reliability(world):
    assert resolve_reliability(world, "R1", []) == TRUTHFUL
    assert resolve_reliability(world, "R3", []) == DECEITFUL
    assert resolve_reliability(world, "R2", []) == UNKNOWN
    assert resolve_reliability(world, "R2", [day_is("Fri")]) == TRUTHFUL
    assert resolve_reliability(world, "R2", [day_not("Fri")]) == DECEITFUL
    with pytest.raises(InconsistentDayContextError):
        resolve_reliability(world, "R2", [day_is("Fri"), day_not("Fri")])
    with pytest.raises(UnknownNameError):
        resolve_reliability(world, "R9", [])
    with pytest.raises(UnknownNameError, match=r"^unknown day 'Sun' in day facts$"):
        resolve_reliability(world, "R1", [day_is("Sun")])
    # two unknown days: the first in sorted order, under every hash seed
    with pytest.raises(UnknownNameError, match=r"^unknown day 'Mon' in day facts$"):
        resolve_reliability(world, "R1", [day_not("Sun"), day_not("Mon")])


# ---- proof checking ----------------------------------------------------------

def test_all_fixture_proofs_check_valid(world):
    ks = builtin_example()
    results = check_knowledge_system(world, ks)
    assert [c.proof_id for c in results] == [p.id for p in ks.proofs]
    assert all(c.valid for c in results), [
        (c.proof_id, c.violations) for c in results if not c.valid
    ]


def test_strict_mode_requires_explicit_intermediates(world):
    ks = builtin_example()
    results = {c.proof_id: c for c in check_knowledge_system(world, ks, strict=True)}
    # QB3 and QF1 elide the not-win step their disjunction rests on
    assert not results["QB3"].valid
    assert not results["QF1"].valid
    for pid in ("QB1", "QB2", "QD1", "QD2", "QD3"):
        assert results[pid].valid


def test_check_parses_each_distinct_text_once(monkeypatch):
    world = parse_world(json.loads((DATA / "world.json").read_text(encoding="utf-8")))
    ks = parse_knowledge_system(json.loads((DATA / "fixture.json").read_text(encoding="utf-8")))
    calls = Counter()
    real = kernel.parse_kformula

    def counting(text, w):
        calls[text] += 1
        return real(text, w)

    monkeypatch.setattr(kernel, "parse_kformula", counting)
    check_knowledge_system(world, ks)
    texts = set(ks.goals) | {t for p in ks.proofs for t in p.listing}
    assert calls == Counter(dict.fromkeys(texts, 1))


def test_check_raises_for_the_first_bad_formula_in_proof_order(world):
    # the first bad text sorts after the second, so any reordering shows
    ks = parse_knowledge_system({"goals": ["Win(Bok)", "Win(Dok)"], "proofs": [
        {"id": "P1", "formulas": ["Day=Fri", "mystery fact", "Win(Bok)"]},
        {"id": "P2", "formulas": ["Brd(R9,Dok)", "mystery fact", "Win(Dok)"]},
    ]})
    with pytest.raises(UnparsableFormulaError) as first:
        parse_kformula("mystery fact", world)
    with pytest.raises(UnparsableFormulaError) as raised:
        check_knowledge_system(world, ks)
    assert str(raised.value) == str(first.value)



def test_two_goals_that_are_one_kernel_formula_raise(world):
    # two goals to the analysis, but one disjunction to the kernel
    ks = KnowledgeSystem(["Win(Bok)∨Win(Fok)", "Win(Fok)∨Win(Bok)"], [
        ("P1", ["Brd(R1,Bok)", "Win(Bok)∨Win(Fok)"]),
        ("P2", ["Brd(R1,Dok)", "Win(Fok)∨Win(Bok)"]),
    ])
    assert ks.M == 2
    with pytest.raises(MalformedDocumentError, match=(
        r"^goals 'Win\(Bok\)∨Win\(Fok\)' and 'Win\(Fok\)∨Win\(Bok\)' are one kernel formula$"
    )):
        check_knowledge_system(world, ks)

def test_qb3_composite_step_records_implicit_formula(world):
    ks = builtin_example()
    results = {c.proof_id: c for c in check_knowledge_system(world, ks)}
    disj_step = results["QB3"].steps[2]
    assert disj_step.rule == "ExistenceDisj"
    assert disj_step.implicit == (not_win("Dok"),)


def test_qb1_without_day_fact_is_invalid(world):
    listing = [brd("R2", "Bok"), win("Bok")]
    checked = check_proof(world, listing, {win("Bok")}, proof_id="QB1-mutant")
    assert not checked.valid
    assert any("R2 reliability unknown" in reason for _, reason in checked.violations)


def test_extraneous_premise_removal_keeps_qd2_valid(world):
    listing = [day_is("Fri"), brd("R2", "Dok"), win("Dok")]
    checked = check_proof(world, listing, {win("Dok")})
    assert checked.valid


def test_goal_must_come_last(world):
    listing = [win("Dok"), brd("R1", "Dok")]
    checked = check_proof(world, listing, {win("Dok")})
    assert not checked.valid
    assert any("not a goal" in reason for _, reason in checked.violations)


def test_uniqueness_rule(world):
    listing = [brd("R1", "Dok"), win("Dok"), not_win("Bok")]
    checked = check_proof(world, listing, {not_win("Bok")})
    assert checked.steps[2].rule == "Uniqueness"
    assert checked.valid


def test_empty_listing_rejected(world):
    with pytest.raises(ValueError):
        check_proof(world, [], {win("Bok")})


def test_inconsistent_day_facts_reported_as_violation(world):
    listing = [day_is("Fri"), day_not("Fri"), brd("R2", "Bok"), win("Bok")]
    checked = check_proof(world, listing, {win("Bok")})
    assert not checked.valid


_DAY_DEPENDENT = WorldSpec(
    ("Ana", "Bok"), ("Mon", "Tue"), {"R1": {"Mon"}, "R2": {"Tue"}, "R3": {"Mon"}}
)


@pytest.mark.parametrize(
    ("days", "reason"),
    [
        ([], "R1 reliability unknown; R2 reliability unknown; R3 reliability unknown"),
        ([day_is("Mon"), day_not("Mon")], "day 'Mon' both asserted and excluded"),
    ],
    ids=["unknown", "conflict"],
)
def test_a_reason_names_each_cause_once(days, reason):
    # repeated copies of the broadcasts give repeated premises, not repeated causes
    broadcasts = [brd(source, "Ana") for source in ("R1", "R2", "R3")] * 4
    listing = [*days, *broadcasts, *[not_win("Ana")] * 4]
    checked = check_proof(_DAY_DEPENDENT, listing, {not_win("Ana")})
    assert [r for _, r in checked.violations] == [reason] * 4



@pytest.mark.parametrize(
    "listing",
    [
        [brd("R9", "Bok"), win("Bok")],
        # the disjunction needs ¬Win(Fok), which an implicit hop would take
        # from the broadcast about Fok
        [brd("R9", "Fok"), win_disj({"Bok", "Dok"})],
    ],
)
def test_unknown_source_raises_on_both_checker_paths(world, listing):
    with pytest.raises(UnknownNameError, match="unknown source 'R9'"):
        check_proof(world, listing, {win("Bok")})


@pytest.mark.parametrize(
    "run",
    [
        lambda world: check_proof(world, [brd("R1", "Zed"), win("Zed")], {win("Zed")}),
        # the disjunction needs ¬Win(Fok), which an implicit hop would take
        # from Uniqueness after the broadcast about Zed
        lambda world: check_proof(world, [brd("R1", "Zed"), win_disj({"Bok", "Dok"})],
                                  {win("Bok")}),
        lambda world: enumerate_proofs(world, [brd("R1", "Zed")]),
    ],
    ids=["check", "check-implicit-hop", "enumerate"],
)
def test_a_broadcast_about_an_undeclared_participant_raises(world, run):
    # each of these read Win(Zed) from R1, so every declared participant lost
    with pytest.raises(UnknownNameError, match=r"^unknown participant 'Zed' in 'Brd\(R1,Zed\)'$"):
        run(world)


@pytest.mark.parametrize(
    "fact, message",
    [
        (day_is("Sun"), r"^unknown day 'Sun' in day facts$"),
        (brd("R9", "Bok"), r"^unknown source 'R9'$"),
        (brd("R1", "Zed"), r"^unknown participant 'Zed' in 'Brd\(R1,Zed\)'$"),
    ],
    ids=["day", "source", "participant"],
)
def test_a_data_fact_with_an_undeclared_name_raises_though_no_rule_reads_it(world, fact, message):
    # the listing is the fact alone, so its validity cannot wait for a later step
    with pytest.raises(UnknownNameError, match=message):
        check_proof(world, [fact], {fact})


def test_listings_sharing_verdicts_raise_for_an_unknown_source_each_time(world):
    # listings checked against one world share a table of source verdicts; a
    # source the world does not declare raises at each listing that reads it
    verdicts = {}
    listings = [[day_is("Fri"), brd("R2", "Bok"), win("Bok")], [day_is("Fri"), brd("R9", "Bok"), win("Bok")]]
    for _ in range(2):
        checked = check_proof(world, listings[0], {win("Bok")}, _verdicts=verdicts)
        assert checked == check_proof(world, listings[0], {win("Bok")})
        with pytest.raises(UnknownNameError, match="unknown source 'R9'"):
            check_proof(world, listings[1], {win("Bok")}, _verdicts=verdicts)


def test_listings_with_one_set_of_day_facts_resolve_each_source_once(world, monkeypatch):
    # a verdict depends on the day facts as a set, so their order in the
    # listing does not split the table
    calls = Counter()
    real = kernel.resolve_reliability

    def counting(w, source, day_context):
        calls[source] += 1
        return real(w, source, day_context)

    monkeypatch.setattr(kernel, "resolve_reliability", counting)
    days = [day_not("Fri"), day_is("Other")]
    verdicts = {}
    for order in (days, days[::-1]):
        checked = check_proof(world, [*order, brd("R2", "Dok"), not_win("Dok")], {not_win("Dok")},
                              _verdicts=verdicts)
        assert checked.valid
        assert checked.steps[-1].rule == "DeceitfulBroadcast"
    assert calls == Counter({"R2": 1})

# ---- enumeration ---------------------------------------------------------------

def test_enumerate_single_chain_matches_qb1(world):
    result = enumerate_proofs(world, {day_is("Fri"), brd("R2", "Bok")}, max_steps=10)
    assert result.contradictions == ()
    assert len(result.proofs) == 1
    listing = result.proofs[0]
    assert listing.goal == win("Bok")
    assert set(listing.texts()) == {"Day=Fri", "Brd(R2,Bok)", "Win(Bok)"}


def test_enumerated_proofs_recheck_strict(world):
    scenarios = [
        {day_is("Fri"), brd("R2", "Bok")},
        {day_not("Fri"), brd("R2", "Dok"), brd("R3", "Fok")},
        {brd("R1", "Dok")},
        {day_is("Fri"), brd("R3", "Fok"), brd("R2", "Dok")},
    ]
    for data in scenarios:
        result = enumerate_proofs(world, data, max_steps=50)
        assert result.proofs
        for listing in result.proofs:
            checked = check_proof(world, listing.formulas, {listing.goal}, strict=True)
            assert checked.valid, (listing.texts(), checked.violations)


def test_enumerate_qb3_scenario_adds_one_intermediate(world):
    ks = builtin_example()
    result = enumerate_proofs(
        world, {day_not("Fri"), brd("R2", "Dok"), brd("R3", "Fok")}, max_steps=50
    )
    bok_proofs = [p for p in result.proofs if p.goal == win("Bok")]
    assert len(bok_proofs) == 1
    # fully explicit variant of QB3: the published listing minus its elided step
    expected = set(ks.by_id["QB3"].formulas) | {"¬Win(Dok)"}
    assert set(bok_proofs[0].texts()) == expected


def test_enumerate_detects_contradiction(world):
    result = enumerate_proofs(world, {brd("R1", "Bok"), brd("R1", "Dok")}, max_steps=50)
    assert "Bok" in result.contradictions and "Dok" in result.contradictions


def test_consistent_data_yields_no_contradiction(world):
    scenarios = [
        {brd("R1", "Dok")},
        {day_is("Fri"), brd("R2", "Bok"), brd("R3", "Fok")},
        {day_not("Fri"), brd("R2", "Dok"), brd("R3", "Fok")},
    ]
    for data in scenarios:
        assert enumerate_proofs(world, data, max_steps=50).contradictions == ()


def test_enumerate_rejects_non_data(world):
    with pytest.raises(ValueError):
        enumerate_proofs(world, {win("Bok")}, max_steps=5)


def test_enumerate_rejects_inconsistent_day_context(world):
    with pytest.raises(InconsistentDayContextError):
        enumerate_proofs(world, {day_is("Fri"), day_not("Fri"), brd("R1", "Bok")})


def test_enumerate_respects_step_budget(world):
    result = enumerate_proofs(world, {brd("R1", "Bok")}, max_steps=1)
    # only one application allowed: Win(Bok); the uniqueness fan-out is cut off
    assert [p.goal for p in result.proofs] == [win("Bok")]
    with pytest.raises(ValueError):
        enumerate_proofs(world, {brd("R1", "Bok")}, max_steps=0)


def test_enumerate_lists_only_win_goals(world):
    data = {day_not("Fri"), brd("R2", "Dok")}
    result = enumerate_proofs(world, data, max_steps=50)
    assert all(p.goal.kind == "win" for p in result.proofs)


def test_day_domain_extends_beyond_two_days():
    week = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
    world = WorldSpec(
        participants=("Bok", "Dok"),
        day_domain=week,
        truthful_days={"R1": frozenset(week), "R2": frozenset({"Fri"})},
    )
    assert resolve_reliability(world, "R2", [day_is("Sat")]) == DECEITFUL
    assert resolve_reliability(world, "R2", [day_is("Fri")]) == TRUTHFUL
    assert resolve_reliability(world, "R2", [day_not("Mon")]) == UNKNOWN
    # excluding every day but one decides the verdict
    ctx = [day_not(d) for d in week if d != "Fri"]
    assert resolve_reliability(world, "R2", ctx) == TRUTHFUL
    with pytest.raises(InconsistentDayContextError):
        resolve_reliability(world, "R2", [day_not(d) for d in week])


def test_fixture_step_rules(world):
    ks = builtin_example()
    results = {c.proof_id: c for c in check_knowledge_system(world, ks)}
    assert [s.rule for s in results["QB1"].steps] == [
        "UserData", "UserData", "TruthfulBroadcast",
    ]
    assert [s.rule for s in results["QB3"].steps] == [
        "UserData", "UserData", "ExistenceDisj", "UserData",
        "DeceitfulBroadcast", "DisjElim",
    ]
    assert [s.rule for s in results["QF1"].steps] == [
        "UserData", "UserData", "ExistenceDisj", "UserData",
        "DeceitfulBroadcast", "DisjElim",
    ]


# ---- soundness against the world's models -----------------------------------

def _random_world_and_data(rng):
    """A random world, and 1-5 broadcasts plus, seven times in ten, one day
    fact about it."""
    world = _random_world(rng, max_participants=5)
    data = [brd(rng.choice(sorted(world.truthful_days)), rng.choice(world.participants))
            for _ in range(rng.randint(1, 5))]
    if rng.random() < 0.7:
        data.append(rng.choice((day_is, day_not))(rng.choice(world.day_domain)))
    return world, data


def _listings(rng, world, data):
    """Listings to check over the data: each enumerated proof, the same with a
    formula dropped, shuffled, or with a data fact inserted, and the data
    followed by formulas drawn from every formula of the world."""
    try:
        enumerated = [p.formulas for p in enumerate_proofs(world, data).proofs]
    except InconsistentDayContextError:
        enumerated = []
    formulas = list(_factory_formulas(world))
    for listing in enumerated:
        yield listing
        dropped = list(listing)
        del dropped[rng.randrange(len(dropped))]
        yield dropped
        yield rng.sample(listing, len(listing))
        inserted = list(listing)
        inserted.insert(rng.randint(0, len(inserted)), rng.choice(data))
        yield inserted
    yield [*rng.sample(data, len(data)), *rng.sample(formulas, min(4, len(formulas)))]


@pytest.mark.parametrize("seed", range(4))
def test_every_accepted_step_holds_in_every_model_of_the_data_before_it(seed):
    rng = random.Random(seed)
    accepted = 0
    for _ in range(150):
        world, data = _random_world_and_data(rng)
        goals = {win(p) for p in world.participants}
        for listing in _listings(rng, world, data):
            for strict in (False, True):
                steps = check_proof(world, listing, goals, strict=strict).steps
                for i, step in enumerate(steps):
                    if step.rule == "Unjustified":
                        break  # later steps may rest on it
                    if step.rule == "UserData":
                        continue
                    accepted += 1
                    worlds = models(world, (f for f in listing[:i] if is_data(f)))
                    for f in (step.conclusion, *step.implicit):
                        assert all(holds(f, world, *m) for m in worlds), (listing, i, f)
    assert accepted > 1000


@pytest.mark.parametrize("seed", range(4))
def test_enumerate_lists_only_entailed_winners(seed):
    rng = random.Random(100 + seed)
    listed = 0
    for _ in range(300):
        world, data = _random_world_and_data(rng)
        worlds = models(world, data)
        if not worlds:
            continue
        result = enumerate_proofs(world, data)
        assert result.contradictions == ()
        for p in result.proofs:
            listed += 1
            assert all(holds(p.goal, world, *m) for m in worlds), (data, p.goal)
    assert listed > 50


def _day_fact_sets(rng, world):
    """The day facts of one data set each: none, one of each kind, two
    conflicting pairs, and one of them permuted, which shares its verdicts."""
    day, other = rng.sample(world.day_domain, 2)
    return [[], [day_is(day)], [day_not(day)], [day_is(day), day_not(day)], [day_is(day), day_is(other)],
            [day_not(day), day_is(day)]]


@pytest.mark.parametrize("seed", range(4))
def test_listings_checked_together_equal_each_listing_checked_alone(seed):
    # one system holds the listings of data sets that differ in their day
    # facts, so its checks share source verdicts across day contexts
    rng = random.Random(200 + seed)
    world = _random_world(rng, max_participants=5)
    while len(world.day_domain) < 2 or not any(map(world.is_day_dependent, world.truthful_days)):
        world = _random_world(rng, max_participants=5)
    sources = sorted(world.truthful_days)
    dependent = [s for s in sources if world.is_day_dependent(s)]
    goals, proofs, bodies = set(), [], set()
    for days in [days for _ in range(3) for days in _day_fact_sets(rng, world)]:
        data = [brd(rng.choice(dependent), rng.choice(world.participants)), *days]
        data += [brd(rng.choice(sources), rng.choice(world.participants)) for _ in range(rng.randint(0, 3))]
        # the data, then a claim about the participant of the day-dependent broadcast
        claim = [*rng.sample(data, len(data)), win(data[0].participant)]
        for listing in [*_listings(rng, world, data), claim]:
            wins = {f.text() for f in listing if f.kind == "win"}
            body = frozenset(f.text() for f in listing)
            if len(wins) == 1 and body not in bodies:
                goals |= wins
                bodies.add(body)
                proofs.append((f"L{len(proofs)}", [f.text() for f in listing]))
    ks = KnowledgeSystem(sorted(goals), proofs)
    goal_forms = {parse_kformula(g, world) for g in ks.goals}
    reasons = set()
    for strict in (False, True):
        alone = tuple(
            check_proof(world, [parse_kformula(t, world) for t in p.listing], goal_forms, p.id, strict)
            for p in ks.proofs
        )
        assert check_knowledge_system(world, ks, strict) == alone
        reasons |= {reason for checked in alone for _, reason in checked.violations}
    assert any(c.valid for c in alone)
    assert any("reliability unknown" in r for r in reasons)
    assert any("day" in r for r in reasons)
