import math
import pickle
import random
from fractions import Fraction
from pathlib import Path

import pytest

from proofinfo import (
    KnowledgeSystem,
    ProbabilityMeasure,
    load_knowledge_system,
    parse_knowledge_system,
    profile,
    proof_measure,
    serialize_knowledge_system,
    shannon_entropy,
    support,
    support_ids,
    weight,
)
from proofinfo.cli import main
from proofinfo.errors import EmptyFormulaError, NotADistributionError
from proofinfo.model import _parse_probability
from randsys import random_subset, random_system

FIXTURE = str(Path(__file__).parent / "data" / "fixture.json")


def test_fixture_measure_values(ks, measure):
    for pid in ("QB1", "QB2", "QB3", "QD1", "QD2", "QD3"):
        assert measure.per_proof[pid] == Fraction(1, 9)
    assert measure.per_proof["QF1"] == Fraction(1, 3)
    assert sum(measure.per_proof.values()) == 1


def test_per_goal_mass_is_one_over_m(ks, measure):
    for g in ks.goals:
        class_mass = sum(measure.per_proof[pid] for pid in ks.classes[g])
        assert class_mass == Fraction(1, 3)


def test_uniform_when_one_proof_per_goal():
    from proofinfo import parse_knowledge_system

    ks = parse_knowledge_system(
        {
            "goals": ["g1", "g2"],
            "proofs": [
                {"id": "P1", "formulas": ["g1", "x"]},
                {"id": "P2", "formulas": ["g2", "y"]},
            ],
        }
    )
    m = proof_measure(ks)
    assert m.per_proof["P1"] == m.per_proof["P2"] == Fraction(1, 2)


def test_measure_exact_on_random_systems():
    rng = random.Random(2024)
    for _ in range(50):
        ks = random_system(rng)
        m = proof_measure(ks)
        assert sum(m.per_proof.values()) == 1
        for g in ks.goals:
            assert sum(m.per_proof[pid] for pid in ks.classes[g]) == Fraction(1, ks.M)


def test_support_day_fact(ks, measure):
    sup = support(ks, measure, {"Day=Fri"})
    assert sup.proofs == frozenset({"QB1", "QD2", "QD3"})
    assert sup.total_mass == Fraction(1, 3)
    assert sup.per_goal_mass == {
        "Win(Bok)": Fraction(1, 9),
        "Win(Dok)": Fraction(2, 9),
        "Win(Fok)": Fraction(0),
    }


def test_support_empty_subset_selects_everything(ks, measure):
    sup = support(ks, measure, set())
    assert sup.proofs == frozenset(p.id for p in ks.proofs)
    assert sup.total_mass == 1


def test_support_absent_formula_is_empty(ks, measure):
    sup = support(ks, measure, {"Zzz"})
    assert sup.proofs == frozenset()
    assert sup.total_mass == 0


def test_support_decomposes_by_goal(ks, measure):
    rng = random.Random(5)
    for _ in range(100):
        p = rng.choice(ks.proofs)
        sup = support(ks, measure, random_subset(rng, p.formulas))
        assert sup.total_mass == sum(sup.per_goal_mass.values())


def test_support_antitone_under_growth():
    rng = random.Random(77)
    for _ in range(50):
        ks = random_system(rng)
        m = proof_measure(ks)
        p = rng.choice(ks.proofs)
        big = random_subset(rng, p.formulas)
        small = big[: rng.randint(0, len(big))]
        assert support(ks, m, big).proofs <= support(ks, m, small).proofs


# hand-built per-proof masses that are not a distribution over the proofs
BAD_MASSES = {
    "missing": lambda good: {},
    "negative": lambda good: {**good, "QB1": -good["QB1"], "QB2": good["QB2"] + 2 * good["QB1"]},
    "sum_past_one": lambda good: dict.fromkeys(good, Fraction(1)),
    "float": lambda good: {pid: float(m) for pid, m in good.items()},
    "str": lambda good: {pid: str(m) for pid, m in good.items()},
    "stray_id": lambda good: {**good, "ZZ9": Fraction(-7)},
}
READERS = {
    "support": lambda ks, m: support(ks, m, set()),
    "weight": lambda ks, m: weight(ks, m, set()),
    "profile": lambda ks, m: profile(ks, m, "QB3"),
}


@pytest.mark.parametrize("bad", BAD_MASSES.values(), ids=BAD_MASSES)
@pytest.mark.parametrize("read", READERS.values(), ids=READERS)
def test_hand_built_measure_is_checked_where_read(ks, measure, bad, read):
    per_proof = bad(dict(measure.per_proof))
    with pytest.raises(NotADistributionError):
        read(ks, ProbabilityMeasure(ks, per_proof))


# what each measure of BAD_MASSES is refused with, when it is built
BAD_MASS_MESSAGES = {
    "missing": "the measure gives proof 'QB1' no mass",
    "negative": "proof masses must be nonnegative",
    "sum_past_one": "proof masses do not sum to 1",
    "float": f"proof 'QB1' has mass {1 / 9!r}, not a rational",
    "str": "proof 'QB1' has mass '1/9', not a rational",
    "stray_id": "the measure gives mass to 'ZZ9', not a proof",
}


@pytest.mark.parametrize("name", BAD_MASSES)
def test_invalid_measure_is_refused_when_built(ks, measure, name):
    with pytest.raises(NotADistributionError) as exc:
        ProbabilityMeasure(ks, BAD_MASSES[name](dict(measure.per_proof)))
    assert str(exc.value) == BAD_MASS_MESSAGES[name]


def test_a_measure_is_used_and_compared_only_with_its_system_in_its_order():
    # the measure's masks index positions in its system's goals and proofs:
    # a second load of the file and a pickled measure keep that order, the
    # fixture with its proofs or its goals reversed does not
    ks, again = load_knowledge_system(FIXTURE), load_knowledge_system(FIXTURE)
    measure = proof_measure(ks)
    for same, copy in ((again, proof_measure(again)), (ks, pickle.loads(pickle.dumps(measure)))):
        assert copy == measure
        for read in READERS.values():
            assert read(same, measure) == read(ks, copy) == read(ks, measure)
    document = serialize_knowledge_system(ks)
    document["proofs"].reverse()
    reordered = parse_knowledge_system(document)
    regoaled = KnowledgeSystem(ks.goals[::-1], [(p.id, p.listing) for p in ks.proofs])
    for other in (reordered, regoaled):
        assert other == ks and proof_measure(other) != measure
        for read in READERS.values():
            with pytest.raises(NotADistributionError, match="another knowledge system"):
                read(other, measure)
            with pytest.raises(NotADistributionError, match="another knowledge system"):
                read(ks, proof_measure(other))
    own = proof_measure(reordered)
    assert support(reordered, own, {"Day=Fri"}) == support(ks, measure, {"Day=Fri"})


_SUBSET_READERS = {
    "support": support, "weight": weight, "support_ids": lambda ks, m, s: support_ids(ks, s),
}
_NOT_STR = (("int", 2, "2"), ("none", None, "None"), ("list", ["Day=Fri"], r"\['Day=Fri'\]"))


@pytest.mark.parametrize(
    ("read", "subset", "message"),
    [
        # read one character at a time, "Day=Fri" would have an empty support
        *(pytest.param(read, "Day=Fri", "not the str 'Day=Fri'", id=name)
          for name, read in _SUBSET_READERS.items()),
        *(pytest.param(read, [value], f"a subset's formula is a str, not {shown}", id=f"{name}-{kind}")
          for name, read in _SUBSET_READERS.items() for kind, value, shown in _NOT_STR),
    ],
)
def test_a_str_subset_is_refused(ks, measure, read, subset, message):
    with pytest.raises(TypeError, match=message):
        read(ks, measure, subset)


def test_library_subsets_are_normalized_as_the_system_reads_them(ks, measure):
    # the CLI weighs --subset "Day!=Fri" at 0.539 bits, and so does the library
    assert weight(ks, measure, ["Day!=Fri"]).value > 0.5
    for typed, canonical in (
        ([" Day!=Fri"], ["Day≠Fri"]),
        (["Day!=Fri ", "\tBrd(R2,Dok)", "~Win(Fok)"], ["Day≠Fri", "Brd(R2,Dok)", "¬Win(Fok)"]),
    ):
        assert support_ids(ks, typed) == support_ids(ks, canonical)
        assert weight(ks, measure, typed) == weight(ks, measure, canonical)
    with pytest.raises(EmptyFormulaError):
        support(ks, measure, ["Day=Fri", "  "])


@pytest.mark.parametrize(
    "argv", [("profile", FIXTURE, "--all"), ("demo",)], ids=["profile", "demo"]
)
def test_a_command_compiles_its_measure_once(capsys, monkeypatch, argv):
    # proof_measure and the checking constructor each store the compiled
    # masses with the one setter, so counting its calls counts compilations
    calls = []
    store = ProbabilityMeasure._set

    def counted(*args):
        calls.append(args)
        return store(*args)

    monkeypatch.setattr(ProbabilityMeasure, "_set", counted)
    assert main(list(argv)) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_a_mass_that_is_not_a_rational_names_its_proof(ks, measure):
    per_proof = {**measure.per_proof, "QD2": 1 / 9}
    with pytest.raises(NotADistributionError, match="proof 'QD2' has mass 0.111"):
        weight(ks, ProbabilityMeasure(ks, per_proof), set())


def test_entropy_quarter_quarter_half():
    assert shannon_entropy([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]) == 1.5


def test_entropy_skewed():
    value = shannon_entropy([Fraction(1, 8), Fraction(7, 16), Fraction(7, 16)])
    assert value == pytest.approx(1.4185644432, abs=1e-9)


def test_entropy_uniform_three():
    value = shannon_entropy([Fraction(1, 3)] * 3)
    assert value == pytest.approx(math.log2(3), abs=1e-9)


def test_entropy_uniform_n():
    for n in range(1, 12):
        value = shannon_entropy([Fraction(1, n)] * n)
        assert value == pytest.approx(math.log2(n), abs=1e-9)


def test_entropy_refuses_str_and_float():
    # text is read by the CLI; a float is not exact
    for entry in ("1/2", 0.5):
        with pytest.raises(NotADistributionError, match="not a rational"):
            shannon_entropy([entry, Fraction(1, 2)])


def test_entropy_rejects_bad_input():
    with pytest.raises(NotADistributionError):
        shannon_entropy([Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(NotADistributionError):
        shannon_entropy([Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(NotADistributionError):
        shannon_entropy(["nonsense"])


def test_entropy_zero_terms_dropped():
    assert shannon_entropy([Fraction(1), Fraction(0)]) == 0.0


def test_entropy_refuses_huge_exponent():
    # the reader of the entropy command's entries refuses it before building 10**999999999
    with pytest.raises(ValueError, match="exponent"):
        _parse_probability("1e-999999999")


def test_entropy_sum_past_the_digit_limit_is_not_a_distribution():
    # each entry has 4001 digits, their sum more than 4300
    with pytest.raises(NotADistributionError, match="sum to"):
        shannon_entropy([Fraction(1, int("1" * 4000 + "3")), Fraction(1, int("7" * 4001))])


def test_entropy_entry_below_float_range_adds_zero():
    assert shannon_entropy([Fraction(1, 10**400), 1 - Fraction(1, 10**400)]) == 0.0
