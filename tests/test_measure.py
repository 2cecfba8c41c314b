import math
import random
from fractions import Fraction

import pytest

from proofinfo import goal_class, proof_measure, shannon_entropy, support
from proofinfo.errors import NotADistributionError, UnknownGoalError
from randsys import random_subset, random_system


def test_fixture_measure_values(ks, measure):
    for pid in ("QB1", "QB2", "QB3", "QD1", "QD2", "QD3"):
        assert measure.per_proof[pid] == Fraction(1, 9)
    assert measure.per_proof["QF1"] == Fraction(1, 3)
    assert sum(measure.per_proof.values()) == 1


def test_per_goal_mass_is_one_over_m(ks, measure):
    for g in ks.goals:
        assert measure.per_goal[g] == Fraction(1, 3)
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


def test_goal_class_examples(ks):
    assert goal_class(ks, "Win(Dok)") == frozenset({"QD1", "QD2", "QD3"})
    assert goal_class(ks, "Win(Fok)") == frozenset({"QF1"})
    with pytest.raises(UnknownGoalError):
        goal_class(ks, "Day=Fri")


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


def test_entropy_accepts_strings():
    assert shannon_entropy(["1/4", "1/4", "1/2"]) == 1.5


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
    with pytest.raises(NotADistributionError, match="exponent"):
        shannon_entropy(["1e-999999999", "1"])


def test_entropy_entry_below_float_range_adds_zero():
    assert shannon_entropy(["1e-400", "0." + "9" * 400]) == 0.0
