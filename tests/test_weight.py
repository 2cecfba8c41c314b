import math
import random
from fractions import Fraction

import pytest

from proofinfo import is_certain, proof_measure, weight
from frozen import (
    DAY_FACT_WEIGHT,
    PAIR_WEIGHT,
    SINGLE_BROADCAST_WEIGHT,
    TRIPLE_WEIGHT,
)
from oracles import weight_ratio_form
from randsys import random_subset, random_system


def test_worked_weights(ks, measure):
    assert weight(ks, measure, {"Day=Fri"}).value == pytest.approx(DAY_FACT_WEIGHT, abs=1e-9)
    assert weight(ks, measure, {"Brd(R2,Dok)"}).value == pytest.approx(
        SINGLE_BROADCAST_WEIGHT, abs=1e-9
    )
    assert weight(ks, measure, {"Day≠Fri", "Brd(R2,Dok)"}).value == pytest.approx(
        PAIR_WEIGHT, abs=1e-9
    )
    assert weight(
        ks, measure, {"Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)"}
    ).value == pytest.approx(TRIPLE_WEIGHT, abs=1e-9)


def test_worked_per_goal_masses(ks, measure):
    res = weight(ks, measure, {"Brd(R2,Dok)"})
    assert res.per_goal_terms == {
        "Win(Bok)": Fraction(2, 9),
        "Win(Dok)": Fraction(2, 9),
        "Win(Fok)": Fraction(1, 3),
    }
    assert res.support_size == 5
    res = weight(ks, measure, {"Day≠Fri", "Brd(R2,Dok)"})
    assert res.per_goal_terms == {
        "Win(Bok)": Fraction(2, 9),
        "Win(Dok)": Fraction(0),
        "Win(Fok)": Fraction(1, 3),
    }
    res = weight(ks, measure, {"Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)"})
    assert res.per_goal_terms == {
        "Win(Bok)": Fraction(1, 9),
        "Win(Dok)": Fraction(0),
        "Win(Fok)": Fraction(1, 3),
    }


def test_empty_subset_weight_is_log_goal_count(ks, measure):
    assert weight(ks, measure, set()).value == pytest.approx(math.log2(3), abs=1e-9)


def test_goal_formula_pins_its_class(ks, measure):
    res = weight(ks, measure, {"Win(Bok)"})
    assert res.value == 0.0
    assert res.certain


def test_empty_support_flagged_not_certain(ks, measure):
    res = weight(ks, measure, {"Zzz"})
    assert res.value == 0.0
    assert res.empty_support
    assert not res.certain
    assert res.support_size == 0


def test_is_certain_examples(ks, measure):
    assert is_certain(ks, {"Win(Dok)"})
    assert not is_certain(ks, {"Day=Fri"})
    assert is_certain(ks, ks.by_id["QB3"].formulas)
    assert not is_certain(ks, {"Zzz"})  # empty support is not certainty


def test_full_proof_bodies_have_zero_weight(ks, measure):
    # any proof containing a full body contains its goal, hence same class
    for p in ks.proofs:
        res = weight(ks, measure, p.formulas)
        assert res.certain
        assert res.value == 0.0


def test_ratio_form_matches_on_fixture(ks, measure):
    subsets = [
        set(),
        {"Day=Fri"},
        {"Brd(R2,Dok)"},
        {"Day≠Fri", "Brd(R2,Dok)"},
        {"Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)"},
        {"Win(Fok)"},
        {"Zzz"},
    ]
    for s in subsets:
        assert weight_ratio_form(ks, measure, s) == pytest.approx(
            weight(ks, measure, s).value, abs=1e-9
        )


def test_ratio_form_matches_on_random_systems():
    rng = random.Random(11)
    for _ in range(100):
        ks = random_system(rng)
        m = proof_measure(ks)
        p = rng.choice(ks.proofs)
        s = random_subset(rng, p.formulas)
        assert weight_ratio_form(ks, m, s) == pytest.approx(weight(ks, m, s).value, abs=1e-9)


def test_empty_set_weight_on_random_systems():
    rng = random.Random(12)
    for _ in range(50):
        ks = random_system(rng)
        m = proof_measure(ks)
        assert weight(ks, m, set()).value == pytest.approx(math.log2(ks.M), abs=1e-9)


def test_certain_subsets_weigh_exactly_zero_on_random_systems():
    rng = random.Random(13)
    for _ in range(50):
        ks = random_system(rng)
        m = proof_measure(ks)
        for p in ks.proofs:
            for s in (p.formulas, random_subset(rng, p.formulas)):
                if is_certain(ks, s):
                    assert weight(ks, m, s).value == 0.0


def test_weight_antitone_under_subset_growth():
    rng = random.Random(14)
    for _ in range(200):
        ks = random_system(rng)
        m = proof_measure(ks)
        p = rng.choice(ks.proofs)
        big = random_subset(rng, p.formulas)
        small = big[: rng.randint(0, len(big))]
        assert weight(ks, m, small).value >= weight(ks, m, big).value - 1e-9


def test_weight_stays_in_range():
    rng = random.Random(15)
    for _ in range(100):
        ks = random_system(rng)
        m = proof_measure(ks)
        p = rng.choice(ks.proofs)
        value = weight(ks, m, random_subset(rng, p.formulas)).value
        assert 0.0 <= value <= math.log2(ks.M) + 1e-9
