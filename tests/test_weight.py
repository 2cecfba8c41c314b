import importlib
import math
import random
from fractions import Fraction
from types import MappingProxyType

import pytest

from proofinfo import (
    KnowledgeSystem,
    ProbabilityMeasure,
    profile,
    proof_measure,
    weight,
)
from proofinfo.report import weight_entry
from frozen import (
    DAY_FACT_WEIGHT,
    PAIR_WEIGHT,
    SINGLE_BROADCAST_WEIGHT,
    TRIPLE_WEIGHT,
)
from oracles import profile_exhaustive, weight_by_fractions, weight_ratio_form
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
    assert res.support.per_goal_mass == {
        "Win(Bok)": Fraction(2, 9),
        "Win(Dok)": Fraction(2, 9),
        "Win(Fok)": Fraction(1, 3),
    }
    assert len(res.support.proofs) == 5
    res = weight(ks, measure, {"Day≠Fri", "Brd(R2,Dok)"})
    assert res.support.per_goal_mass == {
        "Win(Bok)": Fraction(2, 9),
        "Win(Dok)": Fraction(0),
        "Win(Fok)": Fraction(1, 3),
    }
    res = weight(ks, measure, {"Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)"})
    assert res.support.per_goal_mass == {
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
    assert len(res.support.proofs) == 0


@pytest.mark.parametrize("tiny", [Fraction(0), Fraction(1, 10**400)])
def test_support_of_float_zero_masses_weighs_zero(tiny):
    # the support of "a" meets both classes, but every mass in it is 0 as a
    # float: exactly 0 for tiny == 0, below the float range otherwise
    ks = KnowledgeSystem(goals=["g", "h"], proofs=[("P1", ["g", "a"]), ("P2", ["h", "a"]), ("P3", ["g"])])
    per_proof = {"P1": tiny, "P2": tiny, "P3": 1 - 2 * tiny}
    measure = ProbabilityMeasure(ks, MappingProxyType(per_proof))
    res = weight(ks, measure, ["a"])
    assert res.value == 0.0
    assert res.certain is False
    assert res.empty_support is False
    # the search weighs {"a"} through its own table of log terms
    assert profile(ks, measure, "P1") == profile_exhaustive(ks, measure, "P1")


def test_weight_computes_the_support_masses_once(ks, measure, monkeypatch):
    # the package binds the name `weight` to the function, so the modules
    # are looked up by name
    calls = []
    for name in ("proofinfo.measure", "proofinfo.weight"):
        module = importlib.import_module(name)
        counted = module._goal_masses

        def wrapper(*args, _fn=counted):
            calls.append(args)
            return _fn(*args)

        monkeypatch.setattr(module, "_goal_masses", wrapper)
    res = weight(ks, measure, {"Day=Fri"})
    assert not res.certain and res.value > 0.0
    assert len(calls) == 1


def test_weight_never_rounds_below_zero():
    # the two log terms of the support of "a" cancel to -4.7e-17 in floats
    ks = KnowledgeSystem(goals=["g", "h"], proofs=[("P1", ["g", "a"]), ("P2", ["h", "a"]), ("P3", ["g"])])
    p1, p2 = Fraction(9967581835502643117, 10**20), Fraction(13, 10**20)
    measure = ProbabilityMeasure(ks, {"P1": p1, "P2": p2, "P3": 1 - p1 - p2})
    assert weight(ks, measure, ["a"]).value >= 0.0
    assert weight_entry(ks, ["a"], weight(ks, measure, ["a"]))["weight_bits"] == "0.000000"
    assert profile(ks, measure, "P1") == profile_exhaustive(ks, measure, "P1")


def test_is_certain_examples(ks, measure):
    assert weight(ks, measure, {"Win(Dok)"}).certain
    assert not weight(ks, measure, {"Day=Fri"}).certain
    assert weight(ks, measure, ks.by_id["QB3"].formulas).certain
    assert not weight(ks, measure, {"Zzz"}).certain  # empty support is not certainty


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
                if weight_by_fractions(ks, m, s).certain:
                    result = weight(ks, m, s)
                    assert result.certain and result.value == 0.0


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


def test_weights_do_not_depend_on_goal_order():
    # the same system with its goals reversed and shuffled; a sum in goal
    # order gave maxima an ulp apart (0.9999999999999999 against
    # 0.9999999999999998 at size 2 for P0 of the seed-13 system)
    for seed in range(60):
        rng = random.Random(seed)
        ks = random_system(rng, max_goals=6, max_class_size=4, max_fillers=8, max_extra=6)
        bodies = [(p.id, p.listing) for p in ks.proofs]
        m = proof_measure(ks)
        for goals in (ks.goals[::-1], rng.sample(ks.goals, len(ks.goals))):
            other = KnowledgeSystem(goals, bodies)
            other_m = proof_measure(other)
            for p in ks.proofs:
                assert profile(other, other_m, p.id) == profile(ks, m, p.id), (seed, p.id)
                pair = p.listing[:2]
                assert weight(other, other_m, pair).value == weight(ks, m, pair).value
