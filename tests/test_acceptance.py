"""Acceptance suite: one test per criterion, each printing a PASS line.

The numeric criteria are checked against an oracle implemented here from
scratch on a restated copy of the example system: supports by direct
containment scans, masses as exact rationals, weights via the ratio form of
the definition (the package's primary path uses the difference form). Run
with -s to see the per-criterion lines; the test outcomes themselves give
the same pass/fail signal.
"""

import itertools
import json
import math
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from proofinfo import (
    average_speed,
    brd,
    builtin_example,
    builtin_world,
    certainty_threshold,
    check_knowledge_system,
    check_proof,
    day_is,
    enumerate_proofs,
    is_certain,
    max_subset_weight,
    parse_kformula,
    parse_knowledge_system,
    profile,
    proof_measure,
    serialize_knowledge_system,
    shannon_entropy,
    weight,
)
from frozen import (
    DAY_FACT_WEIGHT,
    LOG2_3,
    PAIR_WEIGHT,
    QB3_MAX_WEIGHTS,
    SINGLE_BROADCAST_WEIGHT,
    TRIPLE_WEIGHT,
)
from oracles import max_subset_weight_exhaustive, weight_ratio_form
from randsys import random_subset, random_system

GOLDEN = Path(__file__).parent / "golden" / "demo.json"

# ---------------------------------------------------------------------------
# independent oracle over a restated copy of the example system
# ---------------------------------------------------------------------------

ORACLE_GOALS = ("Win(Bok)", "Win(Dok)", "Win(Fok)")
ORACLE_PROOFS = {
    "QB1": frozenset({"Day=Fri", "Brd(R2,Bok)", "Win(Bok)"}),
    "QB2": frozenset({"Day≠Fri", "Brd(R2,Dok)", "Brd(R1,Bok)", "Win(Bok)"}),
    "QB3": frozenset({"Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)", "Brd(R3,Fok)",
                      "¬Win(Fok)", "Win(Bok)"}),
    "QD1": frozenset({"Brd(R1,Dok)", "Win(Dok)"}),
    "QD2": frozenset({"Day=Fri", "Brd(R3,Fok)", "Brd(R2,Dok)", "Win(Dok)"}),
    "QD3": frozenset({"Day=Fri", "Brd(R3,Fok)", "Brd(R1,Dok)", "Brd(R2,Dok)", "Win(Dok)"}),
    "QF1": frozenset({"Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)", "Brd(R3,Bok)",
                      "¬Win(Bok)", "Win(Fok)"}),
}


def _oracle_goal_of(pid):
    (g,) = [g for g in ORACLE_GOALS if g in ORACLE_PROOFS[pid]]
    return g


_ORACLE_MASS = {
    pid: Fraction(1, len(ORACLE_GOALS)
                  * sum(1 for q in ORACLE_PROOFS if _oracle_goal_of(q) == _oracle_goal_of(pid)))
    for pid in ORACLE_PROOFS
}


def _oracle_support(subset):
    wanted = frozenset(subset)
    return {pid for pid, body in ORACLE_PROOFS.items() if wanted <= body}


def _oracle_weight(subset):
    ids = _oracle_support(subset)
    total = sum((_ORACLE_MASS[pid] for pid in ids), Fraction(0))
    if total == 0:
        return 0.0
    acc = 0.0
    for g in ORACLE_GOALS:
        m = sum((_ORACLE_MASS[pid] for pid in ids if _oracle_goal_of(pid) == g), Fraction(0))
        if m:
            acc -= float(m) * math.log2(m / total)
    return acc


def _oracle_settled(subset):
    ids = _oracle_support(subset)
    return not ids or len({_oracle_goal_of(pid) for pid in ids}) == 1


def _oracle_threshold(pid):
    body = sorted(ORACLE_PROOFS[pid])
    for k in range(1, len(body) + 1):
        if all(_oracle_settled(c) for c in itertools.combinations(body, k)):
            return k
    raise AssertionError(f"no settling size for {pid}")


def _passed(number, label):
    print(f"criterion {number:02d} ({label}): PASS")


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_c01_fixture_measure_exact(ks, measure):
    for pid in ("QB1", "QB2", "QB3", "QD1", "QD2", "QD3"):
        assert measure.per_proof[pid] == Fraction(1, 9)
    assert measure.per_proof["QF1"] == Fraction(1, 3)
    _passed(1, "fixture measure exact")


def test_c02_worked_weights(ks, measure):
    cases = [
        ({"Day=Fri"}, 0.31, DAY_FACT_WEIGHT),
        ({"Brd(R2,Dok)"}, 1.21, SINGLE_BROADCAST_WEIGHT),
        ({"Day≠Fri", "Brd(R2,Dok)"}, 0.54, PAIR_WEIGHT),
        ({"Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)"}, 0.36, TRIPLE_WEIGHT),
    ]
    for subset, rounded, frozen in cases:
        oracle = _oracle_weight(subset)
        assert oracle == pytest.approx(frozen, abs=1e-9)  # frozen values reproduce
        value = weight(ks, measure, subset).value
        assert value == pytest.approx(rounded, abs=0.005)
        assert value == pytest.approx(frozen, abs=1e-5)
    _passed(2, "worked weights, low- and high-precision")


def test_c03_empty_subset_maximal_uncertainty(ks, measure):
    assert weight(ks, measure, set()).value == pytest.approx(LOG2_3, abs=1e-9)
    rng = random.Random(301)
    for _ in range(200):
        system = random_system(rng)
        m = proof_measure(system)
        assert weight(system, m, set()).value == pytest.approx(
            math.log2(system.M), abs=1e-9
        )
    _passed(3, "empty subset weighs log2(M)")


def test_c04_structural_certainty_weighs_exactly_zero():
    rng = random.Random(401)
    checked = 0
    for _ in range(200):
        system = random_system(rng)
        m = proof_measure(system)
        for p in system.proofs:
            candidates = [p.formulas, frozenset(random_subset(rng, p.formulas))]
            for s in candidates:
                if is_certain(system, s):
                    assert weight(system, m, s).value == 0.0
                    checked += 1
    assert checked >= 200
    _passed(4, "certain subsets weigh exactly zero")


def test_c05_weight_antitone_in_subset():
    rng = random.Random(501)
    for _ in range(1000):
        system = random_system(rng)
        m = proof_measure(system)
        p = rng.choice(system.proofs)
        bigger = random_subset(rng, p.formulas)
        smaller = bigger[: rng.randint(0, len(bigger))]
        assert weight(system, m, smaller).value >= weight(system, m, bigger).value - 1e-9
    _passed(5, "weight non-increasing under subset growth")


def test_c06_two_forms_agree():
    rng = random.Random(601)
    for _ in range(1000):
        system = random_system(rng)
        m = proof_measure(system)
        p = rng.choice(system.proofs)
        s = random_subset(rng, p.formulas)
        assert weight_ratio_form(system, m, s) == pytest.approx(
            weight(system, m, s).value, abs=1e-9
        )
    _passed(6, "difference and ratio forms agree")


def test_c07_qb3_and_qb1_profiles(ks, measure):
    prof = profile(ks, measure, "QB3")
    published = [LOG2_3, 1.2107, 0.5394, 0.3606, 0.0, 0.0, 0.0]
    assert list(prof.max_weights) == pytest.approx(published, abs=1e-3)
    assert list(prof.max_weights) == pytest.approx(QB3_MAX_WEIGHTS, abs=1e-9)
    value, _ = max_subset_weight(ks, measure, "QB1", 1)
    assert value == pytest.approx(0.3061, abs=1e-3)
    value, _ = max_subset_weight(ks, measure, "QB1", 2)
    assert value == 0.0
    _passed(7, "QB3 profile and QB1 maxima")


def test_c08_certainty_thresholds(ks):
    for pid, expected in (("QB3", 4), ("QB1", 2), ("QD1", 1)):
        assert _oracle_threshold(pid) == expected
        assert certainty_threshold(ks, pid) == expected
    _passed(8, "certainty thresholds 4/2/1")


def test_c09_pruned_search_equals_exhaustive():
    rng = random.Random(901)
    for _ in range(100):
        system = random_system(rng)
        m = proof_measure(system)
        for p in system.proofs:
            for k in range(len(p.formulas) + 1):
                assert (
                    max_subset_weight(system, m, p.id, k)[0]
                    == max_subset_weight_exhaustive(system, m, p.id, k)
                )
    _passed(9, "pruned search equals exhaustive oracle")


def test_c10_max_weight_monotone_in_size():
    rng = random.Random(1001)
    for _ in range(100):
        system = random_system(rng)
        m = proof_measure(system)
        for p in system.proofs:
            prof = profile(system, m, p.id)
            for a, b in zip(prof.max_weights, prof.max_weights[1:]):
                assert a >= b - 1e-9
    _passed(10, "worst-case weight non-increasing in subset size")


def test_c11_entropy_baseline():
    assert shannon_entropy([Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]) == pytest.approx(
        1.5, abs=1e-9
    )
    assert shannon_entropy([Fraction(1, 8), Fraction(7, 16), Fraction(7, 16)]) == pytest.approx(
        1.4186, abs=1e-3
    )
    assert shannon_entropy([Fraction(1, 3)] * 3) == pytest.approx(LOG2_3, abs=1e-9)
    _passed(11, "entropy baseline values")


def test_c12_fixture_checks_and_mutants(ks, world):
    results = {c.proof_id: c for c in check_knowledge_system(world, ks)}
    assert all(c.valid for c in results.values())

    # one premise-deletion mutant per proof; predictions follow from which
    # premises actually carry the derivation
    mutants = [
        ("QB1", "Day=Fri", False),        # R2's verdict needs the day
        ("QB2", "Brd(R1,Bok)", False),    # only winning route to Win(Bok)
        ("QB3", "Brd(R3,Fok)", False),    # the ¬Win(Fok) step loses its source
        ("QD1", "Brd(R1,Dok)", False),    # nothing left to derive the goal from
        ("QD2", "Brd(R3,Fok)", True),     # extraneous broadcast
        ("QD3", "Brd(R1,Dok)", True),     # redundant route, R2+Friday still works
        ("QF1", "Day≠Fri", False),        # disjunction step loses R2's verdict
    ]
    goal_forms = {parse_kformula(g, world) for g in ks.goals}
    for pid, removed, expect_valid in mutants:
        listing = [
            parse_kformula(t, world) for t in ks.by_id[pid].listing if t != removed
        ]
        checked = check_proof(world, listing, goal_forms, proof_id=f"{pid}-mutant")
        assert checked.valid is expect_valid, (pid, removed, checked.violations)
    qb1_listing = [
        parse_kformula(t, world) for t in ks.by_id["QB1"].listing if t != "Day=Fri"
    ]
    checked = check_proof(world, qb1_listing, goal_forms)
    assert any("R2 reliability unknown" in reason for _, reason in checked.violations)
    _passed(12, "fixture proofs valid, mutants as predicted")


def test_c13_enumerator_roundtrip(ks, world):
    result = enumerate_proofs(world, {day_is("Fri"), brd("R2", "Bok")}, max_steps=20)
    assert len(result.proofs) == 1
    listing = result.proofs[0]
    assert set(listing.texts()) == set(ks.by_id["QB1"].formulas)

    scenarios = [
        {day_is("Fri"), brd("R2", "Bok")},
        {brd("R1", "Dok")},
        {day_is("Fri"), brd("R3", "Fok"), brd("R2", "Dok")},
        {parse_kformula("Day≠Fri", world), brd("R2", "Dok"), brd("R3", "Fok")},
    ]
    for data in scenarios:
        res = enumerate_proofs(world, data, max_steps=50)
        assert res.proofs
        for lst in res.proofs:
            checked = check_proof(world, lst.formulas, {lst.goal}, strict=True)
            assert checked.valid, (lst.texts(), checked.violations)
    _passed(13, "enumerated proofs re-check strictly")


def test_c14_demo_deterministic_and_golden():
    cmd = [sys.executable, "-m", "proofinfo", "demo"]
    first = subprocess.run(cmd, capture_output=True, check=True)
    second = subprocess.run(cmd, capture_output=True, check=True)
    assert first.stdout == second.stdout
    assert first.stderr == b"" and second.stderr == b""
    assert first.stdout == GOLDEN.read_bytes()
    _passed(14, "demo output byte-identical and matches golden file")


def test_fixture_file_matches_builtin():
    # the committed data file is the serialized builtin example
    committed = json.loads((Path(__file__).parent / "data" / "fixture.json").read_text(
        encoding="utf-8"
    ))
    assert parse_knowledge_system(committed) == builtin_example()
    assert committed == serialize_knowledge_system(builtin_example())
