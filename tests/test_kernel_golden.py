"""Golden pins for the kernel: `check` reports on the fixture and the
forward chainer's listings on seeded user data in a six-participant world."""

import json
import random
from pathlib import Path

import pytest

from proofinfo import WorldSpec, brd, day_is, day_not, enumerate_proofs
from proofinfo.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

PARTICIPANTS = ("Ana", "Bok", "Dok", "Eli", "Fok", "Gus")
DAYS = ("Mon", "Tue", "Wed", "Thu")
SOURCES = {
    "R1": DAYS,
    "R2": (),
    "R3": ("Mon", "Tue"),
    "R4": ("Wed",),
    "R5": ("Tue", "Wed", "Thu"),
}
WORLD = WorldSpec(
    participants=PARTICIPANTS,
    day_domain=DAYS,
    truthful_days={name: frozenset(days) for name, days in SOURCES.items()},
)

# (seed, max_steps, include_disjunctive): the default budget, a budget small
# enough to cut the chaining short, and a few runs with disjunctive goals,
# which list every derived disjunction
CASES = (
    *((seed, 100, False) for seed in range(24)),
    *((seed, 6, True) for seed in range(24)),
    *((seed, 100, True) for seed in range(4)),
)


@pytest.mark.parametrize(
    ("flags", "golden"), [((), "check.json"), (("--strict",), "check_strict.json")]
)
def test_check_fixture_matches_golden(capsys, flags, golden):
    main(["check", str(DATA / "world.json"), str(DATA / "fixture.json"), *flags])
    results = json.loads(capsys.readouterr().out)["results"]
    assert results == json.loads((GOLDEN / golden).read_text(encoding="utf-8"))


def user_data(rng: random.Random) -> list:
    """Seeded day facts and broadcasts. Half the draws knock out every
    participant but one through broadcasts deceitful on a fixed day, which
    forces disjunction-elimination chains; the rest are arbitrary broadcasts
    under a fixed day, excluded days, or no day fact at all."""
    day = rng.choice(DAYS)
    if rng.random() < 0.5:
        winner = rng.choice(PARTICIPANTS)
        deceitful = [s for s, days in SOURCES.items() if day not in days]
        facts = [day_is(day)]
        facts += [brd(rng.choice(deceitful), p) for p in PARTICIPANTS if p != winner]
        if rng.random() < 0.3:
            facts.append(brd(rng.choice(sorted(SOURCES)), rng.choice(PARTICIPANTS)))
        return facts
    mode = rng.random()
    if mode < 0.4:
        facts = [day_is(day)]
    elif mode < 0.7:
        facts = [day_not(d) for d in DAYS if d != day and rng.random() < 0.6]
    else:
        facts = []
    for _ in range(rng.randint(1, 7)):
        facts.append(brd(rng.choice(sorted(SOURCES)), rng.choice(PARTICIPANTS)))
    return facts


def enumeration_cases() -> list[dict]:
    cases = []
    for seed, max_steps, include_disjunctive in CASES:
        data = user_data(random.Random(seed))
        result = enumerate_proofs(
            WORLD, data, max_steps=max_steps, include_disjunctive=include_disjunctive
        )
        cases.append({
            "seed": seed,
            "max_steps": max_steps,
            "include_disjunctive": include_disjunctive,
            "data": sorted(f.text() for f in data),
            "proofs": [[p.goal.text(), *p.texts()] for p in result.proofs],
            "contradictions": list(result.contradictions),
        })
    return cases


def test_enumerate_matches_golden():
    golden = json.loads((GOLDEN / "enumerate.json").read_text(encoding="utf-8"))
    assert enumeration_cases() == golden
