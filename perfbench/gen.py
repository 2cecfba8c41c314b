"""Seeded input generator for the benchmark (standard library only).

Every function draws from the `random.Random` it is given and returns plain
JSON documents, so the same seed always yields byte-identical files. The
program under test sees only the files run.py writes from them.
"""

from __future__ import annotations

import json
import random

# A formula that no generated proof contains: a subset holding it has an
# empty support.
ABSENT_FORMULA = "zz-absent"

PARTICIPANTS = ("Ana", "Bok", "Dok", "Eli", "Fok", "Gus")
DAYS = ("Mon", "Tue", "Wed", "Thu")
# name -> days on which the source is truthful
SOURCES = {
    "R1": DAYS,
    "R2": DAYS,
    "R3": (),
    "R4": (),
    "R5": (),
    "R6": ("Mon", "Tue"),
    "R7": ("Wed",),
    "R8": ("Tue", "Wed", "Thu"),
}


def dump(document: object) -> str:
    """JSON text with insertion key order and UTF-8 symbols kept."""
    return json.dumps(document, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# knowledge systems for weight and profile
# ---------------------------------------------------------------------------

def knowledge_system(
    rng: random.Random, goals: int, class_size: int, proof_len: int, vocabulary: int
) -> dict:
    """`goals` x `class_size` proofs; each is its goal plus proof_len - 1 fillers
    drawn without replacement from a shared vocabulary of `vocabulary` formulas.
    Bodies are pairwise distinct."""
    goal_names = [f"g{i:02d}" for i in range(goals)]
    fillers = [f"f{i:02d}" for i in range(vocabulary)]
    seen: set[frozenset[str]] = set()
    proofs = []
    for g in goal_names:
        for _ in range(class_size):
            while True:
                body = [g, *rng.sample(fillers, proof_len - 1)]
                if frozenset(body) not in seen:
                    break
            seen.add(frozenset(body))
            proofs.append({"id": f"P{len(proofs):04d}", "formulas": body})
    return {"goals": goal_names, "proofs": proofs}


def weight_subsets(rng: random.Random, document: dict, count: int) -> list[list[str]]:
    """A seeded mix of 0-4 formula subsets: drawn from one proof, with a formula
    no proof contains added, or the empty subset."""
    subsets = []
    for _ in range(count):
        kind = rng.random()
        if kind < 0.1:
            subsets.append([])
            continue
        proof = rng.choice(document["proofs"])["formulas"]
        subset = rng.sample(proof, rng.randint(1, 4))
        if kind < 0.25:
            subset[rng.randrange(len(subset))] = ABSENT_FORMULA
        subsets.append(subset)
    return subsets


# ---------------------------------------------------------------------------
# world and kernel listings for check
# ---------------------------------------------------------------------------

def world_document() -> dict:
    sources = {}
    for name, days in SOURCES.items():
        if len(days) == len(DAYS):
            sources[name] = "always_truthful"
        elif not days:
            sources[name] = "always_deceitful"
        else:
            sources[name] = {"truthful_on": list(days)}
    return {"participants": list(PARTICIPANTS), "day_domain": list(DAYS), "sources": sources}


def user_data(rng: random.Random) -> list[str]:
    """Day facts plus broadcasts that knock out every participant but one.

    Each knocked-out participant gets a broadcast from a source that is
    deceitful on the chosen day, so the winner is reached only through a chain
    of disjunction eliminations. Sometimes a truthful broadcast about the
    winner, or a second knock-out of the same participant, is added.
    """
    day = rng.choice(DAYS)
    winner = rng.choice(PARTICIPANTS)
    facts = [f"Day={day}"]
    if rng.random() < 0.3:
        facts.append(f"Day≠{rng.choice([d for d in DAYS if d != day])}")
    deceitful = [s for s, days in SOURCES.items() if day not in days]
    truthful = [s for s, days in SOURCES.items() if day in days]
    for p in PARTICIPANTS:
        if p == winner:
            continue
        for source in rng.sample(deceitful, 2 if rng.random() < 0.2 else 1):
            facts.append(f"Brd({source},{p})")
    if rng.random() < 0.15:
        facts.append(f"Brd({rng.choice(truthful)},{winner})")
    return facts


def kernel_listings(rng: random.Random, count: int) -> list[list[str]]:
    """`count` distinct single-goal listings enumerated by the kernel's own
    forward chainer from seeded user data."""
    from proofinfo import enumerate_proofs, parse_kformula, parse_world

    world = parse_world(world_document())
    goals = {f"Win({p})" for p in PARTICIPANTS}
    listings: list[list[str]] = []
    seen: set[frozenset[str]] = set()
    while len(listings) < count:
        data = [parse_kformula(t, world) for t in user_data(rng)]
        for listing in enumerate_proofs(world, data).proofs:
            texts = list(listing.texts())
            body = frozenset(texts)
            if len(goals & body) == 1 and body not in seen and len(listings) < count:
                seen.add(body)
                listings.append(texts)
    return listings


def check_system(listings: list[list[str]], rng: random.Random, broken_share: float) -> tuple[dict, list[bool]]:
    """A knowledge system of the listings, with a seeded share of them made
    invalid by moving the goal to the front. Returns (document, validity)."""
    goals = sorted({t for listing in listings for t in listing if t.startswith("Win(") and "∨" not in t})
    proofs, valid = [], []
    broken = set(rng.sample(range(len(listings)), round(broken_share * len(listings))))
    for i, listing in enumerate(listings):
        if i in broken:
            goal = next(t for t in listing if t in goals)
            listing = [goal, *(t for t in listing if t != goal)]
        proofs.append({"id": f"L{i:03d}", "formulas": listing})
        valid.append(i not in broken)
    return {"goals": goals, "proofs": proofs}, valid
