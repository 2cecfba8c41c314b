"""Seeded random knowledge systems, and a Hypothesis strategy, for property tests."""

from __future__ import annotations

import random

from hypothesis import strategies as st

from proofinfo import KnowledgeSystem


def random_system(
    rng: random.Random,
    max_goals: int = 4,
    max_class_size: int = 3,
    max_fillers: int = 8,
    max_extra: int = 5,
) -> KnowledgeSystem:
    """A small valid system: every goal covered, bodies pairwise distinct."""
    goals = [f"g{i}" for i in range(rng.randint(1, max_goals))]
    fillers = [f"f{i}" for i in range(rng.randint(1, max_fillers))]
    proofs: list[tuple[str, list[str]]] = []
    seen: set[frozenset[str]] = set()
    n = 0
    for g in goals:
        for _ in range(rng.randint(1, max_class_size)):
            extra = rng.sample(fillers, k=rng.randint(0, min(max_extra, len(fillers))))
            body = frozenset([g, *extra])
            if body in seen:
                body = frozenset([*body, f"u{n}"])  # fresh token keeps bodies distinct
            seen.add(body)
            proofs.append((f"P{n}", sorted(body)))
            n += 1
    return KnowledgeSystem(goals, proofs)


def random_subset(rng: random.Random, formulas: frozenset[str]) -> list[str]:
    items = sorted(formulas)
    return rng.sample(items, k=rng.randint(0, len(items)))


@st.composite
def systems(draw, max_goals: int = 5, max_class_size: int = 4, max_formulas: int = 8):
    """Hypothesis strategy for small valid systems of up to `max_formulas` per proof.

    Fillers are shared across goals so supports straddle classes; a body
    drawn twice is dropped, which never uncovers a goal (a goal's first body
    is the only one holding that goal so far).
    """
    # goals out of sorted order, so a mapping keyed in sorted order shows
    goals = draw(st.permutations([f"g{i}" for i in range(draw(st.integers(1, max_goals)))]))
    fillers = [f"f{i}" for i in range(draw(st.integers(1, max_formulas)))]
    proofs: list[tuple[str, list[str]]] = []
    seen: set[frozenset[str]] = set()
    for g in goals:
        for _ in range(draw(st.integers(1, max_class_size))):
            extra = draw(st.sets(st.sampled_from(fillers), max_size=max_formulas - 1))
            body = frozenset([g, *extra])
            if body not in seen:
                seen.add(body)
                proofs.append((f"P{len(proofs)}", sorted(body)))
    return KnowledgeSystem(goals, proofs)
