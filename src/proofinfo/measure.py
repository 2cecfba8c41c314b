"""Maximum-uncertainty probability measure over proofs, supports, and entropy.

All probabilities are exact rationals (fractions.Fraction); floating point
enters only through logarithms. The measure is fully determined by the
knowledge system: goals are equiprobable, and within a goal class every
proof is equiprobable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import NotADistributionError, UnknownGoalError
from .model import KnowledgeSystem, _parse_probability


@dataclass(frozen=True)
class ProbabilityMeasure:
    """Exact per-proof and per-goal masses, as read-only mappings."""

    per_proof: Mapping[str, Fraction]
    per_goal: Mapping[str, Fraction]


@dataclass(frozen=True)
class Support:
    """The proofs containing a formula subset, with their exact masses.

    per_goal_mass is read-only, keyed in goal order; total_mass is its sum,
    which is the mass of the member proofs since each proof has one goal.
    """

    proofs: frozenset[str]
    per_goal_mass: Mapping[str, Fraction]
    total_mass: Fraction


def proof_measure(ks: KnowledgeSystem) -> ProbabilityMeasure:
    """The maximum-uncertainty measure: mass 1/(M * class size) per proof."""
    per_proof = MappingProxyType({
        p.id: Fraction(1, ks.M * len(ks.classes[p.goal])) for p in ks.proofs
    })
    per_goal = MappingProxyType({g: Fraction(1, ks.M) for g in ks.goals})
    return ProbabilityMeasure(per_proof=per_proof, per_goal=per_goal)


def goal_class(ks: KnowledgeSystem, goal: str) -> frozenset[str]:
    """Ids of the proofs whose goal is `goal`."""
    if goal not in ks.goal_set:
        raise UnknownGoalError(f"{goal!r} is not a goal of this knowledge system")
    return frozenset(ks.classes[goal])


def support_ids(ks: KnowledgeSystem, subset: Iterable[str]) -> frozenset[str]:
    """Ids of the proofs whose formula set contains every formula of `subset`."""
    wanted = frozenset(subset)
    return frozenset(p.id for p in ks.proofs if wanted <= p.formulas)


def support(
    ks: KnowledgeSystem, measure: ProbabilityMeasure, subset: Iterable[str]
) -> Support:
    """Support of a formula subset with exact per-goal mass split.

    Any subset is legal: the empty set selects every proof, a formula absent
    from all proofs yields an empty support with mass zero.
    """
    ids = support_ids(ks, subset)
    per_goal = dict.fromkeys(ks.goals, Fraction(0))
    for pid in ids:
        per_goal[ks.by_id[pid].goal] += measure.per_proof[pid]
    total = sum(per_goal.values(), Fraction(0))
    return Support(proofs=ids, per_goal_mass=MappingProxyType(per_goal), total_mass=total)


def shannon_entropy(dist: Iterable[Fraction | int | str]) -> float:
    """Shannon entropy in bits of an exact distribution, with 0*log(0) = 0.

    Entries must be nonnegative rationals summing to one exactly (strings
    like "1/4" are read exactly); an entry too small for a float adds 0.
    """
    try:
        probs = [_parse_probability(p) for p in dist]
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise NotADistributionError(f"not an exact probability: {exc}") from exc
    if any(p < 0 for p in probs):
        raise NotADistributionError("probabilities must be nonnegative")
    total = sum(probs, Fraction(0))
    if total != 1:
        raise NotADistributionError(f"probabilities sum to {total}, not 1")
    acc = 0.0
    for x in map(float, probs):
        if x > 0:
            acc -= x * math.log2(x)
    return acc
