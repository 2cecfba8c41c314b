"""Entropic weight of formula subsets and structural certainty.

The entropic weight of a subset S measures how much uncertainty about the
goal remains once S is known: it is the entropy-style functional of the
per-goal mass split of S's support. It is log2(M) at S = {} and exactly 0
once the support sits inside a single goal class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import AbstractSet, Iterable, Mapping

from .measure import ProbabilityMeasure, support, support_ids
from .model import KnowledgeSystem


@dataclass(frozen=True)
class WeightResult:
    """Weight of one subset plus the structural facts behind the number.

    `certain` and `empty_support` are decided by set containment, never by
    comparing a float to zero; when either holds, `value` is exactly 0.0.
    `support_ids` and `total_mass` are the support the weight was computed on.
    """

    value: float
    per_goal_terms: Mapping[str, Fraction]
    support_size: int
    certain: bool
    empty_support: bool
    support_ids: frozenset[str]
    total_mass: Fraction


def _structural_zero(ks: KnowledgeSystem, ids: AbstractSet[str]) -> bool:
    """True iff a support is empty or inside one goal class, exactly when its
    weight is 0. Purely structural; needs no measure and no floating point."""
    return len({ks.by_id[pid].goal for pid in ids}) <= 1


def is_certain(ks: KnowledgeSystem, subset: Iterable[str]) -> bool:
    """True iff the subset's support is nonempty and within one goal class."""
    ids = support_ids(ks, subset)
    return bool(ids) and _structural_zero(ks, ids)


def weight(
    ks: KnowledgeSystem, measure: ProbabilityMeasure, subset: Iterable[str]
) -> WeightResult:
    """Entropic weight of a formula subset, in bits.

    Evaluates the difference form
        sum_g -m_g * log2(m_g)  +  T * log2(T)
    where m_g is the support mass inside goal class g and T their total,
    with the 0*log(0) = 0 convention. This form never divides by a zero
    total. An empty support yields 0 with empty_support set, so a zero is
    never mistaken for certainty.
    """
    sup = support(ks, measure, subset)
    empty = not sup.proofs
    settled = _structural_zero(ks, sup.proofs)
    if settled:
        # the two log terms cancel exactly
        value = 0.0
    else:
        value = float(sup.total_mass) * math.log2(sup.total_mass)
        for g in ks.goals:
            m = sup.per_goal_mass[g]
            if m:
                value -= float(m) * math.log2(m)
    return WeightResult(
        value=value,
        per_goal_terms=sup.per_goal_mass,
        support_size=len(sup.proofs),
        certain=settled and not empty,
        empty_support=empty,
        support_ids=sup.proofs,
        total_mass=sup.total_mass,
    )
