"""Entropic weight of formula subsets and structural certainty.

The entropic weight of a subset S measures how much uncertainty about the
goal remains once S is known: it is the entropy-style functional of the
per-goal mass split of S's support. It is log2(M) at S = {} and exactly 0
once the support sits inside a single goal class.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .measure import ProbabilityMeasure, Support, _goal_masses, _support, _support_mask
from .model import KnowledgeSystem, _Record


class WeightResult(_Record):
    """Weight of one subset, the support it was weighed on, and the structural
    facts behind the number.

    `certain` and `empty_support` are decided by set containment, never by
    comparing a float to zero; when either holds, `value` is exactly 0.0.
    """

    __slots__ = ("value", "support", "certain", "empty_support")

    def __init__(self, value: float, support: Support, certain: bool, empty_support: bool) -> None:
        self._set(value, support, certain, empty_support)


def _structural_zero(ks: KnowledgeSystem, mask: int) -> bool:
    """True iff the support `mask` is empty or inside one goal class, exactly
    when its weight is 0. Purely structural; needs no measure and no floating
    point."""
    hit = False
    for cls in ks._class_masks:
        if mask & cls:
            if hit:
                return False
            hit = True
    return True


def _difference_form(masses: list[int], denominator: int) -> float:
    """sum_g -m_g * log2(m_g) + T * log2(T) for the masses m_g = masses[g] / L
    and their total T, with 0*log(0) = 0 also for a float 0, and 0.0 where
    the terms cancel to below 0: a weight is never negative.

    Each int/int division is correctly rounded, so every term equals the
    float of the exact Fraction mass; math.fsum rounds the exact sum of the
    terms once, so the value does not depend on the order of the goals."""
    terms = []
    for n in masses:
        m = n / denominator
        if m:
            terms.append(-m * math.log2(m))
    total = sum(masses) / denominator
    if total:
        terms.append(total * math.log2(total))
    value = math.fsum(terms)
    return value if value > 0.0 else 0.0


def _weigh(measure: ProbabilityMeasure, mask: int) -> tuple[float, bool]:
    """Weight of the support `mask` and whether it is a structural zero; when
    it is, the two log terms cancel exactly and the value is 0.0."""
    if _structural_zero(measure.system, mask):
        return 0.0, True
    return _difference_form(_goal_masses(measure, mask), measure._denominator), False


def weight(
    ks: KnowledgeSystem, measure: ProbabilityMeasure, subset: Iterable[str]
) -> WeightResult:
    """Entropic weight of a formula subset, in bits.

    Evaluates the difference form
        sum_g -m_g * log2(m_g)  +  T * log2(T)
    where m_g is the support mass inside goal class g and T their total,
    with the 0*log(0) = 0 convention. This form never divides by a zero
    total, and a value it rounds below 0 is 0.0. An empty support yields 0
    with empty_support set, so a zero is never mistaken for certainty.
    """
    mask = _support_mask(ks, subset)
    sup = _support(ks, measure, mask)
    value, settled = _weigh(measure, mask)
    return WeightResult(
        value=value, support=sup, certain=settled and mask != 0, empty_support=mask == 0
    )
