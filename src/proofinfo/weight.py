"""Entropic weight of formula subsets and structural certainty.

The entropic weight of a subset S measures how much uncertainty about the
goal remains once S is known: it is the entropy-style functional of the
per-goal mass split of S's support. It is log2(M) at S = {} and exactly 0
once the support sits inside a single goal class.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

from .measure import ProbabilityMeasure, _goal_masses, _require_system, _support, _support_mask
from .model import KnowledgeSystem, _Memo, _Record


class WeightResult(_Record):
    """Weight of one subset, the support it was weighed on, and the structural
    facts behind the number.

    `certain` and `empty_support` are decided by set containment, never by
    comparing a float to zero; when either holds, `value` is exactly 0.0.
    """

    __slots__ = ("value", "support", "certain", "empty_support")


def _rivals(ks: KnowledgeSystem, goal: str) -> int:
    """Mask of the proofs of goals other than `goal`; a proof contains a goal
    exactly when that goal is its own, so the goal's own mask is its class."""
    return _support_mask(ks, ()) ^ ks._formula_masks[goal]


def _structural_zero(ks: KnowledgeSystem, mask: int) -> bool:
    """True iff the support `mask` is empty or inside one goal class, that is
    when it meets no rival of its first member; its weight is then exactly 0.
    Purely structural; needs no measure and no floating point."""
    if not mask:
        return True
    first = ks.proofs[(mask & -mask).bit_length() - 1]
    return not mask & _rivals(ks, first.goal)


def _log_terms(measure: ProbabilityMeasure) -> _Memo:
    """-m * log2(m) for the mass m = n / L of `measure`, keyed by the integer
    n and computed on first use; 0.0 for a mass whose float is 0, which adds
    no term (0*log(0) = 0). A search builds one table and weight() its own."""
    denominator = measure._denominator

    def term(n: int) -> float:
        m = n / denominator
        return -m * math.log2(m) if m else 0.0

    return _Memo(term)


def _difference_form(masses: list[int], terms: _Memo) -> float:
    """sum_g -m_g * log2(m_g) + T * log2(T) for the masses m_g = masses[g] / L
    and their total T, with 0*log(0) = 0 also for a float 0, and 0.0 where
    the terms cancel to below 0: a weight is never negative.

    Each int/int division is correctly rounded, so every term equals the
    float of the exact Fraction mass, and T * log2(T) is the exact negation
    of T's table entry; math.fsum rounds the exact sum of the terms once, so
    the value does not depend on the order of the goals, and a zero term
    changes nothing."""
    value = math.fsum([*map(terms.__getitem__, masses), -terms[sum(masses)]])
    return value if value > 0.0 else 0.0


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
    _require_system(ks, measure)
    masses = _goal_masses(measure, mask)
    # a structural zero's two log terms cancel exactly: its value is 0.0
    settled = _structural_zero(ks, mask)
    value = 0.0 if settled else _difference_form(masses, _log_terms(measure))
    return WeightResult(
        value=value,
        support=_support(ks, measure, mask, masses),
        certain=settled and mask != 0,
        empty_support=mask == 0,
    )
