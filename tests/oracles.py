"""Slow reference computations the tests check the package against.

Each evaluates a definition directly, without the rewrite or the pruning the
package uses, so it is an independent cross-check and not a computation path;
that is why these live with the tests rather than in the package.
"""

import itertools
import math
from fractions import Fraction

from proofinfo import Support, WeightProfile, WeightResult
from proofinfo.errors import SizeOutOfRangeError


def support_ids_scan(ks, subset) -> frozenset:
    """Same ids as support_ids(), by testing every proof for containment."""
    wanted = frozenset(subset)
    return frozenset(p.id for p in ks.proofs if wanted <= p.formulas)


def support_by_class_scan(ks, measure, subset) -> Support:
    """Same support as support(), by scanning every goal class for members.

    Each class's mass sums the masses of its proofs that lie in the support;
    the total sums the masses of the member proofs a second time.
    """
    ids = support_ids_scan(ks, subset)
    per_goal = {
        g: sum((measure.per_proof[pid] for pid in ks.classes[g] if pid in ids),
               Fraction(0))
        for g in ks.goals
    }
    total = sum((measure.per_proof[pid] for pid in ids), Fraction(0))
    return Support(proofs=ids, per_goal_mass=per_goal, total_mass=total)


def weight_by_fractions(ks, measure, subset) -> WeightResult:
    """Same result as weight(), from support_by_class_scan's Fraction masses.

    The difference form sum_g -m_g * log2(m_g) + T * log2(T), its float
    terms added by math.fsum (so in no particular order) with 0*log(0) = 0
    (also for a mass whose float is 0), 0.0 where it rounds below 0, and
    exactly 0.0 for a support that is empty or inside one goal class.
    """
    sup = support_by_class_scan(ks, measure, subset)
    empty = not sup.proofs
    settled = len({ks.by_id[pid].goal for pid in sup.proofs}) <= 1
    value = 0.0
    if not settled:
        total = float(sup.total_mass)
        terms = [total * math.log2(total)] if total else []
        for g in ks.goals:
            m = float(sup.per_goal_mass[g])
            if m:
                terms.append(-m * math.log2(m))
        value = math.fsum(terms)
    return WeightResult(
        value=value if value > 0.0 else 0.0,
        support=sup,
        certain=settled and not empty,
        empty_support=empty,
    )


def weight_ratio_form(ks, measure, subset) -> float:
    """The weight evaluated as sum_g -m_g * log2(m_g / T), skipping zero terms.

    Algebraically equal to weight(), which evaluates the difference form.
    """
    sup = support_by_class_scan(ks, measure, subset)
    if not sup.proofs:
        return 0.0
    acc = 0.0
    for g in ks.goals:
        m = sup.per_goal_mass[g]
        if m:
            acc -= float(m) * math.log2(m / sup.total_mass)
    return acc


def certainty_threshold_scan(ks, proof_id) -> int:
    """Same threshold as certainty_threshold(), as 1 + the largest overlap
    |P & Q| of the proof P with a proof Q of another goal, by intersecting
    the formula sets."""
    p = ks.by_id[proof_id]
    others = (len(p.formulas & q.formulas) for q in ks.proofs if q.goal != p.goal)
    return 1 + max(others, default=0)


def max_subset_weight_exhaustive(ks, measure, proof_id, size) -> float:
    """Same maximum as max_subset_weight, by plain enumeration (no pruning).

    Intended for small proofs.
    """
    p = ks.by_id[proof_id]
    items = sorted(p.formulas)
    if not 0 <= size <= len(items):
        raise SizeOutOfRangeError(f"size {size} outside 0..{len(items)} for proof {p.id!r}")
    return max(
        weight_by_fractions(ks, measure, combo).value
        for combo in itertools.combinations(items, size)
    )


def profile_exhaustive(ks, measure, proof_id) -> WeightProfile:
    """Same profile as profile(), by plain enumeration of every subset.

    The maximum and the first maximizer in itertools.combinations order for
    each size, the certainty threshold as the smallest size whose subsets all
    have an empty or single-class support, and both averages. Intended for
    small proofs.
    """
    p = ks.by_id[proof_id]
    items = sorted(p.formulas)
    n = len(items)
    values, witnesses = [], []
    for k in range(n + 1):
        best, first = -math.inf, ()
        for combo in itertools.combinations(items, k):
            value = weight_by_fractions(ks, measure, combo).value
            if value > best:
                best, first = value, combo
        values.append(best)
        witnesses.append(first)
    threshold = next(
        k
        for k in range(1, n + 1)
        if all(
            len({ks.by_id[pid].goal for pid in support_ids_scan(ks, combo)}) <= 1
            for combo in itertools.combinations(items, k)
        )
    )
    if threshold > 1:
        speed = sum(values[i] - values[i + 1] for i in range(1, threshold)) / (threshold - 1)
    else:
        speed = 0.0
    return WeightProfile(
        proof_id=p.id,
        max_weights=tuple(values),
        witnesses=tuple(witnesses),
        certainty_threshold=threshold,
        average_weight=sum(values[1:]) / n,
        average_speed=speed,
    )


def holds(formula, world, day, winner) -> bool:
    """Whether a kernel formula is true in the model where `winner` wins on `day`.

    A broadcast Brd(R,a) is true when a wins exactly if R is truthful that day.
    """
    if formula.kind == "day_is":
        return day == formula.day
    if formula.kind == "day_not":
        return day != formula.day
    if formula.kind == "brd":
        return (winner == formula.participant) == (day in world.truthful_days[formula.source])
    if formula.kind == "win":
        return winner == formula.participant
    if formula.kind == "not_win":
        return winner != formula.participant
    return winner in formula.participants


def models(world, facts) -> list:
    """The (day, winner) pairs of the world in which every formula of `facts` holds."""
    facts = list(facts)
    return [
        (day, winner)
        for day in world.day_domain
        for winner in world.participants
        if all(holds(f, world, day, winner) for f in facts)
    ]
