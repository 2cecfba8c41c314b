"""Slow reference computations the tests check the package against.

Each evaluates a definition directly, without the rewrite or the pruning the
package uses, so it is an independent cross-check and not a computation path;
that is why these live with the tests rather than in the package.
"""

import itertools
import math
from fractions import Fraction

from proofinfo import Support, WeightProfile, support, support_ids, weight
from proofinfo.errors import SizeOutOfRangeError


def support_by_class_scan(ks, measure, subset) -> Support:
    """Same support as support(), by scanning every goal class for members.

    Each class's mass sums the masses of its proofs that lie in the support;
    the total sums the masses of the member proofs a second time.
    """
    ids = support_ids(ks, subset)
    per_goal = {
        g: sum((measure.per_proof[pid] for pid in ks.classes[g] if pid in ids),
               Fraction(0))
        for g in ks.goals
    }
    total = sum((measure.per_proof[pid] for pid in ids), Fraction(0))
    return Support(proofs=ids, per_goal_mass=per_goal, total_mass=total)


def weight_ratio_form(ks, measure, subset) -> float:
    """The weight evaluated as sum_g -m_g * log2(m_g / T), skipping zero terms.

    Algebraically equal to weight(), which evaluates the difference form.
    """
    sup = support(ks, measure, subset)
    if not sup.proofs:
        return 0.0
    acc = 0.0
    for g in ks.goals:
        m = sup.per_goal_mass[g]
        if m:
            acc -= float(m) * math.log2(m / sup.total_mass)
    return acc


def max_subset_weight_exhaustive(ks, measure, proof, size) -> float:
    """Same maximum as max_subset_weight, by plain enumeration (no pruning).

    Intended for small proofs.
    """
    p = ks.by_id[proof if isinstance(proof, str) else proof.id]
    items = sorted(p.formulas)
    if not 0 <= size <= len(items):
        raise SizeOutOfRangeError(f"size {size} outside 0..{len(items)} for proof {p.id!r}")
    return max(
        weight(ks, measure, combo).value
        for combo in itertools.combinations(items, size)
    )


def profile_exhaustive(ks, measure, proof) -> WeightProfile:
    """Same profile as profile(), by plain enumeration of every subset.

    The maximum and the first maximizer in itertools.combinations order for
    each size, the certainty threshold as the smallest size whose subsets all
    have an empty or single-class support, and both averages. Intended for
    small proofs.
    """
    p = ks.by_id[proof if isinstance(proof, str) else proof.id]
    items = sorted(p.formulas)
    n = len(items)
    values, witnesses = [], []
    for k in range(n + 1):
        best, first = -math.inf, ()
        for combo in itertools.combinations(items, k):
            value = weight(ks, measure, combo).value
            if value > best:
                best, first = value, combo
        values.append(best)
        witnesses.append(first)
    threshold = next(
        k
        for k in range(1, n + 1)
        if all(
            len({ks.by_id[pid].goal for pid in support_ids(ks, combo)}) <= 1
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
