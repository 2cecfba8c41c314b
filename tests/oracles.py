"""Slow reference computations the tests check the package against.

Each evaluates a definition directly, without the rewrite or the pruning the
package uses, so it is an independent cross-check and not a computation path;
that is why these live with the tests rather than in the package.
"""

import itertools
import math

from proofinfo import support, weight
from proofinfo.errors import SizeOutOfRangeError


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
