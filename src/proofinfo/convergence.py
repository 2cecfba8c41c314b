"""How fast a proof's entropic weight collapses as more of it is revealed.

For a proof Q and size k, the interesting number is the worst case: the
maximum weight over all k-formula subsets of Q (an adversary reveals the
least informative part first). The certainty threshold z (the smallest k
at which every k-subset pins the goal) is 1 + max |Q & R| over the proofs R
of other goals, so every larger subset weighs 0. One pruned depth-first
search over the smaller subsets of Q, bounded only by MAX_SEARCH_NODES, finds
the other maxima and first witnesses; the averages and size queries read it.
"""

from __future__ import annotations

import math

from .errors import (
    InternalInvariantViolation,
    ProofTooLargeError,
    SizeOutOfRangeError,
    UnknownProofIdError,
)
from .measure import ProbabilityMeasure, _goal_masses, _require_system, _support_mask
from .model import KnowledgeSystem, Proof, _Record
from .weight import _difference_form, _log_terms, _rivals, weight

# Subsets a search may visit before it gives up. A visited subset costs one
# AND, the rival test, a popcount per goal and a table lookup per log term.
# When no subset is settled or pruned that is 2.2-2.3 us on a 1000-proof,
# 8-goal system and 4.7-4.8 us on a 4000-proof, 16-goal one (2-core Xeon VM,
# Python 3.11), so a search that reaches the budget ends in about 20 s and 40 s.
# Every profile of a proof with at most 23 formulas (2**23 subsets) fits. It
# also caps the n(n+1)/2 witness formulas of an n-formula profile: over 4095
# formulas are refused.
MAX_SEARCH_NODES = 1 << 23

# Pruning bound tolerance. Weight is non-increasing under subset growth, so
# a partial subset bounds all its completions; the margin absorbs float
# round-off in the weight (~1e-15) so the pruned search returns bit-identical
# maxima to the exhaustive one.
_PRUNE_MARGIN = 1e-12


class WeightProfile(_Record):
    """Per-proof convergence profile.

    max_weights[k] is the worst-case weight over size-k subsets, for
    k = 0..len(proof); witnesses[k] is the lexicographically first subset
    attaining it. certainty_threshold is the smallest k with a structural
    zero across all size-k subsets, 1 + the largest overlap with a proof of
    another goal; every size from it up weighs 0.0. average_weight is the
    mean of max_weights[1:]. average_speed is the mean per-step drop
    max_weights[i] - max_weights[i+1] for i = 1..threshold-1, which
    telescopes to max_weights[1] / (threshold - 1); a threshold of 1 means
    the proof is certain from its first formula, leaves no step to average
    over, and gives a speed of 0.
    """

    __slots__ = (
        "proof_id", "max_weights", "witnesses", "certainty_threshold", "average_weight",
        "average_speed",
    )


def _resolve_proof(ks: KnowledgeSystem, proof_id: str) -> Proof:
    try:
        found = ks.by_id.get(proof_id)
    except TypeError:  # unhashable, so not an id
        found = None
    if found is None:
        raise UnknownProofIdError(f"proof {proof_id!r} is not part of this knowledge system")
    return found


def max_subset_weight(
    ks: KnowledgeSystem, measure: ProbabilityMeasure, proof_id: str, size: int
) -> tuple[float, tuple[str, ...]]:
    """Worst-case weight over all subsets of the proof with exactly `size` formulas.

    Read from the proof's profile. Returns the maximum and the first
    maximizing subset in lexicographic order of the sorted formula texts.
    """
    p = _resolve_proof(ks, proof_id)
    n = len(p.formulas)
    if not 0 <= size <= n:
        raise SizeOutOfRangeError(f"size {size} outside 0..{n} for proof {p.id!r}")
    prof = profile(ks, measure, p.id)
    return prof.max_weights[size], prof.witnesses[size]


def certainty_threshold(ks: KnowledgeSystem, proof_id: str) -> int:
    """Smallest k such that every size-k subset of the proof pins the goal.

    A subset S of proof P leaves the goal open iff a proof Q of another goal
    contains it, that is iff S lies in P & Q, so the threshold is
    1 + max |P & Q| over those Q, and 1 when there is none. Decided by set
    structure with no search, so any proof size works. Always in
    1..len(proof): Q cannot contain P's goal.
    """
    p = _resolve_proof(ks, proof_id)
    rivals = _rivals(ks, p.goal)
    # bit i of planes[j] is bit j of |P & Q| for the proof Q at position i:
    # each formula of P adds 1 to the count of every rival holding it
    planes: list[int] = []
    for f in p.formulas:
        carry = ks._formula_masks[f] & rivals
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
            if not carry:
                break
        if carry:
            planes.append(carry)
    # the largest count, read from the top plane down: of the rivals tied so
    # far, keep those with bit j whenever some of them have it
    tied, largest = rivals, 0
    for j in reversed(range(len(planes))):
        if tied & planes[j]:
            tied &= planes[j]
            largest |= 1 << j
    return 1 + largest


def profile(ks: KnowledgeSystem, measure: ProbabilityMeasure, proof_id: str) -> WeightProfile:
    """Full convergence profile of one proof, from one subset-lattice search.

    Sizes from the certainty threshold z up weigh 0.0, witnessed by their
    first subset. Below z, exact branch-and-bound cut at size z - 1: subsets
    of the sorted formula texts are visited in lexicographic preorder, each
    weighed once on its support bitmask (the parent's mask AND the added
    formula's), and one whose weight cannot beat the incumbent at any size
    below z it can still reach is not extended (weight never increases as a
    subset grows). Index 0 (the empty subset) anchors the curve; the
    averages start at size 1. The node budget is the one bound: over
    MAX_SEARCH_NODES witness formulas or visited subsets raise ProofTooLargeError.
    """
    _require_system(ks, measure)
    p = _resolve_proof(ks, proof_id)
    n = len(p.formulas)
    # one witness of k formulas per size k, charged to the same budget
    if n * (n + 1) // 2 > MAX_SEARCH_NODES:
        raise ProofTooLargeError(
            f"witnesses of proof {p.id!r} would hold {n * (n + 1) // 2} formulas, "
            f"over the budget of {MAX_SEARCH_NODES}"
        )
    # the full formula set must pin the goal, or no size is ever certain and
    # the threshold below would pass the proof's size
    if not weight(ks, measure, p.formulas).certain:
        raise InternalInvariantViolation(
            f"no subset size of proof {p.id!r} guarantees certainty; "
            "the one-goal-per-proof invariant must be broken"
        )
    z = certainty_threshold(ks, p.id)
    items = sorted(p.formulas)
    item_masks = [ks._formula_masks[f] for f in items]
    # every subset of p holds p in its support, so it is a structural zero
    # exactly when its support meets no rival of p
    rivals = _rivals(ks, p.goal)
    terms = _log_terms(measure)
    best = [-math.inf] * z + [0.0] * (n + 1 - z)
    witness: list[tuple[str, ...]] = [()] * z + [tuple(items[:k]) for k in range(z, n + 1)]
    # the visited subset is items[i] for i in path, of `size` formulas, whose
    # extensions add items from `start` on, and masks[d] is the support mask
    # of its first d formulas (a loop, not recursion, so any depth works)
    path: list[int] = []
    masks = [_support_mask(ks, ())]
    size = start = nodes = 0
    while True:
        nodes += 1
        if nodes > MAX_SEARCH_NODES:
            raise ProofTooLargeError(
                f"search of proof {p.id!r} passed its budget of {MAX_SEARCH_NODES} "
                f"subsets ({nodes} visited)"
            )
        mask = masks[-1]
        settled = not mask & rivals
        value = 0.0 if settled else _difference_form(_goal_masses(measure, mask), terms)
        if value > best[size]:
            best[size], witness[size] = value, tuple(map(items.__getitem__, path))
        # the sizes below z a completion of this subset can reach
        lo, hi = size + 1, size + n - start + 1
        if hi > z:
            hi = z
        if settled:
            # settled subtree: every completion keeps weight exactly 0.0, so
            # each size without an incumbent yet takes its lexicographically
            # first completion (preserves tie order) and the rest is skipped.
            # Sizes take their first incumbent in increasing order, so once
            # size z - 1 has one, every size has
            if best[z - 1] < 0.0:
                for k in range(lo, hi):
                    if best[k] < 0.0:
                        best[k] = 0.0
                        witness[k] = (*map(items.__getitem__, path), *items[start:start + k - size])
        elif lo < hi and (
            value > best[hi - 1] - _PRUNE_MARGIN or value > min(best[lo:hi]) - _PRUNE_MARGIN
        ):
            # x - _PRUNE_MARGIN rounds monotonically in x, so this is "value
            # could beat the incumbent at some reachable size"; the largest
            # size's incumbent is usually the least, so it is tried first
            path.append(start)
            masks.append(mask & item_masks[start])
            size += 1
            start += 1
            continue
        # subtree done: go on to the next sibling of the deepest subset with one
        while path and path[-1] == n - 1:
            path.pop()
            masks.pop()
        if not path:
            break
        last = path[-1] + 1
        path[-1] = last
        masks[-1] = masks[-2] & item_masks[last]
        size, start = len(path), last + 1
    # a threshold of 1 leaves no step to average, and the speed is 0
    avg_speed = sum(best[i] - best[i + 1] for i in range(1, z)) / max(z - 1, 1)
    return WeightProfile(
        proof_id=p.id,
        max_weights=tuple(best),
        witnesses=tuple(witness),
        certainty_threshold=z,
        average_weight=sum(best[1:]) / n,
        average_speed=avg_speed,
    )
