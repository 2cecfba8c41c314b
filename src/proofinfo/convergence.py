"""How fast a proof's entropic weight collapses as more of it is revealed.

For a proof Q and size k, the interesting number is the worst case: the
maximum weight over all k-formula subsets of Q (an adversary reveals the
least informative part first). This module computes that maximum exactly by
a pruned search, finds the certainty threshold (the smallest k at which
every k-subset already pins the goal), and derives the two summary averages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .errors import (
    InternalInvariantViolation,
    ProofTooLargeError,
    SizeOutOfRangeError,
    UnknownProofIdError,
)
from .measure import ProbabilityMeasure, support_ids
from .model import KnowledgeSystem, Proof
from .weight import _structural_zero, weight

# Subset search is exponential in the proof size; refuse absurd inputs
# unless the caller explicitly opts in.
MAX_PROOF_FORMULAS = 30

# Pruning bound tolerance. Weight is non-increasing under subset growth, so
# a partial subset bounds all its completions; the margin absorbs float
# round-off in weight() (~1e-15) so the pruned search returns bit-identical
# maxima to the exhaustive one.
_PRUNE_MARGIN = 1e-12


@dataclass(frozen=True)
class WeightProfile:
    """Per-proof convergence profile.

    max_weights[k] is the worst-case weight over size-k subsets, for
    k = 0..len(proof); witnesses[k] is the lexicographically first subset
    attaining it. certainty_threshold is the smallest k with a structural
    zero across all size-k subsets.
    """

    proof_id: str
    max_weights: tuple[float, ...]
    witnesses: tuple[tuple[str, ...], ...]
    certainty_threshold: int
    average_weight: float
    average_speed: float


def _resolve_proof(ks: KnowledgeSystem, proof: Proof | str) -> Proof:
    pid = proof if isinstance(proof, str) else proof.id
    found = ks.by_id.get(pid)
    if found is None or (isinstance(proof, Proof) and found.formulas != proof.formulas):
        raise UnknownProofIdError(f"proof {pid!r} is not part of this knowledge system")
    return found


def _guard_size(p: Proof, allow_large: bool) -> None:
    if len(p.formulas) > MAX_PROOF_FORMULAS and not allow_large:
        raise ProofTooLargeError(
            f"proof {p.id!r} has {len(p.formulas)} formulas "
            f"(limit {MAX_PROOF_FORMULAS}); pass allow_large to search anyway"
        )


def max_subset_weight(
    ks: KnowledgeSystem,
    measure: ProbabilityMeasure,
    proof: Proof | str,
    size: int,
    allow_large: bool = False,
) -> tuple[float, tuple[str, ...]]:
    """Worst-case weight over all subsets of the proof with exactly `size` formulas.

    Exact branch-and-bound: subsets are explored in lexicographic order of
    their sorted formula texts, and a partial subset whose own weight cannot
    beat the incumbent is pruned (weight never increases as a subset grows).
    Returns the maximum and the first maximizing subset in lexicographic
    order.
    """
    p = _resolve_proof(ks, proof)
    items = sorted(p.formulas)
    n = len(items)
    if not 0 <= size <= n:
        raise SizeOutOfRangeError(f"size {size} outside 0..{n} for proof {p.id!r}")
    _guard_size(p, allow_large)

    best_value = -math.inf
    best_witness: tuple[str, ...] = ()

    def search(chosen: list[str], start: int) -> None:
        nonlocal best_value, best_witness
        result = weight(ks, measure, chosen)
        if len(chosen) == size:
            if result.value > best_value:
                best_value, best_witness = result.value, tuple(chosen)
            return
        need = size - len(chosen)
        if result.certain or result.empty_support:
            # settled subtree: every completion keeps weight exactly 0.0, so
            # record its lexicographically first completion once (preserves
            # tie order) and skip the rest
            if best_value < 0.0:
                best_value = 0.0
                best_witness = tuple(chosen) + tuple(items[start:start + need])
            return
        if result.value <= best_value - _PRUNE_MARGIN:
            return
        for i in range(start, n - need + 1):
            chosen.append(items[i])
            search(chosen, i + 1)
            chosen.pop()

    search([], 0)
    return best_value, best_witness


def certainty_threshold(
    ks: KnowledgeSystem, proof: Proof | str, allow_large: bool = False
) -> int:
    """Smallest k such that every size-k subset of the proof pins the goal.

    Decided structurally (set containment), never by float comparison.
    Always in 1..len(proof): the full formula set is certain because any
    proof containing it contains its goal and so lies in the same class.
    """
    p = _resolve_proof(ks, proof)
    _guard_size(p, allow_large)
    items = sorted(p.formulas)
    for k in range(1, len(items) + 1):
        if all(_structural_zero(ks, support_ids(ks, c)) for c in itertools.combinations(items, k)):
            return k
    raise InternalInvariantViolation(
        f"no subset size of proof {p.id!r} guarantees certainty; "
        "the one-goal-per-proof invariant must be broken"
    )


def average_weight(
    ks: KnowledgeSystem,
    measure: ProbabilityMeasure,
    proof: Proof | str,
    allow_large: bool = False,
) -> float:
    """Mean worst-case weight over subset sizes 1..len(proof)."""
    p = _resolve_proof(ks, proof)
    n = len(p.formulas)
    values = [
        max_subset_weight(ks, measure, p, k, allow_large=allow_large)[0]
        for k in range(1, n + 1)
    ]
    return sum(values) / n


def average_speed(
    ks: KnowledgeSystem,
    measure: ProbabilityMeasure,
    proof: Proof | str,
    allow_large: bool = False,
) -> float:
    """Mean per-step drop of the worst-case weight up to the certainty threshold.

    Averages max_weights[i] - max_weights[i+1] for i = 1..threshold-1 (this
    telescopes to max_weights[1] / (threshold - 1), kept as a cross-check in
    the tests). A threshold of 1 means the proof is certain from its first
    formula; there is no step to average over, so the speed is defined as 0.
    """
    z = certainty_threshold(ks, proof, allow_large=allow_large)
    if z == 1:
        return 0.0
    values = [
        max_subset_weight(ks, measure, proof, k, allow_large=allow_large)[0]
        for k in range(1, z + 1)
    ]
    drops = [values[i] - values[i + 1] for i in range(z - 1)]
    return sum(drops) / (z - 1)


def profile(
    ks: KnowledgeSystem,
    measure: ProbabilityMeasure,
    proof: Proof | str,
    allow_large: bool = False,
) -> WeightProfile:
    """Full convergence profile of one proof.

    The max_weights sequence is computed once and reused for both averages.
    Index 0 (the empty subset, weight log2 M) anchors the curve even though
    the averages start at size 1.
    """
    p = _resolve_proof(ks, proof)
    n = len(p.formulas)
    pairs = [
        max_subset_weight(ks, measure, p, k, allow_large=allow_large)
        for k in range(n + 1)
    ]
    values = tuple(v for v, _ in pairs)
    witnesses = tuple(w for _, w in pairs)
    z = certainty_threshold(ks, p, allow_large=allow_large)
    avg_weight = sum(values[1:]) / n
    if z > 1:
        avg_speed = sum(values[i] - values[i + 1] for i in range(1, z)) / (z - 1)
    else:
        avg_speed = 0.0
    return WeightProfile(
        proof_id=p.id,
        max_weights=values,
        witnesses=witnesses,
        certainty_threshold=z,
        average_weight=avg_weight,
        average_speed=avg_speed,
    )
