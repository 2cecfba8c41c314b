"""Maximum-uncertainty probability measure over proofs, supports, and entropy.

All probabilities are exact rationals (fractions.Fraction); floating point
enters only through logarithms. A measure is checked against one knowledge
system, and compiled to integer masses over one common denominator, when it
is built. The measure of proof_measure is fully determined by the system:
goals are equiprobable, and within a goal class every proof is equiprobable,
so it is compiled from the goal classes and needs no check.
A support is the AND of its formulas' proof masks on the system's bitset
index, and its per-goal masses are popcounts times the integer masses.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction
from types import MappingProxyType

from .errors import NotADistributionError
from .model import _MAX_DIGITS, KnowledgeSystem, _collection, _printable, _Record, normalize_formula


class ProbabilityMeasure(_Record):
    """Exact per-proof masses on one knowledge system, as a read-only copy.

    Checked when built: a proof of the system without a mass, a mass for any
    other id, a mass that is not a rational, a negative mass, or masses that
    do not sum to exactly 1 raise NotADistributionError. The compiled masses
    index the system's goals and proofs in order, so support, weight and
    profile accept the measure, and measures compare equal, only with equal
    systems that list both in the same order.
    """

    __slots__ = ("system", "per_proof", "_denominator", "_groups")

    def __init__(self, system: KnowledgeSystem, per_proof: Mapping[str, Fraction]) -> None:
        per_proof = MappingProxyType(dict(per_proof))
        self._set(system, per_proof, *_mass_groups(system, per_proof))

    @staticmethod
    def _key(measure: ProbabilityMeasure) -> tuple:
        return _layout(measure.system), measure.per_proof


class Support(_Record):
    """The proofs containing a formula subset, with their exact masses.

    per_goal_mass is a read-only copy of the mapping given, keyed in goal
    order; total_mass is its sum, which is the mass of the member proofs
    since each proof has one goal.
    """

    __slots__ = ("proofs", "per_goal_mass", "total_mass")

    def __init__(
        self, proofs: frozenset[str], per_goal_mass: Mapping[str, Fraction], total_mass: Fraction
    ) -> None:
        self._set(proofs, MappingProxyType(dict(per_goal_mass)), total_mass)


def proof_measure(ks: KnowledgeSystem) -> ProbabilityMeasure:
    """The maximum-uncertainty measure: mass 1/(M * class size) per proof.

    Compiled straight from the goal classes to the form _mass_groups would
    give: L is the lcm of the M * class sizes, and each goal has one group,
    its class (the goal's formula mask), with mass L // (M * class size).
    """
    sizes = [ks.M * len(members) for members in ks.classes.values()]
    denominator = math.lcm(*sizes)
    groups = tuple(
        (g, ks._formula_masks[goal], denominator // size)
        for g, (goal, size) in enumerate(zip(ks.goals, sizes))
    )
    # the proofs of one class share one value
    share = {goal: Fraction(1, size) for goal, size in zip(ks.goals, sizes)}
    measure = ProbabilityMeasure.__new__(ProbabilityMeasure)
    measure._set(ks, MappingProxyType({p.id: share[p.goal] for p in ks.proofs}), denominator, groups)
    return measure


def _support_mask(ks: KnowledgeSystem, subset: Iterable[str]) -> int:
    """Bitmask, over positions in ks.proofs, of the proofs containing `subset`:
    the AND of its formulas' masks, each formula normalized as the system reads
    it, all proofs for the empty subset. An empty formula raises
    EmptyFormulaError, and a str in place of the subset, or a formula that is
    not a str, TypeError."""
    masks = ks._formula_masks
    mask = (1 << len(ks.proofs)) - 1
    for formula in _collection(subset, "a subset"):
        try:
            if formula not in masks:
                formula = normalize_formula(formula)
        except TypeError:  # not a str, or not even hashable
            raise TypeError(f"a subset's formula is a str, not {formula!r}") from None
        mask &= masks.get(formula, 0)
    return mask


def _mask_ids(ks: KnowledgeSystem, mask: int) -> frozenset[str]:
    bits = bin(mask)[:1:-1]  # bits[i] is bit i
    return frozenset(p.id for p, bit in zip(ks.proofs, bits) if bit == "1")


def _mass_groups(
    ks: KnowledgeSystem, per_proof: Mapping[str, Fraction]
) -> tuple[int, tuple[tuple[int, int, int], ...]]:
    """The masses of per_proof on ks.proofs as integers over one common denominator L.

    Returns L and one (goal position, mask, n) triple per distinct mass n/L
    among each goal's proofs, the mask holding the proofs of that goal and
    mass; the maximum-uncertainty measure has one triple per goal, which
    proof_measure compiles without this walk. Raises
    NotADistributionError unless the masses are a distribution over ks.proofs.
    """
    try:
        masses = [per_proof[p.id] for p in ks.proofs]
    except KeyError as exc:
        raise NotADistributionError(f"the measure gives proof {exc.args[0]!r} no mass") from exc
    if len(per_proof) > len(masses):
        stray = next(pid for pid in per_proof if pid not in ks.by_id)
        raise NotADistributionError(f"the measure gives mass to {stray!r}, not a proof")
    try:
        denominator = math.lcm(*(m.denominator for m in masses))
    except (AttributeError, TypeError) as exc:
        # a rational's denominator is an int, so some mass is not one
        pid, m = next(
            (p.id, m) for p, m in zip(ks.proofs, masses)
            if not isinstance(getattr(m, "denominator", None), int)
        )
        raise NotADistributionError(f"proof {pid!r} has mass {m!r}, not a rational") from exc
    by_goal: dict[str, dict[int, int]] = {g: {} for g in ks.goals}
    for pos, (p, m) in enumerate(zip(ks.proofs, masses)):
        groups = by_goal[p.goal]
        n = m.numerator * (denominator // m.denominator)
        groups[n] = groups.get(n, 0) | 1 << pos
    triples = tuple(
        (g, mask, n) for g, groups in enumerate(by_goal.values()) for n, mask in groups.items()
    )
    if any(n < 0 for _, _, n in triples):
        raise NotADistributionError("proof masses must be nonnegative")
    if sum(n * mask.bit_count() for _, mask, n in triples) != denominator:
        raise NotADistributionError("proof masses do not sum to 1")
    return denominator, triples


def _layout(ks: KnowledgeSystem) -> tuple:
    """The goals and proofs of `ks` in order, which a compiled measure indexes."""
    return ks.goals, tuple((p.id, p.formulas) for p in ks.proofs)


def _require_system(ks: KnowledgeSystem, measure: ProbabilityMeasure) -> None:
    """Raise NotADistributionError unless `measure` was built for `ks` or a copy of it."""
    if measure.system is not ks and _layout(measure.system) != _layout(ks):
        raise NotADistributionError("the measure was built for another knowledge system")


def _goal_masses(measure: ProbabilityMeasure, mask: int) -> list[int]:
    """Mass of the support `mask` inside each goal class, times L, in goal order."""
    # an append loop: on Python 3.11 a comprehension's own frame costs more
    masses = []
    for _, group, n in measure._groups:
        masses.append((mask & group).bit_count() * n)
    M = measure.system.M
    # every goal holds a proof, so M groups are one per goal, in goal order
    if len(masses) == M:
        return masses
    # a goal of a hand-built measure may hold several masses: add them up
    merged = [0] * M
    for (g, _, _), mass in zip(measure._groups, masses):
        merged[g] += mass
    return merged


def _support(
    ks: KnowledgeSystem, measure: ProbabilityMeasure, mask: int, masses: list[int]
) -> Support:
    """The Support of `mask` on `ks`, for a measure built for `ks` and the
    per-goal masses `_goal_masses(measure, mask)`."""
    denominator = measure._denominator
    return Support(
        proofs=_mask_ids(ks, mask),
        per_goal_mass={g: Fraction(n, denominator) for g, n in zip(ks.goals, masses)},
        total_mass=Fraction(sum(masses), denominator),
    )


def support_ids(ks: KnowledgeSystem, subset: Iterable[str]) -> frozenset[str]:
    """Ids of the proofs whose formula set contains every formula of `subset`."""
    return _mask_ids(ks, _support_mask(ks, subset))


def support(
    ks: KnowledgeSystem, measure: ProbabilityMeasure, subset: Iterable[str]
) -> Support:
    """Support of a formula subset with exact per-goal mass split.

    Any subset is legal: the empty set selects every proof, a formula absent
    from all proofs yields an empty support with mass zero.
    """
    mask = _support_mask(ks, subset)
    _require_system(ks, measure)
    return _support(ks, measure, mask, _goal_masses(measure, mask))


def shannon_entropy(dist: Iterable[Fraction | int]) -> float:
    """Shannon entropy in bits of an exact distribution, with 0*log(0) = 0.

    Entries must be nonnegative Fractions or ints summing to one exactly; a
    str or a float is refused. An entry too small for a float adds 0.
    """
    probs = list(dist)
    for p in probs:
        if not isinstance(getattr(p, "denominator", None), int):
            raise NotADistributionError(f"not an exact probability: {p!r} is not a rational")
    if any(p < 0 for p in probs):
        raise NotADistributionError("probabilities must be nonnegative")
    total = sum(probs, Fraction(0))
    if total != 1:
        shown = total if _printable(total) else f"a fraction of more than {_MAX_DIGITS} digits"
        raise NotADistributionError(f"probabilities sum to {shown}, not 1")
    acc = 0.0
    for x in map(float, probs):
        if x > 0:
            acc -= x * math.log2(x)
    return acc
