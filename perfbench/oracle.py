"""Reference results computed by the benchmark itself, and output checks.

Nothing here imports proofinfo: supports are bitmasks over the proofs of a
generated document, masses are exact integers over a common denominator (or
`Fraction`s where the report prints them), certainty is decided by set
containment, and floating point enters only through logarithms. The check
functions compare one captured CLI output with a reference and return a
reason string on mismatch, or None when the output is correct.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

# The reports print weights with six decimals.
TOLERANCE = 5e-7 + 1e-9


def _digest(items: list[str]) -> str:
    return hashlib.sha256("\n".join(items).encode("utf-8")).hexdigest()


class SystemIndex:
    """Formula -> bitmask of the proofs containing it, for one system document."""

    def __init__(self, document: dict) -> None:
        self.goals: list[str] = document["goals"]
        self.ids: list[str] = [p["id"] for p in document["proofs"]]
        self.bodies = [frozenset(p["formulas"]) for p in document["proofs"]]
        self.M = len(self.goals)
        self.full = (1 << len(self.ids)) - 1
        self.masks: dict[str, int] = {}
        self.goal_masks = {g: 0 for g in self.goals}
        for i, body in enumerate(self.bodies):
            for f in body:
                self.masks[f] = self.masks.get(f, 0) | (1 << i)
                if f in self.goal_masks:
                    self.goal_masks[f] |= 1 << i
        self.class_sizes = {g: m.bit_count() for g, m in self.goal_masks.items()}
        # proof mass is 1 / (M * n_g) = (L / n_g) / (M * L) with L = lcm(n_g)
        lcm = math.lcm(*self.class_sizes.values())
        self.scale = {g: lcm // n for g, n in self.class_sizes.items()}
        self.denominator = self.M * lcm

    def support_mask(self, subset) -> int:
        mask = self.full
        for f in subset:
            mask &= self.masks.get(f, 0)
        return mask

    def goal_counts(self, mask: int) -> list[int]:
        return [(mask & self.goal_masks[g]).bit_count() for g in self.goals]

    def weight_of_counts(self, counts: list[int]) -> float:
        """sum_g -m_g log2(m_g / T), with m_g and T exact over one denominator."""
        scaled = [c * self.scale[g] for c, g in zip(counts, self.goals)]
        total = sum(scaled)
        if sum(1 for a in scaled if a) <= 1:
            return 0.0
        return -sum(a / self.denominator * math.log2(a / total) for a in scaled if a)

    def settled(self, counts: list[int]) -> bool:
        """Empty support or a single goal class: weight is exactly zero."""
        return sum(1 for c in counts if c) <= 1


# ---------------------------------------------------------------------------
# weight
# ---------------------------------------------------------------------------

def weight_reference(index: SystemIndex, subset: list[str]) -> dict:
    mask = index.support_mask(subset)
    counts = index.goal_counts(mask)
    masses = {
        g: Fraction(c, index.M * index.class_sizes[g]) for g, c in zip(index.goals, counts)
    }
    ids = [pid for i, pid in enumerate(index.ids) if mask >> i & 1]
    return {
        "subset": subset,
        "weight": index.weight_of_counts(counts),
        "support_size": len(ids),
        "support_sha256": _digest(sorted(ids)),
        "support_mass": str(sum(masses.values(), Fraction(0))),
        "per_goal_mass": {g: str(m) for g, m in masses.items()},
        "certain": sum(1 for c in counts if c) == 1,
        "empty_support": mask == 0,
    }


def check_weight(output: str, code: int, ref: dict) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    entry = json.loads(output)["results"]["weights"][0]
    if entry["subset"] != ref["subset"]:
        return "subset differs"
    if len(entry["support"]) != ref["support_size"] or _digest(entry["support"]) != ref["support_sha256"]:
        return "support differs"
    for key in ("support_mass", "per_goal_mass", "certain", "empty_support"):
        if entry[key] != ref[key]:
            return f"{key} differs"
    if abs(float(entry["weight_bits"]) - ref["weight"]) > TOLERANCE:
        return f"weight {entry['weight_bits']} differs from {ref['weight']!r}"
    return None


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------

def profile_reference(index: SystemIndex, proof_id: str) -> dict:
    """Exhaustive profile of one proof over all 2^n subsets of its formulas."""
    items = sorted(index.bodies[index.ids.index(proof_id)])
    n = len(items)
    best = [-1.0] * (n + 1)
    values: list[float] = [0.0] * (1 << n)
    unsettled_max = 0  # largest size of a subset whose weight is not structurally 0
    support = [index.full] + [0] * ((1 << n) - 1)
    for bits in range(1 << n):
        if bits:
            low = bits & -bits
            support[bits] = support[bits ^ low] & index.masks[items[low.bit_length() - 1]]
        counts = index.goal_counts(support[bits])
        k = bits.bit_count()
        values[bits] = index.weight_of_counts(counts)
        best[k] = max(best[k], values[bits])
        if not index.settled(counts):
            unsettled_max = max(unsettled_max, k)
    # settled sets are closed under growth, so every subset larger than the
    # largest unsettled one is settled
    threshold = unsettled_max + 1
    near_max: list[list[list[str]]] = []
    for k in range(n + 1):
        if best[k] <= TOLERANCE:
            near_max.append([])  # every k-subset attains the maximum 0
            continue
        near_max.append([
            [items[i] for i in range(n) if bits >> i & 1]
            for bits in range(1 << n)
            if bits.bit_count() == k and values[bits] >= best[k] - 1e-9
        ])
    avg_speed = (best[1] - best[threshold]) / (threshold - 1) if threshold > 1 else 0.0
    return {
        "proof": proof_id,
        "formulas": items,
        "max_weights": best,
        "near_max": near_max,
        "certainty_threshold": threshold,
        "average_weight": sum(best[1:]) / n,
        "average_speed": avg_speed,
    }


def check_profile(output: str, code: int, ref: dict) -> str | None:
    if code != 0:
        return f"exit code {code}, expected 0"
    entry = json.loads(output)["results"]["profiles"][ref["proof"]]
    n = len(ref["formulas"])
    if entry["formula_count"] != n or len(entry["max_weights"]) != n + 1:
        return "formula count differs"
    for k, (got, want) in enumerate(zip(entry["max_weights"], ref["max_weights"])):
        if abs(float(got) - want) > TOLERANCE:
            return f"max weight at k={k}: {got} vs {want!r}"
    if entry["certainty_threshold"] != ref["certainty_threshold"]:
        return f"threshold {entry['certainty_threshold']} vs {ref['certainty_threshold']}"
    if entry["certain_from_first_formula"] != (ref["certainty_threshold"] == 1):
        return "certain_from_first_formula differs"
    for key in ("average_weight", "average_speed"):
        if abs(float(entry[key]) - ref[key]) > TOLERANCE:
            return f"{key} {entry[key]} vs {ref[key]!r}"
    formulas = set(ref["formulas"])
    for k, witness in enumerate(entry["witnesses"]):
        if len(witness) != k or len(set(witness)) != k or not set(witness) <= formulas:
            return f"witness at k={k} is not a {k}-subset of the proof"
        if ref["near_max"][k] and sorted(witness) not in ref["near_max"][k]:
            return f"witness at k={k} does not attain the maximum"
    return None


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def check_reference(document: dict, valid: list[bool]) -> dict:
    return {
        "ids": [p["id"] for p in document["proofs"]],
        "listings": [p["formulas"] for p in document["proofs"]],
        "valid": valid,
    }


def check_check(output: str, code: int, ref: dict) -> str | None:
    expected_code = 0 if all(ref["valid"]) else 2
    if code != expected_code:
        return f"exit code {code}, expected {expected_code}"
    results = json.loads(output)["results"]
    if results["all_valid"] != all(ref["valid"]):
        return "all_valid differs"
    proofs = results["proofs"]
    if [p["id"] for p in proofs] != ref["ids"]:
        return "proof ids differ"
    for entry, listing, valid in zip(proofs, ref["listings"], ref["valid"]):
        if entry["valid"] != valid:
            return f"{entry['id']}: valid={entry['valid']}, expected {valid}"
        if [s["conclusion"] for s in entry["steps"]] != listing:
            return f"{entry['id']}: steps do not follow the listing"
        if valid == bool(entry["violations"]):
            return f"{entry['id']}: violations do not match the verdict"
    return None


CHECKS = {"weight": check_weight, "profile": check_profile, "check": check_check}
