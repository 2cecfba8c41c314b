"""proofinfo: how informative are the proofs in a finite knowledge system.

A knowledge system is a finite set of proofs, each a finite set of formulas
containing exactly one goal. The package builds the maximum-uncertainty
probability measure over the proofs, computes the entropic weight of formula
subsets, profiles how the worst-case weight collapses to zero as more of a
proof is revealed, and ships a small rule-based inference kernel that checks
and enumerates proofs for the built-in competition example.
"""

__version__ = "0.1.0"

from . import errors
from .convergence import (
    MAX_PROOF_FORMULAS,
    WeightProfile,
    average_speed,
    average_weight,
    certainty_threshold,
    max_subset_weight,
    profile,
)
from .kernel import (
    CheckedProof,
    EnumerationResult,
    KFormula,
    ProofListing,
    RuleApplication,
    WorldSpec,
    brd,
    builtin_world,
    check_knowledge_system,
    check_proof,
    day_is,
    day_not,
    enumerate_proofs,
    is_data,
    not_win,
    parse_kformula,
    parse_world,
    resolve_reliability,
    win,
    win_disj,
)
from .measure import (
    ProbabilityMeasure,
    Support,
    goal_class,
    proof_measure,
    shannon_entropy,
    support,
    support_ids,
)
from .model import (
    KnowledgeSystem,
    Proof,
    builtin_example,
    load_knowledge_system,
    normalize_formula,
    parse_knowledge_system,
    serialize_knowledge_system,
)
from .weight import WeightResult, is_certain, weight

__all__ = [
    "__version__",
    "errors",
    # model
    "KnowledgeSystem",
    "Proof",
    "builtin_example",
    "load_knowledge_system",
    "normalize_formula",
    "parse_knowledge_system",
    "serialize_knowledge_system",
    # measure
    "ProbabilityMeasure",
    "Support",
    "goal_class",
    "proof_measure",
    "shannon_entropy",
    "support",
    "support_ids",
    # weight
    "WeightResult",
    "is_certain",
    "weight",
    # convergence
    "MAX_PROOF_FORMULAS",
    "WeightProfile",
    "average_speed",
    "average_weight",
    "certainty_threshold",
    "max_subset_weight",
    "profile",
    # kernel
    "CheckedProof",
    "EnumerationResult",
    "KFormula",
    "ProofListing",
    "RuleApplication",
    "WorldSpec",
    "brd",
    "builtin_world",
    "check_knowledge_system",
    "check_proof",
    "day_is",
    "day_not",
    "enumerate_proofs",
    "is_data",
    "not_win",
    "parse_kformula",
    "parse_world",
    "resolve_reliability",
    "win",
    "win_disj",
]
