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
    WeightProfile,
    certainty_threshold,
    max_subset_weight,
    profile,
)
from .measure import (
    ProbabilityMeasure,
    Support,
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
from .weight import WeightResult, weight

# The inference kernel loads on first use of one of its names (PEP 562), so
# `import proofinfo` and every command but `check` never compile kernel.py.
_KERNEL_NAMES = (
    "CheckedProof", "EnumerationResult", "KFormula", "ProofListing", "RuleApplication",
    "WorldSpec", "brd", "builtin_world", "check_knowledge_system", "check_proof", "day_is",
    "day_not", "enumerate_proofs", "is_data", "not_win", "parse_kformula", "parse_world",
    "resolve_reliability", "win", "win_disj",
)

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
    "proof_measure",
    "shannon_entropy",
    "support",
    "support_ids",
    # weight
    "WeightResult",
    "weight",
    # convergence
    "WeightProfile",
    "certainty_threshold",
    "max_subset_weight",
    "profile",
    *_KERNEL_NAMES,
]


def __getattr__(name: str) -> object:
    if name == "kernel" or name in _KERNEL_NAMES:
        import importlib  # `from . import kernel` would ask this hook for "kernel" again

        kernel = importlib.import_module(".kernel", __name__)
        return kernel if name == "kernel" else getattr(kernel, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), "kernel", *_KERNEL_NAMES})
