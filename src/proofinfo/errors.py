"""Exception types raised across the package.

Every domain failure gets its own class so callers (and the CLI exit-code
mapping) can distinguish schema problems, model-invariant violations, and
bad arguments without parsing messages.
"""


class ProofInfoError(Exception):
    """Base class for all errors raised by proofinfo."""


# ---- formula / document validation -----------------------------------------

class EmptyFormulaError(ProofInfoError):
    """A formula string is empty after normalization."""


class MalformedDocumentError(ProofInfoError):
    """An input document does not match the expected schema."""


class NoGoalInProofError(ProofInfoError):
    """A proof contains no goal formula."""


class MultipleGoalsInProofError(ProofInfoError):
    """A proof contains more than one goal formula."""


class DuplicateProofIdError(ProofInfoError):
    """Two proofs share the same id."""


class DuplicateProofBodyError(ProofInfoError):
    """Two proofs have identical formula sets."""


class UncoveredGoalError(ProofInfoError):
    """A declared goal appears in no proof."""


# ---- measure / weight / profile --------------------------------------------

class NotADistributionError(ProofInfoError):
    """Probabilities are negative or do not sum to one exactly."""


class UnknownProofIdError(ProofInfoError):
    """A proof id does not exist in the knowledge system."""


class SizeOutOfRangeError(ProofInfoError):
    """A subset size is negative or exceeds the proof size."""


class ProofTooLargeError(ProofInfoError):
    """A proof's subset search, or its table of witnesses, passed the node budget."""


class InternalInvariantViolation(ProofInfoError):
    """An internal consistency check failed; the input data is corrupted."""


# ---- inference kernel --------------------------------------------------------

class UnparsableFormulaError(ProofInfoError):
    """A formula string does not match the kernel grammar."""


class UnknownNameError(ProofInfoError):
    """A source, participant, or day name is not declared in the world."""


class InconsistentDayContextError(ProofInfoError):
    """Day facts contradict each other or exclude every day."""
