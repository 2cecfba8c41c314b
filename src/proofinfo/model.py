"""Core data model: formulas, proofs, and validated knowledge systems.

A formula is a normalized opaque string; a proof is a named finite set of
formulas containing exactly one goal; a knowledge system bundles the goals,
the proofs, and the derived goal-class index. Knowledge systems are immutable
after construction and safe to share across threads. The bounded readers of
JSON text and of exact probabilities, which other layers share, live here too.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    DuplicateProofBodyError,
    DuplicateProofIdError,
    EmptyFormulaError,
    MalformedDocumentError,
    MultipleGoalsInProofError,
    NoGoalInProofError,
    UncoveredGoalError,
)

_WHITESPACE = re.compile(r"\s+")

# canonical connective spellings; the ASCII forms are accepted on input
# so knowledge-system files can be typed on a plain keyboard
_ASCII_ALIASES = (("!=", "≠"), ("\\/", "∨"), ("~", "¬"))


def normalize_formula(raw: str) -> str:
    """Canonicalize a formula string.

    Strips leading/trailing whitespace, collapses internal whitespace runs to
    single spaces, and folds ASCII operator aliases (!=, \\/, ~) to their
    canonical symbols (≠, ∨, ¬). Idempotent. Raises EmptyFormulaError if
    nothing is left.
    """
    text = _WHITESPACE.sub(" ", raw).strip()
    for ascii_form, symbol in _ASCII_ALIASES:
        text = text.replace(ascii_form, symbol)
    if not text:
        raise EmptyFormulaError(f"formula is empty after normalization: {raw!r}")
    return text


@dataclass(frozen=True)
class Proof:
    """A named proof: a finite formula set containing exactly one goal.

    `listing` preserves the (deduplicated) order formulas were given in; the
    measure and weight layers only use the set, but the inference kernel
    checks proofs in listed order.
    """

    id: str
    formulas: frozenset[str]
    goal: str
    listing: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.formulas)


class KnowledgeSystem:
    """Validated, immutable collection of proofs with goal-class indexes.

    Attributes (the mappings are read-only views):
      goals:    declared goal formulas, in input order
      goal_set: the same goals as a frozenset
      proofs:   tuple of Proof in input order
      by_id:    proof id -> Proof
      classes:  goal -> tuple of ids of the proofs with that goal
      M:        number of goals

    Setting or deleting an attribute raises AttributeError.
    """

    goals: tuple[str, ...]
    goal_set: frozenset[str]
    proofs: tuple[Proof, ...]
    by_id: Mapping[str, Proof]
    classes: Mapping[str, tuple[str, ...]]
    M: int

    def __init__(
        self,
        goals: Iterable[str],
        proofs: Iterable[tuple[str, Iterable[str]]],
    ) -> None:
        goal_list: list[str] = []
        for pos, raw in enumerate(goals):
            try:
                text = normalize_formula(raw)
            except EmptyFormulaError as exc:
                raise EmptyFormulaError(f"goals[{pos}]: {exc}") from exc
            if text in goal_list:
                raise MalformedDocumentError(f"goal {text!r} declared twice")
            goal_list.append(text)
        if not goal_list:
            raise MalformedDocumentError("a knowledge system needs at least one goal")

        goal_set = frozenset(goal_list)

        built: list[Proof] = []
        seen_ids: set[str] = set()
        seen_bodies: dict[frozenset[str], str] = {}
        for pid, raw_formulas in proofs:
            if not isinstance(pid, str) or not pid:
                raise MalformedDocumentError(f"proof id must be a non-empty string, got {pid!r}")
            if pid in seen_ids:
                raise DuplicateProofIdError(f"proof id {pid!r} used twice")
            seen_ids.add(pid)

            listing: list[str] = []
            for pos, raw in enumerate(raw_formulas):
                try:
                    text = normalize_formula(raw)
                except EmptyFormulaError as exc:
                    raise EmptyFormulaError(f"proof {pid!r}, formulas[{pos}]: {exc}") from exc
                if text not in listing:
                    listing.append(text)
            body = frozenset(listing)
            if not body:
                raise NoGoalInProofError(f"proof {pid!r} contains no formulas")

            goals_in = sorted(goal_set & body)
            if not goals_in:
                raise NoGoalInProofError(f"proof {pid!r} contains no goal formula")
            if len(goals_in) > 1:
                raise MultipleGoalsInProofError(
                    f"proof {pid!r} contains several goals: {', '.join(goals_in)}"
                )
            if body in seen_bodies:
                raise DuplicateProofBodyError(
                    f"proofs {seen_bodies[body]!r} and {pid!r} have identical formula sets"
                )
            seen_bodies[body] = pid
            built.append(Proof(id=pid, formulas=body, goal=goals_in[0], listing=tuple(listing)))

        classes = {g: tuple(p.id for p in built if p.goal == g) for g in goal_list}
        for g, members in classes.items():
            if not members:
                raise UncoveredGoalError(f"goal {g!r} appears in no proof")
        # bypasses __setattr__, which refuses every later change
        vars(self).update(
            goals=tuple(goal_list),
            goal_set=goal_set,
            proofs=tuple(built),
            by_id=MappingProxyType({p.id: p for p in built}),
            classes=MappingProxyType(classes),
            M=len(goal_list),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"KnowledgeSystem is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"KnowledgeSystem is immutable; cannot delete {name!r}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KnowledgeSystem):
            return NotImplemented
        return self.goal_set == other.goal_set and {
            p.id: p.formulas for p in self.proofs
        } == {p.id: p.formulas for p in other.proofs}

    def __repr__(self) -> str:
        return f"KnowledgeSystem(goals={len(self.goals)}, proofs={len(self.proofs)})"


_DOCUMENT_KEYS = {"goals", "proofs"}
_PROOF_KEYS = {"id", "formulas"}


def parse_knowledge_system(document: object) -> KnowledgeSystem:
    """Build a KnowledgeSystem from a parsed JSON document.

    The document must be exactly
    {"goals": [str, ...], "proofs": [{"id": str, "formulas": [str, ...]}, ...]};
    unknown keys are rejected. All validation errors carry the offending
    proof id or position.
    """
    if not isinstance(document, dict):
        raise MalformedDocumentError("top level must be an object")
    unknown = set(document) - _DOCUMENT_KEYS
    if unknown:
        raise MalformedDocumentError(f"unknown top-level keys: {sorted(unknown)}")
    missing = _DOCUMENT_KEYS - set(document)
    if missing:
        raise MalformedDocumentError(f"missing top-level keys: {sorted(missing)}")

    goals = document["goals"]
    if not isinstance(goals, list) or not all(isinstance(g, str) for g in goals):
        raise MalformedDocumentError("'goals' must be an array of strings")

    raw_proofs = document["proofs"]
    if not isinstance(raw_proofs, list):
        raise MalformedDocumentError("'proofs' must be an array")
    pairs: list[tuple[str, list[str]]] = []
    for pos, entry in enumerate(raw_proofs):
        if not isinstance(entry, dict):
            raise MalformedDocumentError(f"proofs[{pos}] must be an object")
        unknown = set(entry) - _PROOF_KEYS
        if unknown:
            raise MalformedDocumentError(f"proofs[{pos}]: unknown keys {sorted(unknown)}")
        if set(entry) != _PROOF_KEYS:
            raise MalformedDocumentError(f"proofs[{pos}]: needs exactly 'id' and 'formulas'")
        pid, formulas = entry["id"], entry["formulas"]
        if not isinstance(pid, str):
            raise MalformedDocumentError(f"proofs[{pos}]: 'id' must be a string")
        if not isinstance(formulas, list) or not all(isinstance(f, str) for f in formulas):
            raise MalformedDocumentError(f"proofs[{pos}]: 'formulas' must be an array of strings")
        pairs.append((pid, formulas))

    return KnowledgeSystem(goals, pairs)


def serialize_knowledge_system(ks: KnowledgeSystem) -> dict:
    """Inverse of parse_knowledge_system, up to formula normalization."""
    return {
        "goals": list(ks.goals),
        "proofs": [{"id": p.id, "formulas": list(p.listing)} for p in ks.proofs],
    }


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's dict; a key given twice is an error, not last-one-wins."""
    obj = dict(pairs)
    if len(obj) != len(pairs):
        counts = Counter(key for key, _ in pairs)
        raise ValueError(f"duplicate key {next(k for k, n in counts.items() if n > 1)!r}")
    return obj


def _decode_json(text: str) -> object:
    """Decode JSON; malformed text, duplicate keys and over-deep nesting raise ValueError."""
    try:
        return json.loads(text, object_pairs_hook=_unique_keys)
    except RecursionError as exc:
        raise ValueError(str(exc)) from exc


# Python's default limit on the digits of an int read from or written as a
# string. A probability given as a string is held to it, so a short entry
# such as "1e-999999999" is refused before it builds a huge power of ten,
# and every accepted entry can be printed back.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _parse_probability(value: Fraction | int | str) -> Fraction:
    """The exact rational of one distribution entry, as Fraction() reads it.

    A string whose decimal exponent or value needs more than _MAX_DIGITS
    digits raises ValueError.
    """
    if not isinstance(value, str):
        return Fraction(value)
    exponent = _EXPONENT.search(value)
    # an exponent of at most four digits is cheap to expand, and the value
    # check below refuses whatever it takes past _MAX_DIGITS
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > 4:
        raise ValueError(f"exponent out of range in {value!r}")
    p = Fraction(value)
    if max(abs(p.numerator), p.denominator) >= 10**_MAX_DIGITS:
        raise ValueError(f"{value!r} needs more than {_MAX_DIGITS} digits")
    return p


def load_knowledge_system(path: str | Path) -> KnowledgeSystem:
    """Read and validate a knowledge-system JSON file.

    I/O errors propagate unchanged, and JSON errors (including a duplicated
    object key or nesting too deep) as ValueError; schema and invariant
    violations raise the package's own exception types.
    """
    return parse_knowledge_system(_decode_json(Path(path).read_text(encoding="utf-8")))


def builtin_example() -> KnowledgeSystem:
    """The built-in demo system: a three-contestant competition.

    Three goals (one per possible winner) and seven proofs built from day
    facts and broadcast-source facts. QB* prove Win(Bok), QD* prove Win(Dok),
    QF1 proves Win(Fok).
    """
    return KnowledgeSystem(
        goals=["Win(Bok)", "Win(Dok)", "Win(Fok)"],
        proofs=[
            ("QB1", ["Day=Fri", "Brd(R2,Bok)", "Win(Bok)"]),
            ("QB2", ["Day≠Fri", "Brd(R2,Dok)", "Brd(R1,Bok)", "Win(Bok)"]),
            ("QB3", ["Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)", "Brd(R3,Fok)",
                     "¬Win(Fok)", "Win(Bok)"]),
            ("QD1", ["Brd(R1,Dok)", "Win(Dok)"]),
            ("QD2", ["Day=Fri", "Brd(R3,Fok)", "Brd(R2,Dok)", "Win(Dok)"]),
            ("QD3", ["Day=Fri", "Brd(R3,Fok)", "Brd(R1,Dok)", "Brd(R2,Dok)", "Win(Dok)"]),
            ("QF1", ["Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)", "Brd(R3,Bok)",
                     "¬Win(Bok)", "Win(Fok)"]),
        ],
    )
