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
from collections.abc import Callable, Iterable
from fractions import Fraction
from itertools import repeat
from operator import attrgetter
from pathlib import Path
from types import MappingProxyType

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


def _collection(values: Iterable, what: str) -> Iterable:
    """`values`; a str, which would be read one character at a time, raises TypeError."""
    if isinstance(values, str):
        raise TypeError(f"{what} is a collection, not the str {values!r}")
    return values


class _Memo(dict):
    """A dict that fills itself: a missing key k gets fn(k), stored unless fn
    raises. Each call that reads one builds its own, so none outlives a call."""

    __slots__ = ("_fn",)

    def __init__(self, fn: Callable) -> None:
        self._fn = fn

    def __missing__(self, key: object) -> object:
        value = self[key] = self._fn(key)
        return value


class _Record:
    """Base of the package's immutable objects.

    A record names its fields in `__slots__`, in constructor order (a slot
    named with a leading "_" holds derived state, not a field). The generated
    `_set(self, <slot names>)` is the only write that gets past the refusing
    `__setattr__`: a class that defines no `__init__` is built by it, and an
    `__init__` that checks or derives values ends in one `_set` call with a
    value for every slot. Records of one class compare and hash by their
    field values, or by what `_key` returns if the class defines it; a
    record whose key holds a read-only mapping raises TypeError on hash.
    Records print as Class(field=value, ...), refuse every change, and copy
    and pickle by calling the class on their field values, each read-only
    mapping passed as a plain dict.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__match_args__ = tuple(
            name for name in cls.__slots__ if not name.startswith("_")
        )
        # every record has two or more fields, so this returns a tuple
        cls._values = attrgetter(*cls._fields)
        if "_key" not in vars(cls):
            cls._key = cls._values
        # `_set` stores one value per slot, in `__slots__` order, through each
        # slot's own setter; written out per class, as dataclasses writes
        # __init__, it makes no Python-level loop over the slots
        setters = {f"set{i}": getattr(cls, name).__set__ for i, name in enumerate(cls.__slots__)}
        body = "".join(f"\n    set{i}(self, {name})" for i, name in enumerate(cls.__slots__))
        exec(f"def _set(self, {', '.join(cls.__slots__)}):{body}", setters)
        cls._set = setters["_set"]
        if "__init__" not in vars(cls):
            # a record that only stores its fields is built by its setter,
            # named so that an arity error names the class
            cls.__init__ = cls._set
            cls._set.__name__, cls._set.__qualname__ = "__init__", f"{cls.__qualname__}.__init__"

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable; cannot delete {name!r}")

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), tuple(
            dict(v) if isinstance(v, MappingProxyType) else v for v in self._values(self)
        )


class Proof(_Record):
    """A named proof: a finite formula set containing exactly one goal.

    `listing` preserves the (deduplicated) order formulas were given in; the
    measure and weight layers only use the set, but the inference kernel
    checks proofs in listed order.
    """

    __slots__ = ("id", "formulas", "goal", "listing")


class KnowledgeSystem(_Record):
    """Validated, immutable collection of proofs with goal-class indexes.

    Attributes (the mappings are read-only views):
      goals:    declared goal formulas, in input order
      goal_set: the same goals as a frozenset
      proofs:   tuple of Proof in input order
      by_id:    proof id -> Proof
      classes:  goal -> tuple of ids of the proofs with that goal
      M:        number of goals

    Setting or deleting an attribute raises AttributeError. Two systems are
    equal, and hash equal, when they have the same goals and the same proof
    ids with the same formula sets, in any order. A copy or an unpickled
    system is built and validated again from the goals and the listings.

    The support index is private: _formula_masks maps each formula to the
    bitmask of the positions in `proofs` of the proofs containing it; the
    mask of a goal is its class, since a proof holds no other goal.
    """

    __slots__ = ("goals", "goal_set", "proofs", "by_id", "classes", "M", "_formula_masks")

    def __init__(
        self,
        goals: Iterable[str],
        proofs: Iterable[tuple[str, Iterable[str]]],
    ) -> None:
        # each distinct string is normalized once (large systems repeat a few dozen)
        normalized = _Memo(normalize_formula)
        declared: dict[str, None] = {}  # input order, and a constant-time membership test
        for pos, raw in enumerate(_collection(goals, "goals")):
            try:
                text = normalized[raw]
            except EmptyFormulaError as exc:
                raise EmptyFormulaError(f"goals[{pos}]: {exc}") from exc
            except TypeError:  # not a str, or not even hashable
                raise TypeError(f"goals[{pos}] is a str, not {raw!r}") from None
            if text in declared:
                raise MalformedDocumentError(f"goal {text!r} declared twice")
            declared[text] = None
        if not declared:
            raise MalformedDocumentError("a knowledge system needs at least one goal")

        goal_set = frozenset(declared)

        by_id: dict[str, Proof] = {}
        classes: dict[str, list[str]] = {g: [] for g in declared}
        formula_masks: dict[str, int] = {}
        seen_bodies: dict[frozenset[str], str] = {}
        for pos, pair in enumerate(_collection(proofs, "proofs")):
            try:
                pid, raw_formulas = () if isinstance(pair, str) else pair
            except (TypeError, ValueError):
                raise TypeError(f"proofs[{pos}] is an (id, formulas) pair, not {pair!r}") from None
            if not isinstance(pid, str) or not pid:
                raise MalformedDocumentError(f"proof id must be a non-empty string, got {pid!r}")
            if pid in by_id:
                raise DuplicateProofIdError(f"proof id {pid!r} used twice")

            raw_formulas = list(_collection(raw_formulas, "a proof's formulas"))
            try:
                listing = list(map(normalized.__getitem__, raw_formulas))
            except EmptyFormulaError as exc:
                # the table holds every formula before the refused one
                pos = next(pos for pos, raw in enumerate(raw_formulas) if raw not in normalized)
                raise EmptyFormulaError(f"proof {pid!r}, formulas[{pos}]: {exc}") from exc
            except TypeError:
                pos, raw = next(
                    (pos, raw) for pos, raw in enumerate(raw_formulas) if not isinstance(raw, str)
                )
                raise TypeError(f"proof {pid!r}, formulas[{pos}] is a str, not {raw!r}") from None
            body = frozenset(listing)
            if not body:
                raise NoGoalInProofError(f"proof {pid!r} contains no formulas")
            if len(body) < len(listing):
                listing = list(dict.fromkeys(listing))

            goals_in = goal_set & body
            if len(goals_in) != 1:
                if not goals_in:
                    raise NoGoalInProofError(f"proof {pid!r} contains no goal formula")
                raise MultipleGoalsInProofError(
                    f"proof {pid!r} contains several goals: {', '.join(sorted(goals_in))}"
                )
            if body in seen_bodies:
                raise DuplicateProofBodyError(
                    f"proofs {seen_bodies[body]!r} and {pid!r} have identical formula sets"
                )
            seen_bodies[body] = pid
            bit = 1 << len(by_id)
            for f in body:
                formula_masks[f] = formula_masks.get(f, 0) | bit
            (goal,) = goals_in
            classes[goal].append(pid)
            by_id[pid] = Proof(pid, body, goal, tuple(listing))

        for g, members in classes.items():
            if not members:
                raise UncoveredGoalError(f"goal {g!r} appears in no proof")
        self._set(
            tuple(declared),
            goal_set,
            tuple(by_id.values()),
            MappingProxyType(by_id),
            MappingProxyType({g: tuple(members) for g, members in classes.items()}),
            len(declared),
            MappingProxyType(formula_masks),
        )

    @staticmethod
    def _key(ks: KnowledgeSystem) -> tuple:
        return ks.goal_set, frozenset((p.id, p.formulas) for p in ks.proofs)

    def __reduce__(self) -> tuple[type, tuple]:
        return KnowledgeSystem, (self.goals, [(p.id, p.listing) for p in self.proofs])

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
    if not isinstance(goals, list) or not all(map(isinstance, goals, repeat(str))):
        raise MalformedDocumentError("'goals' must be an array of strings")

    raw_proofs = document["proofs"]
    if not isinstance(raw_proofs, list):
        raise MalformedDocumentError("'proofs' must be an array")
    pairs: list[tuple[str, list[str]]] = []
    for pos, entry in enumerate(raw_proofs):
        if not isinstance(entry, dict):
            raise MalformedDocumentError(f"proofs[{pos}] must be an object")
        if entry.keys() != _PROOF_KEYS:
            unknown = set(entry) - _PROOF_KEYS
            if unknown:
                raise MalformedDocumentError(f"proofs[{pos}]: unknown keys {sorted(unknown)}")
            raise MalformedDocumentError(f"proofs[{pos}]: needs exactly 'id' and 'formulas'")
        pid, formulas = entry["id"], entry["formulas"]
        if not isinstance(pid, str):
            raise MalformedDocumentError(f"proofs[{pos}]: 'id' must be a string")
        if not isinstance(formulas, list) or not all(map(isinstance, formulas, repeat(str))):
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
# string. A probability read from text is held to it, so a short entry
# such as "1e-999999999" is refused before it builds a huge power of ten,
# and every accepted entry can be printed back.
_MAX_DIGITS = 4300
_EXPONENT = re.compile(r"e[-+]?([\d_]+)\s*\Z", re.IGNORECASE)


def _parse_probability(value: str) -> Fraction:
    """The exact rational of one distribution entry, as Fraction() reads it.

    A string whose decimal exponent or value needs more than _MAX_DIGITS
    digits raises ValueError.
    """
    exponent = _EXPONENT.search(value)
    # an exponent of at most four digits is cheap to expand, and the value
    # check below refuses whatever it takes past _MAX_DIGITS
    if exponent and len(exponent[1].replace("_", "").lstrip("0")) > 4:
        raise ValueError(f"exponent out of range in {value!r}")
    p = Fraction(value)
    if not _printable(p):
        raise ValueError(f"{value!r} needs more than {_MAX_DIGITS} digits")
    return p


def _printable(p: Fraction) -> bool:
    """True iff str(p) stays within the _MAX_DIGITS limit."""
    return max(abs(p.numerator), p.denominator) < 10**_MAX_DIGITS


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
