"""Rule-based inference kernel for the competition world.

A world declares participants, a day domain, and broadcast sources with
truthfulness schedules. Kernel formulas are structured (day facts, broadcast
facts, winner claims); the checker validates proof listings step by step
against six rules, and a bounded forward chainer enumerates proofs from user
data.

The formula language is defined once, in the table `_FORMS` of each kind's
text template and pattern: `KFormula.text()` writes and `parse_kformula`
reads a formula with it.

Rules:
  UserData            day and broadcast facts are always admissible
  TruthfulBroadcast   Brd(R,a) with R resolved truthful   => Win(a)
  DeceitfulBroadcast  Brd(R,a) with R resolved deceitful  => ¬Win(a)
  Uniqueness          Win(a)                              => ¬Win(b), b != a
  ExistenceDisj       ¬Win(b) for every b outside X       => disjunction over X
  DisjElim            disjunction over X, ¬Win(b in X)    => disjunction over X∖{b}

Each derivation rule is written once, in a table keyed by the kind of its
leading premise, as a function from that premise to the conclusions it yields
(a second premise is found by lookup). The forward chainer runs the table to a
fixpoint; the checker justifies a step by the first application, in a fixed
priority order, that concludes it, and also checks ExistenceDisj goal-directed.

Published proof listings usually elide routine intermediate formulas. In the
default (non-strict) mode the checker therefore lets an ExistenceDisj step
justify each missing ¬Win(b) by one implicit hop (a deceitful broadcast, a
uniqueness application, or a truthful broadcast followed by uniqueness); the
hop's formulas are recorded on the step. Strict mode requires every
intermediate formula to be listed.
"""

from __future__ import annotations

import functools
import re
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping, Sequence
from types import MappingProxyType

from .errors import (
    InconsistentDayContextError,
    MalformedDocumentError,
    UnknownNameError,
    UnparsableFormulaError,
)
from .model import KnowledgeSystem, _collection, _Memo, _Record, normalize_formula

TRUTHFUL = "truthful"
DECEITFUL = "deceitful"
UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# world specification
# ---------------------------------------------------------------------------

class WorldSpec(_Record):
    """Participants, day domain, and per-source truthfulness schedules.

    A schedule is stored as the set of days on which the source is truthful:
    the full domain (always truthful), the empty set (always deceitful), or
    anything in between (day-dependent). Every (source, day) pair therefore
    resolves to truthful or deceitful. A world keeps read-only copies of its
    arguments, so a checked world cannot change; equal worlds hash equal.
    """

    __slots__ = ("participants", "day_domain", "truthful_days")

    def __init__(
        self,
        participants: Iterable[str],
        day_domain: Iterable[str],
        truthful_days: Mapping[str, Iterable[str]],
    ) -> None:
        participants = tuple(_collection(participants, "participants"))
        day_domain = tuple(_collection(day_domain, "day domain"))
        if not isinstance(truthful_days, Mapping):
            raise TypeError(f"truthful days is a mapping, not {truthful_days!r}")
        schedules = {
            source: frozenset(_collection(days, f"source {source!r}: truthful days"))
            for source, days in truthful_days.items()
        }
        if len(set(participants)) < 2:
            raise MalformedDocumentError("a world needs at least two distinct participants")
        if len(set(participants)) != len(participants):
            raise MalformedDocumentError("participants must be distinct names")
        if len(set(day_domain)) != len(day_domain) or not day_domain:
            raise MalformedDocumentError("day domain must be a non-empty set of distinct names")
        if not schedules:
            raise MalformedDocumentError("a world needs at least one source")
        named = {"participant": participants, "day": day_domain, "source": schedules}
        for field, names in named.items():
            for name in names:
                if not (isinstance(name, str) and _readable(name)):
                    raise MalformedDocumentError(
                        f"{field} name {name!r} cannot be read back from a formula"
                    )
        domain = set(day_domain)
        for source, days in schedules.items():
            stray = days - domain
            if stray:
                raise UnknownNameError(f"source {source!r}: days {sorted(stray)} not in the day domain")
        self._set(participants, day_domain, MappingProxyType(schedules))

    @staticmethod
    def _key(world: WorldSpec) -> tuple:
        # a read-only mapping does not hash; its items do
        return world.participants, world.day_domain, frozenset(world.truthful_days.items())

    def truthful_on(self, source: str) -> frozenset[str]:
        try:
            return self.truthful_days[source]
        except KeyError:
            raise UnknownNameError(f"unknown source {source!r}") from None

    def is_day_dependent(self, source: str) -> bool:
        days = self.truthful_on(source)
        return 0 < len(days) < len(self.day_domain)


def builtin_world() -> WorldSpec:
    """The world the built-in example lives in: R2's truthfulness depends on the day."""
    return WorldSpec(
        participants=("Bok", "Dok", "Fok"),
        day_domain=("Fri", "Other"),
        truthful_days={
            "R1": frozenset({"Fri", "Other"}),
            "R2": frozenset({"Fri"}),
            "R3": frozenset(),
        },
    )


_WORLD_KEYS = {"participants", "day_domain", "sources"}


def parse_world(document: object) -> WorldSpec:
    """Build a WorldSpec from a parsed JSON document.

    Schema: {"participants": [...], "day_domain": [...],
             "sources": {"R1": "always_truthful" | "always_deceitful"
                               | {"truthful_on": [days]}, ...}}
    """
    if not isinstance(document, dict):
        raise MalformedDocumentError("top level must be an object")
    if set(document) != _WORLD_KEYS:
        raise MalformedDocumentError(
            f"world document needs exactly keys {sorted(_WORLD_KEYS)}, got {sorted(document)}"
        )
    participants = document["participants"]
    day_domain = document["day_domain"]
    sources = document["sources"]
    for key, value in (("participants", participants), ("day_domain", day_domain)):
        if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
            raise MalformedDocumentError(f"'{key}' must be an array of strings")
    if not isinstance(sources, dict):
        raise MalformedDocumentError("'sources' must be an object")

    truthful_days: dict[str, list[str]] = {}
    for name, schedule in sources.items():
        if schedule == "always_truthful":
            truthful_days[name] = day_domain
        elif schedule == "always_deceitful":
            truthful_days[name] = []
        elif isinstance(schedule, dict) and set(schedule) == {"truthful_on"}:
            days = schedule["truthful_on"]
            if not isinstance(days, list) or not all(isinstance(d, str) for d in days):
                raise MalformedDocumentError(f"source {name!r}: 'truthful_on' must be an array of day names")
            truthful_days[name] = days
        else:
            raise MalformedDocumentError(
                f"source {name!r}: schedule must be 'always_truthful', 'always_deceitful' "
                "or {'truthful_on': [...]}"
            )
    return WorldSpec(participants, day_domain, truthful_days)


# ---------------------------------------------------------------------------
# kernel formulas
# ---------------------------------------------------------------------------

# kind -> (text template, pattern with one named group per field), in the
# reader's order; a disjunction is the sorted ∨-join of its Win disjuncts
_FORMS: dict[str, tuple[str, re.Pattern[str]]] = {
    "day_is": ("Day={day}", re.compile(r"Day=\s*(?P<day>.*)")),
    "day_not": ("Day≠{day}", re.compile(r"Day≠\s*(?P<day>.*)")),
    "brd": ("Brd({source},{participant})",
            re.compile(r"Brd\(\s*(?P<source>[^,()\s]+)\s*,\s*(?P<participant>[^,()\s]+)\s*\)")),
    "not_win": ("¬Win({participant})", re.compile(r"¬\s*Win\(\s*(?P<participant>[^()\s]+)\s*\)")),
    "win": ("Win({participant})", re.compile(r"Win\(\s*(?P<participant>[^()\s]+)\s*\)")),
}

# no whitespace, and no character that ends a field or joins disjuncts
_NAME = re.compile(r"[^\s,()∨]+")


# a world's few names recur in every formula built on it
@functools.lru_cache(maxsize=4096)
def _readable(name: str) -> bool:
    """Whether a formula's text reads the str `name` back as written: it is a
    `_NAME` that normalization leaves alone (it would fold an ASCII alias
    such as "~")."""
    return _NAME.fullmatch(name) is not None and normalize_formula(name) == name


def _written(kind: str, field: str, name: object) -> str:
    """`name`, which a formula of `kind` writes as its `field`; raises ValueError
    unless the formula's text reads it back."""
    if not (isinstance(name, str) and _readable(name)):
        raise ValueError(f"{kind} formula needs a str {field} that its text reads back, not {name!r}")
    return name


# the world attribute that declares the names each field may take
_DECLARED_IN = {"day": "day_domain", "source": "truthful_days", "participant": "participants"}


class KFormula(_Record):
    """A structured kernel formula; build with the factory functions below.

    A formula holds exactly what its text writes: a field its kind does not
    write is refused, and so is a name the text would not read back. Fields
    and text therefore determine each other, and a formula compares and
    hashes by its text alone.
    """

    # _text is built once, from the fields; it is not a field itself
    __slots__ = ("kind", "day", "source", "participant", "participants", "_text")

    def __init__(
        self,
        kind: str,  # "day_is" | "day_not" | "brd" | "win" | "not_win" | "win_disj"
        day: str | None = None,
        source: str | None = None,
        participant: str | None = None,
        participants: Iterable[str] = frozenset(),
    ) -> None:
        participants = frozenset(_collection(participants, "participants"))
        # the fields the kind does not write, each of which must be unset
        unwritten = {"day": day, "source": source, "participant": participant,
                     "participants": participants or None}
        if kind in _FORMS:
            template, pattern = _FORMS[kind]
            text = template.format_map(
                {field: _written(kind, field, unwritten.pop(field)) for field in pattern.groupindex}
            )
        elif kind == "win_disj":
            if len(participants) < 2:
                raise ValueError(f"win_disj needs two or more participants, not {participants!r}")
            del unwritten["participants"]
            names = sorted(_written(kind, "participant", p) for p in participants)
            text = "∨".join(_FORMS["win"][0].format(participant=p) for p in names)
        else:
            raise ValueError(f"unknown formula kind {kind!r}")
        for field, value in unwritten.items():
            if value is not None:
                raise ValueError(f"{kind} formula writes no {field}: {value!r}")
        self._set(kind, day, source, participant, participants, text)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._text == other._text
        return NotImplemented

    def __hash__(self) -> int:
        # a str keeps its hash once computed
        return hash(self._text)

    def text(self) -> str:
        return self._text

    def __repr__(self) -> str:
        return f"KFormula({self.text()})"


def day_is(day: str) -> KFormula:
    return KFormula("day_is", day=day)


def day_not(day: str) -> KFormula:
    return KFormula("day_not", day=day)


def brd(source: str, participant: str) -> KFormula:
    return KFormula("brd", source=source, participant=participant)


def win(participant: str) -> KFormula:
    return KFormula("win", participant=participant)


def not_win(participant: str) -> KFormula:
    return KFormula("not_win", participant=participant)


def win_disj(participants: Iterable[str]) -> KFormula:
    """Disjunction of winner claims; a one-element disjunction collapses to Win."""
    ps = frozenset(_collection(participants, "participants"))
    if not ps:
        raise ValueError("empty disjunction")
    if len(ps) == 1:
        return win(next(iter(ps)))
    return KFormula("win_disj", participants=ps)


_DAY_KINDS = frozenset({"day_is", "day_not"})
_DATA_KINDS = _DAY_KINDS | {"brd"}


def _is_day_fact(formula: KFormula) -> bool:
    return formula.kind in _DAY_KINDS


def is_data(formula: KFormula) -> bool:
    """Whether the formula may appear as user data (day and broadcast facts only)."""
    return formula.kind in _DATA_KINDS


def _refuse_non_formulas(values: Iterable[object], what: str) -> None:
    """Raise TypeError naming the first of `values` that is not a KFormula,
    by its position in the argument `what`."""
    for pos, value in enumerate(values):
        if not isinstance(value, KFormula):
            raise TypeError(f"{what}[{pos}] is a KFormula, not {value!r}") from None


def _check_name(world: WorldSpec, field: str, name: str, text: str) -> None:
    if name not in getattr(world, _DECLARED_IN[field]):
        raise UnknownNameError(f"unknown {field} {name!r} in {text!r}")


def parse_kformula(text: str, world: WorldSpec) -> KFormula:
    """Parse one formula of the kernel grammar, validating names against the world.

    Grammar: Day=<d> | Day≠<d> | Brd(<R>,<a>) | Win(<a>) | ¬Win(<a>)
             | Win(a)∨Win(b)[∨...]
    ASCII aliases (!=, \\/, ~) are folded by normalization first.
    """
    text = normalize_formula(text)

    if "∨" in text:
        names = []
        for part in text.split("∨"):
            m = _FORMS["win"][1].fullmatch(part.strip())
            if m is None:
                raise UnparsableFormulaError(f"bad disjunct {part.strip()!r} in {text!r}")
            names.append(m["participant"])
        for name in names:
            _check_name(world, "participant", name, text)
        if len(set(names)) < 2:
            raise UnparsableFormulaError(f"disjunction needs two distinct participants: {text!r}")
        return win_disj(names)

    for kind, (_, pattern) in _FORMS.items():
        m = pattern.fullmatch(text)
        if m:
            fields = m.groupdict()
            for field, name in fields.items():
                _check_name(world, field, name, text)
            return KFormula(kind, **fields)
    raise UnparsableFormulaError(f"cannot parse {text!r}")


# ---------------------------------------------------------------------------
# reliability resolution
# ---------------------------------------------------------------------------

def _possible_days(world: WorldSpec, day_facts: Iterable[KFormula]) -> frozenset[str]:
    fixed: set[str] = set()
    excluded: set[str] = set()
    for f in day_facts:
        if f.kind == "day_is":
            fixed.add(f.day)
        elif f.kind == "day_not":
            excluded.add(f.day)
    for day in sorted(fixed | excluded):  # the first unknown day, whatever the hash seed
        if day not in world.day_domain:
            raise UnknownNameError(f"unknown day {day!r} in day facts")
    if len(fixed) > 1:
        raise InconsistentDayContextError(f"conflicting day facts: {sorted(fixed)}")
    if fixed & excluded:
        raise InconsistentDayContextError(
            f"day {next(iter(fixed & excluded))!r} both asserted and excluded"
        )
    possible = fixed if fixed else set(world.day_domain) - excluded
    if not possible:
        raise InconsistentDayContextError("day facts exclude every day in the domain")
    return frozenset(possible)


def resolve_reliability(
    world: WorldSpec, source: str, day_context: Iterable[KFormula]
) -> str:
    """Resolve a source to "truthful"/"deceitful"/"unknown" under the day facts.

    Always-truthful and always-deceitful sources resolve with no context; a
    day-dependent source resolves only when the day facts narrow the domain
    to days with a single verdict.
    """
    truthful_days = world.truthful_on(source)
    day_context = list(_collection(day_context, "day_context"))
    try:
        possible = _possible_days(world, filter(_is_day_fact, day_context))
    except AttributeError:
        _refuse_non_formulas(day_context, "day_context")
        raise
    verdicts = {TRUTHFUL if d in truthful_days else DECEITFUL for d in possible}
    return verdicts.pop() if len(verdicts) == 1 else UNKNOWN


# ---------------------------------------------------------------------------
# facts and the rule table
# ---------------------------------------------------------------------------

class _Facts:
    """The formulas listed or derived so far, with the lookups the rules use:
    the first index of each derivable formula, the indices of the day facts
    and their set, and each source's verdict under that set: TRUTHFUL,
    DECEITFUL, or why the day facts resolve it to neither. A verdict depends
    only on the set, so `tables` maps each set to its {source: verdict} dict,
    and listings checked against one world may share it."""

    def __init__(
        self,
        world: WorldSpec,
        formulas: Iterable[KFormula] = (),
        tables: dict[frozenset[KFormula], dict[str, str]] | None = None,
    ) -> None:
        self.world = world
        self.formulas: list[KFormula] = []
        self.first: dict[KFormula, int] = {}
        self.days: tuple[int, ...] = ()
        self._context: frozenset[KFormula] = frozenset()
        self._tables = {} if tables is None else tables
        self._verdicts = self._tables.setdefault(self._context, {})
        for f in formulas:
            self.append(f)

    def append(self, formula: KFormula) -> None:
        """Add a formula; a day or broadcast fact naming what the world does
        not declare raises UnknownNameError, whether or not a rule reads it."""
        kind = formula.kind
        if kind in _DAY_KINDS:
            if formula.day not in self.world.day_domain:
                raise UnknownNameError(f"unknown day {formula.day!r} in day facts")
            self.days += (len(self.formulas),)
            self._context |= {formula}
            self._verdicts = self._tables.setdefault(self._context, {})
        elif kind == "brd":  # user data is never looked up, only checked
            self.world.truthful_on(formula.source)  # raises for an undeclared source
            if formula.participant not in self.world.participants:
                raise UnknownNameError(f"unknown participant {formula.participant!r} in {formula.text()!r}")
        else:
            self.first.setdefault(formula, len(self.formulas))
        self.formulas.append(formula)

    def verdict(self, source: str) -> str:
        if source not in self._verdicts:
            try:
                verdict = resolve_reliability(self.world, source, self._context)
            except InconsistentDayContextError as exc:
                verdict = str(exc)
            self._verdicts[source] = f"{source} reliability unknown" if verdict == UNKNOWN else verdict
        return self._verdicts[source]


# (rule name, premise indices, conclusion)
_Application = tuple[str, tuple[int, ...], KFormula]

# the rules build the same few conclusions over and over; formulas are
# immutable, so one cached instance each is shared (bounded per constructor)
_win, _not_win, _win_disj = (functools.lru_cache(maxsize=4096)(f) for f in (win, not_win, win_disj))


def _from_broadcast(facts: _Facts, j: int, e: KFormula) -> Iterator[_Application]:
    verdict = facts.verdict(e.source)
    # a day-dependent source's verdict rests on the day facts as well
    premises = (j, *facts.days) if facts.world.is_day_dependent(e.source) else (j,)
    if verdict == TRUTHFUL:
        yield "TruthfulBroadcast", premises, _win(e.participant)
    elif verdict == DECEITFUL:
        yield "DeceitfulBroadcast", premises, _not_win(e.participant)


def _from_win(facts: _Facts, j: int, e: KFormula) -> Iterator[_Application]:
    for beta in sorted(set(facts.world.participants) - {e.participant}):
        yield "Uniqueness", (j,), _not_win(beta)


def _from_not_win(facts: _Facts, j: int, e: KFormula) -> Iterator[_Application]:
    yield "ExistenceDisj", (j,), _win_disj(frozenset(facts.world.participants) - {e.participant})


def _from_disj(facts: _Facts, j: int, e: KFormula) -> Iterator[_Application]:
    for beta in sorted(e.participants):
        k = facts.first.get(_not_win(beta))
        if k is not None:
            yield "DisjElim", (j, k), _win_disj(e.participants - {beta})


# every derivation rule, keyed by the kind of its leading premise
_RULES: dict[str, Callable[[_Facts, int, KFormula], Iterator[_Application]]] = {
    "brd": _from_broadcast, "win": _from_win, "not_win": _from_not_win, "win_disj": _from_disj,
}


# ---------------------------------------------------------------------------
# proof checking
# ---------------------------------------------------------------------------

class RuleApplication(_Record):
    """One justified step: the rule, the indices of the premises used (all
    earlier than the step), and any implicit hop formulas (non-strict mode)."""

    __slots__ = ("rule", "premises", "conclusion", "implicit")

    def __init__(
        self,
        rule: str,
        premises: tuple[int, ...],
        conclusion: KFormula,
        implicit: tuple[KFormula, ...] = (),
    ) -> None:
        self._set(rule, premises, conclusion, implicit)


class CheckedProof(_Record):
    __slots__ = ("proof_id", "steps", "valid", "violations")


def _leading_premises(facts: _Facts, f: KFormula) -> Iterator[tuple[int, KFormula]]:
    """The earlier formulas whose rules can conclude f, in priority order.

    For Win(a) and ¬Win(a), broadcasts about a come first; then, for ¬Win,
    every winner claim, and otherwise every disjunction with exactly one
    disjunct more than f. The rule table decides what each one concludes.
    """
    formulas = facts.formulas
    if f.kind != "win_disj":
        for j, e in enumerate(formulas):
            if e.kind == "brd" and e.participant == f.participant:
                yield j, e
    if f.kind == "not_win":
        for j, e in enumerate(formulas):
            if e.kind == "win":
                yield j, e
        return
    members = f.participants or frozenset((f.participant,))
    size = len(members) + 1
    for j, e in enumerate(formulas):
        if e.kind == "win_disj" and len(e.participants) == size and members < e.participants:
            yield j, e


def _first_application(
    facts: _Facts,
    premises: Iterable[tuple[int, KFormula]],
    concludes: Callable[[KFormula], bool],
) -> _Application | None:
    """The first application led by one of the premises, in order, whose
    conclusion passes `concludes`; an unknown name raises."""
    for j, e in premises:
        for app in _RULES[e.kind](facts, j, e):
            if concludes(app[2]):
                return app
    return None


def _existence_disj(
    facts: _Facts, f: KFormula, knocked: Iterable[str], strict: bool
) -> RuleApplication | None:
    """ExistenceDisj, goal-directed: ¬Win(b) for every knocked-out b, each
    listed or (non-strict) one implicit hop away, by a ¬Win rule or by a
    truthful broadcast about someone else followed by Uniqueness."""
    premises: list[int] = []
    implicit: list[KFormula] = []
    for beta in sorted(knocked):
        goal = _not_win(beta)
        j = facts.first.get(goal)
        if j is not None:
            premises.append(j)
            continue
        if strict:
            return None
        others = (
            (k, e) for k, e in enumerate(facts.formulas) if e.kind == "brd" and e.participant != beta
        )
        app = _first_application(facts, _leading_premises(facts, goal), goal.__eq__) or (
            _first_application(facts, others, lambda c: c.kind == "win")
        )
        if app is None:
            return None
        premises.extend(app[1])
        implicit.extend((goal,) if app[2] == goal else (app[2], goal))
    return RuleApplication("ExistenceDisj", tuple(dict.fromkeys(premises)), f, tuple(implicit))


# a user-data step is one record per formula, shared like the conclusions above
_user_data = functools.lru_cache(maxsize=4096)(lambda f: RuleApplication("UserData", (), f))


def _justify(facts: _Facts, f: KFormula, strict: bool) -> RuleApplication | str:
    """The step's rule application, or the reason no rule derives it."""
    if f.kind in _DATA_KINDS:
        return _user_data(f)
    app = _first_application(facts, _leading_premises(facts, f), f.__eq__)
    if app is not None:
        return RuleApplication(app[0], app[1], f)
    knocked = set(facts.world.participants) - (f.participants or {f.participant})
    found = None if f.kind == "not_win" else _existence_disj(facts, f, knocked, strict)
    if found is not None:
        return found
    if f.kind == "win_disj":
        missing = sorted(b for b in knocked if _not_win(b) not in facts.first)
        return f"cannot rule out {', '.join(missing)} for {f.text()!r}"
    # why the broadcasts about the participant conclude nothing, each cause once
    verdicts = (facts.verdict(e.source) for e in facts.formulas
                if e.kind == "brd" and e.participant == f.participant)
    causes = dict.fromkeys(v for v in verdicts if v not in (TRUTHFUL, DECEITFUL))
    return "; ".join(causes) or f"no rule derives {f.text()!r}"


def check_proof(
    world: WorldSpec,
    formulas: Sequence[KFormula],
    goal_forms: Collection[KFormula],
    proof_id: str = "proof",
    strict: bool = False,
    *,
    _verdicts: dict[frozenset[KFormula], dict[str, str]] | None = None,
) -> CheckedProof:
    """Check an ordered proof listing against the rules.

    Each formula must be user data or derivable from the formulas before it;
    the last formula must be one of goal_forms. Unused (extraneous) formulas
    are fine. Invalidity is a result, not an exception.
    """
    # _verdicts holds the verdict tables that check_knowledge_system shares
    # among the listings it checks
    formulas = list(_collection(formulas, "formulas"))
    goal_forms = _collection(goal_forms, "goal_forms")
    if not formulas:
        raise ValueError("empty proof listing")
    facts = _Facts(world, tables=_verdicts)
    steps: list[RuleApplication] = []
    violations: list[tuple[int, str]] = []
    try:
        for i, f in enumerate(formulas):
            found = _justify(facts, f, strict)
            if isinstance(found, str):
                violations.append((i, found))
                found = RuleApplication("Unjustified", (), f)
            steps.append(found)
            facts.append(f)
    except AttributeError:  # diagnosed only here, so a valid listing pays nothing
        _refuse_non_formulas(formulas, "formulas")
        raise
    if formulas[-1] not in goal_forms:
        _refuse_non_formulas(goal_forms, "goal_forms")
        violations.append(
            (len(formulas) - 1, f"final formula {formulas[-1].text()!r} is not a goal")
        )
    return CheckedProof(
        proof_id=proof_id, steps=tuple(steps), valid=not violations, violations=tuple(violations)
    )


def check_knowledge_system(
    world: WorldSpec, ks: KnowledgeSystem, strict: bool = False
) -> tuple[CheckedProof, ...]:
    """Parse every proof of a knowledge system as kernel formulas and check it.

    Each distinct text is parsed once, in the order of first use, so the
    first bad formula still raises; steps share the frozen `KFormula`, and
    listings share the tables of source verdicts. Two goals that parse to one
    formula raise MalformedDocumentError.
    """
    # world goes by position, the one signature a wrapped parse_kformula must keep
    parsed = _Memo(lambda text: parse_kformula(text, world))
    goal_forms: dict[KFormula, str] = {}  # each form -> the goal that wrote it
    for g in ks.goals:
        if goal_forms.setdefault(parsed[g], g) != g:
            raise MalformedDocumentError(f"goals {goal_forms[parsed[g]]!r} and {g!r} are one kernel formula")
    verdicts: dict[frozenset[KFormula], dict[str, str]] = {}
    return tuple(
        check_proof(world, list(map(parsed.__getitem__, p.listing)), goal_forms, p.id, strict,
                    _verdicts=verdicts)
        for p in ks.proofs
    )


# ---------------------------------------------------------------------------
# bounded proof enumeration
# ---------------------------------------------------------------------------

class ProofListing(_Record):
    """An enumerated proof: goal plus the ordered formulas that derive it."""

    __slots__ = ("goal", "formulas")

    def texts(self) -> tuple[str, ...]:
        return tuple(f.text() for f in self.formulas)


class EnumerationResult(_Record):
    """The enumerated proofs, and the participants derived both to win and not to win."""

    __slots__ = ("proofs", "contradictions")


def enumerate_proofs(
    world: WorldSpec,
    user_data: Iterable[KFormula],
    max_steps: int = 100,
) -> EnumerationResult:
    """Forward-chain from user data and emit one proof per derivable winner.

    Derives every formula reachable within max_steps rule applications, then
    reconstructs, for each derived Win(a), the listing of the user data and
    intermediate formulas its first derivation used. The listings are fully
    explicit and re-check in strict mode. Contradictions (both Win(a) and
    ¬Win(a) derived) are reported in the result, not raised. Only
    single-winner goals are listed, never derived disjunctions.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")

    user_data = list(_collection(user_data, "user_data"))
    _refuse_non_formulas(user_data, "user_data")
    data = sorted(set(user_data), key=lambda f: (not _is_day_fact(f), f.text()))
    for f in data:
        if not is_data(f):
            raise ValueError(f"user data may only contain day and broadcast facts, got {f.text()!r}")
    _possible_days(world, filter(_is_day_fact, data))  # raises on inconsistent day context

    # passes run to a fixpoint; each pass applies the rules to the facts known
    # when it starts, in order, and its lookups see every fact derived so far
    facts = _Facts(world, data)
    derived_from: dict[int, tuple[int, ...]] = {}
    changed = True
    while changed:
        changed = False
        for j, e in list(enumerate(facts.formulas)):
            rule = _RULES.get(e.kind)
            for _, premises, conclusion in rule(facts, j, e) if rule else ():
                if conclusion not in facts.first and len(derived_from) < max_steps:
                    derived_from[len(facts.formulas)] = premises
                    facts.append(conclusion)
                    changed = True

    contradictions = tuple(sorted(
        p for p in world.participants if _win(p) in facts.first and _not_win(p) in facts.first
    ))

    def listing_for(goal_idx: int) -> ProofListing:
        # premises precede their conclusion, so one backward sweep collects them
        used = {goal_idx}
        for i in range(goal_idx, -1, -1):
            if i in used:
                used.update(derived_from.get(i, ()))
        ordered = tuple(facts.formulas[i] for i in sorted(used))
        return ProofListing(goal=facts.formulas[goal_idx], formulas=ordered)

    listings = tuple(
        listing_for(facts.first[_win(p)]) for p in sorted(world.participants)
        if _win(p) in facts.first
    )
    return EnumerationResult(proofs=listings, contradictions=contradictions)
