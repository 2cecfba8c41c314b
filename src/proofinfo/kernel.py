"""Rule-based inference kernel for the competition world.

A world declares participants, a day domain, and broadcast sources with
truthfulness schedules. Kernel formulas are structured (day facts, broadcast
facts, winner claims); the checker validates proof listings step by step
against six rules, and a bounded forward chainer enumerates proofs from user
data.

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
from dataclasses import dataclass
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

from .errors import (
    InconsistentDayContextError,
    MalformedDocumentError,
    UnknownNameError,
    UnparsableFormulaError,
)
from .model import KnowledgeSystem, normalize_formula

TRUTHFUL = "truthful"
DECEITFUL = "deceitful"
UNKNOWN = "unknown"


# ---------------------------------------------------------------------------
# world specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WorldSpec:
    """Participants, day domain, and per-source truthfulness schedules.

    A schedule is stored as the set of days on which the source is truthful:
    the full domain (always truthful), the empty set (always deceitful), or
    anything in between (day-dependent). Every (source, day) pair therefore
    resolves to truthful or deceitful.
    """

    participants: tuple[str, ...]
    day_domain: tuple[str, ...]
    truthful_days: Mapping[str, frozenset[str]]

    def __post_init__(self) -> None:
        if len(set(self.participants)) < 2:
            raise MalformedDocumentError("a world needs at least two distinct participants")
        if len(set(self.day_domain)) != len(self.day_domain) or not self.day_domain:
            raise MalformedDocumentError("day domain must be a non-empty set of distinct names")
        if not self.truthful_days:
            raise MalformedDocumentError("a world needs at least one source")
        domain = set(self.day_domain)
        for source, days in self.truthful_days.items():
            stray = set(days) - domain
            if stray:
                raise UnknownNameError(f"source {source!r}: days {sorted(stray)} not in the day domain")

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

    truthful_days: dict[str, frozenset[str]] = {}
    for name, schedule in sources.items():
        if schedule == "always_truthful":
            truthful_days[name] = frozenset(day_domain)
        elif schedule == "always_deceitful":
            truthful_days[name] = frozenset()
        elif isinstance(schedule, dict) and set(schedule) == {"truthful_on"}:
            days = schedule["truthful_on"]
            if not isinstance(days, list) or not all(isinstance(d, str) for d in days):
                raise MalformedDocumentError(f"source {name!r}: 'truthful_on' must be an array of day names")
            truthful_days[name] = frozenset(days)
        else:
            raise MalformedDocumentError(
                f"source {name!r}: schedule must be 'always_truthful', 'always_deceitful' "
                "or {'truthful_on': [...]}"
            )
    return WorldSpec(
        participants=tuple(participants),
        day_domain=tuple(day_domain),
        truthful_days=truthful_days,
    )


# ---------------------------------------------------------------------------
# kernel formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KFormula:
    """A structured kernel formula; build with the factory functions below."""

    kind: str  # "day_is" | "day_not" | "brd" | "win" | "not_win" | "win_disj"
    day: str | None = None
    source: str | None = None
    participant: str | None = None
    participants: frozenset[str] = frozenset()

    def text(self) -> str:
        if self.kind == "day_is":
            return f"Day={self.day}"
        if self.kind == "day_not":
            return f"Day≠{self.day}"
        if self.kind == "brd":
            return f"Brd({self.source},{self.participant})"
        if self.kind == "win":
            return f"Win({self.participant})"
        if self.kind == "not_win":
            return f"¬Win({self.participant})"
        return "∨".join(f"Win({p})" for p in sorted(self.participants))

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
    ps = frozenset(participants)
    if not ps:
        raise ValueError("empty disjunction")
    if len(ps) == 1:
        return win(next(iter(ps)))
    return KFormula("win_disj", participants=ps)


def _is_day_fact(formula: KFormula) -> bool:
    return formula.kind in ("day_is", "day_not")


def is_data(formula: KFormula) -> bool:
    """Whether the formula may appear as user data (day and broadcast facts only)."""
    return formula.kind == "brd" or _is_day_fact(formula)


_BRD_RE = re.compile(r"Brd\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")
_WIN_RE = re.compile(r"Win\(\s*([^()\s]+)\s*\)")
_NOT_WIN_RE = re.compile(r"¬\s*Win\(\s*([^()\s]+)\s*\)")


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
            m = _WIN_RE.fullmatch(part.strip())
            if m is None:
                raise UnparsableFormulaError(f"bad disjunct {part.strip()!r} in {text!r}")
            names.append(m.group(1))
        for name in names:
            if name not in world.participants:
                raise UnknownNameError(f"unknown participant {name!r} in {text!r}")
        if len(set(names)) < 2:
            raise UnparsableFormulaError(f"disjunction needs two distinct participants: {text!r}")
        return win_disj(names)

    if text.startswith("Day="):
        day = text[len("Day="):].strip()
        if day not in world.day_domain:
            raise UnknownNameError(f"unknown day {day!r} in {text!r}")
        return day_is(day)
    if text.startswith("Day≠"):
        day = text[len("Day≠"):].strip()
        if day not in world.day_domain:
            raise UnknownNameError(f"unknown day {day!r} in {text!r}")
        return day_not(day)

    m = _BRD_RE.fullmatch(text)
    if m:
        source, participant = m.group(1), m.group(2)
        if source not in world.truthful_days:
            raise UnknownNameError(f"unknown source {source!r} in {text!r}")
        if participant not in world.participants:
            raise UnknownNameError(f"unknown participant {participant!r} in {text!r}")
        return brd(source, participant)
    m = _NOT_WIN_RE.fullmatch(text)
    if m:
        if m.group(1) not in world.participants:
            raise UnknownNameError(f"unknown participant {m.group(1)!r} in {text!r}")
        return not_win(m.group(1))
    m = _WIN_RE.fullmatch(text)
    if m:
        if m.group(1) not in world.participants:
            raise UnknownNameError(f"unknown participant {m.group(1)!r} in {text!r}")
        return win(m.group(1))
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
    for day in fixed | excluded:
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
    possible = _possible_days(world, filter(_is_day_fact, day_context))
    verdicts = {TRUTHFUL if d in truthful_days else DECEITFUL for d in possible}
    return verdicts.pop() if len(verdicts) == 1 else UNKNOWN


# ---------------------------------------------------------------------------
# facts and the rule table
# ---------------------------------------------------------------------------

class _Facts:
    """The formulas listed or derived so far, with the lookups the rules use:
    the first index of each derivable formula, the indices of the day facts,
    and each source's verdict under those day facts (cached until the next
    day fact)."""

    def __init__(self, world: WorldSpec, formulas: Iterable[KFormula] = ()) -> None:
        self.world = world
        self.formulas: list[KFormula] = []
        self.first: dict[KFormula, int] = {}
        self.days: tuple[int, ...] = ()
        self._verdicts: dict[str, str] = {}
        for f in formulas:
            self.append(f)

    def append(self, formula: KFormula) -> None:
        if _is_day_fact(formula):
            self.days += (len(self.formulas),)
            self._verdicts.clear()
        elif formula.kind != "brd":  # user data is never looked up
            self.first.setdefault(formula, len(self.formulas))
        self.formulas.append(formula)

    def verdict(self, source: str) -> str:
        if source not in self._verdicts:
            day_facts = [self.formulas[j] for j in self.days]
            self._verdicts[source] = resolve_reliability(self.world, source, day_facts)
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

@dataclass(frozen=True)
class RuleApplication:
    """One justified step: the rule, the indices of the premises used (all
    earlier than the step), and any implicit hop formulas (non-strict mode)."""

    rule: str
    premises: tuple[int, ...]
    conclusion: KFormula
    implicit: tuple[KFormula, ...] = ()


@dataclass(frozen=True)
class CheckedProof:
    proof_id: str
    steps: tuple[RuleApplication, ...]
    valid: bool
    violations: tuple[tuple[int, str], ...]


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
    notes: list[str] | None,
) -> _Application | None:
    """The first application led by one of the premises, in order, whose
    conclusion passes `concludes`. A broadcast whose source cannot be
    resolved is noted in `notes`, or skipped silently when notes is None."""
    skipped = (InconsistentDayContextError,) + ((UnknownNameError,) if notes is None else ())
    for j, e in premises:
        try:
            for app in _RULES[e.kind](facts, j, e):
                if concludes(app[2]):
                    return app
        except skipped as exc:
            if notes is not None:
                notes.append(str(exc))
            continue
        if notes is not None and e.kind == "brd" and facts.verdict(e.source) == UNKNOWN:
            notes.append(f"{e.source} reliability unknown")
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
        app = _first_application(facts, _leading_premises(facts, goal), goal.__eq__, None) or (
            _first_application(facts, others, lambda c: c.kind == "win", None)
        )
        if app is None:
            return None
        premises.extend(app[1])
        implicit.extend((goal,) if app[2] == goal else (app[2], goal))
    return RuleApplication("ExistenceDisj", tuple(dict.fromkeys(premises)), f, tuple(implicit))


def _justify(facts: _Facts, f: KFormula, strict: bool) -> RuleApplication | str:
    """The step's rule application, or the reason no rule derives it."""
    if f.kind not in ("win", "not_win", "win_disj"):
        if is_data(f):
            return RuleApplication("UserData", (), f)
        return f"formula kind {f.kind!r} cannot be derived"
    notes: list[str] = []
    app = _first_application(facts, _leading_premises(facts, f), f.__eq__, notes)
    if app is not None:
        return RuleApplication(app[0], app[1], f)
    knocked = set(facts.world.participants) - (f.participants or {f.participant})
    found = None if f.kind == "not_win" else _existence_disj(facts, f, knocked, strict)
    if found is not None:
        return found
    if f.kind == "win_disj":
        missing = sorted(b for b in knocked if _not_win(b) not in facts.first)
        return f"cannot rule out {', '.join(missing)} for {f.text()!r}"
    return "; ".join(notes) or f"no rule derives {f.text()!r}"


def check_proof(
    world: WorldSpec,
    formulas: Sequence[KFormula],
    goal_forms: Collection[KFormula],
    proof_id: str = "proof",
    strict: bool = False,
) -> CheckedProof:
    """Check an ordered proof listing against the rules.

    Each formula must be user data or derivable from the formulas before it;
    the last formula must be one of goal_forms. Unused (extraneous) formulas
    are fine. Invalidity is a result, not an exception.
    """
    formulas = list(formulas)
    if not formulas:
        raise ValueError("empty proof listing")
    facts = _Facts(world)
    steps: list[RuleApplication] = []
    violations: list[tuple[int, str]] = []
    for i, f in enumerate(formulas):
        found = _justify(facts, f, strict)
        if isinstance(found, str):
            steps.append(RuleApplication("Unjustified", (), f))
            violations.append((i, found))
        else:
            steps.append(found)
        facts.append(f)
    if formulas[-1] not in goal_forms:
        violations.append(
            (len(formulas) - 1, f"final formula {formulas[-1].text()!r} is not a goal")
        )
    return CheckedProof(
        proof_id=proof_id, steps=tuple(steps), valid=not violations, violations=tuple(violations)
    )


def check_knowledge_system(
    world: WorldSpec, ks: KnowledgeSystem, strict: bool = False
) -> tuple[CheckedProof, ...]:
    """Parse every proof of a knowledge system as kernel formulas and check it."""
    goal_forms = {parse_kformula(g, world) for g in ks.goals}
    return tuple(
        check_proof(world, [parse_kformula(t, world) for t in p.listing], goal_forms, p.id, strict)
        for p in ks.proofs
    )


# ---------------------------------------------------------------------------
# bounded proof enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProofListing:
    """An enumerated proof: goal plus the ordered formulas that derive it."""

    goal: KFormula
    formulas: tuple[KFormula, ...]

    def texts(self) -> tuple[str, ...]:
        return tuple(f.text() for f in self.formulas)


@dataclass(frozen=True)
class EnumerationResult:
    proofs: tuple[ProofListing, ...]
    contradictions: tuple[str, ...]  # participants derived both to win and not to win


def enumerate_proofs(
    world: WorldSpec,
    user_data: Iterable[KFormula],
    goal_pred: Callable[[str], bool] | None = None,
    max_steps: int = 100,
    include_disjunctive: bool = False,
) -> EnumerationResult:
    """Forward-chain from user data and emit one proof per derivable winner.

    Derives every formula reachable within max_steps rule applications, then
    reconstructs, for each derived Win(a) passing goal_pred, the listing of
    the user data and intermediate formulas its first derivation used. The
    listings are fully explicit and re-check in strict mode. Contradictions
    (both Win(a) and ¬Win(a) derived) are reported in the result, not raised.

    With include_disjunctive, derived disjunctions are emitted as additional
    goal listings; by default only single-winner goals count.
    """
    if max_steps < 1:
        raise ValueError("max_steps must be at least 1")
    if goal_pred is None:
        goal_pred = lambda participant: True

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

    listings = [
        listing_for(facts.first[_win(p)]) for p in sorted(world.participants)
        if _win(p) in facts.first and goal_pred(p)
    ]
    if include_disjunctive:
        # user data holds no disjunctions, so every one listed was derived
        listings += [listing_for(i) for i, f in enumerate(facts.formulas) if f.kind == "win_disj"]

    return EnumerationResult(proofs=tuple(listings), contradictions=contradictions)
