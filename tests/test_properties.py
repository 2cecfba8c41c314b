"""Differential properties on Hypothesis-generated systems and documents.

The package's support and profile are compared with the slow references in
tests/oracles.py, profiles with themselves under three relations of the
measure (reordering the system, renaming its formulas in order, adding
disjoint goal classes), the default measure with the one the checking
constructor compiles from its masses, the JSON report writer with the
standard library's indented encoder, and a kernel formula with the text it
prints. Runs are derandomized and keep no example database, so the suite is
repeatable and leaves nothing behind.
"""

import enum
import json
import math
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from oracles import profile_exhaustive, support_by_class_scan, weight_by_fractions
from proofinfo import (
    KFormula,
    KnowledgeSystem,
    ProbabilityMeasure,
    WorldSpec,
    brd,
    certainty_threshold,
    day_is,
    day_not,
    not_win,
    parse_kformula,
    profile,
    proof_measure,
    support,
    weight,
    win,
    win_disj,
)
from proofinfo.errors import MalformedDocumentError
from proofinfo.report import render_json
from randsys import systems

BOUNDED = settings(derandomize=True, database=None, max_examples=100, deadline=None)


@BOUNDED
@given(systems(), st.data())
def test_support_equals_class_scan(ks, data):
    measure = proof_measure(ks)
    vocabulary = sorted({f for p in ks.proofs for f in p.formulas} | {"absent"})
    subset = data.draw(st.lists(st.sampled_from(vocabulary), max_size=4))
    sup = support(ks, measure, subset)
    ref = support_by_class_scan(ks, measure, subset)
    assert sup.proofs == ref.proofs
    assert list(sup.per_goal_mass.items()) == list(ref.per_goal_mass.items())
    assert sup.total_mass == ref.total_mass
    assert sup.total_mass == sum((measure.per_proof[pid] for pid in sup.proofs), Fraction(0))


@BOUNDED
@given(systems())
def test_the_default_measure_compiles_as_a_checked_one(ks):
    # proof_measure compiles from the goal classes; the constructor checks
    # and compiles the same masses from the proofs
    compiled = proof_measure(ks)
    checked = ProbabilityMeasure(ks, compiled.per_proof)
    assert compiled._denominator == checked._denominator
    assert compiled._groups == checked._groups
    assert compiled.per_proof == checked.per_proof
    assert type(compiled.per_proof) is type(checked.per_proof) is MappingProxyType
    assert compiled == checked
    # a measure's key holds a read-only mapping, so neither one hashes
    for measure in (compiled, checked):
        with pytest.raises(TypeError, match="unhashable type: 'mappingproxy'"):
            hash(measure)


@BOUNDED
@given(systems(), st.data())
def test_profile_equals_exhaustive(ks, data):
    measure = proof_measure(ks)
    pid = data.draw(st.sampled_from(ks.proofs)).id
    ref = profile_exhaustive(ks, measure, pid)
    assert profile(ks, measure, pid) == ref
    assert certainty_threshold(ks, pid) == ref.certainty_threshold


def _profiles(ks):
    measure = proof_measure(ks)
    return {p.id: profile(ks, measure, p.id) for p in ks.proofs}


# scaling by M/(M+k) is exact in the rationals; the floats of the two
# systems are rounded separately, by about 1e-15 relative at most
SCALE_TOLERANCE = 1e-12


# one property for all three relations: drawing a system costs more than
# profiling it, so each relation in a property of its own would repeat that
@BOUNDED
@given(systems(), st.randoms(use_true_random=False), st.integers(1, 3))
def test_profiles_ignore_order_and_scale_with_a_disjoint_goal_class(ks, rng, k):
    refs = _profiles(ks)
    # order: bit positions only name proofs, and fsum ignores the goal order
    goals, proofs = list(ks.goals), [(p.id, p.listing) for p in ks.proofs]
    rng.shuffle(goals)
    rng.shuffle(proofs)
    for pid, got in _profiles(KnowledgeSystem(goals, proofs)).items():
        assert got.max_weights == refs[pid].max_weights
        assert got.witnesses == refs[pid].witnesses
        assert got.certainty_threshold == refs[pid].certainty_threshold
    # a renaming that keeps the order of the texts maps each witness by itself
    renamed = KnowledgeSystem(["r" + g for g in goals], [(pid, ["r" + t for t in ts]) for pid, ts in proofs])
    for pid, got in _profiles(renamed).items():
        assert got.max_weights == refs[pid].max_weights
        assert got.witnesses == tuple(tuple("r" + t for t in w) for w in refs[pid].witnesses)
        assert got.certainty_threshold == refs[pid].certainty_threshold
    # k disjoint classes: no nonempty subset of an old proof reaches a new
    # goal, every old mass scales by M/(M+k), and the difference form is
    # homogeneous; witnesses are not compared, as scaling may reorder near-ties
    wider = KnowledgeSystem([*ks.goals, *(f"h{i}" for i in range(k))],
                            [*proofs, *((f"Q{i}", [f"h{i}", f"x{i}"]) for i in range(k))])
    scale = ks.M / (ks.M + k)
    for pid, got in _profiles(wider).items():
        if pid.startswith("Q"):
            continue
        ref = refs[pid]
        assert got.certainty_threshold == ref.certainty_threshold
        for j in range(1, len(ref.max_weights)):
            assert math.isclose(
                got.max_weights[j], scale * ref.max_weights[j], rel_tol=SCALE_TOLERANCE
            ), (pid, j)


# Hypothesis 6.155's explain phase fails an internal assertion on this
# test's failing examples, which then hides the falsifying example
@settings(BOUNDED, phases=[phase for phase in Phase if phase is not Phase.explain])
@given(systems(), st.data())
def test_uneven_measure_equals_oracles(ks, data):
    # a hand-built measure whose masses differ inside at least one class;
    # zero-mass proofs are allowed
    uneven = [members for members in ks.classes.values() if len(members) > 1]
    assume(uneven)
    shares = {p.id: data.draw(st.integers(0, 6)) for p in ks.proofs}
    first, second = data.draw(st.sampled_from(uneven))[:2]
    if shares[first] == shares[second]:
        shares[first] += 1
    total = sum(shares.values())
    per_proof = {pid: Fraction(n, total) for pid, n in shares.items()}
    measure = ProbabilityMeasure(ks, MappingProxyType(per_proof))
    vocabulary = sorted({f for p in ks.proofs for f in p.formulas} | {"absent"})
    subset = data.draw(st.lists(st.sampled_from(vocabulary), max_size=4))
    sup = support(ks, measure, subset)
    ref = support_by_class_scan(ks, measure, subset)
    assert sup.proofs == ref.proofs
    assert list(sup.per_goal_mass.items()) == list(ref.per_goal_mass.items())
    assert sup.total_mass == ref.total_mass
    assert weight(ks, measure, subset).value == weight_by_fractions(ks, measure, subset).value
    pid = data.draw(st.sampled_from(ks.proofs)).id
    assert profile(ks, measure, pid) == profile_exhaustive(ks, measure, pid)


# control characters and non-BMP characters come with st.characters(); lone
# surrogates only when asked for
TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8)


class _Str(str):
    pass


class _Float(float):
    pass


class _Level(enum.IntEnum):
    LOW = 1
    HIGH = 10**20


# subclasses of the writer's exact scalar types must take the general path
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**300), max_value=10**300)
    | st.floats()
    | st.sampled_from((math.nan, math.inf, -math.inf, -0.0))
    | TEXT
    | TEXT.map(_Str)
    | st.floats().map(_Float)
    | st.sampled_from(_Level)
    | st.sampled_from(([], (), {}))
)
DOCUMENTS = st.recursive(
    SCALARS,
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=24,
)


@BOUNDED
@given(DOCUMENTS)
def test_render_json_equals_indented_dumps(doc):
    assert render_json(doc) == json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


# names drawn from the grammar's own symbols as well as any character; a
# world refuses those its formulas could not read back
NAMES = st.text(st.sampled_from("Ab1é=≠¬!\\/") | st.characters(), min_size=1, max_size=4)


def _formulas(world):
    participants = st.sampled_from(world.participants)
    days = st.sampled_from(world.day_domain)
    return st.one_of(
        days.map(day_is),
        days.map(day_not),
        st.builds(brd, st.sampled_from(sorted(world.truthful_days)), participants),
        participants.map(win),
        participants.map(not_win),
        st.sets(participants, min_size=1).map(win_disj),
    )


@BOUNDED
@given(st.data())
def test_a_formula_is_its_text(data):
    names = data.draw(st.lists(NAMES, min_size=5, max_size=8, unique=True))
    try:
        world = WorldSpec(names[:-3], names[-3:-1], {names[-1]: names[-2:-1]})
    except MalformedDocumentError:
        assume(False)
    f, g = data.draw(_formulas(world)), data.draw(_formulas(world))
    back = parse_kformula(f.text(), world)
    fields = [getattr(back, name) for name in KFormula.__match_args__]
    assert fields == [getattr(f, name) for name in KFormula.__match_args__]
    assert back == f and hash(back) == hash(f)
    assert (f == g) == (f.text() == g.text())
    assert f != g or hash(f) == hash(g)
