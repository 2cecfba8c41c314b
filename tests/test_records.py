"""The package's immutable record types behave as value objects.

Each record is built positionally and by keyword, names its class in an arity
error, compares by its fields and hashes by them unless one is a read-only
mapping, prints a fixed repr, refuses changes, keeps read-only copies of its
mapping arguments, and survives copy and pickle; so does a knowledge system.
The package exports exactly its public names and loads its inference kernel
only when one of them is used.
"""

import copy
import pickle
import subprocess
import sys
from collections.abc import Mapping
from fractions import Fraction
from pathlib import Path
from types import MappingProxyType, ModuleType

import pytest

import proofinfo
from proofinfo import (
    CheckedProof,
    EnumerationResult,
    KFormula,
    KnowledgeSystem,
    ProbabilityMeasure,
    Proof,
    ProofListing,
    RuleApplication,
    Support,
    WeightProfile,
    WeightResult,
    WorldSpec,
    builtin_example,
    parse_knowledge_system,
    serialize_knowledge_system,
)

_F = KFormula("brd", None, "R1", "A", frozenset())
_G = KFormula("not_win", None, None, "B", frozenset())
_STEP = RuleApplication("UserData", (), _F, ())
_TWO = KnowledgeSystem(["g"], [("P1", ["g", "a"]), ("P2", ["g"])])
_TWO_OTHER = KnowledgeSystem(["g"], [("P1", ["g", "b"]), ("P2", ["g"])])


def _proxy(**items):
    return MappingProxyType(items)


# (type, field names, a sample's values, other values for each field, the
#  sample's repr, whether it is hashable); a read-only mapping field cannot be
#  hashed, except that a world hashes its schedules' items
RECORDS = [
    (Proof, ("id", "formulas", "goal", "listing"),
     ("P1", frozenset({"a"}), "a", ("a",)),
     ("P2", frozenset({"b"}), "b", ("b",)),
     "Proof(id='P1', formulas=frozenset({'a'}), goal='a', listing=('a',))", True),
    (ProbabilityMeasure, ("system", "per_proof"),
     (_TWO, _proxy(P1=Fraction(1, 2), P2=Fraction(1, 2))),
     (_TWO_OTHER, _proxy(P1=Fraction(1, 3), P2=Fraction(2, 3))),
     "ProbabilityMeasure(system=KnowledgeSystem(goals=1, proofs=2), "
     "per_proof=mappingproxy({'P1': Fraction(1, 2), 'P2': Fraction(1, 2)}))", False),
    (Support, ("proofs", "per_goal_mass", "total_mass"),
     (frozenset({"P1"}), _proxy(g=Fraction(1, 2)), Fraction(1, 2)),
     (frozenset(), _proxy(g=Fraction(0)), Fraction(0)),
     "Support(proofs=frozenset({'P1'}), per_goal_mass=mappingproxy({'g': Fraction(1, 2)}), "
     "total_mass=Fraction(1, 2))", False),
    (WeightResult, ("value", "support", "certain", "empty_support"),
     (0.5, Support(frozenset({"P1"}), _proxy(g=Fraction(1, 2)), Fraction(1, 2)), False, False),
     (0.0, Support(frozenset(), _proxy(g=Fraction(0)), Fraction(0)), True, True),
     "WeightResult(value=0.5, support=Support(proofs=frozenset({'P1'}), "
     "per_goal_mass=mappingproxy({'g': Fraction(1, 2)}), total_mass=Fraction(1, 2)), "
     "certain=False, empty_support=False)", False),
    (WeightProfile,
     ("proof_id", "max_weights", "witnesses", "certainty_threshold", "average_weight",
      "average_speed"),
     ("P1", (1.0, 0.0), ((), ("a",)), 1, 0.0, 0.0),
     ("P2", (1.0, 0.5), ((), ("b",)), 2, 0.5, 0.5),
     "WeightProfile(proof_id='P1', max_weights=(1.0, 0.0), witnesses=((), ('a',)), "
     "certainty_threshold=1, average_weight=0.0, average_speed=0.0)", True),
    (WorldSpec, ("participants", "day_domain", "truthful_days"),
     (("A", "B"), ("Fri",), {"R1": frozenset({"Fri"})}),
     (("A", "C"), ("Fri", "Sat"), {"R1": frozenset()}),
     "WorldSpec(participants=('A', 'B'), day_domain=('Fri',), "
     "truthful_days=mappingproxy({'R1': frozenset({'Fri'})}))", True),
    (KFormula, ("kind", "day", "source", "participant", "participants"),
     ("win", None, None, "A", frozenset()),
     ("not_win", "Fri", "R2", "B", frozenset({"A", "B"})),
     "KFormula(Win(A))", True),
    (RuleApplication, ("rule", "premises", "conclusion", "implicit"),
     ("UserData", (), _F, ()),
     ("Uniqueness", (0,), _G, (_G,)),
     "RuleApplication(rule='UserData', premises=(), conclusion=KFormula(Brd(R1,A)), "
     "implicit=())", True),
    (CheckedProof, ("proof_id", "steps", "valid", "violations"),
     ("p", (_STEP,), True, ()),
     ("q", (), False, ((0, "no rule"),)),
     "CheckedProof(proof_id='p', steps=(RuleApplication(rule='UserData', premises=(), "
     "conclusion=KFormula(Brd(R1,A)), implicit=()),), valid=True, violations=())", True),
    (ProofListing, ("goal", "formulas"),
     (_F, (_F,)),
     (_G, (_F, _G)),
     "ProofListing(goal=KFormula(Brd(R1,A)), formulas=(KFormula(Brd(R1,A)),))", True),
    (EnumerationResult, ("proofs", "contradictions"),
     ((ProofListing(_F, (_F,)),), ()),
     ((), ("A",)),
     "EnumerationResult(proofs=(ProofListing(goal=KFormula(Brd(R1,A)), "
     "formulas=(KFormula(Brd(R1,A)),)),), contradictions=())", True),
]


def _each(records):
    return pytest.mark.parametrize(
        ("cls", "names", "values", "others", "text", "hashable"),
        records,
        ids=[record[0].__name__ for record in records],
    )


each_record = _each(RECORDS)
each_record_with_a_mapping = _each(
    [record for record in RECORDS if any(isinstance(v, Mapping) for v in record[2])]
)


@each_record
def test_positional_and_keyword_construction_agree(cls, names, values, others, text, hashable):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    assert type(by_keyword) is cls
    assert cls.__match_args__ == names
    assert by_position == by_keyword
    assert not by_position != by_keyword
    for name, value in zip(names, values):
        assert getattr(by_keyword, name) == value


@each_record
def test_each_field_takes_part_in_equality(cls, names, values, others, text, hashable):
    sample = cls(*values)
    for i in range(len(names)):
        args = (*values[:i], others[i], *values[i + 1:])
        if cls is KFormula and values[i] in (None, frozenset()):
            # a formula holds only what its text writes: setting another field is refused
            with pytest.raises(ValueError, match=f"win formula writes no {names[i]}: "):
                cls(*args)
            continue
        changed = cls(*args)
        assert changed != sample and not changed == sample, names[i]
    assert sample != values and sample != object()


@each_record
def test_arity_errors_name_the_class(cls, names, values, others, text, hashable):
    with pytest.raises(TypeError) as info:
        cls(*values, None)
    assert str(info.value).startswith(f"{cls.__name__}.__init__()")


@each_record
def test_repr(cls, names, values, others, text, hashable):
    assert repr(cls(*values)) == text


@each_record
def test_equal_values_hash_equal(cls, names, values, others, text, hashable):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    if hashable:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
    else:
        with pytest.raises(TypeError):
            hash(a)


@each_record
def test_fields_cannot_be_set_or_deleted(cls, names, values, others, text, hashable):
    sample = cls(*values)
    for name in (*names, "extra"):
        with pytest.raises(AttributeError):
            setattr(sample, name, None)
        with pytest.raises(AttributeError):
            delattr(sample, name)
    assert sample == cls(*values)


@each_record
def test_copy_and_pickle_round_trip(cls, names, values, others, text, hashable):
    sample = cls(*values)
    for other in (copy.copy(sample), pickle.loads(pickle.dumps(sample))):
        assert type(other) is cls and other == sample
        assert repr(other) == text


@each_record_with_a_mapping
def test_mapping_arguments_are_kept_as_read_only_copies(cls, names, values, others, text, hashable):
    given = [dict(v) if isinstance(v, Mapping) else v for v in values]
    sample = cls(*given)
    for name, value in zip(names, given):
        if isinstance(value, dict):
            kept = getattr(sample, name)
            with pytest.raises(TypeError):
                kept["new"] = None
            value.clear()
            assert kept
    assert sample == cls(*values) and repr(sample) == text


def test_knowledge_system_copies_and_pickles_as_an_equal_system():
    ks = builtin_example()
    for other in (copy.copy(ks), pickle.loads(pickle.dumps(ks))):
        assert type(other) is KnowledgeSystem and other is not ks
        assert other == ks and hash(other) == hash(ks)
        assert serialize_knowledge_system(other) == serialize_knowledge_system(ks)
        assert other._formula_masks == ks._formula_masks


def test_knowledge_systems_compare_by_goal_set_and_proof_bodies():
    ks = builtin_example()
    document = serialize_knowledge_system(ks)
    document["goals"].reverse()
    document["proofs"].reverse()
    reordered = parse_knowledge_system(document)
    assert reordered.proofs != ks.proofs
    assert reordered == ks and hash(reordered) == hash(ks)
    assert len({ks, reordered}) == 1
    document["proofs"][0]["id"] = "QF9"
    renamed = parse_knowledge_system(document)
    assert renamed != ks and not renamed == ks


def test_kformula_defaults():
    with pytest.raises(ValueError, match="needs a str participant"):
        KFormula("win")
    f = KFormula("win", participant="A")
    assert (f.day, f.source, f.participants) == (None, None, frozenset())
    assert KFormula("win", participant="A") == KFormula("win", None, None, "A", frozenset())
    assert KFormula("win", participant="A").text() == "Win(A)"


def test_rule_application_defaults_to_no_implicit_hop():
    assert RuleApplication("UserData", (), _F).implicit == ()
    assert RuleApplication("UserData", (), _F) == _STEP


_SRC = str(Path(proofinfo.__file__).parent.parent)
_DATA = Path(__file__).parent / "data"


def _fresh(code: str, stdin: bytes = b"") -> bytes:
    """Stdout of `code` in a fresh interpreter that imports the package from
    this tree. Without the site module only what the code and the package
    import is loaded; -B keeps it from writing bytecode into the source tree."""
    code = f"import sys; sys.path.insert(0, {_SRC!r}); {code}"
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", code], input=stdin, capture_output=True, check=True
    )
    return done.stdout


def test_cli_import_loads_no_dataclasses_inspect_or_typing():
    # each of these costs milliseconds per start; the kernel loads only when
    # one of its names is used, as `check` does
    loaded = _fresh(
        "import proofinfo; import proofinfo.cli; print(sorted("
        "{'dataclasses', 'inspect', 'typing', 'proofinfo.kernel'} & set(sys.modules)))"
    )
    assert loaded == b"[]\n"


def test_the_kernel_loads_on_first_use():
    # a check through the CLI loads it
    argv = ["check", str(_DATA / "world.json"), str(_DATA / "fixture.json")]
    code = (
        "import io, contextlib; from proofinfo import cli\n"
        "before = 'proofinfo.kernel' in sys.modules\n"
        f"with contextlib.redirect_stdout(io.StringIO()): code = cli.main({argv!r})\n"
        "print(before, 'proofinfo.kernel' in sys.modules, code)"
    )
    assert _fresh(code) == b"False True 0\n"
    # after a bare import, the name `kernel` resolves to the module
    code = "import proofinfo; print('proofinfo.kernel' in sys.modules, proofinfo.kernel.__name__)"
    assert _fresh(code) == b"False proofinfo.kernel\n"
    # each lazy name is the kernel's own object
    lazy = [name for name in proofinfo.__all__ if name not in vars(proofinfo)]
    assert len(lazy) == 20
    for name in lazy:
        assert getattr(proofinfo, name) is getattr(proofinfo.kernel, name), name
    with pytest.raises(AttributeError, match="module 'proofinfo' has no attribute 'kernal'"):
        proofinfo.kernal


def test_a_checked_proof_unpickles_in_a_fresh_process():
    # a worker process that has imported nothing finds the kernel's classes
    checked = proofinfo.check_knowledge_system(proofinfo.builtin_world(), builtin_example())
    code = (
        "import pickle; received = pickle.loads(sys.stdin.buffer.read())\n"
        "from proofinfo import builtin_example, builtin_world, check_knowledge_system\n"
        "print(received == check_knowledge_system(builtin_world(), builtin_example()))"
    )
    assert _fresh(code, pickle.dumps(checked)) == b"True\n"


def test_all_lists_exactly_the_public_names():
    # every public class and function the package binds or loads on first
    # use, the errors module and the version, each once
    public = {
        name for name in dir(proofinfo)
        if not name.startswith("_") and not isinstance(getattr(proofinfo, name), ModuleType)
    }
    assert sorted(proofinfo.__all__) == sorted(public | {"errors", "__version__"})
    assert len(proofinfo.__all__) == 41
    namespace: dict = {}
    exec("from proofinfo import *", namespace)
    assert namespace.keys() - {"__builtins__"} == set(proofinfo.__all__)
