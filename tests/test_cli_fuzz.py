"""Fuzz the command line with generated documents and arguments.

Every invocation of validate, weight, profile, entropy and check must exit
0, 2 or 3 (argparse's usage error, SystemExit(2), is the one exception
allowed to escape main), and a second run must write the same stdout bytes.
Stdout is a strict UTF-8 stream, as on a UTF-8 terminal. Runs are
derandomized and keep no example database; proofs stay at most 12 formulas
so profile never needs --allow-large.
"""

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from proofinfo.cli import main

DATA = Path(__file__).parent / "data"
WORLD = (DATA / "world.json").read_bytes()
FIXTURE = (DATA / "fixture.json").read_bytes()
ONE_PROOF = b'{"goals": ["Win(Bok)"], "proofs": [{"id": "P0", "formulas": ["Win(Bok)"]}]}'

GOALS = ["Win(Bok)", "Win(Dok)", "Win(Fok)", "g"]
FORMULAS = [
    "Day=Fri", "Day≠Other", "Day!=Fri", "Day=Sun", "Brd(R1,Bok)", "Brd(R2,Dok)",
    "Brd(R3,Fok)", "Brd(R1,Dok)", "Brd(R9,Bok)", "Win(Zed)", "¬Win(Bok)", "~Win(Fok)",
    "Win(Bok)∨Win(Fok)", "Win(Dok)\\/Win(Dok)", "x",
]
# a lone surrogate reaches a str through a \u escape in JSON, and through an
# argument that is not valid UTF-8 (as \udc80..\udcff)
strings = st.sampled_from(["", " x  ", "y,z", "\ud800", "\udcff"]) | st.text(max_size=5)
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | strings,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(strings, inner, max_size=3),
    max_leaves=8,
)


@st.composite
def system_documents(draw):
    """Systems, about half of them valid: each goal ends one or two proofs,
    then one string may be replaced by an odd one."""
    goals = draw(st.lists(st.sampled_from(GOALS), min_size=1, unique=True))
    proofs = []
    for goal in goals:
        for _ in range(draw(st.integers(1, 2))):
            body = draw(st.lists(st.sampled_from(FORMULAS), max_size=11))
            proofs.append({"id": f"P{len(proofs)}", "formulas": [*body, goal]})
    if draw(st.booleans()):
        target = draw(st.sampled_from([goals, *(p["formulas"] for p in proofs)]))
        target[draw(st.integers(0, len(target) - 1))] = draw(strings)
    if draw(st.booleans()):
        proofs[-1]["id"] = draw(st.sampled_from(["P0"]) | strings)
    return {"goals": goals, "proofs": proofs}


schedules = (
    st.sampled_from(["always_truthful", "always_deceitful"])
    | st.fixed_dictionaries({"truthful_on": st.lists(st.sampled_from(["Fri", "Other", "Sun"]))})
    | json_values
)
world_documents = st.fixed_dictionaries({
    "participants": st.lists(st.sampled_from(["Bok", "Dok", "Fok", "Zed"]) | strings),
    "day_domain": st.lists(st.sampled_from(["Fri", "Other", "Sun"]) | strings, max_size=3),
    "sources": st.dictionaries(st.sampled_from(["R1", "R2", "R3"]) | strings, schedules),
})


def encoded(documents):
    """File bytes: half the time the document as JSON (ASCII-escaped or not),
    else any JSON value or any bytes."""
    return st.tuples(documents, st.booleans()).map(
        lambda d: json.dumps(d[0], ensure_ascii=d[1]).encode("utf-8", "surrogatepass")
    ) | st.one_of(json_values.map(lambda v: json.dumps(v).encode()), st.binary(max_size=40))


formats = st.sampled_from([[], ["--format", "table"], ["--format", "json"]])
probability_lists = st.lists(
    st.sampled_from(
        ["1/2", "1/4", " 1/3 ", "0", "1", "0.5", "1e-1", "-1/2", "1/0", "abc", "1e-999999999"]
    ) | st.text(alphabet="0123456789/.-+eE_ ", max_size=8),
    max_size=4,
)
# weights w_i written as w_i/sum(w): a distribution, unless all weights are 0
distributions = st.lists(st.integers(0, 5), min_size=1, max_size=4).map(
    lambda ws: [f"{w}/{sum(ws)}" for w in ws]
)


@st.composite
def invocations(draw):
    """(files by name, argv); an argument naming a file is replaced by its path."""
    command = draw(st.sampled_from(["validate", "weight", "profile", "entropy", "check"]))
    files = {"ks.json": draw(encoded(system_documents()))}
    argv = [command, "ks.json"]
    if command == "weight" and draw(st.booleans()):
        subset = draw(st.lists(st.sampled_from(GOALS + FORMULAS) | strings, max_size=4))
        argv += ["--subset", ",".join(subset)]
    elif command == "weight":
        files["subset.txt"] = draw(st.binary(max_size=30) | st.lists(strings).map(
            lambda lines: "\n".join(lines).encode("utf-8", "surrogatepass")))
        argv += ["--subset-file", "subset.txt"]
    elif command == "profile" and draw(st.booleans()):
        argv += ["--all"]
    elif command == "profile":
        argv += ["--proof", draw(st.sampled_from(["P0", "P1"]) | strings)]
    elif command == "entropy":
        argv = ["entropy", "--dist", ",".join(draw(distributions | probability_lists))]
    elif command == "check":
        files["world.json"] = draw(st.just(WORLD) | encoded(world_documents))
        if draw(st.booleans()):
            files["ks.json"] = FIXTURE
        argv = ["check", "world.json", "ks.json", *draw(st.sampled_from([[], ["--strict"]]))]
    argv += draw(formats)
    if draw(st.integers(0, 9)) == 5:  # now and then an argument goes missing
        del argv[draw(st.integers(0, len(argv) - 1))]
    return files, argv


def run(argv):
    """Exit code and stdout bytes of one in-process invocation."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2  # argparse usage error
            code = 2
    out.flush()
    return code, out.buffer.getvalue()


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(invocations())
# a report holding a lone surrogate cannot be written as UTF-8
@example(({"ks.json": ONE_PROOF}, ["weight", "ks.json", "--subset", "\ud800"]))
@example(({"ks.json": ONE_PROOF.replace(b"Win(Bok)", b"\\ud800")}, ["validate", "ks.json"]))
# a subset file that is not UTF-8
@example((
    {"ks.json": ONE_PROOF, "subset.txt": b"\x80"},
    ["weight", "ks.json", "--subset-file", "subset.txt"],
))
def test_cli_exit_codes_and_determinism(case):
    files, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in files.items():
            Path(tmp, name).write_bytes(data)
        argv = [str(Path(tmp, a)) if a in files else a for a in argv]
        code, out = run(argv)
        assert code in (0, 2, 3)
        assert run(argv) == (code, out)
