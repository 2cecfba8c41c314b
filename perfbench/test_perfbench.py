"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes() for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_generator_is_deterministic(name, tmp_path):
    made = []
    for seed in ("a", "a", "b"):
        work = tmp_path / str(len(made))
        plan = run.WORKLOADS[name](random.Random(f"{name}/{seed}"), work)
        made.append((_files(work), [op["ref"] for op in plan["ops"]]))
    assert made[0] == made[1]
    assert made[0][0] != made[2][0]


def test_kernel_listings_are_single_goal_and_distinct():
    listings = gen.kernel_listings(random.Random(7), 40)
    goals = {f"Win({p})" for p in gen.PARTICIPANTS}
    assert len({frozenset(listing) for listing in listings}) == 40
    assert all(len(goals & set(listing)) == 1 for listing in listings)
    assert 10 <= sum(map(len, listings)) / len(listings) <= 20


# ---------------------------------------------------------------------------
# small plans, one per command, run through the real CLI
# ---------------------------------------------------------------------------

def _small_plans(tmp_path: Path) -> dict[str, dict]:
    rng = random.Random(3)
    document = gen.knowledge_system(rng, goals=3, class_size=6, proof_len=6, vocabulary=8)
    system = tmp_path / "system.json"
    system.write_text(gen.dump(document), encoding="utf-8")
    index = oracle.SystemIndex(document)
    subset_file = tmp_path / "subset.txt"
    subset = document["proofs"][4]["formulas"][:2]
    subset_file.write_text("\n".join(subset) + "\n", encoding="utf-8")

    world = tmp_path / "world.json"
    world.write_text(gen.dump(gen.world_document()), encoding="utf-8")
    check_doc, valid = gen.check_system(gen.kernel_listings(rng, 12), rng, 0.25)
    check_sys = tmp_path / "check.json"
    check_sys.write_text(gen.dump(check_doc), encoding="utf-8")
    return {
        "weight": {"kind": "weight", "ops": [{
            "argv": ["weight", str(system), "--subset-file", str(subset_file)],
            "ref": oracle.weight_reference(index, subset),
        }]},
        "profile": {"kind": "profile", "ops": [
            {"argv": ["profile", str(system), "--proof", pid], "ref": oracle.profile_reference(index, pid)}
            for pid in ("P0001", "P0010")
        ]},
        "check": {"kind": "check", "ops": [{
            "argv": ["check", str(world), str(check_sys)],
            "ref": oracle.check_reference(check_doc, valid),
        }]},
    }


def _corrupt_weight(report: dict) -> None:
    entry = report["results"]["weights"][0]
    entry["weight_bits"] = f"{float(entry['weight_bits']) + 0.001:.6f}"


def _corrupt_profile(report: dict) -> None:
    for entry in report["results"]["profiles"].values():
        entry["certainty_threshold"] += 1


def _corrupt_check(report: dict) -> None:
    entry = next(p for p in report["results"]["proofs"] if not p["valid"])
    entry["valid"] = True


CORRUPT = {"weight": _corrupt_weight, "profile": _corrupt_profile, "check": _corrupt_check}


@pytest.mark.parametrize("kind", list(CORRUPT))
def test_correct_output_passes_and_corrupted_output_fails(kind, tmp_path):
    plan = _small_plans(tmp_path)[kind]
    loop = worker.Loop(plan)
    op = plan["ops"][0]
    _, output = loop.run(op)
    assert (loop.attempted, loop.failed) == (1, 0), loop.reasons

    report = json.loads(output)
    CORRUPT[kind](report)

    def corrupted_main(argv):
        sys.stdout.write(json.dumps(report, ensure_ascii=False))
        return 0 if kind != "check" else 2

    loop.run(op, corrupted_main)
    assert (loop.attempted, loop.failed) == (2, 1)
    loop.run(op, lambda argv: 1 / 0)  # a crash is a failed operation too
    assert (loop.attempted, loop.failed) == (3, 2)


def test_traced_counts_repeat_exactly(tmp_path):
    plan = _small_plans(tmp_path)["profile"]
    runs = []
    for i in range(2):
        loop = worker.Loop(plan)
        result = worker.traced(loop, 0.0, 2, str(tmp_path / f"spans{i}.jsonl"))
        assert loop.failed == 0
        runs.append(result)
    counts = [
        {k: v for k, v in r["per_layer"].items() if not k.endswith("_s") and k != "trace.overhead_ratio"}
        for r in runs
    ]
    assert counts[0] == counts[1]
    assert counts[0]["weight.weight_calls"] > 0
    assert 0 < counts[0]["convergence.distinct_subset_ratio"] <= 1
    assert set(runs[0]["per_layer"]) == set(spans.PER_LAYER)
    assert runs[0]["absent"] == []


def test_traced_weight_still_sees_a_one_shot_iterator():
    from proofinfo import builtin_example, proof_measure, weight

    ks = builtin_example()
    measure = proof_measure(ks)
    tracer = spans.Tracer()
    traced_weight = tracer.wrap(spans.WEIGHT, weight)
    subset = ["Day=Fri", "Brd(R2,Bok)"]
    assert traced_weight(ks, measure, iter(subset)) == weight(ks, measure, subset)
    assert traced_weight(ks, measure, subset=iter(subset)) == weight(ks, measure, subset)
    assert set(tracer.weight_args.values()) == {frozenset(subset)}


def test_tracing_restores_bindings_and_reports_absent_names(monkeypatch):
    import proofinfo
    from proofinfo import convergence, report

    original = (proofinfo.weight, convergence.weight, report.profile)
    metrics = dict(spans.SPAN_METRICS, **{"measure.gone_s": ("self", ("measure.gone",))})
    monkeypatch.setattr(spans, "SPAN_METRICS", metrics)
    tracer = spans.Tracer()
    with tracer.installed():
        assert convergence.weight is not original[1]
    assert (proofinfo.weight, convergence.weight, report.profile) == original
    assert tracer.absent() == ["measure.gone"]


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "weight-oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
