"""proofinfo benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Each run generates its inputs from the seed under perfbench/_work/, computes
the reference results itself, and drives `proofinfo.cli.main` from the
repository's `src/` in a separate worker process (see worker.py). The last
line of standard output is one JSON object: correct, attempted, failed and
metrics (end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
Exits 2 without a result if the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))
import gen  # noqa: E402
import oracle  # noqa: E402
from spans import PER_LAYER  # noqa: E402

DEADLINE_S = 170  # every run ends well inside the 180 s a run may take


def _write(path: Path, text: str) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return os.path.relpath(path, ROOT)


# ---------------------------------------------------------------------------
# workloads: each writes its inputs and returns the worker's plan
# ---------------------------------------------------------------------------

def profile_medium(rng: random.Random, work: Path) -> dict:
    """8 goals x 125 proofs of 12 formulas: the exponential subset search."""
    document = gen.knowledge_system(rng, goals=8, class_size=125, proof_len=12, vocabulary=24)
    system = _write(work / "system.json", gen.dump(document))
    index = oracle.SystemIndex(document)
    ids = rng.sample([p["id"] for p in document["proofs"]], 16)
    ops = [
        {"argv": ["profile", system, "--proof", pid], "ref": oracle.profile_reference(index, pid)}
        for pid in ids
    ]
    return {"kind": "profile", "system": system, "ops": ops, "trace_ops": 2}


def weight_oneshot(rng: random.Random, work: Path) -> dict:
    """16 goals x 250 proofs of 10 formulas, one weight evaluation per load."""
    document = gen.knowledge_system(rng, goals=16, class_size=250, proof_len=10, vocabulary=40)
    system = _write(work / "system.json", gen.dump(document))
    index = oracle.SystemIndex(document)
    ops = []
    for i, subset in enumerate(gen.weight_subsets(rng, document, 256)):
        path = _write(work / "subsets" / f"{i:03d}.txt", "".join(f"{f}\n" for f in subset))
        ops.append({
            "argv": ["weight", system, "--subset-file", path],
            "ref": oracle.weight_reference(index, subset),
        })
    # each load normalizes 40k formulas, one span each, so the traced pass is short
    return {"kind": "weight", "system": system, "ops": ops, "trace_ops": 4}


def kernel_check(rng: random.Random, work: Path) -> dict:
    """A pool of 130-listing systems checked against a 6-participant world.

    An odd pool size keeps the median latency inside one system's cluster of
    latencies instead of in the gap between two."""
    world = _write(work / "world.json", gen.dump(gen.world_document()))
    ops, systems = [], []
    for i in range(5):
        listings = gen.kernel_listings(rng, 130)
        share = rng.choice((0.05, 0.1, 0.15)) if i % 2 else 0.0
        document, valid = gen.check_system(listings, rng, share)
        systems.append(_write(work / f"system{i}.json", gen.dump(document)))
        ops.append({
            "argv": ["check", world, systems[-1]],
            "ref": oracle.check_reference(document, valid),
        })
    return {"kind": "check", "system": systems[0], "ops": ops, "trace_ops": len(ops)}


WORKLOADS = {
    "profile-medium": profile_medium,
    "weight-oneshot": weight_oneshot,
    "kernel-check": kernel_check,
}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def run_worker(args: list[str], timeout: float) -> str:
    """Run the worker to completion and return its stdout; kill it on timeout."""
    with subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args], cwd=ROOT, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        try:
            out, err = proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_workload(name: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    work = HERE / "_work" / f"{name}-{seed}"
    plan = WORKLOADS[name](random.Random(f"{name}/{seed}"), work)
    plan["src"] = str(SRC)
    plan_path = _write(work / "plan.json", json.dumps(plan, ensure_ascii=False))
    args = [plan_path, str(seconds), str(int(trace)), str(work / "spans.jsonl")]
    raw = json.loads(run_worker(args, deadline - time.monotonic()).splitlines()[-1])
    result = {"attempted": raw["attempted"], "failed": raw["failed"], "reasons": raw["reasons"]}
    if trace:
        result["metrics"] = {m: metric(raw["per_layer"][m], _unit(m)) for m in PER_LAYER}
        result["absent"] = raw["absent"]
        return result
    latencies = sorted(raw["latencies"])
    result["samples"] = len(latencies)
    result["metrics"] = {
        "ops_per_s": metric(len(latencies) / sum(latencies), "1/s"),
        "latency_p50_ms": metric(1000 * statistics.median(latencies), "ms"),
        "setup_s": metric(statistics.median(raw["setups"]), "s"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
    }
    if len(latencies) >= 100:  # at least ten samples lie beyond the 90th percentile
        result["latency_p90_ms"] = 1000 * statistics.quantiles(latencies, n=10)[-1]
    return result


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _print_human(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"{name}: {attempted} operations, error_rate {failed / attempted:.4f} ({failed}/{attempted})")
    for reason in result["reasons"]:
        print(f"{name}:   failed: {reason}")
    for key, m in result["metrics"].items():
        print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
    if "samples" in result:
        print(f"{name}: latency samples = {result['samples']}")
    if "latency_p90_ms" in result:
        print(f"{name}: latency_p90_ms = {result['latency_p90_ms']:.6g} ms")
    for span in result.get("absent", []):
        print(f"{name}: span {span} is absent from the program")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "proofinfo" / "__init__.py").is_file():
        print(f"error: no proofinfo package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the kernel-check generator enumerates proofs with it
    shutil.rmtree(HERE / "_work", ignore_errors=True)  # only this run's files remain
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            deadline = time.monotonic() + DEADLINE_S
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), deadline)
            _print_human(name, results[name])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.workload == "all":
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
