"""Deterministic report assembly and rendering.

Reports are plain dicts with a fixed key order so identical inputs always
produce byte-identical output. Floats are rendered at six decimal places,
exact rationals as "p/q" strings; the machine-readable JSON format carries a
schema tag so downstream consumers can detect changes.
"""

from __future__ import annotations

import hashlib
import json
from json.encoder import encode_basestring
from collections.abc import Iterable, Sequence

from . import __version__
from .convergence import profile
from .measure import ProbabilityMeasure
from .model import KnowledgeSystem, _Memo, serialize_knowledge_system
from .weight import WeightResult

REPORT_SCHEMA = "proofinfo.report/1"


def fmt_bits(value: float) -> str:
    if value == 0:
        value = 0.0  # never render -0.000000
    return f"{value:.6f}"


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def knowledge_system_digest(ks: KnowledgeSystem) -> str:
    canonical = json.dumps(
        serialize_knowledge_system(ks), ensure_ascii=False, separators=(",", ":")
    )
    return file_digest(canonical.encode("utf-8"))


def base_report(command: str, arguments: dict, input_desc: dict, results: dict) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "tool": {"name": "proofinfo", "version": __version__},
        "command": command,
        "arguments": arguments,
        "input": input_desc,
        "results": results,
    }


def summary_results(ks: KnowledgeSystem) -> dict:
    return {
        "goal_count": ks.M,
        "goals": list(ks.goals),
        "proof_count": len(ks.proofs),
        "class_sizes": {g: len(ks.classes[g]) for g in ks.goals},
    }


def measure_results(ks: KnowledgeSystem, measure: ProbabilityMeasure) -> dict:
    return {p.id: str(measure.per_proof[p.id]) for p in ks.proofs}


def weight_entry(ks: KnowledgeSystem, subset: Sequence[str], result: WeightResult) -> dict:
    return {
        "subset": list(subset),
        "weight_bits": fmt_bits(result.value),
        "support": sorted(result.support.proofs),
        "support_mass": str(result.support.total_mass),
        "per_goal_mass": {g: str(result.support.per_goal_mass[g]) for g in ks.goals},
        "certain": result.certain,
        "empty_support": result.empty_support,
    }


def profile_entry(
    ks: KnowledgeSystem,
    measure: ProbabilityMeasure,
    proof_id: str,
) -> dict:
    prof = profile(ks, measure, proof_id)
    return {
        "formula_count": len(ks.by_id[proof_id].formulas),
        "max_weights": [fmt_bits(v) for v in prof.max_weights],
        "witnesses": [list(w) for w in prof.witnesses],
        "certainty_threshold": prof.certainty_threshold,
        "average_weight": fmt_bits(prof.average_weight),
        "average_speed": fmt_bits(prof.average_speed),
        "certain_from_first_formula": prof.certainty_threshold == 1,
    }


# kernel.CheckedProof, left unimported (annotations are not evaluated), so
# that importing the report writer does not load the kernel
def check_entry(checked: CheckedProof) -> dict:
    return {
        "id": checked.proof_id,
        "valid": checked.valid,
        "steps": [
            {
                "index": i,
                "rule": step.rule,
                "premises": list(step.premises),
                "conclusion": step.conclusion.text(),
                "implicit": [f.text() for f in step.implicit],
            }
            for i, step in enumerate(checked.steps)
        ],
        "violations": [
            {"index": i, "reason": reason} for i, reason in checked.violations
        ],
    }


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------

# an item of exactly one of these types is written in one append, with its
# key's prefix; any other value, a subclass of these included, goes through
# render_json's write()
_SCALARS = {
    str: encode_basestring,
    int: int.__repr__,
    bool: {False: "false", True: "true"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}


def render_json(report: dict) -> str:
    """The bytes of `json.dumps(report, ensure_ascii=False, indent=2)` plus a newline.

    The standard library encodes indented output with its pure-Python
    encoder, so this writes the same text directly. Strings go through the
    same escaping function and every key must be a str. Any other value
    that is not a dict, a list or a tuple (a float, a subclass of a scalar
    type, a top-level scalar, or an unsupported type, which raises
    TypeError) is written by `json.dumps`, which encodes a scalar alike.
    """
    parts: list[str] = []
    add = parts.append
    scalar = _SCALARS.get

    # a pad is the newline and indent that close one level; each pad maps to
    # the next level's pad, the prefixes that open a dict with a key and that
    # separate a key from the item before it, and the strings that open a
    # list and separate items there, built once per depth and key rather
    # than per item
    def level(pad: str) -> tuple:
        inner = pad + "  "
        return (
            inner,
            _Memo(lambda key: "{" + inner + encode_basestring(key) + ": "),
            _Memo(lambda key: "," + inner + encode_basestring(key) + ": "),
            "[" + inner,
            "," + inner,
        )

    levels = _Memo(level)

    def write(value: object, pad: str) -> None:
        if isinstance(value, dict):
            if not value:
                add("{}")
                return
            inner, keys, later_keys, _, _ = levels[pad]
            for key, item in value.items():
                encode = scalar(item.__class__)
                if encode is None:
                    add(keys[key])
                    write(item, inner)
                else:
                    add(keys[key] + encode(item))
                keys = later_keys
            add(pad)
            add("}")
        elif isinstance(value, (list, tuple)):
            if not value:
                add("[]")
                return
            inner, _, _, sep, comma = levels[pad]
            for item in value:
                encode = scalar(item.__class__)
                if encode is None:
                    add(sep)
                    write(item, inner)
                else:
                    add(sep + encode(item))
                sep = comma
            add(pad)
            add("]")
        else:
            add(json.dumps(value, ensure_ascii=False))

    write(report, "\n")
    add("\n")  # joined with the rest instead of appended to a copy
    return "".join(parts)


def _subset_label(subset: Iterable[str]) -> str:
    return "{" + ", ".join(subset) + "}"


def _table_lines(report: dict) -> list[str]:
    command = report["command"]
    results = report["results"]
    lines = [
        f"proofinfo {report['tool']['version']} :: {command}",
        f"input: {report['input'].get('path', report['input'].get('source', '?'))} "
        f"(sha256 {report['input']['sha256'][:12]})",
    ]

    if command == "validate":
        if results["valid"]:
            lines.append(f"summary: M={results['goal_count']}, proofs={results['proof_count']}")
            sizes = ", ".join(f"{g}={n}" for g, n in results["class_sizes"].items())
            lines.append(f"class sizes: {sizes}")
        else:
            lines.append("invalid:")
            for v in results["violations"]:
                lines.append(f"  {v['code']}: {v['message']}")
        return lines

    if command == "entropy":
        lines.append(f"distribution: {', '.join(results['distribution'])}")
        lines.append(f"entropy: {results['entropy_bits']} bits")
        return lines

    if command in ("demo", "weight", "profile"):
        if "goals" in results:
            lines.append(f"goals ({results['goal_count']}): {', '.join(results['goals'])}")
        if "measure" in results:
            lines.append("measure:")
            for pid, mass in results["measure"].items():
                lines.append(f"  {pid:<5} {mass}")
        if "empty_subset_weight" in results:
            lines.append(f"empty-subset weight: {results['empty_subset_weight']} bits")
        for entry in results.get("weights", []):
            flags = []
            if entry["certain"]:
                flags.append("certain")
            if entry["empty_support"]:
                flags.append("empty support")
            suffix = f" [{', '.join(flags)}]" if flags else ""
            lines.append(
                f"weight {_subset_label(entry['subset'])}: {entry['weight_bits']} bits, "
                f"support {_subset_label(entry['support'])}, mass {entry['support_mass']}{suffix}"
            )
        for pid, prof in results.get("profiles", {}).items():
            lines.append(f"profile {pid}:")
            lines.append(f"  max weights: [{', '.join(prof['max_weights'])}]")
            lines.append(f"  certainty threshold: {prof['certainty_threshold']}")
            note = " (certain from first formula)" if prof["certain_from_first_formula"] else ""
            lines.append(
                f"  average weight: {prof['average_weight']}, "
                f"average speed: {prof['average_speed']}{note}"
            )
        return lines

    # check: argparse admits no other command
    for entry in results["proofs"]:
        lines.append(f"{entry['id']}: {'valid' if entry['valid'] else 'INVALID'}")
        for step in entry["steps"]:
            premises = ",".join(str(j) for j in step["premises"])
            implicit = (
                f" (implicit: {', '.join(step['implicit'])})" if step["implicit"] else ""
            )
            lines.append(
                f"  [{step['index']}] {step['conclusion']}  <- {step['rule']}"
                f"({premises}){implicit}"
            )
        for violation in entry["violations"]:
            lines.append(f"  !! step {violation['index']}: {violation['reason']}")
    return lines


def render_table(report: dict) -> str:
    return "\n".join(_table_lines(report)) + "\n"


def render(report: dict, fmt: str) -> str:
    return render_table(report) if fmt == "table" else render_json(report)
