"""Command-line interface.

Subcommands: demo | validate | weight | profile | entropy | check.
Every command is a pure function of its input files and flags; identical
invocations produce byte-identical reports. Exit codes: 0 success, 2 domain
violation, 3 I/O or parse failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .errors import (
    EmptyFormulaError,
    NotADistributionError,
    ProofInfoError,
    ProofTooLargeError,
    UnknownProofIdError,
)
from .kernel import check_knowledge_system, parse_world
from .measure import proof_measure, shannon_entropy
from .model import (
    KnowledgeSystem,
    _decode_json,
    _parse_probability,
    builtin_example,
    normalize_formula,
    parse_knowledge_system,
)
from .report import (
    base_report,
    check_entry,
    file_digest,
    fmt_bits,
    knowledge_system_digest,
    measure_results,
    profile_entry,
    render,
    summary_results,
    weight_entry,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3

# the subsets the demo reports: the shared day fact plus the nested subsets
# of QB3 that maximize the weight at sizes one to three
_DEMO_SUBSETS = (
    ("Day=Fri",),
    ("Brd(R2,Dok)",),
    ("Day≠Fri", "Brd(R2,Dok)"),
    ("Day≠Fri", "Brd(R2,Dok)", "Win(Bok)∨Win(Fok)"),
)


class _Fail(Exception):
    """Abort the command with a message on stderr and the given exit code."""

    def __init__(self, code: int, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


def _read_json(path: str) -> tuple[object, str]:
    """Read a JSON file, returning (document, content digest). I/O errors -> exit 3."""
    try:
        raw = Path(path).read_bytes()
        return _decode_json(raw.decode("utf-8")), file_digest(raw)
    except OSError as exc:
        raise _Fail(EXIT_IO, f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # malformed, duplicate keys, nested too deep
        raise _Fail(EXIT_IO, f"cannot parse {path}: {exc}") from exc


def _load_system(path: str, domain_exit: int = EXIT_DOMAIN) -> tuple[KnowledgeSystem, dict]:
    document, digest = _read_json(path)
    try:
        ks = parse_knowledge_system(document)
    except ProofInfoError as exc:
        raise _Fail(domain_exit, f"{type(exc).__name__}: {exc}") from exc
    return ks, {"path": path, "sha256": digest}


def _parse_subset(args: argparse.Namespace) -> list[str]:
    if args.subset_file is not None:
        try:
            lines = Path(args.subset_file).read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError) as exc:
            raise _Fail(EXIT_IO, f"cannot read {args.subset_file}: {exc}") from exc
        parts = [line for line in lines if line.strip()]
    else:
        # comma-separated; commas inside formulas need --subset-file
        parts = [p for p in args.subset.split(",") if p.strip()] if args.subset else []
    try:
        return [normalize_formula(p) for p in parts]
    except EmptyFormulaError as exc:
        raise _Fail(EXIT_DOMAIN, str(exc)) from exc


# ---------------------------------------------------------------------------
# command handlers: each returns (report, exit code)
# ---------------------------------------------------------------------------

def _cmd_demo(args: argparse.Namespace) -> tuple[dict, int]:
    ks = builtin_example()
    measure = proof_measure(ks)
    results = summary_results(ks)
    results["measure"] = measure_results(ks, measure)
    results["empty_subset_weight"] = weight_entry(ks, measure, ())["weight_bits"]
    results["weights"] = [weight_entry(ks, measure, s) for s in _DEMO_SUBSETS]
    results["profiles"] = {
        p.id: profile_entry(ks, measure, p.id) for p in ks.proofs
    }
    input_desc = {"source": "builtin", "sha256": knowledge_system_digest(ks)}
    return base_report("demo", {}, input_desc, results), EXIT_OK


def _cmd_validate(args: argparse.Namespace) -> tuple[dict, int]:
    document, digest = _read_json(args.path)
    input_desc = {"path": args.path, "sha256": digest}
    try:
        ks = parse_knowledge_system(document)
    except ProofInfoError as exc:
        results = {
            "valid": False,
            "violations": [
                {"code": type(exc).__name__.removesuffix("Error"), "message": str(exc)}
            ],
        }
        report = base_report("validate", {"path": args.path}, input_desc, results)
        return report, EXIT_DOMAIN
    results = {"valid": True, **summary_results(ks)}
    return base_report("validate", {"path": args.path}, input_desc, results), EXIT_OK


def _cmd_weight(args: argparse.Namespace) -> tuple[dict, int]:
    ks, input_desc = _load_system(args.path)
    subset = _parse_subset(args)
    measure = proof_measure(ks)
    results = {"weights": [weight_entry(ks, measure, subset)]}
    arguments = {"path": args.path, "subset": subset}
    return base_report("weight", arguments, input_desc, results), EXIT_OK


def _cmd_profile(args: argparse.Namespace) -> tuple[dict, int]:
    ks, input_desc = _load_system(args.path)
    measure = proof_measure(ks)
    ids = [p.id for p in ks.proofs] if args.all else [args.proof]
    profiles = {}
    for pid in ids:
        try:
            profiles[pid] = profile_entry(ks, measure, pid, allow_large=args.allow_large)
        except (UnknownProofIdError, ProofTooLargeError) as exc:
            raise _Fail(EXIT_DOMAIN, str(exc)) from exc
    arguments = {"path": args.path, "proofs": ids}
    results = {"profiles": profiles}
    return base_report("profile", arguments, input_desc, results), EXIT_OK


def _cmd_entropy(args: argparse.Namespace) -> tuple[dict, int]:
    parts = [p.strip() for p in args.dist.split(",") if p.strip()]
    try:
        dist = [_parse_probability(p) for p in parts]
        value = shannon_entropy(dist)
    except (ValueError, ZeroDivisionError) as exc:
        raise _Fail(EXIT_DOMAIN, f"bad probability: {exc}") from exc
    except NotADistributionError as exc:
        raise _Fail(EXIT_DOMAIN, str(exc)) from exc
    digest = file_digest(",".join(parts).encode("utf-8"))
    results = {"distribution": [str(d) for d in dist], "entropy_bits": fmt_bits(value)}
    report = base_report(
        "entropy", {"dist": parts}, {"source": "inline", "sha256": digest}, results
    )
    return report, EXIT_OK


def _cmd_check(args: argparse.Namespace) -> tuple[dict, int]:
    world_doc, world_digest = _read_json(args.world_path)
    try:
        world = parse_world(world_doc)
    except ProofInfoError as exc:
        raise _Fail(EXIT_IO, f"bad world document: {exc}") from exc
    # for check, a knowledge system that fails to parse is an input failure
    ks, ks_input = _load_system(args.ks_path, domain_exit=EXIT_IO)
    try:
        checked = check_knowledge_system(world, ks, strict=args.strict)
    except ProofInfoError as exc:
        raise _Fail(EXIT_IO, f"cannot interpret proof formulas: {exc}") from exc
    results = {
        "strict": args.strict,
        "proofs": [check_entry(c) for c in checked],
        "all_valid": all(c.valid for c in checked),
    }
    input_desc = {
        **ks_input,
        "world_path": args.world_path,
        "world_sha256": world_digest,
    }
    arguments = {"world": args.world_path, "path": args.ks_path, "strict": args.strict}
    report = base_report("check", arguments, input_desc, results)
    return report, EXIT_OK if results["all_valid"] else EXIT_DOMAIN


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proofinfo",
        description="Quantify how informative proofs are in a finite knowledge system.",
    )
    parser.add_argument("--version", action="version", version=f"proofinfo {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--format", choices=("json", "table"), default="json",
            help="output format (default: json)",
        )

    p = sub.add_parser("demo", help="analyze the built-in example end to end")
    add_format(p)
    p.set_defaults(handler=_cmd_demo)

    p = sub.add_parser("validate", help="validate a knowledge-system file")
    p.add_argument("path")
    add_format(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("weight", help="entropic weight of a formula subset")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--subset", help="comma-separated formulas ('' for the empty set)")
    group.add_argument("--subset-file", help="file with one formula per line")
    add_format(p)
    p.set_defaults(handler=_cmd_weight, subset=None, subset_file=None)

    p = sub.add_parser("profile", help="convergence profile of a proof")
    p.add_argument("path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--proof", help="proof id")
    group.add_argument("--all", action="store_true", help="profile every proof")
    p.add_argument(
        "--allow-large", action="store_true",
        help="search proofs larger than the 30-formula guard",
    )
    add_format(p)
    p.set_defaults(handler=_cmd_profile)

    p = sub.add_parser("entropy", help="Shannon entropy of an exact distribution")
    p.add_argument("--dist", required=True, help="comma-separated rationals, e.g. 1/4,1/4,1/2")
    add_format(p)
    p.set_defaults(handler=_cmd_entropy)

    p = sub.add_parser("check", help="check every proof of a system against a world")
    p.add_argument("world_path")
    p.add_argument("ks_path")
    p.add_argument("--strict", action="store_true", help="forbid implicit derivation hops")
    add_format(p)
    p.set_defaults(handler=_cmd_check)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        report, code = args.handler(args)
    except _Fail as fail:
        print(f"error: {fail.message}", file=sys.stderr)
        return fail.code
    try:
        sys.stdout.write(render(report, args.format))
    except UnicodeEncodeError as exc:  # e.g. a lone surrogate from a JSON \u escape
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_IO
    return code


if __name__ == "__main__":
    raise SystemExit(main())
