"""Closed loop over one workload, run in a process of its own.

Usage: python3 perfbench/worker.py PLAN_JSON SECONDS TRACE SPANS_OUT

One client, one thread: each operation is one `proofinfo.cli.main(argv)` call
with stdout captured, issued after the previous one completed. Every output
is checked against the plan's reference (outside the timed region). Prints
one JSON object with the raw measurements.

With TRACE 0 the loop runs untraced for SECONDS, and times cold starts of
the package (coldstart.py) between operations. With TRACE 1 it alternates
an untraced and a traced pass over the plan's first `trace_ops` operations
while another pair fits in SECONDS (at least once); counts come from the
first traced pass only.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
from spans import ROOT, Tracer  # noqa: E402

COLD_STARTS = 15


class Loop:
    def __init__(self, plan: dict) -> None:
        from proofinfo import cli

        self.main = cli.main
        self.ops = plan["ops"]
        self.check = oracle.CHECKS[plan["kind"]]
        self.reset()

    def reset(self) -> None:
        """Forget the operations run so far (after a warm-up)."""
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, op: dict, main=None) -> tuple[float, str]:
        """Run one operation, check it, and return (seconds, captured stdout)."""
        main = main or self.main
        out, err = io.StringIO(), io.StringIO()
        gc.collect()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(op["argv"])
        except (Exception, SystemExit) as exc:  # a crash is a failed operation
            code, reason = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - start
        output = out.getvalue()
        if code is not None:
            try:
                reason = self.check(output, code, op["ref"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                reason = f"unreadable output: {exc!r}"
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(f"{op['argv']}: {reason}")
        return elapsed, output


def cold_start(plan: dict) -> float:
    """Seconds one fresh interpreter takes to import proofinfo and set up the system."""
    done = subprocess.run(
        [sys.executable, str(HERE / "coldstart.py"), plan["src"], plan["system"]],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def untraced(loop: Loop, seconds: float, plan: dict) -> dict:
    """Closed loop for `seconds`, with cold starts spread evenly over the run so
    that their median sees the same machine conditions as the operations."""
    loop.run(loop.ops[0])  # warm-up: lazy imports, regex compilation
    cold_start(plan)  # warm-up: bytecode cache
    loop.reset()
    latencies, setups = [], []
    interval = seconds / COLD_STARTS
    deadline = next_setup = time.perf_counter()
    deadline += seconds
    while not latencies or time.perf_counter() < deadline:
        if time.perf_counter() >= next_setup:
            started = time.perf_counter()
            setups.append(cold_start(plan))
            deadline += time.perf_counter() - started  # cold starts do not eat the loop's time
            next_setup = time.perf_counter() + interval
        latencies.append(loop.run(loop.ops[len(latencies) % len(loop.ops)])[0])
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"latencies": latencies, "setups": setups, "peak_rss_mb": peak_kb / 1024}


def traced(loop: Loop, seconds: float, trace_ops: int, spans_out: str) -> dict:
    ops = loop.ops[:trace_ops]
    loop.run(ops[0])
    loop.reset()
    tracer = Tracer()
    root = tracer.wrap(ROOT, loop.main)
    plain = with_spans = 0.0
    rendered = 0
    deadline = time.perf_counter() + seconds
    pass_s = 0.0
    # stop before a pass that would overrun, as a pass can take several seconds
    while tracer.ops == 0 or time.perf_counter() + pass_s < deadline:
        started = time.perf_counter()
        plain += sum(loop.run(op)[0] for op in ops)
        first_pass = tracer.ops == 0
        with tracer.installed():
            for op in ops:
                elapsed, output = loop.run(op, root)
                tracer.end_op(counted=first_pass)
                with_spans += elapsed
                if first_pass:
                    rendered += len(output.encode("utf-8"))
        pass_s = time.perf_counter() - started
    metrics = tracer.metrics()
    metrics["report.render_bytes"] = rendered / len(ops)
    metrics["trace.overhead_ratio"] = with_spans / plain
    tracer.write_spans(spans_out)
    return {"per_layer": metrics, "absent": tracer.absent()}


def main(argv: list[str]) -> int:
    plan_path, seconds, trace, spans_out = argv[0], float(argv[1]), argv[2] == "1", argv[3]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    sys.path.insert(0, plan["src"])
    import proofinfo

    if not proofinfo.__file__.startswith(plan["src"]):
        print(f"proofinfo imported from {proofinfo.__file__}, not from {plan['src']}", file=sys.stderr)
        return 2
    loop = Loop(plan)
    if trace:
        result = traced(loop, seconds, plan["trace_ops"], spans_out)
    else:
        result = untraced(loop, seconds, plan)
    result.update(attempted=loop.attempted, failed=loop.failed, reasons=loop.reasons)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
