"""Span tracing around the layers of proofinfo, installed from outside the package.

`Tracer.installed()` replaces every public function of the layer modules by a
wrapper, wherever a proofinfo module binds it (the defining module, the
package and every module that imported it), so calls between and within
layers each record a span. Leaving the context restores the original
bindings. Each finished operation is folded into per-name totals; the spans
of the counted operations stay in memory until `write_spans`.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from collections.abc import Iterator

LAYERS = ("model", "measure", "weight", "convergence", "kernel", "report")
ROOT = "cli.main"
PROFILE = "convergence.profile"
WEIGHT = "weight.weight"

# metric -> (kind, spans it sums over); times are self times in seconds per
# operation, counts are calls per operation
SPAN_METRICS = {
    "cli.self_s": ("self", (ROOT,)),
    "model.parse_s": ("self", ("model.parse_knowledge_system",)),
    "model.parse_calls": ("calls", ("model.parse_knowledge_system",)),
    "measure.proof_measure_s": ("self", ("measure.proof_measure",)),
    "measure.support_s": ("self", ("measure.support",)),
    "measure.support_calls": ("calls", ("measure.support",)),
    "measure.support_ids_calls": ("calls", ("measure.support_ids",)),
    "weight.weight_s": ("self", (WEIGHT,)),
    "weight.weight_calls": ("calls", (WEIGHT,)),
    "convergence.profile_s": ("self", (PROFILE, "convergence.max_subset_weight")),
    "convergence.threshold_s": ("self", ("convergence.certainty_threshold",)),
    "kernel.parse_kformula_s": ("self", ("kernel.parse_kformula",)),
    "kernel.parse_kformula_calls": ("calls", ("kernel.parse_kformula",)),
    "kernel.check_proof_s": ("self", ("kernel.check_proof",)),
    "kernel.check_proof_calls": ("calls", ("kernel.check_proof",)),
    "report.entry_s": ("self", ("report.weight_entry", "report.profile_entry", "report.check_entry")),
    "report.render_s": ("self", ("report.render", "report.render_json", "report.render_table")),
}

# computed by Tracer.metrics and worker.py outside SPAN_METRICS
OTHER_METRICS = (
    "convergence.weight_calls_per_profile",
    "convergence.distinct_subset_ratio",
    "report.render_bytes",
    "trace.overhead_ratio",
    *(f"{layer}.self_s" for layer in LAYERS),
)

PER_LAYER = (*SPAN_METRICS, *OTHER_METRICS)


def _frozen_subset(args: tuple, kwargs: dict) -> tuple[tuple, dict, frozenset]:
    """weight()'s arguments and its subset as a frozenset. A one-shot iterator
    is replaced by a tuple first, so recording it does not consume it."""
    subset = args[2] if len(args) > 2 else kwargs["subset"]
    if isinstance(subset, Iterator):
        subset = tuple(subset)
        if len(args) > 2:
            args = (*args[:2], subset, *args[3:])
        else:
            kwargs = {**kwargs, "subset": subset}
    return args, kwargs, frozenset(subset)


class Tracer:
    """Records (name, start, end, parent) spans for one operation at a time.

    `end_op` folds the finished operation into per-name totals; the spans of
    counted operations are kept, with their operation id, for `write_spans`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []  # the operation in progress
        self.weight_args: dict[int, frozenset] = {}  # span index -> subset passed to weight()
        self.kept: list[tuple] = []
        self.present: set[str] = set()
        self.self_time: dict[str, float] = defaultdict(float)  # over every traced operation
        self.calls: Counter[str] = Counter()  # over the counted operations
        self.weight_in_profile = 0
        self.distinct_in_profile = 0
        self.ops = 0
        self.counted = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        weight_args = self.weight_args if name == WEIGHT else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            if weight_args is not None:
                args, kwargs, weight_args[index] = _frozen_subset(args, kwargs)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def end_op(self, counted: bool) -> None:
        """Fold the finished operation's spans into the totals and clear them."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, *_), t in zip(self.spans, own):
            self.self_time[name] += t
        if counted:
            self.calls.update(name for name, *_ in self.spans)
            in_profile = self._weight_args_in_profile()
            self.weight_in_profile += len(in_profile)
            self.distinct_in_profile += len(set(in_profile))
            base = len(self.kept)
            self.kept.extend(
                (name, start, end, parent + base if parent >= 0 else -1, self.ops)
                for name, start, end, parent in self.spans
            )
            self.counted += 1
        self.ops += 1
        self.spans.clear()
        self.weight_args.clear()

    def _weight_args_in_profile(self) -> list[frozenset]:
        """The subset of every weight() call made inside a profile span."""
        under: list[bool] = []
        found = []
        for index, (name, _, _, parent) in enumerate(self.spans):
            inside = parent >= 0 and (self.spans[parent][0] == PROFILE or under[parent])
            under.append(inside)
            if inside and name == WEIGHT:
                found.append(self.weight_args[index])
        return found

    @contextlib.contextmanager
    def installed(self):
        """Wrap every public layer function at each of its proofinfo bindings."""
        modules = [m for n, m in list(sys.modules.items()) if n == "proofinfo" or n.startswith("proofinfo.")]
        replaced: list[tuple[object, str, object]] = []
        for layer in LAYERS:
            module = importlib.import_module(f"proofinfo.{layer}")
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                self.present.add(name)
                wrapper = self.wrap(name, fn)
                for mod in modules:
                    for bound, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, bound, wrapper)
                            replaced.append((mod, bound, fn))
        try:
            yield
        finally:
            for mod, bound, fn in reversed(replaced):
                setattr(mod, bound, fn)

    def absent(self) -> list[str]:
        """Span names the metrics refer to that the program no longer defines."""
        wanted = {n for _, names in SPAN_METRICS.values() for n in names if n != ROOT}
        return sorted(wanted - self.present)

    def metrics(self) -> dict[str, float]:
        """Per-operation means: times over every traced operation, counts over
        the counted ones (a fixed list, so counts repeat exactly run to run)."""
        time_by_layer: dict[str, float] = defaultdict(float)
        for name, t in self.self_time.items():
            time_by_layer[name.split(".", 1)[0]] += t
        out = {}
        for metric, (kind, names) in SPAN_METRICS.items():
            if kind == "self":
                out[metric] = sum(self.self_time[n] for n in names) / self.ops
            else:
                out[metric] = sum(self.calls[n] for n in names) / self.counted
        for layer in LAYERS:
            out[f"{layer}.self_s"] = time_by_layer[layer] / self.ops
        profiles = self.calls[PROFILE]
        calls = self.weight_in_profile
        out["convergence.weight_calls_per_profile"] = calls / profiles if profiles else 0.0
        # with no weight() call inside a profile nothing is re-evaluated
        out["convergence.distinct_subset_ratio"] = self.distinct_in_profile / calls if calls else 1.0
        return out

    def write_spans(self, path) -> None:
        """The kept spans, one JSON array per line: name, start, end, parent
        index, operation id; the first line lists the absent span names."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"absent": self.absent()}) + "\n")
            for span in self.kept:
                out.write(json.dumps(span) + "\n")
