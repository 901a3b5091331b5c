"""Outside-in span recorder for the traced benchmark run.

Nothing inside hopfq is changed.  While a :class:`Recorder` is installed, each
public function listed in ``LAYERS`` is replaced by a wrapper that records a
span (name, start, end, parent) in every ``hopfq.*`` namespace that holds it,
so calls made inside hopfq through those names are recorded too.  ``json.dump``
and ``json.dumps`` are recorded as ``cli.encode`` as seen from ``hopfq.cli``.
Spans stay in memory; :meth:`Recorder.write` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Any, Callable, Iterator

# span name -> (home module, functions recorded under that name)
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "fields.validate": ("hopfq.fields", ("validate_cyclic", "canonicalize_biquadratic")),
    "hopf.change_basis": ("hopfq.hopf", ("change_basis",)),
    "hopf.reduction_report": ("hopfq.hopf", ("reduction_report",)),
    "hopf.test_generator": ("hopfq.hopf", ("test_generator",)),
    "linalg.hnf": ("hopfq.linalg", ("hnf",)),
    "linalg.mat_inv": ("hopfq.linalg", ("mat_inv",)),
    "linalg.det": ("hopfq.linalg", ("det",)),
    "pell.solve_all": ("hopfq.pell", ("solve_all",)),
    "pell.fundamental_unit": ("hopfq.pell", ("fundamental_unit",)),
    "pell.find_with_divisibility": ("hopfq.pell", ("find_with_divisibility",)),
    "freeness.prescreen": ("hopfq.freeness", ("prescreen_cyclic", "prescreen_biquadratic")),
    "freeness.decide": ("hopfq.freeness", ("decide_cyclic", "decide_biquadratic")),
    "freeness.summary": ("hopfq.freeness", ("summary",)),
    "freeness.oracle": ("hopfq.freeness", ("brute_force_generator",)),
}
ENCODE = "cli.encode"
# spans whose return value the per-layer ratios need
KEEP_RESULT = {"hopf.test_generator", "freeness.prescreen"}


@dataclass
class Span:
    name: str
    parent: int | None
    start: int = 0
    end: int = 0
    failed: bool = False
    result: Any = None


class Recorder:
    """Records nested spans of one thread; `parent` indexes into `spans`."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def recorded(*args, **kwargs):
            span = Span(name, self._stack[-1] if self._stack else None)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = perf_counter_ns()
                self._stack.pop()
            if keep:
                span.result = result
            return result

        return recorded

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Rebind every LAYERS function and hopfq.cli's json module for the block."""
        import hopfq.cli

        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "hopfq" or n.startswith("hopfq."))]
        undo: list[tuple[Any, str, Any]] = []
        for name, (home, functions) in LAYERS.items():
            for fn_name in functions:
                original = getattr(sys.modules[home], fn_name)
                wrapper = self.wrap(name, original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
        undo.append((hopfq.cli, "json", hopfq.cli.json))
        hopfq.cli.json = _JsonProxy(self)
        try:
            yield
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def write(self, path: Path) -> None:
        """Write the spans as JSON lines: name, start_ns, end_ns, parent, failed."""
        with path.open("w", encoding="utf-8") as out:
            for s in self.spans:
                out.write(json.dumps([s.name, s.start, s.end, s.parent, s.failed]) + "\n")


class _JsonProxy:
    """The json module as hopfq.cli sees it, with dump/dumps recorded."""

    def __init__(self, recorder: Recorder) -> None:
        self.dump = recorder.wrap(ENCODE, json.dump)
        self.dumps = recorder.wrap(ENCODE, json.dumps)

    def __getattr__(self, name: str) -> Any:
        return getattr(json, name)


def self_times(spans: list[Span]) -> list[int]:
    """Each span's duration minus the durations of its direct children (ns)."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


@dataclass
class LayerTotals:
    calls: int = 0
    failures: int = 0
    self_ns: int = 0
    total_ns: int = 0


def totals(spans: list[Span]) -> dict[str, LayerTotals]:
    out: dict[str, LayerTotals] = defaultdict(LayerTotals)
    for s, own in zip(spans, self_times(spans)):
        t = out[s.name]
        t.calls += 1
        t.failures += s.failed
        t.self_ns += own
        t.total_ns += s.end - s.start
    return out


def layer_metrics(spans: list[Span], fields: int, structures: int,
                  passes: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, per traced pass, each ratio next to its base count.

    `fields` and `structures` are the valid fields and their structures
    analysed in one pass.
    """
    t = totals(spans)

    def per_pass(value: float) -> float:
        return value / passes

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def calls(name: str) -> tuple[float, str]:
        return per_pass(t[name].calls), "count"

    def self_s(name: str) -> tuple[float, str]:
        return per_pass(t[name].self_ns) / 1e9, "s"

    accepted = sum(1 for s in spans if s.name == "hopf.test_generator" and s.result)
    verdicts = [v for s in spans if s.name == "freeness.prescreen" and s.result is not None
                for v in (s.result if isinstance(s.result, tuple) else (s.result,))]
    decided = sum(1 for v in verdicts if v.outcome != "unknown")
    return {
        "fields.validate.calls": calls("fields.validate"),
        "fields.validate.self_s": self_s("fields.validate"),
        "hopf.change_basis.self_s": self_s("hopf.change_basis"),
        "hopf.reduction_report.calls": calls("hopf.reduction_report"),
        "hopf.structures": (structures, "count"),
        "hopf.reductions_per_structure":
            (ratio(t["hopf.reduction_report"].calls, structures * passes), "ratio"),
        "hopf.test_generator.calls": calls("hopf.test_generator"),
        "hopf.test_generator.accept_ratio":
            (ratio(accepted, t["hopf.test_generator"].calls), "ratio"),
        "linalg.hnf.self_s": self_s("linalg.hnf"),
        "linalg.mat_inv.self_s": self_s("linalg.mat_inv"),
        "linalg.det.calls": calls("linalg.det"),
        "linalg.det.self_s": self_s("linalg.det"),
        "pell.fields": (fields, "count"),
        "pell.solve_all.calls": calls("pell.solve_all"),
        "pell.solves_per_field": (ratio(t["pell.solve_all"].calls, fields * passes), "ratio"),
        "pell.solve_all.self_s": self_s("pell.solve_all"),
        "pell.fundamental_unit.self_s": self_s("pell.fundamental_unit"),
        "pell.find_with_divisibility.self_s": self_s("pell.find_with_divisibility"),
        "freeness.prescreen.calls": calls("freeness.prescreen"),
        "freeness.prescreen.verdicts": (per_pass(len(verdicts)), "count"),
        "freeness.prescreen.decided_ratio": (ratio(decided, len(verdicts)), "ratio"),
        "freeness.decide.calls": calls("freeness.decide"),
        "freeness.decide.self_s": self_s("freeness.decide"),
        "freeness.summary.self_s": self_s("freeness.summary"),
        "freeness.summary_over_decide":
            (ratio(t["freeness.summary"].total_ns, t["freeness.decide"].total_ns), "ratio"),
        "freeness.oracle.calls": calls("freeness.oracle"),
        "freeness.oracle.self_s": self_s("freeness.oracle"),
        "cli.encode.calls": calls(ENCODE),
        "cli.encode.self_s": self_s(ENCODE),
        "cli.encode.failures": (per_pass(t[ENCODE].failures), "count"),
    }
