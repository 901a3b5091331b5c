"""hopfq benchmark.

Drives hopfq in-process through its public CLI entry point ``hopfq.cli.main``
from one thread: each workload is a closed loop with one caller, issuing the
next call when the previous one returns.

    python3 perfbench/run.py --workload grid-small --seed 0 --seconds 5 --trace 0
    python3 perfbench/run.py --all --seed 0      # every workload, every metric

A run sets up (imports ``hopfq.cli`` and generates the seeded workload), then
makes whole passes over the workload's calls, at least MIN_PASSES and until
``--seconds`` have elapsed, checks every output against the committed expected
table, and prints its metrics, ending with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A call's time is the median over the passes of its reference-scaled time (see
``reference_ns``); ``fields_per_s`` is the fields of one pass over the sum of
those times, and the latencies are taken over the calls.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
each call untraced and then traced, reports the per-layer metrics of the
traced calls per pass and the tracing overhead (the median slowdown of a call
when traced), and writes the spans to ``.bench_work/``.

The program is taken from the ``src/`` tree next to this directory; without
it the run exits with an error before measuring anything.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
WORKLOADS = ("grid-small", "large-cyclic", "oracle-verify")
SETUP_SAMPLES = 7
TAIL_BEYOND = 10
MIN_PASSES = 2


def _use_source_tree() -> None:
    if not (SRC / "hopfq" / "cli.py").is_file():
        raise SystemExit(f"perfbench: hopfq sources not found under {SRC}")
    sys.path.insert(0, str(SRC))


# ---- statistics ----

def tail_percentile(n: int) -> float:
    """Highest percentile with at least TAIL_BEYOND of n samples above it; 100 if none."""
    if n <= TAIL_BEYOND:
        return 100.0
    return 100.0 * (n - TAIL_BEYOND) / n


def tail_value(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): the sample with exactly TAIL_BEYOND samples above it, or the max."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - TAIL_BEYOND if n > TAIL_BEYOND else n
    return ordered[rank - 1], tail_percentile(n)


# ---- machine-speed reference ----
#
# Shared machines change speed by up to 2x for seconds at a time, and a run's
# figures would follow.  A fixed piece of stdlib work shaped like hopfq's
# (Fraction Gauss-Jordan, an integer continued-fraction walk, big-integer
# products) is timed before and after every call, and the call's time is
# scaled by REFERENCE_S over the reference's mean time around it: call times
# are reported at the speed where the reference takes REFERENCE_S.  On a
# 2-core Intel Xeon VM this cut the spread of fields_per_s over seeds from
# 11% to 3%.

REFERENCE_S = 0.0085  # the reference's typical time on that VM, Python 3.11
_REF_MATRIX = [[Fraction(1, i + j + 1) for j in range(4)] for i in range(4)]
_REF_D = 10**9 + 7
_REF_BIG = 3**8000
_REF_MOD = 7**6000 + 2


def _ref_inverse(m: list[list[Fraction]]) -> list[list[Fraction]]:
    n = len(m)
    w = [row[:] for row in m]
    inv = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for col in range(n):
        p = w[col][col]
        w[col] = [x / p for x in w[col]]
        inv[col] = [x / p for x in inv[col]]
        for r in range(n):
            if r != col:
                f = w[r][col]
                w[r] = [x - f * y for x, y in zip(w[r], w[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return inv


def reference_ns() -> int:
    """Time one run of the fixed reference work."""
    start = time.perf_counter_ns()
    for _ in range(6):
        _ref_inverse(_REF_MATRIX)
    a0 = isqrt(_REF_D)
    m, den, a = 0, 1, a0
    for _ in range(15000):
        m = den * a - m
        den = (_REF_D - m * m) // den
        a = (a0 + m) // den
    x = _REF_BIG
    for _ in range(5):
        x = x * x % _REF_MOD
    return time.perf_counter_ns() - start


# ---- set-up ----

def setup(workload: str, seed: int):
    """Import hopfq.cli and generate the workload; returns (main, calls, seconds).

    Set-up time is not scaled by the reference: importing is mostly file and
    extension-module work, whose speed does not follow the reference's.
    """
    start = time.perf_counter()
    import hopfq.cli
    from workloads import generate

    calls = generate(workload, seed, WORK)
    return hopfq.cli.main, calls, time.perf_counter() - start


def setup_seconds(workload: str, seed: int, first: float) -> float:
    """Median set-up time: `first` plus fresh-interpreter samples."""
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            [sys.executable, __file__, "--setup-probe", "--workload", workload, "--seed", str(seed)],
            check=True, capture_output=True, text=True, timeout=120)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


# ---- timed passes ----

@dataclass
class CallResult:
    ns: int
    code: int | None
    error: str | None
    text: str


def run_call(main, argv) -> CallResult:
    out = io.StringIO()
    code = error = None
    start = time.perf_counter_ns()
    try:
        with redirect_stdout(out):
            code = main(list(argv))
    except Exception as exc:  # an uncaught exception is a failed operation, not a benchmark error
        error = type(exc).__name__
    return CallResult(time.perf_counter_ns() - start, code, error, out.getvalue())


def timed_pass(main, calls) -> tuple[list[CallResult], list[float]]:
    """One pass over the calls: results and reference-scaled times in ms."""
    results, times = [], []
    before = reference_ns()
    for call in calls:
        r = run_call(main, call.argv)
        after = reference_ns()
        results.append(r)
        times.append(r.ns / 1e6 * REFERENCE_S * 2e9 / (before + after))
        before = after
    return results, times


class Tally:
    """Gate results accumulated over passes."""

    def __init__(self, expected: dict[str, str]) -> None:
        self.expected = expected
        self.attempted = self.failed = 0
        self.errors: dict[str, int] = {}
        self.wrong: list[tuple[str, str, str]] = []

    def add(self, calls, results) -> None:
        from gate import check_call

        for call, r in zip(calls, results):
            c = check_call(call.lines, call.oracle, call.argv, r.code, r.error, r.text, self.expected)
            self.attempted += c.attempted
            self.failed += c.failed
            self.wrong += c.wrong
            if r.error is not None or r.code == 3:
                label = r.error or "exit 3"
                self.errors[label] = self.errors.get(label, 0) + 1

    def note(self) -> str:
        return (f"failed_frac: {self.failed / self.attempted:.6g} ({self.failed}/{self.attempted}); "
                f"uncaught: {self.errors or 'none'}")


def analysed(calls, expected) -> tuple[int, int]:
    """Valid fields and their structures in one pass."""
    from gate import key

    fields = structures = 0
    for call in calls:
        for line in call.lines:
            if not expected[key(line, call.oracle)].startswith("error:"):
                fields += 1
                structures += 1 if line.startswith("cyclic") else 3
    return fields, structures


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    from gate import load_expected

    main, calls, first_setup = setup(workload, seed)
    setup_s = setup_seconds(workload, seed, first_setup)
    tally = Tally(load_expected())
    per_pass: list[list[float]] = [[] for _ in calls]
    raw: list[list[int]] = [[] for _ in calls]
    wall = passes = 0
    while passes < MIN_PASSES or wall < seconds * 1e9:
        start = time.perf_counter_ns()
        results, times = timed_pass(main, calls)
        wall += time.perf_counter_ns() - start
        passes += 1
        for pp, rw, t, r in zip(per_pass, raw, times, results):
            pp.append(t)
            rw.append(r.ns)
        tally.add(calls, results)
        del results  # so that peak_rss_mib does not hold two passes of output
    per_call_ms = [statistics.median(pp) for pp in per_pass]
    raw_ms = [statistics.median(rw) / 1e6 for rw in raw]
    tail, pct = tail_value(per_call_ms)
    n_fields = sum(len(c.lines) for c in calls)
    metrics = {
        "fields_per_s": (n_fields / (sum(per_call_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(per_call_ms), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "success_frac": (1 - tally.failed / tally.attempted, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [
        f"passes: {passes} of {len(calls)} calls and {n_fields} fields, wall {wall / 1e9:.3f} s",
        f"latency_tail_ms: p{pct:.4g} of {len(calls)} calls",
        f"unscaled: fields_per_s {n_fields / (sum(raw_ms) / 1e3):.6g}, "
        f"latency_p50_ms {statistics.median(raw_ms):.6g}, latency_tail_ms {tail_value(raw_ms)[0]:.6g}",
        tally.note(),
    ]
    return metrics, tally, notes


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[dict, Tally, list[str]]:
    from gate import load_expected
    from spans import Recorder, layer_metrics

    main, calls, _ = setup(workload, seed)
    expected = load_expected()
    tally = Tally(expected)
    recorder = Recorder()
    slowdowns: list[float] = []  # traced over untraced time, per call and pass
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        for call in calls:
            results, plain = timed_pass(main, [call])
            tally.add([call], results)
            with recorder.installed():
                results, traced = timed_pass(main, [call])
            tally.add([call], results)
            slowdowns.append(traced[0] / plain[0])
        passes += 1
    fields, structures = analysed(calls, expected)
    metrics = layer_metrics(recorder.spans, fields, structures, passes)
    metrics["bench.trace_overhead"] = (statistics.median(slowdowns) - 1, "ratio")
    spans_path = WORK / f"spans-{workload}-{seed}.jsonl"
    recorder.write(spans_path)
    notes = [f"traced passes: {passes}, {len(recorder.spans)} spans written to {spans_path}",
             tally.note()]
    return metrics, tally, notes


# ---- entry points ----

def report(metrics: dict, tally: Tally, notes: list[str]) -> dict:
    """Print the metrics by name with their units; return the result object."""
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for k, want, got in tally.wrong[:10]:
        print(f"WRONG {k}: expected {want}, got {got}", file=sys.stderr)
    return {
        "correct": not tally.wrong,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(seed: int, seconds: int) -> None:
    """Each workload untraced then traced, each in its own process."""
    combined = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            print(f"== {workload} trace={trace}", flush=True)
            out = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                check=True, capture_output=True, text=True)
            *lines, last = out.stdout.splitlines()
            print("\n".join(lines), flush=True)
            result = json.loads(last)
            entry = combined.setdefault(workload, {"notes": []})
            if trace == 0:
                entry.update({k: result[k] for k in ("correct", "attempted", "failed")})
            entry["notes"] += [line for line in lines if " = " not in line]
            entry.update(result["metrics"])
    print(json.dumps({"seed": seed, "seconds": seconds, "workloads": combined}))


def main() -> int:
    parser = argparse.ArgumentParser(description="hopfq benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=5)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    _use_source_tree()
    if args.all:
        run_all(args.seed, args.seconds)
        return 0
    if args.workload is None:
        parser.error("--workload is required without --all")
    if args.setup_probe:
        print(setup(args.workload, args.seed)[2])
        return 0
    measure_fn = measure_traced if args.trace else measure
    result = report(*measure_fn(args.workload, args.seed, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
