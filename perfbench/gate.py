"""Correctness gate for the hopfq benchmark.

``expected.txt`` maps every corpus line a workload can generate to a digest of
what hopfq must report for it: per structure the (decision, method, index,
witness, generator) tuple, plus the oracle's generator on oracle-verify, or the
validation error's type for an invalid line.  Integers enter the digest in
hexadecimal, which has no length limit, so the expected values are computed
through the library even for fields whose decimal output would exceed Python's
4300-digit conversion limit.

Each line of a call is classified as

- correct: its record is present and its digest matches;
- failed: the call raised, exited with code 3, or left the line without a
  parsable record (``missing``);
- wrong: a record is present but its digest differs.  A wrong line is also
  failed, and it makes the whole run incorrect.

A validation-error record for an invalid line is a correct output.

Regenerate the table (only when hopfq is meant to change its answers) with::

    PYTHONPATH=src python3 perfbench/gate.py --jobs 2
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any, Iterator, Sequence

EXPECTED_PATH = Path(__file__).with_name("expected.txt")
ORACLE_BOUND = 12  # hopfq's default --oracle-bound
ORACLE_SUFFIX = " --verify-oracle"


# ---- digests ----

def _hex_ints(values: Sequence[int] | None) -> str:
    return "-" if values is None else ",".join(format(v, "x") for v in values)


def digest(rows: Sequence[Sequence[Any]]) -> str:
    """Digest of per-structure rows (decision, method, index, witness, generator[, oracle])."""
    parts = []
    for decision, method, index, *tuples in rows:
        index = Fraction(index)
        parts.append("|".join([decision, method, _hex_ints((index.numerator, index.denominator))]
                              + [_hex_ints(t) for t in tuples]))
    return hashlib.sha256(";".join(parts).encode()).hexdigest()[:16]


def key(line: str, oracle: bool) -> str:
    return line + ORACLE_SUFFIX if oracle else line


def load_expected(path: Path = EXPECTED_PATH) -> dict[str, str]:
    table = {}
    for row in path.read_text(encoding="utf-8").splitlines():
        k, _, v = row.partition("\t")
        table[k] = v
    return table


# ---- observed outputs ----

@contextmanager
def unlimited_int_digits() -> Iterator[None]:
    """Parse decimal integers of any length; restores the interpreter's limit."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _number(value: Any) -> Fraction:
    if isinstance(value, str):
        num, _, den = value.partition("/")
        return Fraction(int(num), int(den or 1))
    return Fraction(value)


def _ints(value: Any) -> tuple[int, ...] | None:
    return None if value is None else tuple(int(v) for v in value)


def observed_entry(record: dict, oracle: bool) -> str:
    """The expected-table entry a record stands for; KeyError/ValueError on malformed records."""
    if "error" in record:
        return f"error:{record['error']['type']}"
    rows = []
    for s in record["structures"]:
        f = s["freeness"]
        row = [f["decision"], f["method"], _number(f["index"]), _ints(f["witness"]),
               _ints(f["generator"])]
        if oracle:
            row.append(_ints(s["oracle"]["generator"]))
        rows.append(row)
    return digest(rows)


def records_by_line(argv: Sequence[str], text: str) -> dict[int, dict]:
    """Parsed output records keyed by 1-based corpus line; unparsable output is skipped."""
    if argv[0] != "corpus":
        try:
            return {1: json.loads(text)}
        except ValueError:
            return {}
    out = {}
    for raw in text.splitlines():
        try:
            record = json.loads(raw)
        except ValueError:
            continue
        if isinstance(record, dict) and isinstance(record.get("line"), int):
            out[record["line"]] = record
    return out


@dataclass
class CallCheck:
    """Classification of the lines of one call."""

    attempted: int = 0
    failed: int = 0
    wrong: list[tuple[str, str, str]] = field(default_factory=list)  # (key, expected, observed)


def check_call(lines: Sequence[str], oracle: bool, argv: Sequence[str], code: int | None,
               error: str | None, text: str, expected: dict[str, str]) -> CallCheck:
    """Classify every line of one call from its exit code, exception and output."""
    result = CallCheck(attempted=len(lines))
    with unlimited_int_digits():
        records = {} if code == 3 else records_by_line(argv, text)
        for lineno, line in enumerate(lines, start=1):
            want = expected[key(line, oracle)]
            record = records.get(lineno)
            if record is None or (error is not None and argv[0] != "corpus"):
                result.failed += 1
                continue
            try:
                got = observed_entry(record, oracle)
            except (KeyError, TypeError, ValueError, ZeroDivisionError):
                got = "malformed"
            if got != want:
                result.failed += 1
                result.wrong.append((key(line, oracle), want, got))
    return result


# ---- expected table from the library ----

def expected_entry(table_key: str) -> str:
    """Compute one table entry through the hopfq library."""
    from hopfq.errors import ValidationError
    from hopfq.fields import canonicalize_biquadratic, validate_cyclic
    from hopfq.freeness import brute_force_generator, summary
    from hopfq.hopf import action_matrix, reduction_report

    oracle = table_key.endswith(ORACLE_SUFFIX)
    verb, *params = table_key.removesuffix(ORACLE_SUFFIX).split()
    build = validate_cyclic if verb == "cyclic" else canonicalize_biquadratic
    try:
        p = build(*map(int, params))
    except ValidationError as exc:
        return f"error:{type(exc).__name__}"
    rows = []
    for entry in summary(p).structures:
        r = entry.report
        row = [r.decision, r.method, r.index, r.witness, r.generator]
        if oracle:
            action = action_matrix(entry.gram)
            row.append(brute_force_generator(reduction_report(action), action, ORACLE_BOUND))
        rows.append(row)
    return digest(rows)


def table_keys() -> list[str]:
    """Every key any seed of any workload can need."""
    from workloads import A_VALUES, grid_lines, large_pool, oracle_space

    keys = set(grid_lines(A_VALUES))
    keys.update(f"cyclic {a} {b} {c}" for b, c in large_pool() for a in A_VALUES)
    cyclic, biquadratic = oracle_space()
    keys.update(key(line, True) for line in cyclic + biquadratic)
    return sorted(keys)


def main() -> None:
    import multiprocessing

    parser = argparse.ArgumentParser(description="Regenerate the expected-digest table.")
    parser.add_argument("--jobs", type=int, default=1, help="worker processes")
    parser.add_argument("--out", type=Path, default=EXPECTED_PATH)
    args = parser.parse_args()
    keys = table_keys()
    if args.jobs > 1:
        with multiprocessing.get_context("spawn").Pool(args.jobs) as pool:
            entries = pool.map(expected_entry, keys, chunksize=8)
    else:
        entries = [expected_entry(k) for k in keys]
    args.out.write_text("".join(f"{k}\t{v}\n" for k, v in zip(keys, entries)), encoding="utf-8")
    print(f"wrote {len(keys)} entries to {args.out}")


if __name__ == "__main__":
    main()
