"""Seeded workload generator for the hopfq benchmark.

A workload is a list of calls to ``hopfq.cli.main``.  Each call carries the
corpus lines (or the single field) it hands to hopfq, so the correctness gate
can look every field up in the committed expected table.  hopfq only ever sees
the generated argv and corpus files, never the seed.

Run as a script to write a workload's corpus files and print its calls::

    PYTHONPATH=src python3 perfbench/workloads.py --workload grid-small --seed 0 --out .bench_work
"""

from __future__ import annotations

import argparse
import math
import random
from dataclasses import dataclass
from pathlib import Path

from hopfq.errors import ValidationError
from hopfq.fields import canonicalize_biquadratic, validate_cyclic

WORKLOADS = ("grid-small", "large-cyclic", "oracle-verify")

# Odd squarefree a whose prime factors are all 3 mod 4.  Such a prime divides
# b^2 + c^2 only together with its square, so for squarefree d every a here is
# coprime to d: the seed's choice of a changes the field (integral-basis case,
# generator), but not which lines are valid nor the Pell work, which depends on
# b and c alone.  That keeps the cost of a run independent of the seed.
A_VALUES = (1, -1, 3, -3, 7, -7, 11, -11)
GRID_BC = range(1, 25)
GRID_RADICANDS = range(-29, 30)
GRID_A_PER_SEED = 2
# The grid is cut into this many corpus calls, each timed between two readings
# of the machine-speed reference (see run.py).
GRID_CALLS = 40

# The large-cyclic (b, c) pairs are one fixed log-uniform draw.  Per-field
# cost in the Pell layer spans four orders of magnitude (20 ms median, seconds
# to tens of seconds in the tail), so redrawing (b, c) per seed would make
# fields_per_s swing far beyond any usable bound; the seed picks a and the
# call order instead.
LARGE_POOL_SEED = "large-cyclic-pool"
LARGE_POOL_SIZE = 40
LARGE_RANGE = (10**3, 10**5)

ORACLE_CYCLIC = 60
ORACLE_BIQUADRATIC = 40


@dataclass(frozen=True)
class Call:
    """One ``hopfq.cli.main`` invocation and the corpus lines it processes.

    `lines` are in the order hopfq sees them; for a ``corpus`` call line i of
    the file is ``lines[i - 1]``.
    """

    argv: tuple[str, ...]
    lines: tuple[str, ...]
    oracle: bool = False


def grid_lines(a_values) -> list[str]:
    """Every grid line for the given a, including the invalid ones."""
    lines = [f"cyclic {a} {b} {c}" for a in a_values for b in GRID_BC for c in GRID_BC]
    lines += [f"biquadratic {m} {n}" for m in GRID_RADICANDS for n in GRID_RADICANDS if m < n]
    return lines


def _is_valid(line: str) -> bool:
    verb, *params = line.split()
    try:
        if verb == "cyclic":
            validate_cyclic(*map(int, params))
        else:
            canonicalize_biquadratic(*map(int, params))
    except ValidationError:
        return False
    return True


def large_pool() -> list[tuple[int, int]]:
    """The fixed (b, c) pairs of large-cyclic, log-uniform in LARGE_RANGE, d squarefree."""
    rng = random.Random(LARGE_POOL_SEED)
    lo, hi = (math.log(v) for v in LARGE_RANGE)
    pool: list[tuple[int, int]] = []
    while len(pool) < LARGE_POOL_SIZE:
        b, c = (round(math.exp(rng.uniform(lo, hi))) for _ in range(2))
        if (b, c) not in pool and _is_valid(f"cyclic 1 {b} {c}"):
            pool.append((b, c))
    return pool


def oracle_space() -> tuple[list[str], list[str]]:
    """Valid cyclic and biquadratic lines that oracle-verify samples from."""
    lines = [line for line in grid_lines(A_VALUES) if _is_valid(line)]
    return ([line for line in lines if line.startswith("cyclic")],
            [line for line in lines if line.startswith("biquadratic")])


def generate(name: str, seed: int, workdir: Path) -> list[Call]:
    """The calls of one pass of workload `name`; corpus files go to `workdir`."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "grid-small":
        lines = grid_lines(sorted(rng.sample(A_VALUES, GRID_A_PER_SEED)))
        rng.shuffle(lines)
        calls = []
        for i in range(GRID_CALLS):
            chunk = lines[i::GRID_CALLS]
            path = _write(workdir / f"grid-small-{seed}-{i}.txt", chunk)
            calls.append(Call(("corpus", str(path)), tuple(chunk)))
        return calls
    if name == "large-cyclic":
        fields = [(rng.choice(A_VALUES), b, c) for b, c in large_pool()]
        rng.shuffle(fields)
        return [Call(("cyclic", "-a", str(a), "-b", str(b), "-c", str(c)), (f"cyclic {a} {b} {c}",))
                for a, b, c in fields]
    if name == "oracle-verify":
        cyclic, biquadratic = oracle_space()
        lines = rng.sample(cyclic, ORACLE_CYCLIC) + rng.sample(biquadratic, ORACLE_BIQUADRATIC)
        rng.shuffle(lines)
        calls = []
        for i, line in enumerate(lines):
            path = _write(workdir / f"oracle-verify-{seed}-{i}.txt", [line])
            calls.append(Call(("corpus", str(path), "--verify-oracle"), (line,), oracle=True))
        return calls
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")


def _write(path: Path, lines: list[str]) -> Path:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True, help="directory for corpus files")
    args = parser.parse_args()
    for call in generate(args.workload, args.seed, args.out):
        print(" ".join(call.argv))


if __name__ == "__main__":
    main()
