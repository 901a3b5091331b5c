"""Matrix, Gram-matrix and Pell helpers used only by the tests."""

from __future__ import annotations

from fractions import Fraction

from hopfq.fields import CyclicQuarticParams
from hopfq.hopf import CLASSICAL, StructureId
from hopfq.pell import PellSolution, _size_key, solve_all


def mat(rows) -> list[list[Fraction]]:
    """Coerce a nested sequence of numbers into a Fraction matrix."""
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    assert len(a[0]) == inner, "dimension mismatch"
    return [
        [sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def mat_vec(a, v):
    assert len(a[0]) == len(v), "dimension mismatch"
    return [sum(row[j] * v[j] for j in range(len(v))) for row in a]


def mat_eq(a, b) -> bool:
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


def transpose(a):
    return [list(col) for col in zip(*a)]


def classical_structure(field) -> StructureId:
    if isinstance(field, CyclicQuarticParams):
        return StructureId(CLASSICAL, f"sqrt({field.d})")
    return StructureId(CLASSICAL, f"sqrt({field.m})")


def format_gram_text(gram) -> str:
    """Inverse of hopfq.hopf.parse_gram_text."""
    return "\n".join(
        " ".join(",".join(str(x) for x in entry) for entry in row) for row in gram
    )


def solutions_within(d: int, n: int, bound: int) -> list[PellSolution]:
    """All solutions of x^2 - d*y^2 = n with |x| <= bound and |y| <= bound."""
    scs = solve_all(d, n)
    if scs.kind == "empty":
        return []
    if scs.kind == "finite":
        inside = {s for s in scs.solutions if abs(s.x) <= bound and abs(s.y) <= bound}
        return sorted(inside, key=_size_key)
    t, u = scs.unit
    # Once a coordinate exceeds this, no later step re-enters the box.
    stop = bound * (t + abs(d) * u + 1)
    inside: set[PellSolution] = set()
    for rep in scs.solutions:
        for step in (1, -1):
            x, y = rep
            while max(abs(x), abs(y)) <= stop:
                if abs(x) <= bound and abs(y) <= bound:
                    inside.add(PellSolution(x, y))
                    inside.add(PellSolution(-x, -y))
                if step == 1:
                    x, y = t * x + d * u * y, u * x + t * y
                else:
                    x, y = t * x - d * u * y, -u * x + t * y
    return sorted(inside, key=_size_key)
