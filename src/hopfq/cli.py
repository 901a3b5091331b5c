"""Command-line interface.

Every command prints a single JSON document (the ``corpus`` command prints
one JSON record per input line, in input order, once forked workers, one per
usable CPU, have decided every line; the parent decides any line a worker did
not, so a failure reads as on one CPU).  All numeric values in the output are
exact: integers stay JSON integers and non-integer rationals are encoded as
``"p/q"`` strings, so a document survives a JSON round trip losslessly.
``encode_number`` defines that encoding; the tests decode it with
``tests/helpers.py``.  A document is written by ``_json_text`` with the bytes
of ``json.dump(doc, indent=2, default=encode_number)``; only corpus records,
one compact line each, go through ``json.dumps``, whose ``default`` is then
``encode_number``.

Exit codes: 0 on success, 2 when the input fails validation (an error
document; argparse's own usage errors print usage to stderr and no
document), 3 when a computed result contradicts an independent ground-truth
check.  A reader that closes standard output early gets exit 2 and nothing
on stderr.  The log level is taken from the ``HOPFQ_LOG`` environment variable.
"""

from __future__ import annotations

import argparse
import decimal
import functools
import json
import logging
import os
import signal
import sys
import threading
from contextlib import contextmanager
from fractions import Fraction
from itertools import takewhile
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Any, Iterable, Iterator, NoReturn, Sequence, TextIO

from .errors import InternalInconsistencyError, ValidationError
from .fields import SQUAREFREE_LIMIT, canonicalize_biquadratic, validate_cyclic
from .freeness import (
    FREE,
    ORACLE_BOUND_LIMIT,
    FieldSummary,
    StructureSummary,
    brute_force_generator,
    check_oracle_bound,
    summary,
)
from .hopf import (
    action_matrix,
    generator_determinant,
    parse_gram_text,
    reduction_report,
    test_generator,
)
from .pell import (
    QuadForm, _divisible_solutions_from, form_cycle, reduce_form, represents_one, solve_all,
)

SCHEMA_VERSION = 1
DEFAULT_ORACLE_BOUND = 12
# A forked corpus worker takes at least this many lines: a bare fork-and-pipe round
# trip measured about 2.6 ms, and the child's first pass 2-3 ms more in copied pages,
# against 0.3-0.9 ms per valid field.  A multiprocessing pool cost 9-20 ms a call.
MIN_LINES_PER_WORKER = 16

log = logging.getLogger(__name__)


# ---- exact JSON number encoding ----

# Integers of at least this many bits are written by `_decimal_text`.  On Python
# 3.11 `int.__repr__` and it both took 2.6 ms at 12,000 digits (39,864 bits);
# at 30,000 digits `int.__repr__` took 15.7 ms and `_decimal_text` 6.8 ms.
_DECIMAL_BITS = 40_000
_BIG = 1 << _DECIMAL_BITS
# The element types of a list that `_json_text` writes with one join.
_INTS = {int}
_NUMBERS = {int, Fraction}


def encode_number(value: Any) -> int | str:
    """Encode an exact rational for JSON: int when integral, else ``"p/q"``.

    Documents carry ints and Fractions as computed.  `_json_text` writes both
    itself; a corpus record goes through ``json.dumps``, which writes the ints
    and hands every Fraction here as its ``default``.
    """
    f = value if isinstance(value, Fraction) else Fraction(value)
    if f.denominator == 1:
        return f.numerator
    return f"{f.numerator}/{f.denominator}"


def _decimal_text(n: int) -> str:
    """The decimal digits of n, by divide and conquer through `decimal`.

    Before Python 3.12 `int.__repr__` is quadratic in the length.  n is split
    at half its bits, n = hi * 2^h + lo, each half converted alone and joined
    by one `Decimal` product with 2^h, each power of two built once, as in
    CPython 3.12's ``Lib/_pylong.py`` (``int_to_decimal_string``).
    """
    powers: dict[int, decimal.Decimal] = {}

    def power(w: int) -> decimal.Decimal:
        if w not in powers:
            powers[w] = decimal.Decimal(2) ** w if w <= 128 else power(w >> 1) * power(w - (w >> 1))
        return powers[w]

    def convert(m: int, w: int) -> decimal.Decimal:
        if w <= 128:
            return decimal.Decimal(m)
        h = w >> 1
        hi = m >> h
        return convert(m - (hi << h), h) + convert(hi, w - h) * power(h)

    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), n.bit_length()))
    return "-" + digits if n < 0 else digits


def _number_text(value: int | Fraction) -> str:
    """An int or Fraction as JSON, as ``encode_number`` reads it."""
    if type(value) is not int:
        if value.denominator != 1:
            return f'"{_number_text(value.numerator)}/{_number_text(value.denominator)}"'
        value = value.numerator
    return int.__repr__(value) if -_BIG < value < _BIG else _decimal_text(value)


def _json_text(value: Any, level: str = "\n") -> str:
    """`value` exactly as ``json.dumps(value, indent=2, default=encode_number)``
    writes it, for string keys and no floats; `level` is a newline and the
    current indent.

    ``json`` writes with its pure-Python encoder whenever it indents.  Here a
    list of ints, or of ints and Fractions, is one ``str.join``.
    """
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = level + "  "
        kinds = set(map(type, value))
        if kinds <= _INTS and -_BIG < min(value) and max(value) < _BIG:
            items = map(int.__repr__, value)
        elif kinds <= _NUMBERS:
            items = map(_number_text, value)
        else:
            items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + level + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = level + "  "
        return "{" + inner + ("," + inner).join(
            [f"{encode_basestring_ascii(key)}: "
             f"{encode_basestring_ascii(item) if type(item) is str else _json_text(item, inner)}"
             for key, item in value.items()]) + level + "}"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    return _number_text(value)  # an int or a Fraction


@contextmanager
def _exact_integers() -> Iterator[None]:
    """Lift Python's 4300-digit int-to-text limit while a document is encoded.

    Generators of large fields exceed it; input parsing keeps the limit.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python < 3.10.7 has no limit
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _print_document(doc: dict) -> None:
    with _exact_integers():
        sys.stdout.write(_json_text(doc) + "\n")


# ---- report documents ----

def _structure_payload(entry: StructureSummary) -> dict:
    report, reduction = entry.report, entry.reduction
    return {
        "family": entry.structure.family,
        "subfield": entry.structure.subfield_tag,
        "origin": entry.origin,
        "gram": entry.gram,
        "hermite_form": reduction.hnf,
        "index": reduction.index,
        "order_basis": reduction.order_basis,
        "prescreen": {"outcome": entry.prescreen.outcome, "reason": entry.prescreen.reason},
        "freeness": {
            "decision": report.decision,
            "method": report.method,
            "witness": report.witness,
            "witness_target": report.witness_target,
            "generator": report.generator,
            "index": report.index,
        },
    }


def _field_document(input_payload: dict, parameters: dict, field_summary: FieldSummary) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "input": input_payload,
        "field": {
            "family": field_summary.family,
            "classification": field_summary.classification,
            "parameters": parameters,
            "integral_basis": field_summary.descriptor,
        },
        "structures": [_structure_payload(entry) for entry in field_summary.structures],
    }


def _attach_oracle(doc: dict, field_summary: FieldSummary, bound: int) -> None:
    """Re-derive each freeness decision by exhaustive generator search.

    A generator found by the search while the decision says "not free" is an
    outright contradiction and aborts the run.  The converse (decision free,
    search empty) only means the true generator lies outside the box, so it
    is recorded but not treated as an error.
    """
    for entry, payload in zip(field_summary.structures, doc["structures"]):
        found = brute_force_generator(entry.reduction, entry.action, bound)
        payload["oracle"] = {"bound": bound, "generator": found}
        if found is not None and entry.report.decision != FREE:
            raise InternalInconsistencyError(
                f"exhaustive search found generator {found} for {entry.structure.subfield_tag} "
                f"but the decision is {entry.report.decision!r}"
            )


def _field_report(verb: str, params: Sequence[int], verify_oracle: bool,
                  oracle_bound: int) -> dict:
    """Document for a "cyclic" (a, b, c) or "biquadratic" (m, n) field."""
    if verb == "cyclic":
        p = validate_cyclic(*params)
        inputs, parameters = dict(zip("abc", params)), {"a": p.a, "b": p.b, "c": p.c, "d": p.d}
    else:
        p = canonicalize_biquadratic(*params)
        inputs, parameters = dict(zip("mn", params)), {"m": p.m, "n": p.n, "k": p.k, "d": p.d}
    fs = summary(p)
    doc = _field_document({"command": verb, **inputs}, parameters, fs)
    if verify_oracle:
        _attach_oracle(doc, fs, oracle_bound)
    return doc


# ---- command handlers ----

def _run_field(args: argparse.Namespace) -> int:
    if args.verify_oracle:
        check_oracle_bound(args.oracle_bound)
    params = (args.a, args.b, args.c) if args.command == "cyclic" else (args.m, args.n)
    _print_document(_field_report(args.command, params, args.verify_oracle, args.oracle_bound))
    return 0


def _run_pell(args: argparse.Namespace) -> int:
    # The unit walks about sqrt(D) steps, and -c a period modulo |N|.
    if max(abs(args.D), abs(args.N)) > SQUAREFREE_LIMIT:
        raise ValidationError(f"pell takes |D|, |N| <= {SQUAREFREE_LIMIT}, got {args.D}, {args.N}")
    solutions = solve_all(args.D, args.N)
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "input": {"command": "pell", "D": args.D, "N": args.N},
        "kind": solutions.kind,
        "solutions": solutions.solutions,
        "fundamental_unit": solutions.unit,
    }
    if args.cross is not None:
        witness = next(_divisible_solutions_from(solutions, args.D, args.N, args.cross), None)
        doc["divisibility"] = {"target": args.N, "cross": args.cross, "witness": witness}
    _print_document(doc)
    return 0


def _run_form_cycle(args: argparse.Namespace) -> int:
    form = QuadForm(args.A, args.B, args.C)
    if form.disc > SQUAREFREE_LIMIT:  # the cycle has about sqrt(disc) forms
        raise ValidationError(
            f"form-cycle takes a discriminant <= {SQUAREFREE_LIMIT}, got {form.disc}")
    reduced = reduce_form(form)
    cycle = form_cycle(reduced)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "input": {"command": "form-cycle", "A": args.A, "B": args.B, "C": args.C},
        "discriminant": form.disc,
        "reduced": [reduced.a, reduced.b, reduced.c],
        "cycle": [[f.a, f.b, f.c] for f in cycle],
        "represents_one": represents_one(form),
    }
    _print_document(doc)
    return 0


def _parse_beta(text: str) -> tuple[int, int, int, int]:
    try:  # a wrong count fails the unpacking, a bad part `int`; `int` strips spaces itself
        b1, b2, b3, b4 = map(int, text.split(","))
    except ValueError as exc:
        raise ValidationError(f"--beta needs four comma-separated integers, got {text!r}") from exc
    return (b1, b2, b3, b4)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not UTF-8 text: {exc}") from exc


def _run_gram_file(args: argparse.Namespace) -> int:
    text = _read_text(args.gram)
    gram = parse_gram_text(text)
    action = action_matrix(gram)
    report = reduction_report(action)
    doc: dict = {
        "schema_version": SCHEMA_VERSION,
        "input": {"command": "gram-file", "path": args.gram},
        "hermite_form": report.hnf,
        "index": report.index,
        "order_basis": report.order_basis,
    }
    if args.beta is not None:
        beta = _parse_beta(args.beta)
        determinant = generator_determinant(action, beta)
        doc["beta"] = {
            "coordinates": beta,
            "determinant": determinant,
            "is_generator": test_generator(report, action, beta),
        }
    _print_document(doc)
    return 0


# ---- corpus processing ----

def _corpus_record(lineno: int, line: str, verify_oracle: bool, oracle_bound: int) -> dict:
    """One JSON record per corpus line; validation problems become error records."""
    try:
        tokens = line.split()
        verb, raw_params = tokens[0], tokens[1:]
        try:
            params = [int(token) for token in raw_params]
        except ValueError as exc:
            raise ValidationError(f"parameters must be integers, got {line!r}") from exc
        if verb == "cyclic":
            if len(params) != 3:
                raise ValidationError(f"cyclic takes three parameters, got {line!r}")
        elif verb == "biquadratic":
            if len(params) != 2:
                raise ValidationError(f"biquadratic takes two parameters, got {line!r}")
        else:
            raise ValidationError(f"unknown corpus verb {verb!r} on line {lineno}")
        doc = _field_report(verb, params, verify_oracle, oracle_bound)
        doc["line"] = lineno
        return doc
    except ValidationError as exc:
        return {
            "schema_version": SCHEMA_VERSION,
            "line": lineno,
            "input": line,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }


def _decide_lines(lines: Iterable[tuple[int, str]], args: argparse.Namespace,
                  stop: Any = Exception) -> Iterator[tuple[int, bool, str]]:
    """(line number, error flag, JSON text) of each line in order, up to the
    first line that raises `stop`; with ``stop=()`` that line raises."""
    try:
        for lineno, line in lines:
            record = _corpus_record(lineno, line, args.verify_oracle, args.oracle_bound)
            with _exact_integers():
                text = json.dumps(record, default=encode_number)
            yield lineno, "error" in record, text
    except stop:  # the parent decides that line again, and it raises there
        return


def _worker(lines: list, args: argparse.Namespace, parent: int, fd: int) -> NoReturn:
    """Forked child: decide `lines` while `parent` lives, write each record to
    `fd` as `LINE FLAG JSON`, and never return."""
    try:
        records = list(_decide_lines(takewhile(lambda _: os.getppid() == parent, lines), args))
        with os.fdopen(fd, "w", encoding="utf-8") as pipe:
            pipe.writelines(f"{lineno} {int(error)} {text}\n" for lineno, error, text in records)
    finally:
        os._exit(0)


def _read_worker(pipe: TextIO) -> list:
    """A worker's records, less a last one that the worker's end cut short."""
    *entries, _ = pipe.read().split("\n")
    return [(int(n), flag == "1", text) for n, flag, text in (e.split(" ", 2) for e in entries)]


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _run_corpus(args: argparse.Namespace) -> int:
    # Records are printed once every line is decided, so an internal
    # inconsistency aborts with the error document alone; a bad oracle bound
    # is rejected before any line is read.  Lines are dealt round-robin to k
    # chunks; forked children decide all but the first, each process up to its
    # first line that raises.  Then the parent decides, in line order, each line
    # no process reported, so the lowest failing line raises as on one CPU.
    if args.verify_oracle:
        check_oracle_bound(args.oracle_bound)
    text = _read_text(args.path)
    lines = [(lineno, line) for lineno, line in enumerate(map(str.strip, text.splitlines()), 1)
             if line and not line.startswith("#")]
    k = 1
    if hasattr(os, "fork") and threading.active_count() == 1:  # fork may deadlock with threads
        k = max(1, min(_usable_cpus(), len(lines) // MIN_LINES_PER_WORKER))
    log.debug("deciding %d corpus lines in %d processes", len(lines), k)
    parent, workers = os.getpid(), []
    try:
        for chunk in range(1, k):
            fds: tuple[int, ...] = ()
            try:
                fds = os.pipe()
                pid = os.fork()
            except OSError as exc:
                log.info("corpus chunks %d to %d left to the parent: %s", chunk, k - 1, exc)
                for fd in fds:
                    os.close(fd)
                break
            if pid == 0:
                os.close(fds[0])
                _worker(lines[chunk::k], args, parent, fds[1])
            os.close(fds[1])
            workers.append((pid, os.fdopen(fds[0], encoding="utf-8")))
        records = list(_decide_lines(lines[::k], args))
        records += (record for _, pipe in workers for record in _read_worker(pipe))
    finally:  # a worker whose pipe was read to its end has nothing left to do
        for pid, pipe in workers:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    reported = {lineno for lineno, _, _ in records}
    records += _decide_lines((entry for entry in lines if entry[0] not in reported), args, stop=())
    for _, _, record in sorted(records):
        print(record)
    return 2 if any(error for _, error, _ in records) else 0


# ---- argument parsing ----

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it was."""
    parser = argparse.ArgumentParser(
        prog="hopfq",
        description="Freeness of rings of integers over associated orders "
        "in the non-classical Hopf-Galois structures of quartic fields.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    oracle = argparse.ArgumentParser(add_help=False)
    oracle.add_argument(
        "--verify-oracle", action="store_true",
        help="re-derive each decision by exhaustive generator search and record the result",
    )
    oracle.add_argument(
        "--oracle-bound", type=int, default=DEFAULT_ORACLE_BOUND, metavar="K",
        help="coordinate box half-width for --verify-oracle, "
        f"at most {ORACLE_BOUND_LIMIT} (default %(default)s)",
    )

    cyclic = subparsers.add_parser(
        "cyclic", parents=[oracle],
        help="analyze the cyclic quartic field with parameters a, b, c",
    )
    cyclic.add_argument("-a", type=int, required=True, help="odd squarefree twist parameter")
    cyclic.add_argument("-b", type=int, required=True, help="positive part of d = b^2 + c^2")
    cyclic.add_argument("-c", type=int, required=True, help="positive part of d = b^2 + c^2")
    cyclic.set_defaults(handler=_run_field)

    biquadratic = subparsers.add_parser(
        "biquadratic", parents=[oracle],
        help="analyze the biquadratic field generated by sqrt(m) and sqrt(n)",
    )
    biquadratic.add_argument("-m", type=int, required=True, help="first squarefree radicand")
    biquadratic.add_argument("-n", type=int, required=True, help="second squarefree radicand")
    biquadratic.set_defaults(handler=_run_field)

    pell = subparsers.add_parser("pell", help="solve x^2 - D*y^2 = N exactly")
    pell.add_argument("-D", type=int, required=True, help="coefficient D")
    pell.add_argument("-N", type=int, required=True, help="target value N")
    pell.add_argument(
        "-c", dest="cross", type=int, default=None,
        help="also report the first solution with target | x - c*y",
    )
    pell.set_defaults(handler=_run_pell)

    form = subparsers.add_parser(
        "form-cycle",
        help="reduction cycle of an indefinite binary quadratic form A*x^2 + B*x*y + C*y^2",
    )
    form.add_argument("A", type=int)
    form.add_argument("B", type=int)
    form.add_argument("C", type=int)
    form.set_defaults(handler=_run_form_cycle)

    corpus = subparsers.add_parser(
        "corpus", parents=[oracle],
        help="analyze every field listed in a text file, one JSON record per line",
    )
    corpus.add_argument("path", help="file of lines 'cyclic a b c' or 'biquadratic m n'")
    corpus.set_defaults(handler=_run_corpus)

    gram = subparsers.add_parser(
        "gram-file", help="reduce a structure Gram matrix read from a text file")
    gram.add_argument("--gram", required=True, metavar="PATH", help="Gram matrix file")
    gram.add_argument(
        "--beta", default=None, metavar="B1,B2,B3,B4",
        help="candidate generator coordinates to test against the index",
    )
    gram.set_defaults(handler=_run_gram_file)

    return parser


def _configure_logging() -> None:
    name = os.environ.get("HOPFQ_LOG", "WARNING").upper()
    level = getattr(logging, name, None)
    if not isinstance(level, int):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _run(args: argparse.Namespace) -> int:
    """The command's exit code; an error it raises becomes an error document."""
    try:
        return args.handler(args)
    except BrokenPipeError:
        raise  # no document reaches a closed reader
    except (ValidationError, OSError, InternalInconsistencyError) as exc:
        code = 3 if isinstance(exc, InternalInconsistencyError) else 2
        log.log(logging.ERROR if code == 3 else logging.INFO, "%s: %s", type(exc).__name__, exc)
        _print_document({
            "schema_version": SCHEMA_VERSION,
            "error": {"type": type(exc).__name__, "message": str(exc), "exit_code": code},
        })
        return code


def main(argv: Sequence[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    log.debug("dispatching %s", args.command)
    try:
        code = _run(args)
        sys.stdout.flush()  # a closed reader raises here, not at the interpreter's exit
        return code
    except BrokenPipeError:  # the reader closed stdout: the exit flush goes to devnull
        log.info("stdout closed by its reader")
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
