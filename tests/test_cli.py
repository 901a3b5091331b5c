"""Tests for the command-line interface.

Commands are invoked in-process through ``cli.main`` with stdout captured,
so every test sees both the exit code and the parsed JSON document.
"""

from __future__ import annotations

import errno
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfq import cli, pell
from hopfq.cli import encode_number
from hopfq.errors import ValidationError
from hopfq.fields import SQUAREFREE_LIMIT
from hopfq.freeness import ORACLE_BOUND_LIMIT
from hopfq.hopf import action_matrix, parse_gram_text, reduction_report

from helpers import decode_number, format_gram_text

DATA_DIR = Path(__file__).parent / "data"
POWER_GRAM_PATH = DATA_DIR / "power_basis_gram.txt"
GOLDEN_CORPUS_PATH = DATA_DIR / "golden_corpus.txt"
REPO_ROOT = Path(__file__).parent.parent


def invoke(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process; return (exit code, captured stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's own usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def invoke_json(argv: list[str]) -> tuple[int, dict]:
    code, text = invoke(argv)
    return code, json.loads(text)


# ---- exact number encoding ----

def test_encode_number_integers_stay_integers():
    assert encode_number(7) == 7
    assert encode_number(F(4, 2)) == 2
    assert isinstance(encode_number(F(4, 2)), int)
    assert encode_number(F(-7, 3)) == "-7/3"


def test_decode_number_inverts_encode():
    assert decode_number(7) == F(7)
    assert decode_number("-7/3") == F(-7, 3)
    assert decode_number("12") == F(12)


@pytest.mark.parametrize("junk", ["abc", "1/0", "", "1.5", True, 1.5, None, [1]])
def test_decode_number_rejects_junk(junk):
    with pytest.raises(ValidationError):
        decode_number(junk)


@given(st.fractions())
@settings(max_examples=200, deadline=None)
def test_number_round_trip(value):
    encoded = encode_number(value)
    assert isinstance(encoded, (int, str))
    assert decode_number(encoded) == value
    # the encoded form survives a JSON round trip unchanged
    assert json.loads(json.dumps(encoded)) == encoded


# ---- cyclic command ----

def test_cyclic_free_example():
    code, doc = invoke_json(["cyclic", "-a", "1", "-b", "9", "-c", "5"])
    assert code == 0
    assert doc["schema_version"] == 1
    assert doc["input"] == {"command": "cyclic", "a": 1, "b": 9, "c": 5}
    assert doc["field"]["family"] == "cyclic"
    assert doc["field"]["classification"] == "case 1"
    assert doc["field"]["parameters"] == {"a": 1, "b": 9, "c": 5, "d": 106}
    (structure,) = doc["structures"]
    assert structure["subfield"] == "sqrt(106)"
    assert structure["index"] == 16
    assert structure["freeness"]["decision"] == "free"
    assert structure["freeness"]["generator"] == [1, 1, -17, 10]
    assert structure["freeness"]["witness"] == [-103, 10]
    assert structure["freeness"]["witness_target"] == 9
    assert structure["prescreen"]["outcome"] == "unknown"


def test_cyclic_not_free_example():
    code, doc = invoke_json(["cyclic", "-a", "1", "-b", "3", "-c", "1"])
    assert code == 0
    (structure,) = doc["structures"]
    assert structure["freeness"]["decision"] == "not_free"
    assert structure["freeness"]["witness"] is None
    assert structure["freeness"]["generator"] is None
    assert structure["freeness"]["method"].startswith("prescreen:")


def test_cyclic_validation_error_exits_2():
    code, doc = invoke_json(["cyclic", "-a", "1", "-b", "3", "-c", "3"])
    assert code == 2
    assert doc["error"]["type"] == "NotSquarefreeError"
    assert doc["error"]["exit_code"] == 2


def test_cyclic_structure_payload_is_exact():
    code, doc = invoke_json(["cyclic", "-a", "1", "-b", "9", "-c", "5"])
    assert code == 0
    (structure,) = doc["structures"]
    hermite = [[decode_number(entry) for entry in row] for row in structure["hermite_form"]]
    assert hermite == [[F(1), F(1), F(2), F(0)], [F(0), F(2), F(2), F(0)],
                       [F(0), F(0), F(4), F(0)], [F(0), F(0), F(0), F(2)]]
    order_basis = [[decode_number(entry) for entry in vec] for vec in structure["order_basis"]]
    product = decode_number(structure["index"])
    assert product == 16
    # the order basis columns invert the Hermite form exactly
    for j, column in enumerate(order_basis):
        image = [sum(hermite[i][l] * column[l] for l in range(4)) for i in range(4)]
        assert image == [F(int(i == j)) for i in range(4)]


# ---- biquadratic command ----

def test_biquadratic_all_blocked_example():
    code, doc = invoke_json(["biquadratic", "-m", "5", "-n", "-2"])
    assert code == 0
    decisions = [s["freeness"]["decision"] for s in doc["structures"]]
    assert decisions == ["not_free", "not_free", "not_free"]
    subfields = [s["subfield"] for s in doc["structures"]]
    assert subfields == ["sqrt(5)", "sqrt(-2)", "sqrt(-10)"]
    origins = [s["origin"] for s in doc["structures"]]
    assert origins == ["first input", "second input", "derived"]


def test_biquadratic_two_free_example():
    code, doc = invoke_json(["biquadratic", "-m", "-3", "-n", "-7"])
    assert code == 0
    by_subfield = {s["subfield"]: s["freeness"]["decision"] for s in doc["structures"]}
    assert by_subfield == {"sqrt(-3)": "free", "sqrt(-7)": "free", "sqrt(21)": "not_free"}
    for s in doc["structures"]:
        if s["freeness"]["decision"] == "free":
            assert s["freeness"]["generator"] is not None


def test_biquadratic_validation_error_exits_2():
    code, doc = invoke_json(["biquadratic", "-m", "4", "-n", "3"])
    assert code == 2
    assert doc["error"]["type"] == "NotSquarefreeError"


# ---- pell command ----

def test_pell_indefinite_example():
    code, doc = invoke_json(["pell", "-D", "106", "-N", "9"])
    assert code == 0
    assert doc["kind"] == "indefinite"
    assert [3, 0] in doc["solutions"]
    assert [103, 10] in doc["solutions"] or [-103, 10] in doc["solutions"]
    assert doc["fundamental_unit"] is not None
    t, u = doc["fundamental_unit"]
    assert t * t - 106 * u * u == 1


def test_pell_smaller_example():
    code, doc = invoke_json(["pell", "-D", "13", "-N", "3"])
    assert code == 0
    assert [4, 1] in doc["solutions"]


def test_pell_empty_example():
    code, doc = invoke_json(["pell", "-D", "10", "-N", "3"])
    assert code == 0
    assert doc["kind"] == "empty"
    assert doc["solutions"] == []
    assert "divisibility" not in doc


def test_pell_divisibility_search():
    code, doc = invoke_json(["pell", "-D", "106", "-N", "9", "-c", "5"])
    assert code == 0
    assert doc["divisibility"] == {"target": 9, "cross": 5, "witness": [-103, 10]}
    # x^2 - 10*y^2 = 3 has no solution at all
    code, doc = invoke_json(["pell", "-D", "10", "-N", "3", "-c", "1"])
    assert code == 0
    assert doc["divisibility"] == {"target": 3, "cross": 1, "witness": None}


def test_pell_divisor_override():
    # the -b override is gone: -N b gives the same divisibility search
    code, _ = invoke(["pell", "-D", "10", "-N", "-1", "-c", "1", "-b", "3"])
    assert code == 2


def test_an_argument_argparse_rejects_exits_2_with_usage_and_no_document():
    """Unlike a validation error, argparse's own error prints its usage message
    to stderr and no JSON document, and exits 2 through SystemExit."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli.main(["cyclic", "-a", "1", "-b", "x", "-c", "5"])
    assert exc.value.code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith("usage: ") and "invalid int value: 'x'" in err.getvalue()


def test_pell_zero_input_exits_2():
    code, doc = invoke_json(["pell", "-D", "0", "-N", "9"])
    assert code == 2
    assert doc["error"]["exit_code"] == 2


@pytest.mark.parametrize("d, n", [(2, 1000000016000000063),  # 1000000007 * 1000000009
                                  (10**12 + 1, 1), (-2, -10**12 - 1)])
def test_pell_beyond_the_limit_exits_2_at_once(d, n):
    """N is factored by trial division up to sqrt|N| and the unit's walk runs
    about sqrt(D) steps, so both are bounded like the field radicands."""
    start = time.perf_counter()
    code, doc = invoke_json(["pell", "-D", str(d), "-N", str(n)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["type"] == "ValidationError"


def test_pell_at_the_limit_is_accepted():
    code, doc = invoke_json(["pell", "-D", str(10**12), "-N", str(-10**12)])
    assert code == 0
    assert doc["kind"] == "finite"
    assert [0, 1] in doc["solutions"]


# ---- form-cycle command ----

def test_form_cycle_pinned_example():
    code, doc = invoke_json(["form-cycle", "15", "14", "-15"])
    assert code == 0
    assert doc["discriminant"] == 1096
    assert doc["represents_one"] is False
    assert doc["cycle"][0] == [15, 14, -15]
    assert doc["cycle"][1:] == [
        [15, 16, -14], [14, 12, -17], [17, 22, -9], [9, 32, -2],
        [2, 32, -9], [9, 22, -17], [17, 12, -14], [14, 16, -15],
    ]


def test_form_cycle_reduces_first():
    code, doc = invoke_json(["form-cycle", "1", "0", "-2"])
    assert code == 0
    assert doc["represents_one"] is True
    assert doc["reduced"] != [1, 0, -2]


def test_form_cycle_stalled_reduction_exits_3(monkeypatch):
    monkeypatch.setattr(pell, "rho", lambda f: f)
    code, doc = invoke_json(["form-cycle", "1", "0", "-2"])
    assert code == 3
    assert doc["error"]["type"] == "InternalInconsistencyError"
    assert doc["error"]["exit_code"] == 3


def test_form_cycle_bad_discriminant_exits_2():
    code, doc = invoke_json(["form-cycle", "1", "0", "4"])
    assert code == 2
    assert doc["error"]["type"] == "BadDiscriminantError"

    code, doc = invoke_json(["form-cycle", "1", "0", "-1"])
    assert code == 2
    assert doc["error"]["type"] == "BadDiscriminantError"


@pytest.mark.parametrize("form", [(1, 1, -10000000000000000000003),  # about 10^11 forms
                                  (1, 0, -250000000001)])  # discriminant 10^12 + 4
def test_form_cycle_beyond_the_limit_exits_2_at_once(form):
    """The cycle of a discriminant D has about sqrt(D) forms, so D is bounded
    like the pell inputs."""
    start = time.perf_counter()
    code, doc = invoke_json(["form-cycle", *map(str, form)])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert doc["error"]["type"] == "ValidationError"
    assert str(SQUAREFREE_LIMIT) in doc["error"]["message"]


def test_form_cycle_near_the_limit_is_accepted():
    # x^2 - (k^2 + 1) y^2 with k = 499999: sqrt(k^2 + 1) = [k; 2k], one form.
    code, doc = invoke_json(["form-cycle", "1", "0", str(-(499999**2 + 1))])
    assert code == 0
    assert doc["discriminant"] == 999996000008
    assert doc["cycle"] == [[1, 999998, -1]]


def _not_utf8(path: Path) -> Path:
    path.write_bytes(b"cyclic 1 9 5\n\xff\n")
    return path


# ---- gram-file command ----

def test_gram_file_power_basis():
    code, doc = invoke_json(["gram-file", "--gram", str(POWER_GRAM_PATH)])
    assert code == 0
    assert doc["index"] == 16
    assert "beta" not in doc


def test_gram_file_with_beta():
    code, doc = invoke_json([
        "gram-file", "--gram", str(POWER_GRAM_PATH), "--beta", "1,1,1,0",
    ])
    assert code == 0
    assert doc["beta"]["coordinates"] == [1, 1, 1, 0]
    assert doc["beta"]["determinant"] == -176
    assert doc["beta"]["is_generator"] is False


def test_gram_file_payload_matches_library():
    code, doc = invoke_json(["gram-file", "--gram", str(POWER_GRAM_PATH)])
    assert code == 0
    gram = parse_gram_text(POWER_GRAM_PATH.read_text(encoding="utf-8"))
    report = reduction_report(action_matrix(gram))
    decoded = [[decode_number(entry) for entry in vec] for vec in doc["order_basis"]]
    assert decoded == [[F(value) for value in vec] for vec in report.order_basis]
    assert decode_number(doc["index"]) == report.index


@pytest.mark.parametrize("factor, index", [(2, 256), (F(1, 2), 1)])
def test_gram_file_scaled_gram_scales_index_by_fourth_power(tmp_path, factor, index):
    gram = parse_gram_text(POWER_GRAM_PATH.read_text(encoding="utf-8"))
    path = tmp_path / "scaled.txt"
    path.write_text(format_gram_text([[[factor * x for x in vec] for vec in row] for row in gram]),
                    encoding="utf-8")
    code, doc = invoke_json(["gram-file", "--gram", str(path), "--beta", "1,1,1,0"])
    assert code == 0
    assert decode_number(doc["index"]) == index
    assert decode_number(doc["beta"]["determinant"]) == factor**4 * -176


def test_gram_file_bad_beta_exits_2():
    code, doc = invoke_json([
        "gram-file", "--gram", str(POWER_GRAM_PATH), "--beta", "1,2,3",
    ])
    assert code == 2
    assert doc["error"]["type"] == "ValidationError"


def test_gram_file_missing_file_exits_2(tmp_path):
    code, doc = invoke_json(["gram-file", "--gram", str(tmp_path / "absent.txt")])
    assert code == 2


def test_gram_file_not_utf8_exits_2(tmp_path):
    path = _not_utf8(tmp_path / "gram.txt")
    code, doc = invoke_json(["gram-file", "--gram", str(path)])
    assert code == 2
    assert doc["error"]["type"] == "ValidationError"
    assert "not UTF-8" in doc["error"]["message"]


def test_gram_file_with_a_byte_order_mark_reads_as_without(tmp_path, monkeypatch):
    # The same relative name in two directories, so the documents can match byte for byte.
    text = POWER_GRAM_PATH.read_text(encoding="utf-8")
    outputs = []
    for name, prefix in (("plain", ""), ("marked", "\ufeff")):
        (tmp_path / name).mkdir()
        (tmp_path / name / "gram.txt").write_text(prefix + text, encoding="utf-8")
        monkeypatch.chdir(tmp_path / name)
        outputs.append(invoke(["gram-file", "--gram", "gram.txt", "--beta", "1,1,1,0"]))
    assert (tmp_path / "marked" / "gram.txt").read_bytes().startswith(b"\xef\xbb\xbf")
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0]


def test_gram_file_malformed_exits_2(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1,2 3,4\n", encoding="utf-8")
    code, doc = invoke_json(["gram-file", "--gram", str(path)])
    assert code == 2
    assert doc["error"]["type"] == "GramFormatError"


@pytest.mark.parametrize("literal", ["1e3", "0.5"])
def test_gram_file_rejects_decimal_and_exponent_literals(tmp_path, literal):
    text = POWER_GRAM_PATH.read_text(encoding="utf-8").replace("1,0,0,0", f"{literal},0,0,0", 1)
    path = tmp_path / "literal.txt"
    path.write_text(text, encoding="utf-8")
    code, doc = invoke_json(["gram-file", "--gram", str(path)])
    assert code == 2
    assert doc["error"]["type"] == "GramFormatError"


# ---- oracle flag ----

def test_verify_oracle_free_field():
    code, doc = invoke_json([
        "cyclic", "-a", "3", "-b", "2", "-c", "1", "--verify-oracle", "--oracle-bound", "2",
    ])
    assert code == 0
    (structure,) = doc["structures"]
    assert structure["freeness"]["decision"] == "free"
    assert structure["oracle"]["bound"] == 2
    assert structure["oracle"]["generator"] is not None


def test_verify_oracle_not_free_field():
    code, doc = invoke_json([
        "cyclic", "-a", "1", "-b", "3", "-c", "1", "--verify-oracle", "--oracle-bound", "3",
    ])
    assert code == 0
    (structure,) = doc["structures"]
    assert structure["freeness"]["decision"] == "not_free"
    assert structure["oracle"]["generator"] is None


def test_oracle_bound_above_the_limit_exits_2():
    code, doc = invoke_json([
        "cyclic", "-a", "3", "-b", "2", "-c", "1",
        "--verify-oracle", "--oracle-bound", str(ORACLE_BOUND_LIMIT + 1),
    ])
    assert code == 2
    assert doc["error"]["type"] == "ValidationError"


def test_corpus_rejects_a_bad_oracle_bound_once_before_any_line(monkeypatch, tmp_path):
    def unreachable(p):
        raise AssertionError(f"analysed {p} despite the bad bound")

    monkeypatch.setattr(cli, "summary", unreachable)
    path = tmp_path / "corpus.txt"
    path.write_text("cyclic 1 9 5\nbiquadratic -3 -7\n", encoding="utf-8")
    code, doc = invoke_json([
        "corpus", str(path), "--verify-oracle", "--oracle-bound", str(ORACLE_BOUND_LIMIT + 1),
    ])
    assert code == 2
    assert doc["error"]["type"] == "ValidationError"
    assert doc["error"]["exit_code"] == 2


def test_corpus_not_utf8_exits_2_with_one_error_document(tmp_path):
    path = _not_utf8(tmp_path / "corpus.txt")
    code, doc = invoke_json(["corpus", str(path)])
    assert code == 2
    assert doc["error"]["type"] == "ValidationError"
    assert "not UTF-8" in doc["error"]["message"]


def test_the_parser_is_built_once_and_keeps_no_state_between_calls():
    assert cli.build_parser() is cli.build_parser()
    argv = ["cyclic", "-a", "3", "-b", "2", "-c", "1"]
    code, doc = invoke_json(argv + ["--verify-oracle", "--oracle-bound", "2"])
    assert code == 0 and "oracle" in doc["structures"][0]
    code, doc = invoke_json(argv)
    assert code == 0 and "oracle" not in doc["structures"][0]


def test_verify_oracle_runs_without_numpy():
    script = (
        "import sys\n"
        "from hopfq.cli import main\n"
        "assert main(['cyclic', '-a', '1', '-b', '9', '-c', '5', '--verify-oracle']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["structures"][0]["oracle"]["bound"] == 12


@pytest.mark.parametrize("command", ["cyclic", "corpus"])
def test_a_reader_that_closes_stdout_early_gets_exit_2_and_no_traceback(command, tmp_path):
    """The cyclic document fits the output buffer, so the closed pipe is met
    at the last flush; the corpus records outgrow it and meet it while
    being written."""
    corpus = tmp_path / "corpus.txt"
    corpus.write_text("cyclic 1 9 5\nbiquadratic -3 -7\n" * 5, encoding="utf-8")
    argv = {"cyclic": ["cyclic", "-a", "1", "-b", "9", "-c", "5"],
            "corpus": ["corpus", str(corpus)]}[command]
    script = "import sys\nfrom hopfq.cli import main\nsys.exit(main())\n"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parent.parent)}
    read, write = os.pipe()
    os.close(read)
    try:
        result = subprocess.run([sys.executable, "-c", script, *argv], env=env, stdout=write,
                                stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


# ---- corpus command ----

def test_corpus_with_a_byte_order_mark_reads_as_without(tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"cyclic 1 9 5\n")
    marked.write_bytes(b"\xef\xbb\xbfcyclic 1 9 5\n")
    code, text = invoke(["corpus", str(marked)])
    assert code == 0
    assert text == invoke(["corpus", str(plain)])[1]
    assert json.loads(text)["structures"][0]["freeness"]["decision"] == "free"


def test_corpus_processes_lines_in_order(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "# comment line\n"
        "cyclic 1 9 5\n"
        "\n"
        "biquadratic -3 -7\n"
        "cyclic 3 2 1\n",
        encoding="utf-8",
    )
    code, text = invoke(["corpus", str(path)])
    assert code == 0
    records = [json.loads(line) for line in text.splitlines()]
    assert [r["line"] for r in records] == [2, 4, 5]
    assert records[0]["input"] == {"command": "cyclic", "a": 1, "b": 9, "c": 5}
    assert records[1]["input"] == {"command": "biquadratic", "m": -3, "n": -7}
    assert records[2]["structures"][0]["freeness"]["generator"] == [0, 0, 0, 1]


def test_corpus_reports_per_line_errors(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text(
        "cyclic 1 9 5\n"
        "cyclic 1 3 3\n"
        "frobnicate 1 2\n"
        "cyclic one 2 3\n"
        "biquadratic -3 -7\n",
        encoding="utf-8",
    )
    code, text = invoke(["corpus", str(path)])
    assert code == 2
    records = [json.loads(line) for line in text.splitlines()]
    assert len(records) == 5
    assert "error" not in records[0]
    assert records[1]["error"]["type"] == "NotSquarefreeError"
    assert "unknown corpus verb" in records[2]["error"]["message"]
    assert records[3]["error"]["type"] == "ValidationError"
    assert "error" not in records[4]


def test_corpus_empty_file_exits_0(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    code, text = invoke(["corpus", str(path)])
    assert code == 0
    assert text == ""


def test_corpus_missing_file_exits_2(tmp_path):
    code, doc = invoke_json(["corpus", str(tmp_path / "absent.txt")])
    assert code == 2


def test_corpus_wrong_arity_is_per_line_error(tmp_path):
    path = tmp_path / "corpus.txt"
    path.write_text("cyclic 1 9\nbiquadratic 5\n", encoding="utf-8")
    code, text = invoke(["corpus", str(path)])
    assert code == 2
    records = [json.loads(line) for line in text.splitlines()]
    assert all("error" in record for record in records)


# ---- interface plumbing ----

def test_missing_subcommand_exits_2():
    code, _ = invoke([])
    assert code == 2


def test_log_level_env_is_honored(monkeypatch):
    monkeypatch.setenv("HOPFQ_LOG", "DEBUG")
    code, doc = invoke_json(["pell", "-D", "13", "-N", "3"])
    assert code == 0
    monkeypatch.setenv("HOPFQ_LOG", "not-a-level")
    code, _ = invoke_json(["pell", "-D", "13", "-N", "3"])
    assert code == 0


def test_document_survives_json_round_trip():
    code, text = invoke(["biquadratic", "-m", "-3", "-n", "-7"])
    assert code == 0
    doc = json.loads(text)
    assert json.loads(json.dumps(doc)) == doc


def test_integers_beyond_the_decimal_limit_are_emitted_exactly(monkeypatch, tmp_path):
    big = 10**5000
    limit = sys.get_int_max_str_digits()
    out = io.StringIO()
    with redirect_stdout(out):
        cli._print_document({"value": big})
    assert sys.get_int_max_str_digits() == limit

    monkeypatch.setattr(cli, "_corpus_record",
                        lambda lineno, line, verify, bound: {"line": lineno, "value": big})
    path = tmp_path / "corpus.txt"
    path.write_text("cyclic 1 9 5\n", encoding="utf-8")
    code, text = invoke(["corpus", str(path)])
    assert code == 0
    assert sys.get_int_max_str_digits() == limit

    sys.set_int_max_str_digits(0)
    try:
        assert json.loads(out.getvalue()) == {"value": big}
        assert json.loads(text) == {"line": 1, "value": big}
    finally:
        sys.set_int_max_str_digits(limit)


# ---- pinned corpus output ----

def test_corpus_output_matches_the_golden_file_byte_for_byte():
    """golden_corpus.jsonl pins the output over golden_corpus.txt: cyclic
    cases 1-5, the three biquadratic types, invalid lines and integers beyond
    the default decimal limit.  A difference is a change of output; mend the
    code, never the file."""
    code, text = invoke(["corpus", str(GOLDEN_CORPUS_PATH)])
    assert code == 2  # the corpus holds invalid lines on purpose
    want = (DATA_DIR / "golden_corpus.jsonl").read_bytes()
    got = text.encode("utf-8")
    if got != want:
        pairs = zip(got.splitlines(), want.splitlines())
        first = next((n for n, (a, b) in enumerate(pairs, start=1) if a != b), None)
        pytest.fail(f"corpus output differs from the golden file (first differing record: {first})")


# ---- corpus workers ----

def _counting_forks(monkeypatch) -> list[int]:
    """Patch os.fork to record the pid of each child it starts."""
    forks, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_worker_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _unforkable():
    raise AssertionError("os.fork called")


@pytest.mark.parametrize("cpus", [1, 2, 3, 8])
def test_corpus_output_is_the_golden_file_at_every_worker_count(cpus, monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    forks = _counting_forks(monkeypatch)
    code, text = invoke(["corpus", str(GOLDEN_CORPUS_PATH)])
    assert code == 2
    assert text.encode("utf-8") == (DATA_DIR / "golden_corpus.jsonl").read_bytes()
    assert len(forks) == cpus - 1  # its 200 lines fill 12 workers
    _no_worker_left()


@pytest.mark.parametrize("count", [1, 2 * cli.MIN_LINES_PER_WORKER - 1])
def test_a_corpus_too_short_for_two_workers_forks_none(count, monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(os, "fork", _unforkable)
    path = tmp_path / "corpus.txt"
    path.write_text("cyclic 1 9 5\n" * count, encoding="utf-8")
    code, text = invoke(["corpus", str(path)])
    assert code == 0
    assert [json.loads(record)["line"] for record in text.splitlines()] == list(range(1, count + 1))


def test_a_corpus_run_beside_another_thread_forks_no_worker(monkeypatch):
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(os, "fork", _unforkable)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, text = invoke(["corpus", str(GOLDEN_CORPUS_PATH)])
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert code == 2
    assert text.encode("utf-8") == (DATA_DIR / "golden_corpus.jsonl").read_bytes()


THREE_CHUNKS = 3 * cli.MIN_LINES_PER_WORKER  # lines enough for k = 3
EVERY_LINE = "".join(f'{{"line": {n}}}\n' for n in range(1, THREE_CHUNKS + 1))


def _corpus_failing_at(monkeypatch, tmp_path, failures: dict[int, Exception]) -> list[str]:
    """Argv of a THREE_CHUNKS-line corpus whose record raises failures[line]
    and is otherwise that line's record in EVERY_LINE.  At k = 2 the parent
    decides the odd lines and its one worker the even ones; at k = 3 the
    parent decides 1, 4, 7, ... and the workers 2, 5, ... and 3, 6, ..."""
    def record(lineno, line, verify, bound):
        if lineno in failures:
            raise failures[lineno]
        return {"line": lineno}

    monkeypatch.setattr(cli, "_corpus_record", record)
    path = tmp_path / "corpus.txt"
    path.write_text("cyclic 1 9 5\n" * THREE_CHUNKS, encoding="utf-8")
    return ["corpus", str(path)]


def _at_each_worker_count(monkeypatch, run) -> list:
    """run() at k = 1, 2 and 3 usable CPUs; each forks k - 1 workers and leaves none."""
    outcomes = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(cli, "_usable_cpus", lambda cpus=cpus: cpus)
        forks = _counting_forks(monkeypatch)
        outcomes.append(run())
        assert len(forks) == cpus - 1
        _no_worker_left()
    return outcomes


@pytest.mark.parametrize("lines", [(7, 4), (3, 10), (12, 16)])
def test_the_lowest_internal_inconsistency_of_all_workers_is_the_one_reported(
        lines, monkeypatch, tmp_path):
    """At k = 2 the lower line lies in the worker, in the parent, or both in
    the worker; k = 1, 2 and 3 give the same exit 3 and error document."""
    argv = _corpus_failing_at(monkeypatch, tmp_path, {
        n: cli.InternalInconsistencyError(f"contradiction on line {n}") for n in lines})
    outcomes = _at_each_worker_count(monkeypatch, lambda: invoke(argv))
    assert outcomes == [outcomes[0]] * 3
    code, text = outcomes[0]
    assert code == 3
    assert json.loads(text) == {"schema_version": cli.SCHEMA_VERSION, "error": {  # and nothing else
        "type": "InternalInconsistencyError", "message": f"contradiction on line {min(lines)}",
        "exit_code": 3}}


def test_an_unexpected_error_in_a_worker_reaches_the_caller(monkeypatch, tmp_path):
    """Line 6 is a worker's at k = 2 and 3; line 9 is the parent's at k = 2,
    and decided after line 6 at k = 3.  Each k raises line 6's own exception."""
    injected = RuntimeError("injected")
    argv = _corpus_failing_at(monkeypatch, tmp_path, {6: injected, 9: ValueError("later")})

    def raised():
        with pytest.raises(Exception) as info:
            cli.main(argv)
        return info.value

    assert all(exc is injected for exc in _at_each_worker_count(monkeypatch, raised))


def test_a_worker_whose_parent_is_gone_decides_no_line(monkeypatch):
    """A decided line would reach the pipe as its record; the worker sends
    one only while the parent it was given is its parent."""
    monkeypatch.setattr(cli, "_corpus_record", lambda lineno, *rest: {"line": lineno})
    args = cli.build_parser().parse_args(["corpus", "unread.txt"])
    # -1 is no process's parent
    for parent, decided in [(-1, []), (os.getpid(), [(1, False, '{"line": 1}')])]:
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            cli._worker([(1, "cyclic 1 9 5")], args, parent, write_fd)
        os.close(write_fd)
        with os.fdopen(read_fd, encoding="utf-8") as pipe:
            assert cli._read_worker(pipe) == decided
        assert os.waitpid(pid, 0)[1] == 0
    _no_worker_left()


def test_a_worker_that_dies_leaves_its_lines_to_the_parent(monkeypatch, tmp_path):
    """A worker exits on line 8, the fourth of its chunk at k = 2; the parent
    decides that line again, so the exit is taken only in a child."""
    argv = _corpus_failing_at(monkeypatch, tmp_path, {})
    parent, record = os.getpid(), cli._corpus_record
    monkeypatch.setattr(cli, "_corpus_record", lambda lineno, *rest: (
        os._exit(1) if lineno == 8 and os.getpid() != parent else record(lineno, *rest)))
    assert _at_each_worker_count(monkeypatch, lambda: invoke(argv)) == [(0, EVERY_LINE)] * 3


def test_a_record_that_a_dying_worker_cut_short_is_decided_again(monkeypatch, tmp_path):
    """Each worker writes its records but the last five bytes, and exits."""
    argv = _corpus_failing_at(monkeypatch, tmp_path, {})

    def cut_short(lines, args, parent, fd):
        text = "".join(f"{n} {int(e)} {t}\n" for n, e, t in cli._decide_lines(lines, args))
        os.write(fd, text[:-5].encode("utf-8"))
        os._exit(1)

    monkeypatch.setattr(cli, "_worker", cut_short)
    assert _at_each_worker_count(monkeypatch, lambda: invoke(argv)) == [(0, EVERY_LINE)] * 3


def _open_fds() -> list[str] | None:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


@pytest.mark.parametrize("cpus, broken, call", [(2, "fork", 1), (3, "fork", 2), (3, "pipe", 2)])
def test_a_worker_that_cannot_be_forked_leaves_its_lines_to_the_parent(
        cpus, broken, call, monkeypatch, tmp_path):
    """os.fork or os.pipe fails with EAGAIN, as under a process limit, on its
    call-th call: the parent decides the chunks left and closes what it opened."""
    path = tmp_path / "corpus.txt"
    path.write_text("cyclic 1 9 5\n" * THREE_CHUNKS, encoding="utf-8")
    argv = ["corpus", str(path)]
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
    want = invoke(argv)
    assert want[0] == 0 and len(want[1].splitlines()) == THREE_CHUNKS

    calls, real = [], getattr(os, broken)

    def failing():
        calls.append(broken)
        if len(calls) == call:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real()

    monkeypatch.setattr(os, broken, failing)
    monkeypatch.setattr(cli, "_usable_cpus", lambda: cpus)
    fds = _open_fds()
    assert invoke(argv) == want
    assert len(calls) == call
    assert _open_fds() == fds
    _no_worker_left()


GOLDEN_DIR = DATA_DIR / "golden_commands"


def golden_manifest() -> dict[str, list[str]]:
    """Golden file -> argv, from golden_commands/manifest.txt, whose lines read
    `FILE SECONDS ARGV...` (`#` starts a comment line).  CI runs each line
    under `timeout SECONDS`; in process the budget is not enforced."""
    manifest = {}
    for line in (GOLDEN_DIR / "manifest.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, budget, *argv = line.split()
            assert name not in manifest and int(budget) > 0 and argv, line
            manifest[name] = argv
    return manifest


GOLDEN = golden_manifest()


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.endswith(".json")))
def test_command_output_matches_its_golden_file_byte_for_byte(name, monkeypatch):
    """A difference is a change of output; mend the code, never the file."""
    monkeypatch.chdir(REPO_ROOT)
    code, text = invoke(GOLDEN[name])
    assert code == 0
    assert text.encode("utf-8") == (GOLDEN_DIR / name).read_bytes()


@pytest.mark.parametrize("name", sorted(n for n in GOLDEN if n.endswith(".sha256")))
def test_command_output_matches_its_pinned_digest(name, monkeypatch):
    """A difference is a change of output; mend the code, never the file."""
    monkeypatch.chdir(REPO_ROOT)
    code, text = invoke(GOLDEN[name])
    assert code == 0
    want = (GOLDEN_DIR / name).read_text(encoding="utf-8").split()[0]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == want


def test_golden_files_are_exactly_the_manifest():
    """Every file under golden_commands is the manifest or a line of it, and
    every line names a file there with a known kind."""
    files = {path.name for path in GOLDEN_DIR.iterdir()} - {"manifest.txt"}
    assert files == set(GOLDEN)
    assert all(name.endswith((".json", ".sha256")) for name in GOLDEN)
