"""Tests of the benchmark's own logic.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hopfq import cli  # noqa: E402


# ---- spans ----

def test_self_time_subtracts_direct_children_only():
    recorded = [
        spans.Span("root", None, 0, 100),
        spans.Span("child", 0, 10, 40),
        spans.Span("grandchild", 1, 15, 25),
        spans.Span("child", 0, 50, 70),
    ]
    assert spans.self_times(recorded) == [50, 20, 10, 20]
    t = spans.totals(recorded)
    assert (t["child"].calls, t["child"].self_ns, t["child"].total_ns) == (2, 40, 50)


def test_recorder_nests_spans_and_marks_failures():
    rec = spans.Recorder()

    def boom():
        raise ValueError("too many digits")

    inner = rec.wrap("inner", lambda: 1)
    failing = rec.wrap("failing", boom)

    def body():
        inner()
        with pytest.raises(ValueError):
            failing()
        return 2

    assert rec.wrap("outer", body)() == 2
    assert [(s.name, s.parent, s.failed) for s in rec.spans] == [
        ("outer", None, False), ("inner", 0, False), ("failing", 0, True)]
    own = spans.self_times(rec.spans)
    assert own[0] == rec.spans[0].end - rec.spans[0].start - sum(
        s.end - s.start for s in rec.spans[1:])


def test_installed_rebinds_every_namespace_and_restores():
    import hopfq.fields
    import hopfq.freeness
    import hopfq.hopf
    import hopfq.linalg

    originals = (hopfq.linalg.det, hopfq.hopf.det, hopfq.freeness.det, cli.json)
    rec = spans.Recorder()
    with rec.installed():
        assert hopfq.hopf.det is hopfq.freeness.det is hopfq.linalg.det
        assert hopfq.linalg.det is not originals[0]
        hopfq.freeness.summary(hopfq.fields.validate_cyclic(1, 9, 5))
    assert (hopfq.linalg.det, hopfq.hopf.det, hopfq.freeness.det, cli.json) == originals
    names = [s.name for s in rec.spans]
    assert names[:2] == ["fields.validate", "freeness.summary"]
    assert [s.parent for s in rec.spans[:2]] == [None, None]
    assert "pell.find_with_divisibility" in names
    assert rec.spans[names.index("freeness.decide")].parent == 1
    metrics = spans.layer_metrics(rec.spans, fields=1, structures=1, passes=1)
    assert metrics["hopf.reductions_per_structure"] == (2.0, "ratio")
    assert metrics["hopf.test_generator.accept_ratio"][0] > 0


# ---- tail percentile ----

@pytest.mark.parametrize("n, expected", [(1, 100.0), (10, 100.0), (20, 50.0), (40, 75.0),
                                         (100, 90.0), (1000, 99.0)])
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert run.tail_percentile(n) == pytest.approx(expected)


def test_tail_value_has_exactly_ten_samples_above():
    samples = [float(v) for v in range(100, 0, -1)]
    value, pct = run.tail_value(samples)
    assert (value, pct) == (90.0, 90.0)
    assert sum(1 for v in samples if v > value) == 10
    assert run.tail_value([3.0, 1.0, 2.0]) == (3.0, 100.0)


# ---- failure classification ----

def _invoke(argv):
    return run.run_call(cli.main, argv)


@pytest.fixture()
def corpus(tmp_path):
    lines = ["cyclic 1 9 5", "cyclic 1 2 2", "biquadratic -3 -7"]
    path = tmp_path / "fields.txt"
    path.write_text("\n".join(lines) + "\n")
    expected = {gate.key(line, False): gate.expected_entry(line) for line in lines}
    return lines, path, expected


def test_validation_error_record_is_correct_output(corpus):
    lines, path, expected = corpus
    assert expected["cyclic 1 2 2"] == "error:NotSquarefreeError"
    r = _invoke(["corpus", str(path)])
    assert r.code == 2 and r.error is None
    check = gate.check_call(lines, False, ["corpus", str(path)], r.code, r.error, r.text, expected)
    assert (check.attempted, check.failed, check.wrong) == (3, 0, [])


def test_missing_and_wrong_records_fail(corpus):
    lines, path, expected = corpus
    r = _invoke(["corpus", str(path)])
    kept = [row for row in r.text.splitlines() if json.loads(row)["line"] != 1]
    check = gate.check_call(lines, False, ["corpus", str(path)], 0, None, "\n".join(kept), expected)
    assert (check.failed, check.wrong) == (1, [])
    tampered = dict(expected, **{"biquadratic -3 -7": "0" * 16})
    check = gate.check_call(lines, False, ["corpus", str(path)], r.code, None, r.text, tampered)
    assert check.failed == 1 and [w[0] for w in check.wrong] == ["biquadratic -3 -7"]


def test_uncaught_value_error_and_exit_3_fail():
    def crash(argv):
        print('{"partial": ')
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    r = run.run_call(crash, ["cyclic", "-a", "1", "-b", "9", "-c", "5"])
    assert r.error == "ValueError" and r.code is None
    expected = {"cyclic 1 9 5": gate.expected_entry("cyclic 1 9 5")}
    check = gate.check_call(["cyclic 1 9 5"], False, ["cyclic"], r.code, r.error, r.text, expected)
    assert (check.failed, check.wrong) == (1, [])
    ok = _invoke(["cyclic", "-a", "1", "-b", "9", "-c", "5"])
    check = gate.check_call(["cyclic 1 9 5"], False, ["cyclic"], 3, None, ok.text, expected)
    assert check.failed == 1
    check = gate.check_call(["cyclic 1 9 5"], False, ["cyclic"], ok.code, None, ok.text, expected)
    assert (check.failed, check.wrong) == (0, [])


def test_digest_is_lossless_beyond_the_decimal_limit():
    big = 10 ** 5000
    a = gate.digest([["free", "pell_criterion", 2, (big, 1), (1, 1, big, 0)]])
    b = gate.digest([["free", "pell_criterion", 2, (big + 1, 1), (1, 1, big, 0)]])
    assert a != b


# ---- workload generator ----

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_same_inputs(name, tmp_path):
    def snapshot(seed, sub):
        calls = workloads.generate(name, seed, tmp_path / sub)
        files = sorted((p.name, p.read_text()) for p in (tmp_path / sub).iterdir())
        return [(c.argv[0], c.argv[2:] if c.argv[0] == "corpus" else c.argv, c.lines, c.oracle)
                for c in calls], files

    assert snapshot(7, "a") == snapshot(7, "b")
    assert snapshot(7, "a")[0] != snapshot(8, "c")[0]


def test_expected_table_covers_generated_inputs(tmp_path):
    table = gate.load_expected()
    for name in workloads.WORKLOADS:
        for seed in range(3):
            for call in workloads.generate(name, seed, tmp_path):
                for line in call.lines:
                    assert gate.key(line, call.oracle) in table


def test_expected_table_matches_library_on_a_sample():
    table = gate.load_expected()
    sample = ["cyclic 1 9 5", "cyclic -7 24 5", "biquadratic -7 -3", "biquadratic 4 5",
              "cyclic 3 2 3 --verify-oracle", "biquadratic -1 6 --verify-oracle"]
    for k in sample:
        assert table[k] == gate.expected_entry(k), k
