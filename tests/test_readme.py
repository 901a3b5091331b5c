"""The README's library and command-line examples run and show what it says."""

from __future__ import annotations

import io
import re
import shlex
from contextlib import redirect_stdout
from pathlib import Path

from hopfq import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
GRAM_PATH = Path(__file__).parent / "data" / "power_basis_gram.txt"


def code_block(heading: str, language: str) -> str:
    """The first fenced block in that language below the README heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_example_gives_the_stated_values():
    namespace: dict = {}
    out = io.StringIO()
    with redirect_stdout(out):
        exec(code_block("Library use", "python"), namespace)
    report = namespace["report"]
    assert report.decision == "free"
    assert report.generator == (1, 1, -17, 10)
    assert report.witness == (-103, 10) and report.witness_target == 9
    assert report.index == 16 and type(report.index) is int
    assert out.getvalue().splitlines() == [
        "sqrt(-3) free", "sqrt(-7) free", "sqrt(21) not_free"]


def test_every_command_line_example_exits_0(tmp_path):
    fields = tmp_path / "fields.txt"
    fields.write_text("cyclic 1 9 5\nbiquadratic -3 -7\n", encoding="utf-8")
    files = {"g.txt": str(GRAM_PATH), "fields.txt": str(fields)}
    examples = [shlex.split(line, comments=True)
                for line in code_block("Command line", "sh").splitlines()]
    assert [argv[:2] for argv in examples] == [
        ["hopfq", "cyclic"], ["hopfq", "biquadratic"], ["hopfq", "pell"],
        ["hopfq", "form-cycle"], ["hopfq", "gram-file"], ["hopfq", "corpus"]]
    for argv in examples:
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.main([files.get(arg, arg) for arg in argv[1:]])
        assert code == 0, argv
        assert out.getvalue().strip(), argv
