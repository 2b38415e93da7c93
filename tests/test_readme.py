"""README's examples run as written: its Python snippet and each `qfridge` line."""

import re
import shlex
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from qfridge import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"```(\w+)\n(.*?)```", README, flags=re.S)
SNIPPETS = [body for lang, body in BLOCKS if lang == "python"]
COMMANDS = [
    line
    for lang, body in BLOCKS
    if lang == "sh"
    for line in body.splitlines()
    if line.startswith("qfridge ")
]


def test_readme_has_examples():
    assert len(SNIPPETS) == 1
    assert len(COMMANDS) == 6


@pytest.mark.parametrize("snippet", SNIPPETS)
def test_python_snippet_runs(snippet):
    out = StringIO()
    with redirect_stdout(out):
        exec(compile(snippet, "README.md", "exec"), {})
    assert out.getvalue()


@pytest.mark.parametrize("line", COMMANDS)
def test_cli_line_exits_cleanly(line, tmp_path, capsys):
    argv = shlex.split(line)[1:]
    if "-o" in argv:  # write the output file into the test's own directory
        at = argv.index("-o") + 1
        argv[at] = str(tmp_path / argv[at])
    assert cli.main(argv) == 0
    assert capsys.readouterr().out or any(tmp_path.iterdir())
